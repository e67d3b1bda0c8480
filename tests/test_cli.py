"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import contextlib
import importlib
import io
import json
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pidnet import netmodel, transverse
from pidnet.cli import BENCHMARK_ALPHA_REFERENCE, main
from pidnet.config import MAX_NODES, parse_config
from pidnet.spectral import modified_laplacian
from conftest import load_pidbench

ROOT = Path(__file__).resolve().parent.parent
BENCH_CONFIG = ROOT / "src" / "pidnet" / "microgrid6.yaml"

HOMOGENEOUS = """
graph:
  nodes: 4
  edges:
    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 1.0}
    - {i: 2, j: 3, w: 1.0}
    - {i: 3, j: 0, w: 1.0}
ensemble:
  rho: [-2.0, -2.0, -2.0, -2.0]
  delta: [1.0, 2.0, 3.0, 4.0]
gains:
  alpha: 2.0
  beta: 1.0
  gamma: 0.5
sim:
  t_end: 60.0
  record_stride: 5
"""

# the Configuration example of README.md
README_CONFIG = """
graph:
  nodes: 4
  edges:
    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 1.0}
    - {i: 2, j: 3, w: 1.0}
ensemble:
  rho:   [-2.0, -2.0, -2.0, -2.0]
  delta: [1.0, 2.0, 3.0, 4.0]
gains:
  alpha: 2.0
  beta: 1.0
  gamma: 0.5
sim:
  t_end: 30.0
  dt: 0.001
  record_stride: 10
  x0: [1.0, 2.0, 3.0, 4.0]
"""

UNSTABLE_AVERAGE = HOMOGENEOUS.replace(
    "[-2.0, -2.0, -2.0, -2.0]", "[1.0, 1.0, 1.0, 1.0]"
)


@pytest.fixture
def hom_config(tmp_path):
    p = tmp_path / "hom.yaml"
    p.write_text(HOMOGENEOUS)
    return str(p)


def run_json(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls of the numpy.linalg solvers by name, Psi computations
    (PsiBlocks constructions, key "psi") and closed-loop assemblies.

    "svd" also counts the one inside np.linalg.norm(x, 2), which looks svd
    up in the globals of its implementation module.
    """
    names = ("eigh", "eigvalsh", "eigvals", "solve", "svd", "cholesky", "inv")
    targets = [(name, np.linalg, name) for name in names]
    targets.append(("svd", np.linalg.norm.__wrapped__.__globals__, "svd"))
    targets.append(("psi", transverse, "PsiBlocks"))
    # every module that binds netmodel.assemble by name
    targets += [("assemble", module, "assemble") for name, module in list(sys.modules.items())
                if name.split(".")[0] == "pidnet"
                and getattr(module, "assemble", None) is netmodel.assemble]
    counts = dict.fromkeys([key for key, _, _ in targets], 0)
    for key, owner, attr in targets:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        def counted(*args, _key=key, _fn=original, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        if isinstance(owner, dict):
            monkeypatch.setitem(owner, attr, counted)
        else:
            monkeypatch.setattr(owner, attr, counted)
    return counts


def test_analyze_benchmark(capsys):
    code, report = run_json(capsys, ["analyze", "--config", str(BENCH_CONFIG), "--json"])
    assert code == 0
    ana = report["analysis"]
    assert ana["lambda_2"] == pytest.approx(5.0, abs=1e-9)
    assert ana["psi11"] == -2.0
    assert ana["rho_bar_sq"] == 32.0
    assert ana["h_norm_exact"] <= ana["h_norm_bound"] + 1e-12
    cert = report["certificate"]
    assert cert["regime"] == "HeterogeneousPID"
    assert cert["certified"] is True
    assert cert["distributed_alpha"] == 6.0
    assert cert["effective_alpha"] == 7.0
    assert report["equilibrium"]["x_inf"] == pytest.approx(50.0, abs=1e-9)
    assert report["transverse"]["hurwitz"] is True


def test_analyze_homogeneous_auto_pass(capsys, hom_config):
    code, report = run_json(capsys, ["analyze", "--config", hom_config, "--json"])
    assert code == 0
    assert report["certificate"]["regime"] == "HomogeneousPID"
    assert report["certificate"]["certified"] is True
    assert report["certificate"]["mu"] > 0


def test_analyze_unstable_average_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(UNSTABLE_AVERAGE)
    code = main(["analyze", "--config", str(p), "--json"])
    capsys.readouterr()
    assert code == 2


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.yaml"
    p.write_text(HOMOGENEOUS.replace("alpha: 2.0", "alpha: -2.0"))
    assert main(["analyze", "--config", str(p)]) == 3
    assert main(["analyze", "--config", str(tmp_path / "nope.yaml")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("analyze", "alpha: 2.0", "alpha: .nan"),
        ("analyze", "alpha: 2.0", "alpha: .inf"),
        ("analyze", "{i: 0, j: 1, w: 1.0}", "{i: 0, j: 1, w: .nan}"),
        ("analyze", "delta: [1.0,", "delta: [.nan,"),
        ("tune", "rho: [-2.0,", "rho: [.nan,"),
        ("simulate", "t_end: 60.0", "t_end: .inf"),
    ],
    ids=["alpha-nan", "alpha-inf", "weight-nan", "delta-nan", "rho-nan", "t_end-inf"],
)
def test_non_finite_config_exit_code(tmp_path, capsys, command, old, new):
    p = tmp_path / "nonfinite.yaml"
    p.write_text(HOMOGENEOUS.replace(old, new))
    argv = [command, "--config", str(p), "--json"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
def test_tune_rejects_bad_gamma(capsys, hom_config, gamma):
    assert main(["tune", "--config", hom_config, f"--gamma={gamma}"]) == 3
    assert "finite number" in capsys.readouterr().err


ONE_NODE = "graph: {nodes: 1, edges: []}\nensemble: {rho: [-1.0], delta: [1.0]}\ngains: {alpha: 1.0}\n"
HUGE_ALPHA = HOMOGENEOUS.replace("alpha: 2.0", "alpha: 1.0e+300")
# b*b and beta*lambda both overflow, so the convergence rate is unknown (NaN)
HUGE_ALPHA_BETA = HUGE_ALPHA.replace("beta: 1.0", "beta: 1.0e+308")
HUGE_GAMMA = HOMOGENEOUS.replace("gamma: 0.5", "gamma: 1.0e+300")
SINGULAR = "I + gamma*L is singular to working precision at gamma = 1e+300"
# alpha * lambda_N = 4e310 overflows: assemble names alpha, and the rate's
# b = alpha*(lam/denom) + rho*/denom stays finite
HEAVY_ALPHA = HUGE_ALPHA.replace("w: 1.0}", "w: 1.0e+10}").replace("gamma: 0.5", "gamma: 1.0")
# the automatic dt = 1/(20 * spectral radius) underflows to 0
DT_UNDERFLOW = HUGE_ALPHA.replace("gamma: 0.5", "gamma: 0.0").replace(
    "{i: 0, j: 1, w: 1.0}", "{i: 0, j: 1, w: 1.0e+7}"
)


@pytest.mark.parametrize(
    "argv, config, code, message",
    [
        (["analyze", "--json"], ONE_NODE, 3, "at least 2"),
        (["tune", "--json"], ONE_NODE, 3, "at least 2"),
        (["simulate", "--json"], ONE_NODE, 3, "at least 2"),
        (["analyze", "--json"], HUGE_GAMMA, 4, SINGULAR),
        (["tune", "--json"], HUGE_GAMMA, 4, SINGULAR),
        (["analyze", "--json"], HUGE_ALPHA_BETA, 4, "non-finite"),
        (["analyze"], HUGE_ALPHA_BETA, 4, "non-finite"),
        (["simulate", "--json"], DT_UNDERFLOW, 4, "positive finite"),
        (["simulate", "--json"], HEAVY_ALPHA, 4, "closed-loop assembly: gains.alpha * L"),
        (["analyze", "--json"], HEAVY_ALPHA, 0, '"mu": 1e-300'),
        (["analyze", "--json"], HEAVY_ALPHA.replace("gamma: 1.0", "gamma: 0.0"), 4,
         "transverse system: gains.alpha * Gamma_hat"),
    ],
    ids=[
        "one-node-analyze", "one-node-tune", "one-node-simulate", "huge-gamma-analyze",
        "huge-gamma-tune", "huge-alpha-beta-json", "huge-alpha-beta-tree", "dt-underflow",
        "heavy-alpha-simulate", "heavy-alpha-analyze", "heavy-alpha-no-derivative-analyze",
    ],
)
def test_exit_code_holes(tmp_path, capsys, argv, config, code, message):
    p = tmp_path / "hole.yaml"
    p.write_text(config)
    out = tmp_path / "out"
    argv = argv + ["--config", str(p)] + (["--out", str(out)] if argv[0] == "simulate" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    # a CLI run would print these to stderr
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    # a failure is one stderr message; a success prints its report alone
    shown, quiet = (captured.err, captured.out) if code else (captured.out, captured.err)
    assert message in shown
    assert quiet == ""
    assert not out.exists()


FUZZ_SPECIAL = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1e150, 5e-324, 1e8, -1e8)


@st.composite
def fuzz_configs(draw):
    """Config documents with extreme and ordinary numbers, N = 1 to 5."""
    num = st.one_of(st.sampled_from(FUZZ_SPECIAL), st.floats(-5.0, 5.0))
    n = draw(st.integers(1, 5))
    # a path keeps the graph connected; chords are drawn on top of it
    pairs = [(k, k + 1) for k in range(n - 1)]
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True))
    edges = [{"i": i, "j": j, "w": abs(draw(num))} for i, j in pairs]
    rho = [draw(num)] * n if draw(st.booleans()) else [draw(num) for _ in range(n)]
    delta = [draw(num) for _ in range(n)]
    agents = (
        {"ensemble": {"rho": rho, "delta": delta}}
        if draw(st.booleans())
        else {"microgrid": {"k": rho, "p_star": delta}}
    )
    # a huge stride keeps the automatic dt of a stiff loop to a few samples
    sim = {"t_end": draw(st.floats(0.01, 3.0)), "record_stride": 10**18}
    if draw(st.booleans()):  # at most 50 steps
        sim["dt"] = sim["t_end"] / draw(st.integers(1, 50))
        sim["record_stride"] = draw(st.sampled_from([1, 7, 10**18]))
    gains = {key: abs(draw(num)) for key in ("alpha", "beta", "gamma")}
    doc = {"graph": {"nodes": n, "edges": edges}, **agents, "gains": gains, "sim": sim}
    return yaml.safe_dump(doc)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=60, deadline=None)
@given(fuzz_configs())
def test_fuzzed_configs_keep_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.yaml"
        path.write_text(text)
        runs = (
            ["analyze", "--json"],
            ["analyze"],
            ["tune", "--json"],
            ["simulate", "--json", "--out", str(Path(tmp) / "out")],
        )
        for argv in runs:
            stdout = io.StringIO()
            with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(io.StringIO())):
                warnings.simplefilter("ignore")  # overflow on the way to exit 4
                code = main(argv + ["--config", str(path)])
            assert code in (0, 2, 3, 4), (argv, text)
            if code != 0:
                continue
            if "--json" in argv:
                json.loads(stdout.getvalue(), parse_constant=_reject_constant)
            else:
                values = {line.rsplit(" ", 1)[-1] for line in stdout.getvalue().splitlines()}
                assert not values & {"inf", "-inf", "nan"}, (argv, text)


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["analyze"]], ids=["json", "tree"])
def test_huge_alpha_reports_finite_rate(tmp_path, capsys, argv):
    # b = (alpha*lam + rho*)/(gamma*lam + 1) squares past float range in every
    # mode; the dominant root is about -beta/alpha = -1e-300
    p = tmp_path / "huge.yaml"
    p.write_text(HUGE_ALPHA)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--config", str(p)]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    if "--json" in argv:
        report = json.loads(captured.out, parse_constant=_reject_constant)
        assert report["certificate"]["mu"] == pytest.approx(1e-300, rel=1e-12)
    else:
        values = {line.rsplit(" ", 1)[-1] for line in captured.out.splitlines()}
        assert not values & {"inf", "-inf", "nan"}


@pytest.mark.parametrize("config", ["bench", "homogeneous"])
@pytest.mark.parametrize("command", ["analyze", "tune"])
def test_one_eigensolve_per_command(capsys, hom_config, linalg_calls, config, command):
    path = str(BENCH_CONFIG) if config == "bench" else hom_config
    assert main([command, "--config", path, "--json"]) == 0
    capsys.readouterr()
    # analyze: the sub-block's energy certificate (one symmetric solve) in
    # place of its dense spectrum, and the full spectrum of a hyperbolic Q
    # (both configs are) from the certifying Cholesky, the factor of -Q(mu),
    # its inverse and one symmetric eigvalsh of the pencil, with no eigvals
    analyze = command == "analyze"
    # ||H_hat|| in every report, and ||I + H_hat|| where the heterogeneous
    # condition or the exact gain threshold needs it: one Gram eigvalsh each
    norms = 1 if analyze and config == "homogeneous" else 2
    assert linalg_calls == {"eigh": 1, "eigvalsh": 2 * analyze + norms, "eigvals": 0,
                            "cholesky": 2 * analyze, "inv": 1 * analyze, "solve": 1,
                            "svd": 0, "psi": 1, "assemble": 0}


def test_huge_alpha_sub_block_from_energy_certificate(tmp_path, capsys, linalg_calls):
    # the transverse eigenvalues near -beta/alpha = -1e-300 lie far below the
    # rounding of a dense eigensolve of entries near 1e300: the energy
    # certificate proves the sub-block Hurwitz, and the hyperbolic one the
    # full system, whose slow roots the pencil resolves
    p = tmp_path / "huge.yaml"
    p.write_text(README_CONFIG.replace("alpha: 2.0", "alpha: 1.0e+300"))
    code, report = run_json(capsys, ["analyze", "--config", str(p), "--json"])
    assert code == 0
    assert report["certificate"]["certified"] is True
    tv = report["transverse"]
    assert tv["hurwitz_sub_block"] is True
    # alpha * lambda_2 of the 4-node path, plus rho* = 2 below rounding
    assert tv["energy_margin"] == pytest.approx(1e300 * (2.0 - np.sqrt(2.0)), rel=1e-12)
    assert linalg_calls["eigvals"] == 0  # neither certificate needs a dense spectrum
    assert tv["spectrum"] == "hyperbolic"
    assert tv["hurwitz"] is (tv["max_real_part"] < 0)
    assert abs(tv["max_real_part"]) <= 1e-12 * 4e300  # zero to working precision
    assert tv["hurwitz"] is True
    # every slow root is -beta*lambda/(alpha*lambda + rho*) = -1e-300 to working precision
    assert tv["max_real_part"] == pytest.approx(-1e-300, rel=1e-12)


def test_heavy_alpha_sub_block_from_energy_certificate_over_alpha(tmp_path, capsys):
    # alpha * lambda_N = 4e310 overflows: C2/alpha decides, and its margin
    # alpha * lambda_min(C2/alpha) = 2e310 is not reported
    p = tmp_path / "heavy.yaml"
    p.write_text(HEAVY_ALPHA)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--config", str(p), "--json"])
    assert code == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == ""
    tv = json.loads(captured.out)["transverse"]
    assert tv["hurwitz_sub_block"] is True
    assert tv["energy_margin"] is None
    assert tv["hurwitz"] is True and tv["max_real_part"] < 0


def test_tune_gamma_reports_analysis_at_that_gamma(capsys, linalg_calls):
    # bundled microgrid (gamma 1, lambda_2 = 5, N = 6): the bound is 6/(0.3*5 + 1)
    code, report = run_json(capsys, ["tune", "--config", str(BENCH_CONFIG), "--gamma", "0.3",
                                     "--json"])
    assert code == 0
    assert linalg_calls["solve"] == 1  # I + 0.3 L only: the config's gamma is never solved
    ana = report["analysis"]
    assert ana["h_norm_bound"] == pytest.approx(2.4, rel=1e-12)
    dec = parse_config(BENCH_CONFIG.read_text()).instance.dec
    assert ana["h_norm_exact"] == pytest.approx(modified_laplacian(dec, 0.3).h_norm, rel=1e-12)
    code, plain = run_json(capsys, ["tune", "--config", str(BENCH_CONFIG), "--json"])
    assert plain["analysis"]["h_norm_bound"] == pytest.approx(1.0, rel=1e-12)


def ring_config(n: int) -> str:
    edges = "\n".join(f"    - {{i: {k}, j: {(k + 1) % n}, w: 1.0}}" for k in range(n))
    ones = ", ".join(["-1.0"] * n)
    return (f"graph:\n  nodes: {n}\n  edges:\n{edges}\n"
            f"ensemble: {{rho: [{ones}], delta: [{ones}]}}\ngains: {{alpha: 1.0}}\n")


@pytest.mark.parametrize("command", ["analyze", "tune", "simulate"])
def test_node_budget_exit_code(tmp_path, capsys, linalg_calls, command):
    p = tmp_path / "ring.yaml"
    p.write_text(ring_config(MAX_NODES + 1))
    out = tmp_path / "out"
    argv = [command, "--config", str(p)] + (["--out", str(out)] if command == "simulate" else [])
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "graph.nodes" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert sum(linalg_calls.values()) == 0
    # the cap itself is accepted; parsing builds no matrix
    assert parse_config(ring_config(MAX_NODES)).graph.node_count == MAX_NODES


def test_simulate_writes_outputs(tmp_path, capsys, hom_config):
    out = tmp_path / "out"
    code, report = run_json(
        capsys, ["simulate", "--config", hom_config, "--out", str(out), "--json"]
    )
    assert code == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["simulation"]["final_disagreement"] < 1e-6
    assert summary["simulation"]["x_inf"] == pytest.approx(1.25)
    for cmp_ in summary["bound_comparisons"]:
        assert cmp_["holds"] is True
    assert report["certificate"]["certified"] is True


def test_simulate_idempotent_csv(tmp_path, capsys, hom_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", hom_config, "--out", str(out1), "--json"])
    main(["simulate", "--config", hom_config, "--out", str(out2), "--json"])
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


@pytest.mark.parametrize(
    "sim",
    ["", "sim: {t_end: 1.0e+300, dt: 1.0e-300}\n"],
    ids=["auto-dt-stride-1", "overflowing-step-count"],
)
def test_simulate_sample_budget_exit_code(tmp_path, capsys, sim):
    # stiff N = 50 benchmark instance (alpha in the thousands): at the
    # automatic dt and stride 1 its default 30-s horizon records ~1.4e8 values
    inst = load_pidbench("inputs").random_instance(np.random.default_rng(1), 50)
    p = tmp_path / "n50.yaml"
    p.write_text(inst.to_yaml() + sim)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out), "--json"]) == 4
    assert "sim.record_stride" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stride", [10**9, 10**400], ids=["one-stride", "stride-beyond-float"])
def test_simulate_long_stride_costs_no_steps(tmp_path, capsys, stride):
    # 1e9 RK4 steps recorded once: the propagator takes M^stride by squaring
    p = tmp_path / "long.yaml"
    p.write_text(HOMOGENEOUS.replace(
        "  t_end: 60.0\n  record_stride: 5\n",
        f"  t_end: 1000000.0\n  dt: 0.001\n  record_stride: {stride}\n",
    ))
    out = tmp_path / "out"
    code, report = run_json(capsys, ["simulate", "--config", str(p), "--out", str(out), "--json"])
    assert code == 0
    assert report["simulation"]["samples"] == 2
    assert len((out / "trace.csv").read_text().splitlines()) == 3
    assert report["simulation"]["final_offset"] < 1e-6


def test_benchmark_step_count_from_trace(hom_config):
    # the benchmark's sim.integrate.steps counter reads the step count back
    # from the sample times; auto dt and a stride leaving a remainder
    from pidnet.config import load_config
    from pidnet.sim import SimConfig, integrate

    sys_ = load_config(hom_config).system
    dt = 1.0 / (20.0 * np.max(np.abs(np.linalg.eigvals(sys_.A))))
    cfg = SimConfig(t_end=7.0, record_stride=10)
    steps = int(np.ceil(cfg.t_end / dt))
    assert steps % 10 != 0
    trace = integrate(sys_, cfg)
    assert load_pidbench("traced").integrate_steps(cfg, trace) == steps


def test_benchmark_trace_hooks_resolve():
    # the benchmark tracer wraps these by name; a rename must show up here
    for module, attr in load_pidbench("traced").TRACED:
        obj = importlib.import_module(f"pidnet.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_tune_benchmark(capsys):
    code, report = run_json(
        capsys, ["tune", "--config", str(BENCH_CONFIG), "--gamma", "1.0", "--json"]
    )
    assert code == 0
    assert report["reference_alpha_threshold"] == BENCHMARK_ALPHA_REFERENCE
    assert report["alpha_min_exact"] <= report["alpha_min_conservative"]
    assert report["alpha_min_exact"] < 6.0
    assert report["suggested_gains"]["alpha"] == pytest.approx(1.01 * report["alpha_min_exact"])


def test_tune_homogeneous_closed_form(capsys, hom_config):
    code, report = run_json(capsys, ["tune", "--config", hom_config, "--json"])
    assert code == 0
    # rho_bar = 0: alpha_min = max|rho| (gamma lam2 + 1) / (N lam2); ring-4 lam2 = 2
    assert report["alpha_min_exact"] == pytest.approx(2.0 * (0.5 * 2 + 1) / (4 * 2), rel=1e-9)


def test_reproduce_outputs(tmp_path, capsys, linalg_calls):
    out = tmp_path / "repro"
    code, report = run_json(capsys, ["reproduce", "--out", str(out), "--json"])
    assert code == 0
    # one decomposition of the bundled graph serves all four scenarios, and
    # one Psi each gamma in use (0 and 1)
    assert linalg_calls["eigh"] == 1
    assert linalg_calls["psi"] == 2
    for name in ("proportional_a10", "proportional_a30", "pid", "pi"):
        assert (out / f"{name}.csv").exists()
    report_file = json.loads((out / "report.json").read_text())
    assert report_file == report
    scen = report["scenarios"]
    assert scen["pid"]["x_inf"] == pytest.approx(50.0)
    assert np.allclose(scen["pid"]["final_state"], 50.0, atol=1e-4)
    assert np.allclose(scen["pi"]["final_state"], 50.0, atol=1e-4)
    comp = report["comparison"]
    assert comp["pid_vs_pi_steady_z"]["pid_smaller"] is True
    assert comp["proportional_residual"]["decreases_with_alpha"] is True
    assert comp["proportional_residual"]["alpha_30"] > 0
    assert comp["alpha_threshold"]["exact"] <= comp["alpha_threshold"]["conservative"]
    assert comp["alpha_threshold"]["reference"] == BENCHMARK_ALPHA_REFERENCE


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pidnet" in capsys.readouterr().out
