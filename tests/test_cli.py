"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pidnet import cli, errors, netmodel, spectral, transverse
from pidnet.cli import BENCHMARK_ALPHA_REFERENCE, main
from pidnet.config import MAX_NODES, parse_config
from pidnet.spectral import modified_laplacian
from conftest import BENCH_CONFIG, load_pidbench

ROOT = Path(__file__).resolve().parent.parent

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


class LinalgCalls(dict):
    """Call counts by name; ``largest`` is the largest dimension of a matrix
    passed to any counted call."""

    largest = 0


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
    counts = LinalgCalls.fromkeys([key for key, _, _ in targets], 0)
    for key, owner, attr in targets:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        def counted(*args, _key=key, _fn=original, **kwargs):
            counts[_key] += 1
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, np.ndarray) and arg.ndim >= 2:
                    counts.largest = max(counts.largest, *arg.shape)
            return _fn(*args, **kwargs)

        if isinstance(owner, dict):
            monkeypatch.setitem(owner, attr, counted)
        else:
            monkeypatch.setattr(owner, attr, counted)
    return counts


@pytest.fixture
def built(monkeypatch):
    """Every SpectralDecomposition and ModifiedLaplacian a command builds."""
    made = []
    for cls in (spectral.SpectralDecomposition, spectral.ModifiedLaplacian):
        def record(*args, _cls=cls, **kwargs):
            made.append(_cls(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(spectral, cls.__name__, record)
    return made


# dense N x N accessors built on first use; analyze and tune read none of them
DENSE = {"laplacian", "U", "U_inv", "L_tilde", "L_tilde_inv", "H_hat"}


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
# gamma * L overflows: lambda_N of the 4-node path is 2 + sqrt(2)
OVERFLOWING_GAMMA = README_CONFIG.replace("gamma: 0.5", "gamma: 1.0e+308")
GAMMA_RANGE = "gains.gamma * L leaves the float range (gains.gamma = 1e+308)"
# alpha * lambda_N = 4e310 overflows: assemble names alpha, and the rate's
# b = alpha*(lam/denom) + rho*/denom stays finite
HEAVY_ALPHA = HUGE_ALPHA.replace("w: 1.0}", "w: 1.0e+10}").replace("gamma: 0.5", "gamma: 1.0")
# the automatic dt = 1/(20 * spectral radius) underflows to 0
DT_UNDERFLOW = HUGE_ALPHA.replace("gamma: 0.5", "gamma: 0.0").replace(
    "{i: 0, j: 1, w: 1.0}", "{i: 0, j: 1, w: 1.0e+7}"
)
# ||delta||^2 = 3e600 overflows, though ||delta|| and the z bound built on it do not
HUGE_DELTA = """
graph:
  nodes: 3
  edges:
    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 1.0}
ensemble:
  rho: [-1.0, -1.0, -1.0]
  delta: [1.0e+300, 1.0e+300, -1.0e+300]
gains: {alpha: 1.0, beta: 1.0, gamma: 0.0}
"""
# sqrt(N(N-1)) ||H_hat|| (1 + ||rho_bar||/(N |psi11|)) ||delta|| leaves the float range
Z_BOUND_OVERFLOW = """
graph: {nodes: 2, edges: [{i: 0, j: 1, w: 1.0}]}
ensemble: {rho: [1.0, -2.0], delta: [1.0e+308, -0.5e+308]}
gains: {alpha: 1.0, beta: 1.0, gamma: 1.0}
"""
Z_BOUND_RANGE = "z_inf_bound leaves the float range (||ensemble.delta|| = 1.11803e+308)"
# sum(delta) = 2e308 overflows, though x_inf = -sum(delta)/sum(rho) does not
X_INF_SUM_OVERFLOW = """
graph: {nodes: 3, edges: [{i: 0, j: 1, w: 1.0}, {i: 1, j: 2, w: 1.0}]}
ensemble: {rho: [-1.0, -1.0, -1.0], delta: [1.0e+308, 1.0e+308, -1.0e+308]}
gains: {alpha: 1.0, beta: 1.0, gamma: 1000.0}
"""
# x_inf = 3e308 / 1.5 itself leaves the float range
X_INF_OVERFLOW = X_INF_SUM_OVERFLOW.replace("-1.0, -1.0, -1.0", "-0.5, -0.5, -0.5").replace(
    "-1.0e+308]", "1.0e+308]")
X_INF_RANGE = ("consensus value -sum(delta)/sum(rho) leaves the float range "
               "(||ensemble.delta|| = 1.73205e+308)")
# the PI form: its z bound sqrt(6) * 1.73e308 leaves the float range too, and
# the consensus value, formed first, names the failure
X_INF_OVERFLOW_PI = X_INF_OVERFLOW.replace("gamma: 1000.0", "gamma: 0.0")
# rho_bar = [-1e200, 2e200]: its squares leave the float range
RHO_BAR_OVERFLOW = X_INF_SUM_OVERFLOW.replace("-1.0, -1.0, -1.0", "-1.0e+200, -2.0e+200, 1.0e+200")
RHO_BAR_RANGE = "rho_bar_sq leaves the float range (max|ensemble.rho| = 2e+200)"
# the trailing disagreements (about 4.8e306 each) sum past the float range, their mean does not
STEADY_MEAN = '"steady_disagreement": 4.8174655845610347e+306'
# sum(rho) = -1.5e308 overflows, though psi11 = mean(rho) does not; rho_bar . rho_bar does
PSI11_SUM_OVERFLOW = X_INF_SUM_OVERFLOW.replace(
    "[-1.0, -1.0, -1.0], delta: [1.0e+308, 1.0e+308, -1.0e+308]",
    "[-1.0e+308, -1.0e+308, 5.0e+307], delta: [1.0, 2.0, 3.0]")
PSI11_RANGE = "rho_bar_sq leaves the float range (max|ensemble.rho| = 1e+308)"
# node 1 meets two weights of 1e308: its weighted degree leaves the float range
DEGREE_OVERFLOW = X_INF_SUM_OVERFLOW.replace("w: 1.0}", "w: 1.0e+308}").replace(
    "1.0e+308, 1.0e+308, -1.0e+308", "1.0, 2.0, 3.0")
DEGREE_RANGE = "graph.edges: the weighted degree of node 1 leaves the float range"
# every state stays finite (about 3.2e307), but u = A1 x + ... does not
U_OVERFLOW = """
graph:
  nodes: 5
  edges:
    - {i: 0, j: 1, w: 0.9426}
    - {i: 1, j: 2, w: 2.5665}
    - {i: 2, j: 3, w: 1.0e+8}
    - {i: 3, j: 4, w: 1.0e+8}
    - {i: 0, j: 3, w: 2.3763}
    - {i: 0, j: 4, w: 3.0422}
microgrid:
  k: [1.3136798079657384, 1.3136798079657384, 1.3136798079657384, 1.3136798079657384,
      1.3136798079657384]
  p_star: [-4.79, 5.0e+307, 1.28, -4.41, 3.77]
gains: {alpha: 1.0e+8, beta: 1.94, gamma: 2.40}
sim: {t_end: 1.294, record_stride: 1000000000000000000}
"""
# the fuzz draws neither a zero gain alpha nor a zero edge weight; both are config errors
ZERO_ALPHA = README_CONFIG.replace("alpha: 2.0", "alpha: 0.0")
ZERO_ALPHA_ERROR = "config error: gains: alpha must be positive, got 0.0"
ZERO_WEIGHT = README_CONFIG.replace("{i: 1, j: 2, w: 1.0}", "{i: 1, j: 2, w: 0.0}")
ZERO_WEIGHT_ERROR = "config error: graph: edge (1, 2) has nonpositive weight 0.0"
# the default x0 = x0_scale * [1, 2, 3, 4] leaves the float range from node 2 on; only
# simulate reads it
HUGE_X0_SCALE = README_CONFIG.replace("x0: [1.0, 2.0, 3.0, 4.0]", "x0_scale: 1.0e+308")
X0_SCALE_RANGE = ("numeric failure: x0 leaves the float range at node 2 "
                  "(the default x0 is sim.x0_scale times the node number)")
BOTH_X0 = README_CONFIG + "  x0_scale: 2.0\n"
BOTH_X0_ERROR = "config error: sim: give x0 or x0_scale, not both"
# one config error for each shape check of config.py, each naming its key path
GAINS_LIST = README_CONFIG.replace("gains:\n  alpha: 2.0\n  beta: 1.0\n  gamma: 0.5",
                                   "gains: [2.0, 1.0, 0.5]")
NO_DELTA = README_CONFIG.replace("  delta: [1.0, 2.0, 3.0, 4.0]\n", "")
DELTA_NUMBER = README_CONFIG.replace("delta: [1.0, 2.0, 3.0, 4.0]", "delta: 1.0")
FLOAT_NODES = README_CONFIG.replace("nodes: 4", "nodes: 4.0")
EDGES_MAPPING = README_CONFIG.replace("""  edges:
    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 1.0}
    - {i: 2, j: 3, w: 1.0}""", "  edges: {i: 0, j: 1, w: 1.0}")
EDGE_NAME = README_CONFIG.replace("{i: 1, j: 2, w: 1.0}", "{i: 1, j: two, w: 1.0}")
FLOAT_STRIDE = README_CONFIG.replace("record_stride: 10", "record_stride: 1.5")

# rho - alpha*L = -1.5e308 - 2 * 5e307 on the diagonal of a 3-ring leaves the float range
RHO_ALPHA_L_OVERFLOW = """
graph: {nodes: 3, edges: [{i: 0, j: 1, w: 1.0}, {i: 1, j: 2, w: 1.0}, {i: 2, j: 0, w: 1.0}]}
ensemble: {rho: [-1.5e+308, -1.5e+308, -1.5e+308], delta: [1.0, 2.0, 3.0]}
gains: {alpha: 5.0e+307, beta: 1.0}
"""
# x_inf = -5.7e307 and P x* + delta stay finite, z* = -(rho x* + delta) does not
Z_STAR_OVERFLOW = RHO_ALPHA_L_OVERFLOW.replace(
    "[-1.5e+308, -1.5e+308, -1.5e+308], delta: [1.0, 2.0, 3.0]",
    "[-1.0, -1.0, -1.0], delta: [1.7e+308, -1.7e+308, -1.7e+308]").replace(
    "alpha: 5.0e+307, beta: 1.0", "alpha: 1.0")
# an integer of 5001 digits, beyond Python's limit for int(str)
LONG_INT = README_CONFIG.replace("alpha: 2.0", "alpha: 1" + "0" * 5000)
# 40,000 nested lists (80 KB), in flow and in block form: libyaml's recursive
# composer overflows the C stack on them (SIGSEGV) unless the depth is
# bounded first
DEEP_FLOW = README_CONFIG.replace("rho:   [-2.0, -2.0, -2.0, -2.0]",
                                  "rho: " + "[" * 40000 + "]" * 40000)
DEEP_BLOCK = README_CONFIG.replace("rho:   [-2.0, -2.0, -2.0, -2.0]",
                                   "rho:\n    " + "- " * 40000 + "-2.0")
NESTING_ERROR = "config error: config: collections nest deeper than 10000 levels"
# poles within 1e-12 of each other in absolute terms but of mixed sign: the loop
# is homogeneous only relative to max|rho|, and the least stable pole decides
# (the mirror labels the path's nodes 2, 1, 0)
TINY_POLES = """
graph: {nodes: 3, edges: [{i: 0, j: 1, w: 1.0}, {i: 1, j: 2, w: 1.0}]}
ensemble: {rho: RHO, delta: DELTA}
gains: {alpha: 1.0, beta: 1.0, gamma: 0.5}
"""


def tiny_poles(rho: str, mirror: bool = False, gamma: str = "0.5") -> str:
    delta = "[0.0, 0.0, 1.0]" if mirror else "[1.0, 0.0, 0.0]"
    return (TINY_POLES.replace("RHO", rho).replace("DELTA", delta)
            .replace("gamma: 0.5", f"gamma: {gamma}"))


UNSTABLE_TINY = "certification failure: average pole psi11 = 3e-13 is nonnegative"
# the condition that a report fails, as the JSON printout indents it
FAILS = '"name": "{}",\n        "satisfied": false'
# one edge of weight 0.5 gives lambda_N = 1, so alpha*lambda_N + rho* = 1 - 1 = 0
PD_ZERO_DENOMINATOR = """
graph: {nodes: 2, edges: [{i: 0, j: 1, w: 0.5}]}
ensemble: {rho: [1.0, 1.0], delta: [1.0, 2.0]}
gains: {alpha: 1.0, beta: 0.0, gamma: 0.5}
"""

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
        (["analyze", "--json"], HUGE_DELTA, 0, '"z_inf_bound": 4.242640687119285e+300'),
        (["simulate", "--json"], HUGE_DELTA + "sim: {t_end: 1.0}\n", 0, '"final_offset": 5.75'),
        (["analyze", "--json"], OVERFLOWING_GAMMA, 4, GAMMA_RANGE),
        (["tune", "--json", "--gamma", "1e308"], README_CONFIG, 4, GAMMA_RANGE),
        (["analyze", "--json"], Z_BOUND_OVERFLOW, 4, Z_BOUND_RANGE),
        (["analyze", "--json"], HUGE_DELTA.replace("1.0e+300, 1.0e+300, -1.0e+300",
                                                   "1.0e+308, -1.0e+308, 1.0e+308"), 4,
         "z_inf_bound leaves the float range (||ensemble.delta|| = 1.73205e+308)"),
        (["analyze", "--json"], X_INF_SUM_OVERFLOW, 0, '"x_inf": 3.333333333333333e+307'),
        (["analyze", "--json"], X_INF_OVERFLOW, 4, X_INF_RANGE),
        (["analyze", "--json"], X_INF_OVERFLOW_PI, 4, X_INF_RANGE),
        (["analyze", "--json"], RHO_BAR_OVERFLOW, 4, RHO_BAR_RANGE),
        (["tune", "--json"], RHO_BAR_OVERFLOW, 4, RHO_BAR_RANGE),
        (["simulate", "--json"], X_INF_SUM_OVERFLOW, 0, STEADY_MEAN),
        (["analyze", "--json"], PSI11_SUM_OVERFLOW, 4, PSI11_RANGE),
        (["tune", "--json"], PSI11_SUM_OVERFLOW, 4, PSI11_RANGE),
        (["analyze", "--json"], DEGREE_OVERFLOW, 4, DEGREE_RANGE),
        (["tune", "--json"], DEGREE_OVERFLOW, 4, DEGREE_RANGE),
        (["simulate", "--json"], DEGREE_OVERFLOW, 4, DEGREE_RANGE),
        (["simulate", "--json"], U_OVERFLOW, 4, "numeric failure: u overflowed at t = 1.294\n"),
        (["analyze", "--json"], ZERO_ALPHA, 3, ZERO_ALPHA_ERROR),
        (["tune", "--json"], ZERO_ALPHA, 3, ZERO_ALPHA_ERROR),
        (["simulate", "--json"], ZERO_ALPHA, 3, ZERO_ALPHA_ERROR),
        (["analyze", "--json"], ZERO_WEIGHT, 3, ZERO_WEIGHT_ERROR),
        (["tune", "--json"], ZERO_WEIGHT, 3, ZERO_WEIGHT_ERROR),
        (["simulate", "--json"], ZERO_WEIGHT, 3, ZERO_WEIGHT_ERROR),
        (["analyze", "--json"], HUGE_X0_SCALE, 0, '"certified": true'),
        (["tune", "--json"], HUGE_X0_SCALE, 0, '"alpha_min_exact": 1.1035533905932735'),
        (["simulate", "--json"], HUGE_X0_SCALE, 4, X0_SCALE_RANGE),
        (["analyze", "--json"], BOTH_X0, 3, BOTH_X0_ERROR),
        (["tune", "--json"], BOTH_X0, 3, BOTH_X0_ERROR),
        (["simulate", "--json"], BOTH_X0, 3, BOTH_X0_ERROR),
        (["analyze", "--json"], GAINS_LIST, 3, "config error: gains: expected a mapping, got list"),
        (["tune", "--json"], NO_DELTA, 3, "config error: ensemble.delta: missing required list"),
        (["simulate", "--json"], DELTA_NUMBER, 3,
         "config error: ensemble.delta: expected a list of numbers"),
        (["analyze", "--json"], FLOAT_NODES, 3,
         "config error: graph.nodes: expected a positive integer"),
        (["tune", "--json"], EDGES_MAPPING, 3,
         "config error: graph.edges: expected a list of {i, j, w} mappings"),
        (["analyze", "--json"], EDGE_NAME, 3,
         "config error: graph.edges[1].j: expected a 0-based node index"),
        (["simulate", "--json"], FLOAT_STRIDE, 3,
         "config error: sim.record_stride: expected a positive integer"),
        (["simulate", "--json"], RHO_ALPHA_L_OVERFLOW, 4,
         "closed-loop assembly: ensemble.rho - gains.alpha * L leaves the float range "
         "(max|ensemble.rho| = 1.5e+308, gains.alpha = 5e+307)"),
        (["analyze", "--json"], Z_STAR_OVERFLOW, 4,
         "consensus equilibrium: z* leaves the float range (max|ensemble.delta| = 1.7e+308)"),
        (["tune", "--json"], LONG_INT, 3,
         "config error: invalid YAML: Exceeds the limit (4300 digits)"),
        (["analyze", "--json"], DEEP_FLOW, 3, NESTING_ERROR),
        (["tune", "--json"], DEEP_FLOW, 3, NESTING_ERROR),
        (["simulate", "--json"], DEEP_FLOW, 3, NESTING_ERROR),
        (["analyze", "--json"], DEEP_BLOCK, 3, NESTING_ERROR),
        (["tune", "--json"], DEEP_BLOCK, 3, NESTING_ERROR),
        (["simulate", "--json"], DEEP_BLOCK, 3, NESTING_ERROR),
        # --out names the config file itself, so no directory can be made there
        (["simulate", "--json", "--out", "hole.yaml"], README_CONFIG, 4,
         "io error: [Errno 17] File exists: 'hole.yaml'"),
        (["analyze", "--json"], tiny_poles("[-1.0e-13, 5.0e-13, 5.0e-13]"), 2, UNSTABLE_TINY),
        (["analyze", "--json"], tiny_poles("[5.0e-13, 5.0e-13, -1.0e-13]", mirror=True), 2,
         UNSTABLE_TINY),
        (["analyze", "--json"], tiny_poles("[1.0e-13, -2.0e-13, -2.0e-13]"), 0,
         '"regime": "HeterogeneousPID"'),
        (["analyze", "--json"], tiny_poles("[-2.0e-13, -2.0e-13, 1.0e-13]", mirror=True), 0,
         '"regime": "HeterogeneousPID"'),
        (["analyze", "--json"], tiny_poles("[0.0, 0.0, 0.0]"), 2, '"regime": "HomogeneousPID"'),
        (["tune", "--json", "--gamma", "0"], README_CONFIG, 0, '"gamma": 0.0'),
        (["simulate", "--json"], README_CONFIG.replace("t_end: 30.0\n  dt: 0.001", "t_end: 0.0"),
         3, "config error: sim: t_end must be at least one step, got 0.0"),
        (["simulate", "--json"], README_CONFIG.replace("t_end: 30.0", "t_end: 1.0").replace(
            "dt: 0.001", "dt: 0.0"), 3, "config error: sim: dt must be positive, got 0.0"),
        (["analyze", "--json"], README_CONFIG.replace("[-2.0, -2.0, -2.0, -2.0]",
                                                      "[1.0, -1.0, -0.5, 0.5]"), 2,
         "certification failure: average pole psi11 = 0 is nonnegative"),
        (["analyze", "--json"], PD_ZERO_DENOMINATOR, 2, FAILS.format("feedback_dominates_pole")),
        (["analyze", "--json"], tiny_poles("[0.0, 0.0, 0.0]", gamma="0.0"), 2,
         FAILS.format("stable_poles")),
        (["analyze", "--json"], README_CONFIG.replace("beta: 1.0", "beta: 0.0"), 0,
         '"hurwitz_sub_block": false'),
        (["analyze", "--json"], README_CONFIG.replace("{i: 2, j: 3, w: 1.0}", "{i: 4, j: 3, w: 1.0}"),
         3, "config error: graph: edge (4, 3) out of range for N=4"),
        # the largest finite float is a number: --gamma and the config accept it
        (["tune", "--json", "--gamma", "1.7976931348623157e308"], README_CONFIG, 4,
         "numeric failure: modified Laplacian: gains.gamma * L leaves the float range"),
        (["analyze", "--json"], README_CONFIG.replace("x0: [1.0,", "x0: [1.7976931348623157e+308,"),
         0, '"certified": true'),
        # the rate mu needs stable poles
        (["analyze", "--json"], tiny_poles("[0.0, 0.0, 0.0]"), 2, '"mu": null'),
        (["analyze", "--json"], tiny_poles("[0.0, 0.0, 0.0]", gamma="0.0"), 2, '"mu": null'),
        # t_end equal to dt is one step
        (["simulate", "--json"], README_CONFIG.replace("t_end: 30.0", "t_end: 0.5").replace(
            "dt: 0.001", "dt: 0.5"), 0, '"samples": 2'),
        # slow roots near -1e-320, fast ones at -1.5e300: on the time scale 2^-32
        # the fast ones leave the float range, so the shift is formed before it
        (["analyze", "--json"], README_CONFIG.replace(
            "[-2.0, -2.0, -2.0, -2.0]", "[-1.5e+300, -1.5e+300, -1.5e+300, -1.5e+300]").replace(
            "alpha: 2.0\n  beta: 1.0\n  gamma: 0.5", "alpha: 1.0\n  beta: 1.0e-20\n  gamma: 0.0"),
         0, '"spectrum": "dense"'),
        # alpha*lambda_2 and the gain threshold both overflow: their margin is
        # inf - inf, NaN without a warning, and the z bound ends the run
        (["analyze", "--json"], README_CONFIG.replace("w: 1.0}", "w: 1.0e+8}").replace(
            "[-2.0, -2.0, -2.0, -2.0]", "[1.0e+8, -1.0e+8, -1.0e-300, 0.0]").replace(
            "alpha: 2.0\n  beta: 1.0\n  gamma: 0.5", "alpha: 1.0e+308\n  beta: 0.0\n  gamma: 0.0"),
         4, "numeric failure: z_inf_bound leaves the float range"),
    ],
    ids=[
        "one-node-analyze", "one-node-tune", "one-node-simulate", "huge-gamma-analyze",
        "huge-gamma-tune", "huge-alpha-beta-json", "huge-alpha-beta-tree", "dt-underflow",
        "heavy-alpha-simulate", "heavy-alpha-analyze", "heavy-alpha-no-derivative-analyze",
        "huge-delta-analyze", "huge-delta-simulate", "overflowing-gamma-analyze",
        "overflowing-gamma-tune", "overflowing-z-bound", "overflowing-z-bound-homogeneous",
        "overflowing-delta-sum", "overflowing-x-inf", "overflowing-x-inf-pi",
        "overflowing-rho-bar-sq-analyze", "overflowing-rho-bar-sq-tune",
        "overflowing-steady-mean-simulate",
        "overflowing-psi11-sum-analyze", "overflowing-psi11-sum-tune",
        "overflowing-degree-analyze", "overflowing-degree-tune", "overflowing-degree-simulate",
        "overflowing-u-simulate", "zero-alpha-analyze", "zero-alpha-tune", "zero-alpha-simulate",
        "zero-weight-analyze", "zero-weight-tune", "zero-weight-simulate",
        "huge-x0-scale-analyze", "huge-x0-scale-tune", "huge-x0-scale-simulate",
        "x0-and-x0-scale-analyze", "x0-and-x0-scale-tune", "x0-and-x0-scale-simulate",
        "gains-list", "missing-delta", "delta-number", "float-nodes", "edges-mapping",
        "edge-name", "float-stride", "overflowing-rho-minus-alpha-l", "overflowing-z-star",
        "int-beyond-digit-limit", "deep-flow-analyze", "deep-flow-tune", "deep-flow-simulate",
        "deep-block-analyze", "deep-block-tune", "deep-block-simulate", "out-names-a-file",
        "tiny-mixed-poles-unstable", "tiny-mixed-poles-unstable-mirror",
        "tiny-mixed-poles-stable", "tiny-mixed-poles-stable-mirror", "zero-poles-pid",
        "tune-gamma-zero", "t-end-zero", "dt-zero", "pole-sum-zero", "pd-zero-denominator",
        "zero-poles-pi", "no-integral-sub-block", "edge-first-index-n", "tune-gamma-float-max",
        "x0-float-max", "zero-poles-pid-mu", "zero-poles-pi-mu", "t-end-equals-dt",
        "poles-past-the-time-scale", "overflowing-gain-margin",
    ],
)
def test_exit_code_holes(tmp_path, monkeypatch, capsys, argv, config, code, message):
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "hole.yaml"
    p.write_text(config)
    out = tmp_path / "out"
    if argv[0] == "simulate" and "--out" not in argv:
        argv = argv + ["--out", str(out)]
    argv = argv + ["--config", str(p)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    # a CLI run would print these to stderr
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    # a failure is one stderr message; a success prints its report alone, and so
    # does an uncertified analysis (exit 2 without a message)
    shown, quiet = (captured.err, captured.out) if code else (captured.out, captured.err)
    if code == 2 and not shown:
        shown, quiet = quiet, shown
    assert message in shown
    assert quiet == ""
    assert out.exists() is (code == 0 and argv[0] == "simulate")
    assert p.read_text() == config


def _error_classes(cls=errors.PidnetError) -> list:
    return [cls, *(sub for child in cls.__subclasses__() for sub in _error_classes(child))]


ERROR_CLASSES = _error_classes()


def test_error_classes_declare_the_readme_exit_codes():
    # the README's contract: 2 certification failure, 3 config error, 4 numeric failure
    assert {(c.exit_code, c.label) for c in ERROR_CLASSES} == {
        (2, "certification failure"), (3, "config error"), (3, "error"), (4, "numeric failure")}


# each class's exit code and stderr label; a new class without an entry fails below
NUMERIC = (4, "numeric failure")
EXIT_CODES = {
    "PidnetError": (3, "error"), "InvalidWeight": (3, "error"), "InvalidGraph": (3, "error"),
    "DisconnectedGraph": (3, "error"), "DimensionMismatch": (3, "error"),
    "NotHomogeneous": (3, "error"), "ConfigError": (3, "config error"),
    "UnstableAverage": (2, "certification failure"), "NonFinite": NUMERIC,
    "StepTooLarge": NUMERIC, "TraceTooLarge": NUMERIC, "GraphTooLarge": NUMERIC,
    "SingularEnsemble": NUMERIC,
    "LinAlgError": NUMERIC, "OSError": (4, "io error"),
}


@pytest.mark.parametrize(
    "exc", ERROR_CLASSES + [np.linalg.LinAlgError, OSError], ids=lambda c: c.__name__)
def test_each_error_class_ends_in_its_exit_code(monkeypatch, capsys, exc):
    # main ends every run that raises through one handler: the class's code,
    # and one stderr line with its label
    def boom(path):
        raise exc("boom")

    monkeypatch.setattr(cli, "load_config", boom)
    code, label = EXIT_CODES[exc.__name__]
    if issubclass(exc, errors.PidnetError):  # declared where the class is defined
        assert (exc.exit_code, exc.label) == (code, label)
    assert main(["analyze", "--config", "unused.yaml"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{label}: boom\n")


FUZZ_SPECIAL = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1e150, 5e-324, 1e8, -1e8, 1e308, -1e308,
                5e307)
FUZZ_WEIGHT_SCALES = (1e-300, 1e-4, 1.0, 1e8, 1e150, 1e300)


@st.composite
def fuzz_configs(draw):
    """Config documents with extreme and ordinary numbers, N = 2 to 5.

    Each graph's weights share one scale, so that it stays connected in
    floating point; a zero alpha or weight and a single node are config
    errors, which test_exit_code_holes covers.
    """
    num = st.one_of(st.sampled_from(FUZZ_SPECIAL), st.floats(-5.0, 5.0))
    n = draw(st.integers(2, 5))
    # a path keeps the graph connected; chords are drawn on top of it
    pairs = [(k, k + 1) for k in range(n - 1)]
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True))
    scale = draw(st.sampled_from(FUZZ_WEIGHT_SCALES))
    edges = [{"i": i, "j": j, "w": scale * draw(st.floats(0.5, 2.0))} for i, j in pairs]
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
    gains = {key: abs(draw(num)) for key in ("beta", "gamma")}
    gains["alpha"] = abs(draw(num.filter(lambda v: v != 0)))
    doc = {"graph": {"nodes": n, "edges": edges}, **agents, "gains": gains, "sim": sim}
    return yaml.safe_dump(doc)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _exit_codes_keep_contract(text, commands) -> list[tuple[int, str]]:
    """Exit codes and stderr of the commands on a config text, each code in
    {0, 2, 3, 4}, without a RuntimeWarning and, on success, without a
    non-finite output."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.yaml"
        path.write_text(text)
        for argv in commands:
            if argv[0] == "simulate":
                argv = argv + ["--out", str(Path(tmp) / "out")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                warnings.simplefilter("always")
                code = main(argv + ["--config", str(path)])
            runs.append((code, stderr.getvalue()))
            assert code in (0, 2, 3, 4), (argv, text)
            # a CLI run would print these to stderr
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [], (
                argv, text)
            if code != 0:
                continue
            if "--json" in argv:
                json.loads(stdout.getvalue(), parse_constant=_reject_constant)
            else:
                values = {line.rsplit(" ", 1)[-1] for line in stdout.getvalue().splitlines()}
                assert not values & {"inf", "-inf", "nan"}, (argv, text)
            if argv[0] == "simulate":
                trace = (Path(tmp) / "out" / "trace.csv").read_text()
                assert "inf" not in trace and "nan" not in trace, text
    return runs


@settings(max_examples=60, deadline=None)
@given(fuzz_configs())
def test_fuzzed_configs_keep_exit_code_contract(text):
    _exit_codes_keep_contract(text, (["analyze", "--json"], ["analyze"], ["tune", "--json"],
                                     ["simulate", "--json"]))


SIM_SPECIAL = (0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300, 1.7e308, -1.7e308, -1.0)


@st.composite
def fuzz_sim_sections(draw):
    """The README config with a drawn sim section: t_end and dt from the
    specials or 0.001 to 3, record_stride from 0, -1, 10^18 or 1 to 10, and
    x0, x0_scale, both or neither; each key may be left out."""
    time = st.one_of(st.sampled_from(SIM_SPECIAL), st.floats(0.001, 3.0))
    num = st.one_of(st.sampled_from(FUZZ_SPECIAL), st.floats(-5.0, 5.0))
    sim = {key: draw(time) for key in ("t_end", "dt") if draw(st.booleans())}
    if draw(st.booleans()):
        sim["record_stride"] = draw(st.one_of(st.sampled_from([0, -1, 10**18]),
                                              st.integers(1, 10)))
    start = draw(st.sampled_from(["default", "x0", "x0_scale", "both"]))
    if start in ("x0", "both"):
        sim["x0"] = [draw(num) for _ in range(4)]
    if start in ("x0_scale", "both"):
        sim["x0_scale"] = draw(num)
    doc = yaml.safe_load(README_CONFIG)
    doc["sim"] = sim
    return yaml.safe_dump(doc), start == "both"


@settings(max_examples=60, deadline=None)
@given(fuzz_sim_sections())
def test_fuzzed_sim_sections_keep_exit_code_contract(case):
    text, both_x0 = case
    runs = _exit_codes_keep_contract(text, (["analyze", "--json"], ["simulate", "--json"]))
    if both_x0:
        assert [code for code, _ in runs] == [3, 3], text


DROP = object()


def _readme_with(*edits) -> str:
    """The README config with each (path, value) edit applied: the value at
    the path of keys and list indices replaced, added, or removed by DROP."""
    doc = yaml.safe_load(README_CONFIG)
    for path, value in edits:
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return yaml.safe_dump(doc, sort_keys=False)


README_RHO = "rho:   [-2.0, -2.0, -2.0, -2.0]"
README_EDGES = """  edges:
    - {i: 0, j: 1, w: 1.0}"""
# each anchor lists the one before it ten times: 10^8 numbers from a few hundred bytes
FAN_OUT = ", ".join(f"&l{k} [" + ", ".join([f"*l{k - 1}"] * 10) + "]" for k in range(1, 9))
# libyaml composes nested nodes recursively; 1000 levels parse in milliseconds
DEEP = 1000
MICROGRID = {"k": [1.0] * 4, "p_star": [1.0] * 4}

STRUCTURAL_MUTATIONS = [
    ("config-list", "- " + README_CONFIG.strip().replace("\n", "\n  "), "config"),
    ("config-number", "42\n", "config"),
    ("config-empty", "", "config"),
    ("config-extra-key", _readme_with((["solver"], "rk4")), "config"),
    ("config-mixed-keys", _readme_with(([1], 1.0), (["solver"], "rk4")), "config"),
    ("graph-missing", _readme_with((["graph"], DROP)), "graph"),
    ("graph-list", _readme_with((["graph"], [4])), "graph"),
    ("graph-extra-key", _readme_with((["graph", "directed"], False)), "graph"),
    ("nodes-missing", _readme_with((["graph", "nodes"], DROP)), "graph.nodes"),
    ("nodes-string", _readme_with((["graph", "nodes"], "four")), "graph.nodes"),
    ("nodes-bool", _readme_with((["graph", "nodes"], True)), "graph.nodes"),
    ("nodes-list", _readme_with((["graph", "nodes"], [4])), "graph.nodes"),
    ("edges-missing", _readme_with((["graph", "edges"], DROP)), "graph.edges"),
    ("edges-string", _readme_with((["graph", "edges"], "0-1-2-3")), "graph.edges"),
    ("edge-list", _readme_with((["graph", "edges", 0], [0, 1, 1.0])), "graph.edges[0]"),
    ("edge-extra-key", _readme_with((["graph", "edges", 1, "k"], 2)), "graph.edges[1]"),
    ("edge-i-missing", _readme_with((["graph", "edges", 0, "i"], DROP)), "graph.edges[0].i"),
    ("edge-i-bool", _readme_with((["graph", "edges", 2, "i"], True)), "graph.edges[2].i"),
    ("edge-j-string", _readme_with((["graph", "edges", 1, "j"], "2")), "graph.edges[1].j"),
    ("edge-w-missing", _readme_with((["graph", "edges", 2, "w"], DROP)), "graph.edges[2].w"),
    ("edge-w-string", _readme_with((["graph", "edges", 1, "w"], "heavy")), "graph.edges[1].w"),
    ("edge-w-bool", _readme_with((["graph", "edges", 0, "w"], True)), "graph.edges[0].w"),
    ("edge-w-null", _readme_with((["graph", "edges", 0, "w"], None)), "graph.edges[0].w"),
    ("edge-w-binary", README_CONFIG.replace("w: 1.0}", "w: !!binary AAAA}", 1), "graph.edges[0].w"),
    ("edges-aliased", README_CONFIG.replace(README_EDGES, README_EDGES.replace(
        "- {i", "- &e {i") + "\n    - *e"), "graph"),
    ("agents-missing", _readme_with((["ensemble"], DROP)), "config"),
    ("ensemble-and-microgrid", _readme_with((["microgrid"], MICROGRID)), "config"),
    ("ensemble-list", _readme_with((["ensemble"], [[-2.0] * 4, [1.0] * 4])), "ensemble"),
    ("ensemble-extra-key", _readme_with((["ensemble", "k"], [1.0] * 4)), "ensemble"),
    ("rho-missing", _readme_with((["ensemble", "rho"], DROP)), "ensemble.rho"),
    ("rho-number", _readme_with((["ensemble", "rho"], -2.0)), "ensemble.rho"),
    ("rho-mapping", _readme_with((["ensemble", "rho"], {0: -2.0})), "ensemble.rho"),
    ("rho-short", _readme_with((["ensemble", "rho"], [-2.0] * 3)), "ensemble.rho"),
    ("rho-long", _readme_with((["ensemble", "rho"], [-2.0] * 5)), "ensemble.rho"),
    ("rho-string-entry", _readme_with((["ensemble", "rho", 1], "-2")), "ensemble.rho[1]"),
    ("rho-bool-entry", _readme_with((["ensemble", "rho", 2], False)), "ensemble.rho[2]"),
    ("rho-list-entry", _readme_with((["ensemble", "rho", 0], [-2.0])), "ensemble.rho[0]"),
    ("rho-deep", README_CONFIG.replace(README_RHO, "rho: " + "[" * DEEP + "]" * DEEP),
     "ensemble.rho"),
    ("rho-aliased", README_CONFIG.replace(README_RHO, f"rho: [[&l0 [-2.0], {FAN_OUT}], -2.0, -2.0, -2.0]"),
     "ensemble.rho[0]"),
    ("delta-null-entry", _readme_with((["ensemble", "delta", 3], None)), "ensemble.delta[3]"),
    ("delta-empty", _readme_with((["ensemble", "delta"], [])), "ensemble.delta"),
    ("microgrid-with-ensemble-keys", _readme_with((["microgrid"], {"rho": [-2.0] * 4}),
                                                  (["ensemble"], DROP)), "microgrid"),
    ("microgrid-k-short", _readme_with((["microgrid"], {**MICROGRID, "k": [1.0] * 3}),
                                       (["ensemble"], DROP)), "microgrid.k"),
    ("gains-missing", _readme_with((["gains"], DROP)), "gains"),
    ("gains-number", _readme_with((["gains"], 2.0)), "gains"),
    ("gains-extra-key", _readme_with((["gains", "kappa"], 1.0)), "gains"),
    ("gains-null-key", _readme_with((["gains", None], 1.0), (["gains", "kappa"], 1.0)), "gains"),
    ("alpha-missing", _readme_with((["gains", "alpha"], DROP)), "gains.alpha"),
    ("alpha-string", _readme_with((["gains", "alpha"], "2.0e3")), "gains.alpha"),
    ("alpha-bool", _readme_with((["gains", "alpha"], True)), "gains.alpha"),
    ("alpha-deep", README_CONFIG.replace("alpha: 2.0", "alpha: " + "{a: " * DEEP + "1" + "}" * DEEP),
     "gains.alpha"),
    ("beta-list", _readme_with((["gains", "beta"], [1.0])), "gains.beta"),
    ("gamma-null", _readme_with((["gains", "gamma"], None)), "gains.gamma"),
    ("sim-list", _readme_with((["sim"], [])), "sim"),
    ("sim-false", _readme_with((["sim"], False)), "sim"),
    ("sim-string", _readme_with((["sim"], "fast")), "sim"),
    ("sim-extra-key", _readme_with((["sim", "steps"], 100)), "sim"),
    ("t-end-string", _readme_with((["sim", "t_end"], "30 s")), "sim.t_end"),
    ("dt-bool", _readme_with((["sim", "dt"], True)), "sim.dt"),
    ("x0-short", _readme_with((["sim", "x0"], [1.0, 2.0])), "sim.x0"),
    ("x0-number", _readme_with((["sim", "x0"], 1.0)), "sim.x0"),
    ("x0-string-entry", _readme_with((["sim", "x0", 0], "one")), "sim.x0[0]"),
    ("x0-scale-list", _readme_with((["sim", "x0"], DROP), (["sim", "x0_scale"], [2.0])),
     "sim.x0_scale"),
    ("stride-bool", _readme_with((["sim", "record_stride"], True)), "sim.record_stride"),
    ("stride-string", _readme_with((["sim", "record_stride"], "10")), "sim.record_stride"),
]


@pytest.mark.parametrize("text, path", [case[1:] for case in STRUCTURAL_MUTATIONS],
                         ids=[case[0] for case in STRUCTURAL_MUTATIONS])
def test_structural_mutations_name_their_key(text, path):
    runs = _exit_codes_keep_contract(text, (["analyze", "--json"], ["tune", "--json"],
                                            ["simulate", "--json"]))
    for code, err in runs:
        assert code == 3, err
        assert err.startswith(f"config error: {path}: "), err
        assert len(err) < 500, err[:500]


def test_deep_yaml_on_the_pure_python_parser(tmp_path, monkeypatch, capsys):
    # without libyaml the composer is Python, and 1,000 levels pass the
    # interpreter's recursion limit
    monkeypatch.setattr("pidnet.config._LOADER", yaml.SafeLoader)
    p = tmp_path / "deep.yaml"
    p.write_text(README_CONFIG.replace(README_RHO, "rho: " + "[" * DEEP + "]" * DEEP))
    assert main(["analyze", "--json", "--config", str(p)]) == 3
    assert capsys.readouterr().err == "config error: config: collections nest too deep for the YAML parser\n"


def test_workload_configs_are_parsed_once(monkeypatch):
    # the indicator count bounds the nesting of the analyze-tune workload's
    # N = 800 configs (the first of benchmark seeds 1-3), so none takes the
    # second, event-by-event parse
    def second_parse(*args, **kwargs):
        raise AssertionError("yaml.parse called")

    monkeypatch.setattr(yaml, "parse", second_parse)
    for seed in (1, 2, 3):
        inst = load_pidbench("inputs").random_instance(np.random.default_rng([seed, 2]), 800)
        assert parse_config(inst.to_yaml()).graph.node_count == 800


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
def test_one_eigensolve_per_command(capsys, hom_config, linalg_calls, built, config, command):
    path = str(BENCH_CONFIG) if config == "bench" else hom_config
    assert main([command, "--config", path, "--json"]) == 0
    capsys.readouterr()
    # analyze: the sub-block's energy certificate (one symmetric solve) in
    # place of its dense spectrum; the slowest root of a hyperbolic Q (both
    # configs are) from the Cholesky that certifies mu, one eigvalsh of the
    # (N-1)^2 estimate, one solve for its vector, a solve per Rayleigh
    # functional step and the Cholesky of the upper bracket, with no eigvals
    # (||H_hat|| and ||I + H_hat|| come from the one eigh, with no eigensolve,
    # and z* from the eigenbasis, with no solve of I + gamma*L)
    analyze = command == "analyze"
    steps = {"bench": 4, "homogeneous": 2}[config]
    assert linalg_calls == {"eigh": 1, "eigvalsh": 2 * analyze, "eigvals": 0,
                            "cholesky": 2 * analyze, "inv": 0,
                            "solve": (1 + steps) * analyze, "svd": 0, "psi": 0,
                            "assemble": 0}
    # no linalg call of analyze or tune takes a matrix larger than N x N
    assert linalg_calls.largest == {"bench": 6, "homogeneous": 4}[config]
    # one decomposition; each modified Laplacian at the config's gamma; no dense accessor
    names = [type(obj).__name__ for obj in built]
    assert names.count("SpectralDecomposition") == 1
    gamma = yaml.safe_load(Path(path).read_text())["gains"]["gamma"]
    assert {obj.gamma for obj in built if type(obj).__name__ == "ModifiedLaplacian"} == {gamma}
    assert all(DENSE.isdisjoint(vars(obj)) for obj in built)


@pytest.mark.parametrize("command", ["analyze", "tune"])
def test_runs_without_scipy(command):
    # the runtime dependencies are numpy and pyyaml; scipy is a test extra
    script = ("import sys; sys.modules['scipy'] = None; "
              "from pidnet.cli import main; sys.exit(main(sys.argv[1:]))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", script, command, "--config", str(BENCH_CONFIG),
                          "--json"], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["analysis"]["h_norm_exact"] > 0


@pytest.mark.parametrize(
    "command, config, code, message",
    [
        ("analyze", Z_BOUND_OVERFLOW, 4, Z_BOUND_RANGE),
        ("analyze", X_INF_SUM_OVERFLOW, 0, '"x_inf": 3.333333333333333e+307'),
        ("analyze", RHO_BAR_OVERFLOW, 4, RHO_BAR_RANGE),
        ("simulate", X_INF_SUM_OVERFLOW, 0, STEADY_MEAN),
        ("tune", PSI11_SUM_OVERFLOW, 4, PSI11_RANGE),
        ("analyze", DEGREE_OVERFLOW, 4, DEGREE_RANGE),
    ],
    ids=["z-bound", "delta-sum", "rho-bar-sq", "steady-mean", "psi11-sum", "weighted-degree"],
)
def test_overflowing_z_bound_under_warnings_as_errors(tmp_path, command, config, code, message):
    # the bounds, x_inf, rho_bar_sq, psi11, the steady means and the weighted
    # degrees are formed without a numpy overflow to warn of
    p = tmp_path / "z.yaml"
    p.write_text(config)
    script = "import sys; from pidnet.cli import main; sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script, command,
                          "--json", "--config", str(p), *out], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == code
    if code:
        assert (run.stdout, run.stderr) == ("", f"numeric failure: {message}\n")
    else:
        assert message in run.stdout and run.stderr == ""


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


def test_tune_gamma_reports_analysis_at_that_gamma(capsys, linalg_calls, built):
    # bundled microgrid (gamma 1, lambda_2 = 5, N = 6): the bound is 6/(0.3*5 + 1)
    code, report = run_json(capsys, ["tune", "--config", str(BENCH_CONFIG), "--gamma", "0.3",
                                     "--json"])
    assert code == 0
    assert linalg_calls["solve"] == 0  # tune builds no I + gamma*L
    # I + 0.3 L only: the config's gamma is never built
    assert {obj.gamma for obj in built if hasattr(obj, "gamma")} == {0.3}
    ana = report["analysis"]
    assert ana["h_norm_bound"] == pytest.approx(2.4, rel=1e-12)
    dec = parse_config(BENCH_CONFIG.read_text()).instance.dec
    assert ana["h_norm_exact"] == pytest.approx(modified_laplacian(dec, 0.3).h_norm, rel=1e-12)
    code, plain = run_json(capsys, ["tune", "--config", str(BENCH_CONFIG), "--json"])
    assert plain["analysis"]["h_norm_bound"] == pytest.approx(1.0, rel=1e-12)


# STAR4 of test_spectral: the LU of I + 1e16 L hits an exact zero pivot, but
# nodes 1 and 2 keep the identity, so analyze needs no inverse
ZERO_PIVOT_GAMMA = HOMOGENEOUS.replace("""    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 1.0}
    - {i: 2, j: 3, w: 1.0}
    - {i: 3, j: 0, w: 1.0}
""", """    - {i: 2, j: 3, w: 1.2974605934997234}
    - {i: 3, j: 0, w: 2.036281092959901}
    - {i: 3, j: 1, w: 0.2380404126984551}
""").replace("gamma: 0.5", "gamma: 1.0e+16")


@pytest.mark.parametrize("command, code", [("analyze", 0), ("tune", 0), ("simulate", 4)])
def test_zero_pivot_gamma_fails_only_simulate(tmp_path, capsys, command, code):
    p = tmp_path / "star.yaml"
    p.write_text(ZERO_PIVOT_GAMMA)
    out = tmp_path / "out"
    argv = [command, "--json", "--config", str(p)]
    argv += ["--out", str(out)] if command == "simulate" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    if code:
        # the closed-loop assembly solves I + gamma*L, and its LU fails
        assert captured.err == ("numeric failure: modified Laplacian I + gamma*L is singular "
                                "to working precision at gamma = 1e+16\n")
        assert not out.exists()
    else:
        json.loads(captured.out, parse_constant=_reject_constant)


def traced_peak(tmp_path, capsys, command: str, n: int = 200) -> float:
    """Traced peak of one in-process command on the N = 200 benchmark instance,
    in matrices of N^2 floats."""
    p = tmp_path / "n200.yaml"
    p.write_text(load_pidbench("inputs").random_instance(np.random.default_rng(1), n).to_yaml())
    tracemalloc.start()
    try:
        assert main([command, "--config", str(p), "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak / (8 * n * n)


def test_analyze_traced_peak_in_dense_matrices(tmp_path, capsys):
    # 4.3: V, the transverse layer's two buffers (C~ and work) and a block of
    # BLOCK_ROWS rows of the Schur complement's rank-one update, 0.64 N^2 at
    # N = 200 (the N x N factor that cholesky returned peaked as high until
    # both certificates factored in place; 5.6 while the Laplacian, a second
    # scaled copy of V and the energy block were held beside them)
    assert traced_peak(tmp_path, capsys, "analyze") < 4.5


def test_tune_traced_peak_in_dense_matrices(tmp_path, capsys):
    # 3.4: L, V and the sign fix's |V| (3.6 while two blocks of rows of a
    # reconstruction check were formed beside them, 4.2 with the whole one)
    assert traced_peak(tmp_path, capsys, "tune") < 3.5


def test_reproduce_traced_peak_in_traces(tmp_path, capsys):
    # 0.27: t, d and ||z|| of the largest run, one block of chained states and
    # its CSV chunk (1.12 while the whole trace was held, 2.35 while two traces
    # and the stack of propagator powers were)
    out = tmp_path / "repro"
    tracemalloc.start()
    try:
        assert main(["reproduce", "--out", str(out), "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # a whole trace holds 8 bytes per CSV value
    sizes = []
    for path in out.glob("*.csv"):
        lines = path.read_text().splitlines()
        sizes.append(8 * (len(lines) - 1) * len(lines[0].split(",")))
    assert len(sizes) == 4
    assert peak < 0.4 * max(sizes)


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
    assert sorted(os.listdir(out)) == ["summary.json", "trace.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["simulation"]["final_disagreement"] < 1e-6
    assert summary["simulation"]["x_inf"] == pytest.approx(1.25)
    for cmp_ in summary["bound_comparisons"]:
        assert cmp_["holds"] is True
    assert report["certificate"]["certified"] is True


def _tree_keys(tree: str, block: str) -> list[str]:
    """The keys printed directly under a top-level block of a tree report."""
    lines = tree.splitlines()
    keys = []
    for line in lines[lines.index(f"{block}:") + 1:]:
        if line and not line.startswith(" "):
            break
        if line.startswith("  ") and line[2] != " ":
            keys.append(line[2:].split(":")[0])
    return keys


def test_tree_printout_keeps_field_order(tmp_path, capsys):
    # _dumps sorts the JSON keys; the tree prints each block in field order
    p = tmp_path / "readme.yaml"
    p.write_text(README_CONFIG)
    assert main(["analyze", "--config", str(p)]) == 0
    tree = capsys.readouterr().out
    assert _tree_keys(tree, "certificate") == [
        "regime", "certified", "conditions", "x_inf", "z_inf_bound", "epsilon_bound", "mu"]
    _, report = run_json(capsys, ["analyze", "--config", str(p), "--json"])
    # one entry per condition, not the conditions on one line
    names = [line.split(": ", 1)[1] for line in tree.splitlines() if line.startswith("    name: ")]
    assert names == [c["name"] for c in report["certificate"]["conditions"]]
    assert len(names) == 4
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    assert _tree_keys(capsys.readouterr().out, "simulation") == [
        "t_end", "samples", "x_inf", "final_state", "final_disagreement", "final_offset",
        "final_z_norm", "steady_z_norm", "steady_disagreement", "empirical_rate"]


def test_simulate_idempotent_csv(tmp_path, capsys, hom_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", hom_config, "--out", str(out1), "--json"])
    main(["simulate", "--config", hom_config, "--out", str(out2), "--json"])
    capsys.readouterr()
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


# Largest |difference| between trace.csv values written at two BLAS thread
# counts, over the file's largest |value|: about one unit in the last printed
# digit. 2.8e-13 was measured on the N = 200 config below.
THREAD_COUNT_RTOL = 1e-11


def test_trace_bytes_repeat_at_one_blas_thread_count(tmp_path):
    # BLAS sums in another order at another thread count (eigvals picks dt,
    # matmul propagates), so only a repeat at one count writes the same bytes
    config = tmp_path / "n200.yaml"
    config.write_text(load_pidbench("inputs").random_instance(np.random.default_rng([1, 1]), 200)
                      .to_yaml() + "sim: {t_end: 0.0002, record_stride: 10}\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    traces = []
    for k, threads in enumerate(("1", "1", "2")):
        pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        run = subprocess.run([sys.executable, "-m", "pidnet.cli", "simulate", "--config", str(config),
                              "--out", str(tmp_path / str(k))], capture_output=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path, **pinned})
        assert run.returncode == 0, run.stderr
        traces.append((tmp_path / str(k) / "trace.csv").read_bytes())
    assert traces[1] == traces[0]
    one, two = (np.loadtxt(io.BytesIO(trace), delimiter=",", skiprows=1) for trace in traces[::2])
    assert one.shape == two.shape == (150, 603)
    assert np.max(np.abs(one - two)) <= THREAD_COUNT_RTOL * np.max(np.abs(one))


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


# Traced hooks that no command reaches: the transverse layer builds no Psi
# blocks, and simulate and reproduce stream their traces instead of calling
# integrate and Trace.to_csv. A refactor that bypasses another hook grows
# this set and fails here; moving a hook onto the streamed path shrinks it.
BLIND_HOOKS = {"transverse.psi_blocks", "sim.integrate", "sim.to_csv"}


def test_benchmark_trace_hooks_are_reached(tmp_path):
    traced = load_pidbench("traced")
    config = tmp_path / "n20.yaml"
    config.write_text(load_pidbench("inputs").random_instance(np.random.default_rng(1), 20).to_yaml())
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    reached = set()
    for k, argv in enumerate((["reproduce", "--out", str(tmp_path / "repro"), "--json"],
                              ["analyze", "--config", str(config), "--json"],
                              ["tune", "--config", str(config), "--json"])):
        spans = tmp_path / f"spans{k}.json"
        run = subprocess.run([sys.executable, str(ROOT / "pidbench" / "traced.py"), str(spans), str(k),
                              "20", "--", *argv], capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0, run.stderr
        reached |= {span["name"] for span in json.loads(spans.read_text())}
    hooks = {traced.span_name(module, attr) for module, attr in traced.TRACED}
    assert hooks - reached == BLIND_HOOKS


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


REPRODUCE_FILES = ("proportional_a10.csv", "proportional_a30.csv", "pid.csv", "pi.csv", "report.json")


def test_reproduce_outputs(tmp_path, capsys, linalg_calls):
    out = tmp_path / "repro"
    code, report = run_json(capsys, ["reproduce", "--out", str(out), "--json"])
    assert code == 0
    # one decomposition of the bundled graph serves all four scenarios, and
    # no command builds the Psi blocks
    assert linalg_calls["eigh"] == 1
    assert linalg_calls["psi"] == 0
    assert sorted(os.listdir(out)) == sorted(REPRODUCE_FILES)
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


def refuse_to_write(monkeypatch, name: str) -> None:
    """Make cli's open() of the file staged for ``name`` fail, as a full disk would."""
    def opener(path, *args, **kwargs):
        if os.path.basename(path).startswith(f".{name}."):
            raise OSError(28, "No space left on device", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opener, raising=False)


def test_failed_reproduce_keeps_the_previous_run(tmp_path, monkeypatch, capsys):
    # the report cannot be written: no CSV of the failed run replaces one of the first
    out = tmp_path / "repro"
    assert main(["reproduce", "--out", str(out)]) == 0
    before = {name: ((out / name).read_bytes(), (out / name).stat().st_ino) for name in REPRODUCE_FILES}
    refuse_to_write(monkeypatch, "report.json")
    capsys.readouterr()
    assert main(["reproduce", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("io error: ")
    assert sorted(os.listdir(out)) == sorted(REPRODUCE_FILES)
    assert {name: ((out / name).read_bytes(), (out / name).stat().st_ino) for name in REPRODUCE_FILES} == before


def test_failed_simulate_commits_no_trace(tmp_path, monkeypatch, capsys, hom_config):
    out = tmp_path / "out"
    out.mkdir()
    refuse_to_write(monkeypatch, "summary.json")
    assert main(["simulate", "--config", hom_config, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("io error: ")
    assert os.listdir(out) == []


def test_failed_simulate_keeps_a_user_file_of_a_staged_name(tmp_path, capsys):
    # the run stages under names of its own, so it removes no file it did not write
    config = tmp_path / "long.yaml"
    config.write_text(BENCH_CONFIG.read_text().replace("t_end: 30.0", "t_end: 1.0e+9"))
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace.csv.tmp").write_bytes(b"a user's file\n")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
    assert "sim.record_stride" in capsys.readouterr().err
    assert os.listdir(out) == ["trace.csv.tmp"]
    assert (out / "trace.csv.tmp").read_bytes() == b"a user's file\n"


def test_nested_stagings_of_one_name_get_distinct_files(tmp_path):
    out = str(tmp_path / "out")
    with cli._outputs(out) as outer, cli._outputs(out) as inner:
        first, second = outer("trace.csv"), inner("trace.csv")
        assert first != second
        Path(first).write_text("outer\n")
        Path(second).write_text("inner\n")
    # the inner staging commits first, the outer one last
    assert os.listdir(out) == ["trace.csv"]
    assert Path(out, "trace.csv").read_text() == "outer\n"


def test_failed_reproduce_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    config = tmp_path / "long.yaml"
    config.write_text(BENCH_CONFIG.read_text().replace("t_end: 30.0", "t_end: 1.0e+9"))
    monkeypatch.setattr(cli, "BENCHMARK_CONFIG", str(config))
    assert main(["reproduce", "--out", str(tmp_path / "fresh" / "a" / "b")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "sim.record_stride" in err
    assert sorted(os.listdir(tmp_path)) == ["long.yaml"]


@pytest.mark.parametrize(
    "argv, config, code, files",
    [
        (["reproduce"], None, 0, REPRODUCE_FILES),
        (["simulate", "--json"], HOMOGENEOUS, 0, ("summary.json", "trace.csv")),
        (["analyze"], BENCH_CONFIG.read_text(), 0, ()),
        (["analyze", "--json"], UNSTABLE_AVERAGE, 2, ()),
        (["tune"], BENCH_CONFIG.read_text(), 0, ()),
    ],
    ids=["reproduce", "simulate-json", "analyze", "analyze-uncertified-json", "tune"],
)
def test_closed_stdout_ends_the_printing_not_the_run(tmp_path, argv, config, code, files):
    # stdout is a pipe whose read end is closed, as under `| head -1` once head
    # has exited: the run keeps its exit code and files, and stderr stays empty
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.yaml").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.yaml")]
    if files:
        argv = argv + ["--out", str(out)]
    read, write = os.pipe()
    os.close(read)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    try:
        run = subprocess.run([sys.executable, "-m", "pidnet.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (code, "")
    assert sorted(os.listdir(out)) == sorted(files) if files else not out.exists()


def test_config_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"# \xff\xfe\n" + HOMOGENEOUS.encode())
    bom = tmp_path / "bom.yaml"
    bom.write_bytes(b"\xef\xbb\xbf" + HOMOGENEOUS.encode())
    for command in ("analyze", "tune", "simulate"):
        argv = [command, "--config"]
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        assert main([*argv, str(bad), *out]) == 3
        assert capsys.readouterr().err.startswith(f"config error: cannot read {bad}: 'utf-8' codec")
        assert main([*argv, str(bom), *out]) == 0
        capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pidnet" in capsys.readouterr().out
