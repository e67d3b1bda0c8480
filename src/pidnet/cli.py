"""Command-line front end: analyze, simulate, tune and reproduce workflows.

Exit codes are a stable contract for scripting:
0 success, 2 certification failure, 3 config error, 4 numeric failure.
``simulate`` and ``reproduce`` stage their files under names unique to the run
and move them into place together, report last, so a failed run leaves
``--out`` as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import InstanceConfig, load_config
from .errors import ConfigError, NonFinite, PidnetError, SingularEnsemble
from .netmodel import ClosedLoopSystem, Gains, equilibrium, norm2
from .sim import SimConfig, TraceMetrics, build_microgrid, metrics, propagate, write_trace
from .spectral import modified_laplacian
from .transverse import transverse_system
from .tuning import BENCHMARK_ALPHA_REFERENCE, analysis, certify, min_alpha, tune

EXIT_OK = 0
EXIT_UNCERTIFIED = 2
EXIT_NUMERIC = 4

# The six-inverter benchmark that ``reproduce`` runs, shipped with the package.
BENCHMARK_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "microgrid6.yaml")


def _certificate_report(cfg: InstanceConfig) -> dict:
    gains = cfg.effective_gains
    report = asdict(certify(cfg.instance, gains))
    if cfg.microgrid:
        report["distributed_alpha"] = cfg.gains.alpha
        report["effective_alpha"] = gains.alpha
    return report


def _dumps(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"report holds a non-finite value ({exc})") from exc


def _print_report(report: dict, as_json: bool) -> None:
    """Print the report; a reader that closes stdout early ends the printing, not the run."""
    text = _dumps(report)
    try:
        if as_json:
            print(text)
        else:
            _print_tree(report)
        sys.stdout.flush()
    except BrokenPipeError:  # the interpreter's final flush would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_tree(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list, tuple)):
                print(f"{pad}{key}:")
                _print_tree(val, indent + 1)
            else:
                print(f"{pad}{key}: {_fmt(val)}")
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            if isinstance(val, (dict, list, tuple)):
                _print_tree(val, indent)
                print()
            else:
                print(f"{pad}- {_fmt(val)}")


def _fmt(val) -> str:
    if isinstance(val, float):
        return f"{val:.6g}"
    return str(val)


@contextlib.contextmanager
def _outputs(out: str):
    """Stage a command's files in the directory ``out``, all or nothing:
    ``stage(name)`` creates and returns ``<out>/.<name>.<random hex>.tmp``, a
    file no other run or user holds. If the block succeeds the staged files
    replace their targets in the order staged; if it fails they and the
    directories the run made are removed, and nothing else. Only a failure of
    a move itself leaves the files already moved in place."""
    made, parent = [], os.path.abspath(out)  # the directories makedirs creates, deepest first
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    staged = []  # (staged file, target) pairs

    def stage(name: str) -> str:
        path = os.path.join(out, f".{name}.{os.urandom(8).hex()}.tmp")
        # exclusive, and with the mode open() gives (mkstemp's is 0600)
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        staged.append((path, os.path.join(out, name)))
        return path

    try:
        os.makedirs(out, exist_ok=True)
        yield stage
    except BaseException:
        undo = [(os.remove, path) for path, _ in staged] + [(os.rmdir, path) for path in made]
        for remove, path in undo:
            with contextlib.suppress(OSError):
                remove(path)
        raise
    for path, target in staged:
        os.replace(path, target)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    instance = cfg.instance
    report = {"analysis": asdict(analysis(instance, cfg.gains.gamma)),
              "certificate": _certificate_report(cfg)}
    try:
        eq = equilibrium(instance.ensemble, modified_laplacian(instance.dec, cfg.gains.gamma))
        report["equilibrium"] = {
            "x_inf": eq.x_inf,
            "z_star_norm": norm2(eq.z_star),
        }
    except SingularEnsemble as exc:
        report["equilibrium"] = {"error": str(exc)}
    report["transverse"] = asdict(transverse_system(instance, cfg.effective_gains).verdict())
    _print_report(report, args.json)
    return EXIT_OK if report["certificate"]["certified"] else EXIT_UNCERTIFIED


def _run(sys_: ClosedLoopSystem, sim_cfg: SimConfig, strict: bool, csv_path: str) -> TraceMetrics:
    """Integrate, writing the trace to csv_path as it is formed, then
    summarise it against the consensus value."""
    trace = write_trace(csv_path, *propagate(sys_, sim_cfg, strict=strict))
    return metrics(trace, x_inf=sys_.ensemble.x_inf)


def _simulate_once(cfg: InstanceConfig, strict: bool, csv_path: str) -> dict:
    cert_report = _certificate_report(cfg)
    if not cert_report["certified"]:
        warnings.warn("instance is not certified; simulating anyway", stacklevel=2)
    summary = _run(cfg.system, cfg.sim, strict, csv_path)
    report = {"certificate": cert_report, "simulation": asdict(summary), "bound_comparisons": []}
    for name, key, observed in (("z_inf", "z_inf_bound", summary.steady_z_norm),
                                ("epsilon", "epsilon_bound", summary.steady_disagreement)):
        if cert_report[key] is not None:
            report["bound_comparisons"].append({"bound": name, "value": cert_report[key],
                                                "observed": observed, "holds": observed <= cert_report[key]})
    return report


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    # trace.csv appears only once the report is known to be finite
    with _outputs(args.out) as stage:
        report = _simulate_once(cfg, args.strict, stage("trace.csv"))
        with open(stage("summary.json"), "w") as fh:
            fh.write(_dumps(report) + "\n")
    _print_report(report, args.json)
    return EXIT_OK


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    instance = cfg.instance
    gamma = cfg.gains.gamma if args.gamma is None else args.gamma
    if not 0.0 <= gamma <= sys.float_info.max:
        raise ConfigError(f"--gamma: expected a finite number >= 0, got {gamma}")
    _print_report(asdict(tune(instance, gamma, cfg.gains.beta)), args.json)
    return EXIT_OK


REPRODUCE_SCENARIOS = (
    ("proportional_a10", Gains(alpha=10.0, beta=0.0, gamma=0.0)),
    ("proportional_a30", Gains(alpha=30.0, beta=0.0, gamma=0.0)),
    ("pid", Gains(alpha=6.0, beta=5.0, gamma=1.0)),
    ("pi", Gains(alpha=6.0, beta=5.0, gamma=0.0)),
)


def _reproduce_scenario(cfg: InstanceConfig, gains: Gains, path: str) -> dict:
    """Run one scenario, writing its trace to path as it is formed."""
    sys_ = build_microgrid(cfg.instance, gains)
    cert = certify(cfg.instance, sys_.gains)
    summary = _run(sys_, cfg.sim, False, path)
    return {
        "gains": asdict(gains),
        "certified": cert.certified,
        "x_inf": summary.x_inf,
        "final_state": summary.final_state,
        "final_disagreement": summary.final_disagreement,
        "steady_disagreement": summary.steady_disagreement,
        "steady_z_norm": summary.steady_z_norm,
        "z_inf_bound": cert.z_inf_bound,
    }


def cmd_reproduce(args) -> int:
    cfg = load_config(BENCHMARK_CONFIG)
    with _outputs(args.out) as stage:
        results = {
            name: _reproduce_scenario(cfg, gains, stage(f"{name}.csv"))
            for name, gains in REPRODUCE_SCENARIOS
        }
        report = {
            "scenarios": results,
            "comparison": {
                "pid_vs_pi_steady_z": {
                    "pid": results["pid"]["steady_z_norm"],
                    "pi": results["pi"]["steady_z_norm"],
                    "pid_smaller": results["pid"]["steady_z_norm"] < results["pi"]["steady_z_norm"],
                },
                "proportional_residual": {
                    "alpha_10": results["proportional_a10"]["steady_disagreement"],
                    "alpha_30": results["proportional_a30"]["steady_disagreement"],
                    "decreases_with_alpha": results["proportional_a30"]["steady_disagreement"]
                    < results["proportional_a10"]["steady_disagreement"],
                },
                "alpha_threshold": {
                    "exact": min_alpha(cfg.instance, cfg.gains.gamma),
                    "conservative": min_alpha(cfg.instance, cfg.gains.gamma, conservative=True),
                    "reference": BENCHMARK_ALPHA_REFERENCE,
                },
            },
        }
        with open(stage("report.json"), "w") as fh:
            fh.write(_dumps(report) + "\n")
    _print_report(report, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidnet",
        description="Distributed PID consensus: analysis, tuning and simulation",
    )
    parser.add_argument("--version", action="version", version=f"pidnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="spectral + certification report, no simulation")
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="integrate the closed loop and export a trace")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--strict", action="store_true", help="fail on the step-size guard")
    simulate.add_argument("--json", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    tune = sub.add_parser("tune", help="minimal certified proportional gain")
    tune.add_argument("--config", required=True)
    tune.add_argument("--gamma", type=float, default=None, help="override the derivative gain")
    tune.add_argument("--json", action="store_true")
    tune.set_defaults(func=cmd_tune)

    reproduce = sub.add_parser("reproduce", help="run the bundled six-inverter benchmark set")
    reproduce.add_argument("--out", required=True, help="output directory")
    reproduce.add_argument("--json", action="store_true")
    reproduce.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PidnetError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
