"""Command-line front end: analyze, simulate, tune and reproduce workflows.

Exit codes are a stable contract for scripting:
0 success, 2 certification failure, 3 config error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .config import InstanceConfig, load_config
from .errors import (
    ConfigError,
    DegenerateDecomposition,
    GraphTooLarge,
    NonFinite,
    PidnetError,
    SingularEnsemble,
    StepTooLarge,
    TraceTooLarge,
    UnstableAverage,
)
from .netmodel import ClosedLoopSystem, Gains, equilibrium
from .sim import SimConfig, Trace, TraceMetrics, build_microgrid, integrate, metrics
from .spectral import h_norm_bound, modified_laplacian
from .transverse import psi_blocks, transverse_system
from .tuning import certify, min_alpha

EXIT_OK = 0
EXIT_UNCERTIFIED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# Reference proportional-gain threshold reported for the six-inverter
# benchmark in the literature; echoed for comparison, never asserted.
BENCHMARK_ALPHA_REFERENCE = 5.92

# The six-inverter benchmark that ``reproduce`` runs, shipped with the package.
BENCHMARK_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "microgrid6.yaml")


def _analysis_values(cfg: InstanceConfig, gamma: float) -> dict:
    instance = cfg.instance
    dec = instance.dec
    mod_lap = modified_laplacian(dec, gamma)
    psi = psi_blocks(instance, gamma)
    return {
        "nodes": dec.node_count,
        "lambda_2": dec.lambda_2,
        "lambda_max": dec.lambda_max,
        "psi11": psi.psi11,
        "rho_bar_sq": float(psi.rho_bar @ psi.rho_bar),
        "h_norm_exact": mod_lap.h_norm,
        "h_norm_bound": h_norm_bound(dec, gamma),
    }


def _certificate_report(cfg: InstanceConfig) -> dict:
    gains = cfg.effective_gains
    cert = certify(cfg.instance, gains)
    report = cert.to_dict()
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
    text = _dumps(report)
    if as_json:
        print(text)
        return
    _print_tree(report)


def _print_tree(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                print(f"{pad}{key}:")
                _print_tree(val, indent + 1)
            else:
                print(f"{pad}{key}: {_fmt(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _print_tree(val, indent)
                print()
            else:
                print(f"{pad}- {_fmt(val)}")


def _fmt(val) -> str:
    if isinstance(val, float):
        return f"{val:.6g}"
    return str(val)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_trace(trace: Trace, path: str) -> None:
    tmp = path + ".tmp"
    trace.to_csv(tmp)
    os.replace(tmp, path)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    report = {
        "analysis": _analysis_values(cfg, cfg.gains.gamma),
        "certificate": _certificate_report(cfg),
    }
    instance = cfg.instance
    try:
        eq = equilibrium(instance.ensemble, modified_laplacian(instance.dec, cfg.gains.gamma))
        report["equilibrium"] = {
            "x_inf": eq.x_inf,
            "z_star_norm": float(np.linalg.norm(eq.z_star)),
        }
    except SingularEnsemble as exc:
        report["equilibrium"] = {"error": str(exc)}
    tv = transverse_system(instance, cfg.effective_gains)
    report["transverse"] = {
        "hurwitz": tv.is_hurwitz(),
        "hurwitz_sub_block": tv.is_hurwitz(include_average_mode=False),
        "max_real_part": tv.max_real_part,
        "energy_margin": tv.energy_margin,
        "spectrum": tv.spectrum,
    }
    _print_report(report, args.json)
    return EXIT_OK if report["certificate"]["certified"] else EXIT_UNCERTIFIED


def _run(
    sys_: ClosedLoopSystem, sim_cfg: SimConfig, strict: bool
) -> tuple[Trace, float | None, TraceMetrics]:
    """Integrate, then summarise the trace against the consensus value."""
    trace = integrate(sys_, sim_cfg, strict=strict)
    x_inf = None
    try:
        x_inf = equilibrium(sys_.ensemble, sys_.mod_lap).x_inf
    except SingularEnsemble:
        pass
    return trace, x_inf, metrics(trace, x_inf=x_inf)


def _simulate_once(cfg: InstanceConfig, strict: bool) -> tuple[dict, Trace]:
    cert_report = _certificate_report(cfg)
    if not cert_report["certified"]:
        warnings.warn("instance is not certified; simulating anyway", stacklevel=2)
    trace, x_inf, summary = _run(cfg.system, cfg.sim, strict)
    report = {
        "certificate": cert_report,
        "simulation": {
            "t_end": float(trace.times[-1]),
            "samples": int(trace.times.size),
            "x_inf": x_inf,
            "final_state": [float(v) for v in trace.x[-1]],
            "final_disagreement": summary.final_disagreement,
            "final_offset": summary.final_offset,
            "final_z_norm": summary.final_z_norm,
            "steady_z_norm": summary.steady_z_norm,
            "steady_disagreement": summary.steady_disagreement,
            "empirical_rate": summary.empirical_rate,
        },
    }
    comparisons = []
    if cert_report.get("z_inf_bound") is not None:
        comparisons.append(
            {
                "bound": "z_inf",
                "value": cert_report["z_inf_bound"],
                "observed": summary.steady_z_norm,
                "holds": summary.steady_z_norm <= cert_report["z_inf_bound"],
            }
        )
    if cert_report.get("epsilon_bound") is not None:
        comparisons.append(
            {
                "bound": "epsilon",
                "value": cert_report["epsilon_bound"],
                "observed": summary.steady_disagreement,
                "holds": summary.steady_disagreement <= cert_report["epsilon_bound"],
            }
        )
    report["bound_comparisons"] = comparisons
    return report, trace


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    report, trace = _simulate_once(cfg, args.strict)
    summary = _dumps(report) + "\n"
    os.makedirs(args.out, exist_ok=True)
    _write_trace(trace, os.path.join(args.out, "trace.csv"))
    _atomic_write(os.path.join(args.out, "summary.json"), summary)
    _print_report(report, args.json)
    return EXIT_OK


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    instance = cfg.instance
    gamma = cfg.gains.gamma if args.gamma is None else args.gamma
    if not 0.0 <= gamma <= sys.float_info.max:
        raise ConfigError(f"--gamma: expected a finite number >= 0, got {gamma}")
    alpha_exact = min_alpha(instance, gamma)
    alpha_cons = min_alpha(instance, gamma, conservative=True)
    report = {
        "gamma": gamma,
        "alpha_min_exact": alpha_exact,
        "alpha_min_conservative": alpha_cons,
        "reference_alpha_threshold": BENCHMARK_ALPHA_REFERENCE,
        "suggested_gains": {
            "alpha": 1.01 * alpha_exact,
            "beta": max(cfg.gains.beta, 1.0),
            "gamma": gamma,
        },
        "analysis": _analysis_values(cfg, gamma),
    }
    _print_report(report, args.json)
    return EXIT_OK


REPRODUCE_SCENARIOS = (
    ("proportional_a10", Gains(alpha=10.0, beta=0.0, gamma=0.0)),
    ("proportional_a30", Gains(alpha=30.0, beta=0.0, gamma=0.0)),
    ("pid", Gains(alpha=6.0, beta=5.0, gamma=1.0)),
    ("pi", Gains(alpha=6.0, beta=5.0, gamma=0.0)),
)


def cmd_reproduce(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    cfg = load_config(BENCHMARK_CONFIG)
    instance = cfg.instance
    results = {}
    for name, gains in REPRODUCE_SCENARIOS:
        sys_ = build_microgrid(instance, gains)
        cert = certify(instance, sys_.gains)
        trace, x_inf, summary = _run(sys_, cfg.sim, strict=False)
        _write_trace(trace, os.path.join(args.out, f"{name}.csv"))
        results[name] = {
            "gains": {"alpha": gains.alpha, "beta": gains.beta, "gamma": gains.gamma},
            "certified": cert.certified,
            "x_inf": x_inf,
            "final_state": [float(v) for v in trace.x[-1]],
            "final_disagreement": summary.final_disagreement,
            "steady_disagreement": summary.steady_disagreement,
            "steady_z_norm": summary.steady_z_norm,
            "z_inf_bound": cert.z_inf_bound,
        }

    gamma = cfg.gains.gamma
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
                "exact": min_alpha(instance, gamma),
                "conservative": min_alpha(instance, gamma, conservative=True),
                "reference": BENCHMARK_ALPHA_REFERENCE,
            },
        },
    }
    _atomic_write(os.path.join(args.out, "report.json"), _dumps(report) + "\n")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnstableAverage as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (NonFinite, StepTooLarge, TraceTooLarge, GraphTooLarge, DegenerateDecomposition,
            SingularEnsemble, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PidnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
