"""scripts/same_outputs.py: the comparison of two sides' outputs."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from pidnet import certify, transverse_system
from pidnet.config import parse_config
from pidnet.errors import ConfigError, NonFinite

ROOT = Path(__file__).resolve().parent.parent


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


@pytest.fixture(scope="module")
def default_set(tmp_path_factory):
    """The script, where it wrote the default set's configs, and their runs by name."""
    same_outputs, where = load_same_outputs(), tmp_path_factory.mktemp("configs")
    paths = same_outputs.write_configs(ROOT, where)
    return same_outputs, where, paths, same_outputs.commands(paths)


def test_compare_names_each_difference():
    same_outputs = load_same_outputs()
    run = {"exit": 0, "stdout": b"a: 1\n", "stderr": b"", "files": {"trace.csv": b"0,1\n"}}
    parent = {"analyze": run, "reproduce": run, "tune": run}
    change = {
        "analyze": run,
        "reproduce": {**run, "exit": 4, "files": {"trace.csv": b"0,2\n", "extra": b""}},
        "simulate": run,
        "tune": {**run, "stderr": b"warning\n"},
    }
    assert same_outputs.compare(parent, parent) == []
    assert same_outputs.compare(parent, change) == [
        "reproduce: exit code 0 != 4",
        "reproduce: file extra only in change",
        "reproduce: file trace.csv differs from byte 2 (4 and 4 bytes)",
        "simulate: only in change",
        "tune: stderr differs from byte 0 (0 and 8 bytes)",
    ]


def test_variants_reach_each_regime_spectrum_and_section_error(default_set):
    # the default set holds the homogeneous certificates, the dense spectrum,
    # a certified root that rounds to -0.0, the agent-data sections' errors
    # and gamma*L beyond the float range
    exactly_one = "config: exactly one of 'ensemble' or 'microgrid' is required"
    overflow = "modified Laplacian: gains.gamma * L leaves the float range (gains.gamma = 1e+308)"
    expected = {
        "readme-pid.yaml": ("HomogeneousPID", True, "hyperbolic"),
        "readme-pi.yaml": ("HomogeneousPI", True, "hyperbolic"),
        "readme-pd.yaml": ("HomogeneousPD", False, "dense"),
        "readme-heterogeneous-no-integral.yaml": ("HeterogeneousPID", False, "dense"),
        "path3-dense.yaml": ("HeterogeneousPID", False, "dense"),
        "path8-zero-root.yaml": ("HomogeneousPI", True, "hyperbolic"),
        "both-sections.yaml": exactly_one,
        "no-agent-section.yaml": exactly_one,
        "microgrid-unknown-key.yaml": "microgrid: unknown keys ['droop'] (allowed: ['k', 'p_star'])",
        "short-p-star.yaml": "microgrid.p_star: expected 6 entries, got 2",
        "readme-pid-gamma-overflow.yaml": overflow,
        "readme-pd-gamma-overflow.yaml": overflow,
    }
    _, where, paths, runs = default_set
    reached = {}
    for name in expected:
        assert where / name in paths
        for command, flag in itertools.product(("analyze", "tune"), ("", "--json")):
            assert f"{command}{flag} {name}" in runs
        try:
            cfg = parse_config((where / name).read_text())
            verdict = transverse_system(cfg.instance, cfg.effective_gains).verdict()
            reached[name] = (certify(cfg.instance, cfg.effective_gains).regime, verdict.hurwitz,
                             verdict.spectrum)
        except (ConfigError, NonFinite) as exc:
            reached[name] = str(exc)
    assert reached == expected


def test_simulate_runs_on_an_n200_config(default_set):
    # the microgrid's trace is 6 nodes wide; this one is 200
    same_outputs, where, _, runs = default_set
    config = where / same_outputs.SIMULATE_CONFIG
    for flag in ("", "--json"):
        argv = runs[f"simulate{flag} {config.name}"]
        assert argv[:3] == ["simulate", "--config", str(config)] and "--out" in argv
        assert ("--json" in argv) is bool(flag)
    cfg = parse_config(config.read_text())
    assert (cfg.instance.dec.node_count, cfg.sim.t_end, cfg.sim.record_stride) == (200, 0.002, 10)


def test_simulate_runs_on_the_overflowing_gamma_variants(default_set):
    # at gamma = 1e308 simulate's certify raises before its assembly would;
    # these runs pin the exit code and stderr of that error
    same_outputs, where, _, runs = default_set
    for name in same_outputs.OVERFLOWING_GAMMA:
        for flag in ("", "--json"):
            argv = runs[f"simulate{flag} {name}"]
            assert argv[:3] == ["simulate", "--config", str(where / name)] and "--out" in argv
            assert ("--json" in argv) is bool(flag)
