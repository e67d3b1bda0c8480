"""Config parsing: schema validation, error messages, object construction."""

import numpy as np
import pytest

from pidnet.config import load_config, parse_config
from pidnet.errors import ConfigError, DisconnectedGraph
from conftest import BENCH_CONFIG

VALID = """
graph:
  nodes: 3
  edges:
    - {i: 0, j: 1, w: 1.0}
    - {i: 1, j: 2, w: 2.0}
ensemble:
  rho: [-1.0, -2.0, -3.0]
  delta: [0.5, 0.0, -0.5]
gains:
  alpha: 2.0
  beta: 1.0
  gamma: 0.5
sim:
  dt: 0.01
  t_end: 5.0
  record_stride: 2
"""

MICROGRID = """
graph:
  nodes: 3
  edges:
    - {i: 0, j: 1, w: 5.0}
    - {i: 1, j: 2, w: 5.0}
    - {i: 2, j: 0, w: 5.0}
microgrid:
  k: [-1.0, 0.0, -2.0]
  p_star: [10.0, 20.0, 30.0]
gains:
  alpha: 3.0
  beta: 1.0
  gamma: 1.0
"""


def test_valid_ensemble_config():
    cfg = parse_config(VALID)
    assert cfg.graph.node_count == 3
    assert np.array_equal(cfg.rho, [-1.0, -2.0, -3.0])
    assert not cfg.microgrid
    assert cfg.gains.alpha == 2.0
    assert cfg.sim.dt == 0.01 and cfg.sim.t_end == 5.0 and cfg.sim.record_stride == 2
    sys_ = cfg.system
    assert sys_.gains.alpha == 2.0  # no effective-gain shift outside microgrid mode
    sc = cfg.sim
    assert sc.dt == 0.01 and np.array_equal(sc.x0, [1.0, 2.0, 3.0])


def test_valid_microgrid_config():
    cfg = parse_config(MICROGRID)
    assert cfg.microgrid
    sys_ = cfg.system
    assert sys_.gains.alpha == 4.0  # distributed 3 plus one unit of physical coupling
    assert np.array_equal(sys_.ensemble.rho, [-1.0, 0.0, -2.0])
    assert cfg.sim.t_end == 30.0  # default horizon


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(VALID.replace("gamma: 0.5", "gamma: 0.5\n  kappa: 1.0"))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(VALID.replace("nodes: 3", "nodes: 3\n  directed: true"))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(VALID + "\nextra_section:\n  a: 1\n")


def test_exactly_one_agent_section():
    both = VALID + "\nmicrogrid:\n  k: [0, 0, 0]\n  p_star: [1, 1, 1]\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)
    neither = "\n".join(
        line for line in VALID.splitlines()
        if not line.startswith(("ensemble", "  rho", "  delta"))
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(neither)


def test_vector_length_mismatch():
    with pytest.raises(ConfigError, match="expected 3 entries"):
        parse_config(VALID.replace("[-1.0, -2.0, -3.0]", "[-1.0, -2.0]"))


def test_invalid_gains_surface_as_config_error():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(VALID.replace("alpha: 2.0", "alpha: -1.0"))
    with pytest.raises(ConfigError, match="missing"):
        parse_config(VALID.replace("  alpha: 2.0\n", ""))


def test_graph_errors_surface_as_config_error():
    disconnected = VALID.replace("    - {i: 1, j: 2, w: 2.0}\n", "")
    with pytest.raises(ConfigError, match="graph"):
        parse_config(disconnected)
    with pytest.raises(ConfigError):
        parse_config(VALID.replace("w: 1.0", "w: -1.0"))
    # connected, but lambda_2 is below the relative tolerance times lambda_N
    stiff = parse_config(VALID.replace("w: 1.0", "w: 1.0e+8").replace("w: 2.0", "w: 1.0"))
    with pytest.raises(DisconnectedGraph, match=r"lambda_2 = 1\.\d+e\+00 is not above "
                       r"1e-08 \* max\(lambda_N, 1\) with lambda_N = 2\.\d+e\+08"):
        stiff.instance


def test_bad_yaml_and_bad_types():
    with pytest.raises(ConfigError, match="invalid YAML"):
        parse_config("graph: [unclosed")
    with pytest.raises(ConfigError, match="expected a number, got 'fast'$"):
        parse_config(VALID.replace("alpha: 2.0", "alpha: fast"))
    # YAML 1.1 reads 1.0e12 and -2e-1 as strings; the message says how to write them
    with pytest.raises(ConfigError, match=r"got '1\.0e12'; YAML 1\.1 needs a dot and a signed "
                       r"exponent \(unquoted\), write 1\.0e\+12$"):
        parse_config(VALID.replace("alpha: 2.0", "alpha: 1.0e12"))
    with pytest.raises(ConfigError, match=r"rho\[1\]: .* write -2\.0e-01$"):
        parse_config(VALID.replace("[-1.0, -2.0, -3.0]", "[-1.0, -2e-1, -3.0]"))
    with pytest.raises(ConfigError, match="record_stride"):
        parse_config(VALID.replace("record_stride: 2", "record_stride: 0"))
    with pytest.raises(ConfigError, match="dt"):
        parse_config(VALID.replace("dt: 0.01", "dt: -0.5"))
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(VALID.replace("dt: 0.01\n  t_end: 5.0", "dt: 1.0\n  t_end: 0.5"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")


def test_bundled_benchmark_config():
    cfg = load_config(BENCH_CONFIG)
    assert cfg.microgrid
    assert cfg.graph.node_count == 6
    assert np.array_equal(cfg.rho, [-2.0, 0.0, 0.0, -4.0, 0.0, -6.0])
    assert np.array_equal(cfg.delta, [150.0, 80.0, 120.0, 100.0, 100.0, 50.0])
    assert (cfg.gains.alpha, cfg.gains.beta, cfg.gains.gamma) == (6.0, 5.0, 1.0)
