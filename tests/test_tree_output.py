"""The tree output, the one report format whose keys are not sorted: it follows
each block's field order."""

import re

import pytest

from pidnet.cli import main
from conftest import BENCH_CONFIG

ANALYSIS = """\
analysis:
  nodes: 6
  lambda_2: 5
  lambda_max: 20
  psi11: -2
  rho_bar_sq: 32
  h_norm_exact: 0.202007
  h_norm_bound: 1
"""

CERTIFICATE = """\
certificate:
  regime: HeterogeneousPID
  certified: True
  conditions:
    name: average_pole_negative
    satisfied: True
    margin: 2

    name: beta_positive
    satisfied: True
    margin: 5

    name: proportional_gain_threshold
    satisfied: True
    margin: 3.88826

  x_inf: 50
  z_inf_bound: 417.612
  epsilon_bound: None
  mu: None
  distributed_alpha: 6
  effective_alpha: 7
"""

ANALYZE = ANALYSIS + CERTIFICATE + """\
equilibrium:
  x_inf: 50
  z_star_norm: 32.8758
transverse:
  hurwitz: True
  hurwitz_sub_block: True
  max_real_part: -0.73793
  energy_margin: 35.9703
  spectrum: hyperbolic
"""

TUNE = """\
gamma: 1
alpha_min_exact: 2.33409
alpha_min_conservative: 4.4
reference_alpha_threshold: 5.92
suggested_gains:
  alpha: 2.35743
  beta: 5
  gamma: 1
""" + ANALYSIS

SIMULATION_KEYS = """\
simulation
  t_end
  samples
  x_inf
  final_state
  final_disagreement
  final_offset
  final_z_norm
  steady_z_norm
  steady_disagreement
  empirical_rate
bound_comparisons
  bound
  value
  observed
  holds
"""

SCENARIO_KEYS = """\
    gains
      alpha
      beta
      gamma
    certified
    x_inf
    final_state
    final_disagreement
    steady_disagreement
    steady_z_norm
    z_inf_bound
"""

COMPARISON_KEYS = """\
comparison
  pid_vs_pi_steady_z
    pid
    pi
    pid_smaller
  proportional_residual
    alpha_10
    alpha_30
    decreases_with_alpha
  alpha_threshold
    exact
    conservative
    reference
"""


def keys(text: str) -> str:
    """Each line's indent and key, without values, list items or blank lines."""
    return "".join(m[1] + "\n" for m in re.finditer(r"^( *\w+):", text, re.MULTILINE))


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "--config", str(BENCH_CONFIG)], ANALYZE),
    (["tune", "--config", str(BENCH_CONFIG)], TUNE),
])
def test_analyze_and_tune_tree_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_simulate_tree_key_order(tmp_path, capsys):
    assert main(["simulate", "--config", str(BENCH_CONFIG), "--out", str(tmp_path)]) == 0
    assert keys(capsys.readouterr().out) == keys(CERTIFICATE) + SIMULATION_KEYS


def test_reproduce_tree_key_order(tmp_path, capsys):
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    names = ("proportional_a10", "proportional_a30", "pid", "pi")
    scenarios = "".join(f"  {name}\n" + SCENARIO_KEYS for name in names)
    assert keys(capsys.readouterr().out) == "scenarios\n" + scenarios + COMPARISON_KEYS
