"""Ensemble, closed-loop assembly, equilibrium and the protocol balance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidnet import (
    DimensionMismatch,
    Gains,
    Graph,
    Instance,
    NodeEnsemble,
    SimConfig,
    SingularEnsemble,
    assemble,
    equilibrium,
    integrate,
    modified_laplacian,
)
from pidnet import netmodel
from conftest import BENCH_DELTA, BENCH_RHO, random_graph, random_heterogeneous_instance, ring

TOL = 1e-9


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(alpha=0.0)
    with pytest.raises(ValueError):
        Gains(alpha=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        Gains(alpha=1.0, gamma=-0.1)
    g = Gains(alpha=1.0)
    assert g.beta == 0.0 and g.gamma == 0.0


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gains_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number, got {value}$"):
        Gains(**{"alpha": 1.0, field: value})


def test_ensemble_rejects_non_finite():
    with pytest.raises(ValueError, match=r"^rho\[0\] must be a finite number, got nan$"):
        NodeEnsemble(rho=[np.nan, 1.0], delta=[0.0, np.inf])
    with pytest.raises(ValueError, match=r"^delta\[1\] must be a finite number, got -inf$"):
        NodeEnsemble(rho=[-1.0, 1.0], delta=[0.0, -np.inf])


def test_ensemble_shape_checks():
    with pytest.raises(DimensionMismatch):
        NodeEnsemble(rho=[1.0, 2.0], delta=[1.0])
    with pytest.raises(DimensionMismatch):
        Instance.from_graph(Graph(2, ((0, 1, 1.0),)), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_homogeneity_detection():
    assert NodeEnsemble(rho=[-2.0, -2.0], delta=[0.0, 1.0]).is_homogeneous()
    assert not NodeEnsemble(rho=[-2.0, -2.1], delta=[0.0, 1.0]).is_homogeneous()


def test_assemble_proportional_only_reduces(rng):
    inst = random_heterogeneous_instance(rng, 5)
    sys_ = assemble(inst, Gains(alpha=1.7, beta=0.0, gamma=0.0))
    expected_A1 = inst.ensemble.P - 1.7 * inst.dec.laplacian
    assert np.max(np.abs(sys_.A1 - expected_A1)) < TOL
    assert np.max(np.abs(sys_.A[5:, :5])) == 0.0


def test_integral_rows_annihilate_ones(rng):
    inst = random_heterogeneous_instance(rng, 6)
    sys_ = assemble(inst, Gains(alpha=2.0, beta=1.5, gamma=0.8))
    # ones^T A2 = 0: the integral states keep zero sum
    assert np.max(np.abs(np.ones(6) @ sys_.A[6:, :6])) < TOL


def test_equilibrium_zero_disturbance(rng):
    inst = Instance.from_graph(random_graph(rng, 4), -np.ones(4), np.zeros(4))
    eq = equilibrium(inst.ensemble, modified_laplacian(inst.dec, 0.5))
    assert eq.x_inf == 0.0
    assert np.max(np.abs(eq.z_star)) < TOL


def test_equilibrium_benchmark_consensus_value():
    inst = Instance.from_graph(ring(6, 5.0), BENCH_RHO, BENCH_DELTA)
    sys_ = assemble(inst, Gains(alpha=7.0, beta=5.0, gamma=1.0))
    eq = equilibrium(sys_.ensemble, sys_.mod_lap)
    assert eq.x_inf == pytest.approx(50.0, abs=1e-12)
    assert np.allclose(eq.x_star, 50.0)
    assert abs(np.sum(eq.z_star)) < TOL


def test_equilibrium_homogeneous_formula(rng):
    inst = Instance.from_graph(random_graph(rng, 4), -2.0 * np.ones(4), np.ones(4))
    eq = equilibrium(inst.ensemble, modified_laplacian(inst.dec, 0.0))
    assert eq.x_inf == pytest.approx(0.5, abs=1e-12)


def test_equilibrium_is_fixed_point(rng):
    # oracle: plug the equilibrium back into the full 2N dynamics
    for _ in range(10):
        inst = random_heterogeneous_instance(rng, 5)
        gains = Gains(alpha=float(rng.uniform(0.5, 4)), beta=float(rng.uniform(0.2, 3)),
                      gamma=float(rng.uniform(0, 2)))
        sys_ = assemble(inst, gains)
        eq = equilibrium(sys_.ensemble, sys_.mod_lap)
        state = np.concatenate([eq.x_star, eq.z_star])
        assert np.max(np.abs(sys_.A @ state + sys_.affine)) < TOL
        assert abs(np.sum(eq.z_star)) < TOL


def test_equilibrium_oracle_linear_solve(rng):
    # oracle: solve the 2N system with the zero-sum constraint appended
    inst = random_heterogeneous_instance(rng, 6)
    sys_ = assemble(inst, Gains(alpha=2.0, beta=1.0, gamma=0.7))
    n = 6
    M = np.vstack([sys_.A, np.concatenate([np.zeros(n), np.ones(n)])])
    rhs = np.concatenate([-sys_.affine, [0.0]])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    eq = equilibrium(sys_.ensemble, sys_.mod_lap)
    assert np.max(np.abs(sol - np.concatenate([eq.x_star, eq.z_star]))) < 1e-8


def test_equilibrium_near_the_float_limit():
    # P x* + delta = [1.5e308, -1.5e308] has a norm beyond the float range,
    # but z* = -(I + gamma*L)^-1 (P x* + delta), a weighted mean of it, does not
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), [1.0, -2.0], [1e308, -0.5e308])
    eq = equilibrium(inst.ensemble, modified_laplacian(inst.dec, 1e3))
    assert eq.x_inf == 5e307
    # P x* + delta is an eigenvector of L for lambda = 2
    assert eq.z_star == pytest.approx(np.array([-1.5e308, 1.5e308]) / 2001.0, rel=1e-14)


def test_mean_is_numpy_mean_where_finite(rng):
    for _ in range(50):
        v = rng.normal(0, 1, int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-300, 300)
        assert netmodel.mean(v) == float(np.mean(v))
    # sums past the float range, means within it
    assert netmodel.mean(np.array([1e308, 1e308, -1e308])) == 1e308 / 3
    assert netmodel.mean(np.array([-1e308, -1e308, 5e307])) == -5e307
    assert netmodel.mean(np.full(9, 1.5e308)) == 1.5e308
    assert NodeEnsemble(rho=[-1e308, -1e308, 5e307], delta=np.ones(3)).psi11 == -5e307


def test_singular_ensemble(rng):
    inst = Instance.from_graph(random_graph(rng, 4), [1.0, -1.0, 2.0, -2.0], np.ones(4))
    with pytest.raises(SingularEnsemble):
        equilibrium(inst.ensemble, modified_laplacian(inst.dec, 0.0))
    inst0 = Instance.from_graph(random_graph(rng, 3), np.zeros(3), np.ones(3))
    with pytest.raises(SingularEnsemble):
        equilibrium(inst0.ensemble, modified_laplacian(inst0.dec, 0.0))


def test_protocol_balances_at_equilibrium():
    inst = Instance.from_graph(ring(6, 5.0), BENCH_RHO, BENCH_DELTA)
    sys_ = assemble(inst, Gains(alpha=7.0, beta=5.0, gamma=1.0))
    eq = equilibrium(sys_.ensemble, sys_.mod_lap)
    # proportional and derivative terms vanish on the consensus manifold with
    # xdot = 0, so the steady protocol input is carried by the integral term:
    # u* = L_tilde z*, and it must balance the local dynamics, u* = -(rho x* + delta)
    u_star = sys_.mod_lap.L_tilde @ eq.z_star
    u_balance = -(BENCH_RHO * eq.x_star + BENCH_DELTA)
    assert np.max(np.abs(u_star - u_balance)) < 1e-8


def test_z_sum_invariant_along_trajectory(rng):
    inst = random_heterogeneous_instance(rng, 5)
    sys_ = assemble(inst, Gains(alpha=3.0, beta=2.0, gamma=0.5))
    trace = integrate(sys_, SimConfig(t_end=10.0))
    drift = np.max(np.abs(trace.z.sum(axis=1)))
    assert drift < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_equilibrium_residual(n, seed):
    g = np.random.default_rng(seed)
    rho = g.uniform(-3.0, -0.1, n)
    delta = g.normal(0.0, 2.0, n)
    inst = Instance.from_graph(random_graph(g, n), rho, delta)
    gains = Gains(alpha=float(g.uniform(0.5, 4)), beta=float(g.uniform(0, 3)),
                  gamma=float(g.uniform(0, 2)))
    sys_ = assemble(inst, gains)
    eq = equilibrium(sys_.ensemble, sys_.mod_lap)
    state = np.concatenate([eq.x_star, eq.z_star])
    assert np.max(np.abs(sys_.A @ state + sys_.affine)) < TOL
