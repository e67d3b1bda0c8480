"""Psi blocks and the transverse system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidnet import (
    Gains,
    Graph,
    Instance,
    NodeEnsemble,
    assemble,
    build_laplacian,
    modified_laplacian,
    psi_blocks,
    spectral_decompose,
    transverse_system,
)
from conftest import random_graph, random_heterogeneous_instance

TOL = 1e-9

BENCH_RHO = np.array([-2.0, 0.0, 0.0, -4.0, 0.0, -6.0])


def make(rng, n, gamma):
    inst = random_heterogeneous_instance(rng, n)
    mod = modified_laplacian(inst.dec, gamma)
    return inst, mod


def test_psi_closed_form_equals_direct_product(rng):
    # oracle: the raw product U^-1 L_tilde^-1 P U
    for _ in range(10):
        n = int(rng.integers(3, 9))
        inst, mod = make(rng, n, float(rng.uniform(0, 3)))
        psi = psi_blocks(inst, mod.gamma)
        direct = inst.dec.U_inv @ mod.L_tilde_inv @ inst.ensemble.P @ inst.dec.U
        assert np.max(np.abs(psi.assembled() - direct)) < TOL


def test_psi_homogeneous_decoupling(rng):
    g = random_graph(rng, 6)
    dec = spectral_decompose(build_laplacian(g))
    ens = NodeEnsemble(rho=-np.ones(6), delta=np.zeros(6))
    psi = psi_blocks(Instance(dec, ens), 0.0)
    assert psi.psi11 == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(psi.Psi12)) < 1e-10
    assert np.max(np.abs(psi.Psi21)) < 1e-10
    assert np.max(np.abs(psi.Psi22 + np.eye(5))) < TOL


def test_psi_homogeneous_with_gamma_is_scaled_diagonal(rng):
    dec = spectral_decompose(build_laplacian(random_graph(rng, 5)))
    mod = modified_laplacian(dec, 1.3)
    ens = NodeEnsemble(rho=-2.0 * np.ones(5), delta=np.zeros(5))
    psi = psi_blocks(Instance(dec, ens), 1.3)
    assert np.max(np.abs(psi.Psi22 + 2.0 * mod.Sigma_hat_inv)) < TOL


def test_psi_benchmark_values():
    dec = spectral_decompose(build_laplacian(Graph.ring(6, 5.0)))
    psi = psi_blocks(Instance(dec, NodeEnsemble(rho=BENCH_RHO, delta=np.zeros(6))), 1.0)
    assert psi.psi11 == -2.0
    assert np.array_equal(psi.rho_bar, [2.0, 2.0, -2.0, 2.0, -4.0])
    assert float(psi.rho_bar @ psi.rho_bar) == 32.0


def test_transverse_block_layout(rng):
    inst, mod = make(rng, 5, 0.8)
    gains = Gains(alpha=2.0, beta=1.5, gamma=0.8)
    psi = psi_blocks(inst, mod.gamma)
    tv = transverse_system(inst, gains)
    m = 4
    A = tv.A_tv
    assert A.shape == (2 * 5 - 1, 2 * 5 - 1)
    assert A[0, 0] == psi.psi11
    assert np.array_equal(A[0, 1 : 1 + m], psi.Psi12.ravel())
    assert np.max(np.abs(A[0, 1 + m :])) == 0.0
    assert np.array_equal(A[1 : 1 + m, 1 + m :], np.eye(m))
    assert np.max(np.abs(A[1 + m :, 1 + m :])) == 0.0
    assert np.max(np.abs(A[1 + m :, 0])) == 0.0
    assert np.allclose(A[1 + m :, 1 : 1 + m], -gains.beta * mod.Gamma_hat)
    assert np.allclose(A[1 : 1 + m, 1 : 1 + m], psi.Psi22 - gains.alpha * mod.Gamma_hat)


def test_transverse_spectrum_matches_full_loop(rng):
    # the transverse modes plus one zero mode (the dropped first integral
    # coordinate) must reproduce the spectrum of the full 2N-dimensional loop
    for _ in range(6):
        n = int(rng.integers(3, 8))
        inst = random_heterogeneous_instance(rng, n)
        gains = Gains(alpha=float(rng.uniform(0.5, 4)), beta=float(rng.uniform(0.2, 3)),
                      gamma=float(rng.uniform(0, 2)))
        sys_ = assemble(inst, gains)
        tv = transverse_system(inst, gains)
        full = np.linalg.eigvals(sys_.A)
        for ev in tv.eigenvalues():
            assert np.min(np.abs(full - ev)) < 1e-7
        assert np.min(np.abs(full)) < 1e-9  # the dropped trivial mode


def test_homogeneous_sub_block_decouples(rng):
    inst = Instance.from_graph(random_graph(rng, 6), -1.5 * np.ones(6), np.zeros(6))
    gains = Gains(alpha=1.0, beta=1.0, gamma=0.5)
    tv = transverse_system(inst, gains)
    assert np.max(np.abs(tv.A_tv[0, 1:])) < 1e-10
    assert np.max(np.abs(tv.A_tv[1:, 0])) < 1e-10


def test_homogeneous_positive_gains_hurwitz_sub_block(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        inst = Instance.from_graph(
            random_graph(rng, n), -float(rng.uniform(0.1, 3)) * np.ones(n), np.zeros(n)
        )
        gains = Gains(alpha=float(rng.uniform(0.1, 5)), beta=float(rng.uniform(0.1, 5)),
                      gamma=float(rng.uniform(0.01, 3)))
        tv = transverse_system(inst, gains)
        assert tv.is_hurwitz(include_average_mode=False)
        assert tv.is_hurwitz()  # stable poles: average mode negative too


def test_unstable_average_flagged_non_hurwitz():
    # ensemble with positive pole sum can destabilize the average mode
    inst = Instance.from_graph(Graph.complete(4, 1.0), [1.0, 0.5, -0.2, 0.3], np.zeros(4))
    gains = Gains(alpha=2.0, beta=1.0, gamma=0.5)
    tv = transverse_system(inst, gains)
    assert not tv.is_hurwitz()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_property_psi_equivalence(n, seed, gamma):
    g = np.random.default_rng(seed)
    inst = Instance.from_graph(
        random_graph(g, n), g.uniform(-3, 1, n), g.normal(0, 2, n)
    )
    mod = modified_laplacian(inst.dec, gamma)
    psi = psi_blocks(inst, gamma)
    direct = inst.dec.U_inv @ mod.L_tilde_inv @ inst.ensemble.P @ inst.dec.U
    assert np.max(np.abs(psi.assembled() - direct)) < TOL
