"""Psi blocks and the transverse system."""

import warnings

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
from pidnet.errors import NonFinite
from pidnet.transverse import damping_block, pole_matrix
from conftest import load_pidbench, random_graph, random_heterogeneous_instance

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


def _match(a, b, tol):
    """Every eigenvalue of each list lies within tol of one of the other."""
    return all(np.min(np.abs(b - v)) < tol for v in a) and all(
        np.min(np.abs(a - v)) < tol for v in b
    )


def test_sub_block_is_the_damped_quadratic_eigenproblem(rng):
    # s^2 D2 + s C2 + beta Lambda_2, linearised on (x, s x): the (x_hat, x_hat)
    # block of A_tv is -D2^-1 C2 and the sub-block spectrum is the QEP's
    for _ in range(10):
        n = int(rng.integers(3, 9))
        inst = random_heterogeneous_instance(rng, n)
        gains = Gains(alpha=float(rng.uniform(0.2, 4)), beta=float(rng.uniform(0.2, 3)),
                      gamma=float(rng.uniform(0, 2)))
        C2 = damping_block(pole_matrix(inst), inst.dec.lam, gains.alpha)
        assert np.array_equal(C2, C2.T)
        lam = inst.dec.lam[1:]
        D2_inv = np.diag(1.0 / (1.0 + gains.gamma * lam))
        tv = transverse_system(inst, gains)
        m = n - 1
        assert np.max(np.abs(tv.A_tv[1 : 1 + m, 1 : 1 + m] + D2_inv @ C2)) < TOL
        companion = np.block(
            [[np.zeros((m, m)), np.eye(m)], [-gains.beta * D2_inv @ np.diag(lam), -D2_inv @ C2]]
        )
        scale = max(1.0, float(np.max(np.abs(companion))))
        assert _match(tv.sub_block_eigenvalues(), np.linalg.eigvals(companion), 1e-9 * scale)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=5.0),
    # beta > 0 puts an eigenvalue near -beta*lambda/c, so a tiny beta would
    # fall below the rounding of the eigvals oracle
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_property_energy_certificate_has_no_false_positive(n, seed, alpha, beta, gamma):
    g = np.random.default_rng(seed)
    inst = Instance.from_graph(random_graph(g, n), g.uniform(-3, 2, n), np.zeros(n))
    tv = transverse_system(inst, Gains(alpha=alpha, beta=beta, gamma=gamma))
    if tv.energy_certified:
        assert beta > 0 and tv.energy_margin > 0
        assert np.all(np.linalg.eigvals(tv.A_tv[1:, 1:]).real < 0)


@pytest.mark.parametrize(
    "rho, gains, hurwitz",
    [
        ([2.0, -2.0, -2.0], Gains(alpha=0.25, beta=4.0), True),
        ([2.0, -1.0, -1.0], Gains(alpha=0.3, beta=3.0), False),
        ([-1.0, -1.0, -1.0], Gains(alpha=1.0, beta=0.0), False),
    ],
    ids=["indefinite-hurwitz", "indefinite-unstable", "no-integral"],
)
def test_sub_block_falls_back_to_eigvals(monkeypatch, rho, gains, hurwitz):
    inst = Instance.from_graph(Graph(3, ((0, 1, 1.0), (1, 2, 1.0))), rho, np.zeros(3))
    tv = transverse_system(inst, gains)
    assert not tv.energy_certified
    # C2 is indefinite in the first two cases; in the third it is definite, but beta = 0
    assert (tv.energy_margin > 0) is (gains.beta == 0)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    assert tv.is_hurwitz(include_average_mode=False) is hurwitz
    assert calls == [(4, 4)]
    assert hurwitz is bool(np.all(eigvals(tv.A_tv[1:, 1:]).real < 0))


@pytest.mark.parametrize("alpha, margin", [(1e300, None), (6e297, 6e297 * 2e10)],
                         ids=["margin-overflows", "margin-finite"])
def test_overflowing_damping_certified_over_alpha(monkeypatch, alpha, margin):
    # alpha * lambda_N = alpha * 4e10 overflows, so C2/alpha = Lambda_2 - V2^T P V2/alpha
    # decides against lambda_N + max|rho|/alpha; the margin alpha * lambda_min(C2/alpha)
    # is reported where it stays finite
    inst = Instance.from_graph(Graph.ring(4, 1e10), -np.ones(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv = transverse_system(inst, Gains(alpha=alpha, beta=1.0, gamma=1.0))
    assert tv.energy_certified
    if margin is None:
        assert tv.energy_margin is None
    else:
        assert tv.energy_margin == pytest.approx(margin, rel=1e-12)
    monkeypatch.setattr(np.linalg, "eigvals", None)  # neither certificate needs it
    assert tv.is_hurwitz(include_average_mode=False)
    assert tv.is_hurwitz()


def qep_roots(inst, gains):
    """The 2N roots of Q(s) = s^2 L_tilde + s (alpha L - P) + beta L, from its
    companion linearisation in node coordinates."""
    n = inst.node_count
    L = inst.dec.laplacian
    L_tilde = np.eye(n) + gains.gamma * L
    damping = gains.alpha * L - np.diag(inst.ensemble.rho)
    companion = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-np.linalg.solve(L_tilde, gains.beta * L),
                           -np.linalg.solve(L_tilde, damping)]])
    return np.linalg.eigvals(companion)


def negative_count(inst, gains, s):
    """Negative eigenvalues of the symmetric Q(s), in node coordinates."""
    L = inst.dec.laplacian
    Q = s * s * (np.eye(inst.node_count) + gains.gamma * L) + s * (
        gains.alpha * L - np.diag(inst.ensemble.rho)) + gains.beta * L
    return int(np.sum(np.linalg.eigvalsh(Q) < 0))


def test_transverse_spectrum_is_q_less_one_zero(rng):
    # both spectra in full, matched root for root: the transverse system drops
    # exactly one zero of Q, the first integral of the average mode
    spectra = set()
    for _ in range(16):
        n = int(rng.integers(2, 21))
        inst = random_heterogeneous_instance(rng, n)
        gains = Gains(alpha=float(10 ** rng.uniform(-1, 1.5)), beta=float(rng.uniform(0.2, 3)),
                      gamma=float(rng.uniform(0, 2)))
        tv = transverse_system(inst, gains)
        spectra.add(tv.spectrum)
        roots = list(qep_roots(inst, gains))
        roots.pop(int(np.argmin(np.abs(roots))))
        eigs = tv.eigenvalues()
        tol = 1e-10 * float(np.max(np.abs(eigs)))
        for ev in np.sort_complex(eigs):
            nearest = int(np.argmin(np.abs(np.array(roots) - ev)))
            assert abs(roots.pop(nearest) - ev) <= tol
        assert roots == []
    assert spectra == {"hyperbolic", "dense"}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=100.0),
    # beta >= 0.01 keeps the slowest root, near -beta/alpha, above the
    # rounding of the eigvals oracle
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_property_hyperbolic_certificate_has_no_false_positive(n, seed, alpha, beta, gamma):
    g = np.random.default_rng(seed)
    inst = Instance.from_graph(random_graph(g, n), g.uniform(-3, 2, n), np.zeros(n))
    tv = transverse_system(inst, Gains(alpha=alpha, beta=beta, gamma=gamma))
    if tv.spectrum == "hyperbolic":
        eigs = tv.eigenvalues()
        assert tv.is_hurwitz() and np.all(eigs.real < 0)
        assert np.all(np.abs(eigs.imag) <= 1e-9 * np.max(np.abs(eigs)))  # hyperbolic: all real
        assert abs(tv.max_real_part - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


def pidbench_case(k):
    """The k-th analyze-tune op of seed 1 (N = 50, 200, 800 for k = 0, 1, 2)."""
    case = load_pidbench("inputs").random_instance(np.random.default_rng([1, k]), (50, 200, 800)[k])
    inst = Instance.from_graph(Graph(case.n, tuple(case.edges)), case.rho, case.delta)
    return inst, Gains(case.alpha, case.beta, case.gamma)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["N50", "N200", "N800"])
def test_max_real_part_inertia_bracket(k):
    # Q(s) > 0 above the zero root; between the zero and the next root r one
    # eigenvalue of Q(s) is negative, and past r at least two are
    inst, gains = pidbench_case(k)
    tv = transverse_system(inst, gains)
    assert tv.spectrum == "hyperbolic"
    r = tv.max_real_part
    assert negative_count(inst, gains, r * (1 - 1e-10)) == 1
    assert negative_count(inst, gains, r * (1 + 1e-10)) >= 2
    if inst.node_count <= 50:
        eigs = np.linalg.eigvals(tv.A_tv)
        assert abs(r - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


PATH3 = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))


@pytest.mark.parametrize(
    "graph, rho, gains",
    [
        (PATH3, [-2.0, -2.0, -2.0], Gains(alpha=2.0, beta=0.0, gamma=0.5)),
        (PATH3, [-1.0, -1.5, -0.5], Gains(alpha=0.2, beta=5.0, gamma=0.5)),
    ],
    ids=["no-integral", "complex-modes"],
)
def test_full_spectrum_falls_back_to_eigvals(monkeypatch, graph, rho, gains):
    inst = Instance.from_graph(graph, rho, np.zeros(3))
    tv = transverse_system(inst, gains)
    assert tv.spectrum == "dense" and tv.hyperbolic_max_real_part is None
    eigvals = np.linalg.eigvals
    expected = eigvals(tv.A_tv)
    if gains.beta > 0:
        assert np.any(expected.imag != 0)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    assert tv.max_real_part == float(np.max(expected.real))
    assert tv.is_hurwitz() is bool(np.all(expected.real < 0))
    assert calls == [(5, 5)]  # one dense eigvals, shared


def test_non_finite_pencil_falls_back_to_eigvals():
    # alpha * lambda/(1 + gamma*lambda) = 4e310 with gamma = 0: the pencil is not
    # formed, and the dense A_tv names the overflowing gain
    inst = Instance.from_graph(Graph.ring(4, 1e10), -np.ones(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv = transverse_system(inst, Gains(alpha=1e300, beta=1.0, gamma=0.0))
        assert tv.spectrum == "dense"
        with pytest.raises(NonFinite, match="gains.alpha"):
            tv.is_hurwitz()
