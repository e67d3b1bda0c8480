"""Psi blocks and the transverse system."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidnet import (
    Gains,
    Graph,
    Instance,
    NodeEnsemble,
    assemble,
    certify,
    modified_laplacian,
    psi_blocks,
    spectral_decompose,
    transverse_system,
)
from pidnet import transverse
from pidnet.errors import NonFinite, PidnetError
from pidnet.transverse import BLOCK_ROWS, DampedQEP
from conftest import (BENCH_RHO, complete, load_pidbench, random_graph,
                      random_heterogeneous_instance, ring)

TOL = 1e-9


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
    dec = spectral_decompose(g)
    ens = NodeEnsemble(rho=-np.ones(6), delta=np.zeros(6))
    psi = psi_blocks(Instance(dec, ens), 0.0)
    assert psi.psi11 == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(psi.Psi12)) < 1e-10
    assert np.max(np.abs(psi.Psi21)) < 1e-10
    assert np.max(np.abs(psi.Psi22 + np.eye(5))) < TOL


def test_psi_homogeneous_with_gamma_is_scaled_diagonal(rng):
    dec = spectral_decompose(random_graph(rng, 5))
    mod = modified_laplacian(dec, 1.3)
    ens = NodeEnsemble(rho=-2.0 * np.ones(5), delta=np.zeros(5))
    psi = psi_blocks(Instance(dec, ens), 1.3)
    assert np.max(np.abs(psi.Psi22 + 2.0 * mod.Sigma_hat_inv)) < TOL


def test_psi_benchmark_values():
    dec = spectral_decompose(ring(6, 5.0))
    psi = psi_blocks(Instance(dec, NodeEnsemble(rho=BENCH_RHO, delta=np.zeros(6))), 1.0)
    assert psi.psi11 == -2.0
    assert np.array_equal(psi.rho_bar, [2.0, 2.0, -2.0, 2.0, -4.0])
    assert float(psi.rho_bar @ psi.rho_bar) == 32.0


def test_transverse_block_layout(rng):
    # oracle: the closed loop in the graph's eigenbasis, blockdiag(U^-1, U^-1) A
    # blockdiag(U, U), less row and column N (the z average)
    for k in range(20):
        n = int(rng.integers(3, 9))
        inst = random_heterogeneous_instance(rng, n)
        beta = 0.0 if k % 2 else float(rng.uniform(0.2, 3))
        gains = Gains(alpha=float(rng.uniform(0.5, 4)), beta=beta, gamma=float(rng.uniform(0, 2)))
        A = transverse_system(inst, gains).A_tv
        assert A.shape == (2 * n - 1, 2 * n - 1)
        assert np.max(np.abs(A[0, n:])) == 0.0
        assert np.array_equal(A[1:n, n:], np.eye(n - 1))
        assert np.max(np.abs(A[n:, n:])) == 0.0
        assert np.max(np.abs(A[n:, 0])) == 0.0
        assert np.array_equal(A[n:, 1:n], np.diag(np.diag(A[n:, 1:n])))
        U, U_inv, Z = inst.dec.U, inst.dec.U_inv, np.zeros((n, n))
        rotated = np.block([[U_inv, Z], [Z, U_inv]]) @ assemble(inst, gains).A @ np.block(
            [[U, Z], [Z, U]])
        oracle = np.delete(np.delete(rotated, n, axis=0), n, axis=1)
        assert np.max(np.abs(A - oracle)) < TOL


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
        for ev in tv.eigenvalues:
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
        assert tv.hurwitz_sub_block
        assert tv.is_hurwitz()  # stable poles: average mode negative too


def test_unstable_average_flagged_non_hurwitz():
    # ensemble with positive pole sum can destabilize the average mode
    inst = Instance.from_graph(complete(4, 1.0), [1.0, 0.5, -0.2, 0.3], np.zeros(4))
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
        C2 = DampedQEP(inst, gains).energy_block(1.0)
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
        assert _match(np.linalg.eigvals(tv.A_tv[1:, 1:]), np.linalg.eigvals(companion),
                      1e-9 * scale)


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
    eigs = np.linalg.eigvals(tv.A_tv[1:, 1:])
    if tv.energy_certified:
        assert beta > 0 and tv.energy_margin > 0
        assert np.all(eigs.real < 0)
    # beta = 0 leaves N - 1 roots at 0; elsewhere the dense sign decides where
    # it clears the rounding floor of loop_facts
    sub = float(np.max(eigs.real))
    if beta == 0:
        assert tv.hurwitz_sub_block is False
    elif abs(sub) > n * np.finfo(float).eps * float(np.max(np.abs(tv.A_tv))):
        assert tv.hurwitz_sub_block is (sub < 0)


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
    assert tv.hurwitz_sub_block is hurwitz
    assert calls == ([(4, 4)] if gains.beta > 0 else [])  # beta = 0 decides by structure
    assert hurwitz is bool(np.all(eigvals(tv.A_tv[1:, 1:]).real < 0))


@pytest.mark.parametrize("alpha, margin", [(1e300, None), (6e297, 6e297 * 2e10)],
                         ids=["margin-overflows", "margin-finite"])
def test_overflowing_damping_certified_over_alpha(monkeypatch, alpha, margin):
    # alpha * lambda_N = alpha * 4e10 overflows, so C2/alpha = Lambda_2 - V2^T P V2/alpha
    # decides against lambda_N + max|rho|/alpha; the margin alpha * lambda_min(C2/alpha)
    # is reported where it stays finite
    inst = Instance.from_graph(ring(4, 1e10), -np.ones(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv = transverse_system(inst, Gains(alpha=alpha, beta=1.0, gamma=1.0))
    assert tv.energy_certified
    if margin is None:
        assert tv.energy_margin is None
    else:
        assert tv.energy_margin == pytest.approx(margin, rel=1e-12)
    monkeypatch.setattr(np.linalg, "eigvals", None)  # neither certificate needs it
    assert tv.hurwitz_sub_block
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
        eigs = tv.eigenvalues
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
        eigs = tv.eigenvalues
        assert tv.is_hurwitz() and np.all(eigs.real < 0)
        assert np.all(np.abs(eigs.imag) <= 1e-9 * np.max(np.abs(eigs)))  # hyperbolic: all real
        assert abs(tv.max_real_part - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


def pidbench_case(k, seed=1):
    """The k-th analyze-tune op of a seed (N = 50, 200, 800 for k = 0, 1, 2)."""
    case = load_pidbench("inputs").random_instance(np.random.default_rng([seed, k]),
                                                   (50, 200, 800)[k])
    inst = Instance.from_graph(Graph(case.n, tuple(case.edges)), case.rho, case.delta)
    return inst, Gains(case.alpha, case.beta, case.gamma)


@pytest.mark.parametrize("k, seed", [(0, 1), (1, 1), (2, 1), (2, 2), (2, 3)],
                         ids=["N50", "N200", "N800", "N800-seed2", "N800-seed3"])
def test_max_real_part_inertia_bracket(k, seed):
    # Q(s) > 0 above the zero root; between the zero and the next root r one
    # eigenvalue of Q(s) is negative, and past r at least two are
    inst, gains = pidbench_case(k, seed)
    tv = transverse_system(inst, gains)
    assert tv.spectrum == "hyperbolic"
    r = tv.max_real_part
    assert negative_count(inst, gains, r * (1 - 1e-10)) == 1
    assert negative_count(inst, gains, r * (1 + 1e-10)) >= 2
    if inst.node_count <= 50:
        eigs = np.linalg.eigvals(tv.A_tv)
        assert abs(r - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


def test_every_certified_shift_gives_the_slowest_root(monkeypatch, rng):
    # wherever mu is certified, the estimate, the iteration and the bracket
    # decide without the dense eigvals, and agree with it
    results = []
    slowest_root = transverse._slowest_root
    monkeypatch.setattr(transverse, "_slowest_root",
                        lambda *args: results.append(slowest_root(*args)) or results[-1])
    certified = 0
    for _ in range(600):
        n = int(rng.integers(2, 40))
        inst = Instance.from_graph(random_graph(rng, n), rng.uniform(-3, 2, n), np.zeros(n))
        gains = Gains(alpha=float(10 ** rng.uniform(-2, 2.5)), beta=float(10 ** rng.uniform(-2, 1)),
                      gamma=float(rng.uniform(0, 3)))
        before = len(results)
        tv = transverse_system(inst, gains)
        if len(results) == before:
            continue
        certified += 1
        assert results[-1] is not None and tv.spectrum == "hyperbolic"
        eigs = tv.eigenvalues
        assert abs(tv.max_real_part - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))
    assert certified >= 150


@pytest.mark.parametrize(
    "graph, rho, gains",
    [
        (Graph(3, ((1, 2, 2.7875940841270532), (1, 0, 2.5734496509174205),
                   (0, 2, 0.6115372002871895))),
         [-0.21782776177297203, 0.1770585875621986, -0.6267734799213089],
         Gains(7.583512349537773, 1.2768664211633352, 0.13151712362071522)),
        (Graph(4, ((1, 2, 1.5576154612443989), (1, 3, 1.6117992562378203),
                   (3, 0, 1.9537525540774983), (2, 0, 1.087983593522252))),
         [-2.085830043713801, -2.7667217639485804, 0.159475274166601, 1.8357974709996618],
         Gains(2.9379274956013823, 0.43941475957069054, 0.1772355635218692)),
    ],
    ids=["near-the-slow-end", "no-multiple-of-hi"],
)
def test_geometric_mean_shift_is_certified(graph, rho, gains):
    # the geometric mean mu = -sqrt(lo hi) of each gap is certified, though no
    # multiple f hi with f = 1.5, 2, 3 or 4 is, nor in the second gap f = 1.25 or 6
    inst = Instance.from_graph(graph, rho, np.zeros(graph.node_count))
    tv = transverse_system(inst, gains)
    assert tv.spectrum == "hyperbolic"
    eigs = np.linalg.eigvals(tv.A_tv)
    assert abs(tv.max_real_part - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


def test_close_pair_falls_back_to_eigvals(monkeypatch):
    # the slow roots -0.54278 and -0.54396 lie 0.2% apart: the one start ends on
    # the lower one, whose bracket fails, so the dense eigvals decides. The
    # iteration runs on the time scale 2^e, e = 1 here, so it reads s / 2
    graph = Graph(3, ((2, 1, 2.398161142710754), (2, 0, 2.1264047444205714)))
    rho = [-0.5004310048439384, -0.5039754504718847, -2.5409049543605295]
    gains = Gains(alpha=4.24345408200326, beta=1.7113430954642705, gamma=1.97881009392322)
    starts = []
    refine = transverse._refine
    monkeypatch.setattr(transverse, "_refine",
                        lambda *args: starts.append(refine(*args)) or starts[-1])
    inst = Instance.from_graph(graph, rho, np.zeros(3))
    tv = transverse_system(inst, gains)
    assert tv.spectrum == "dense" and tv.hyperbolic_max_real_part is None
    assert [s for s, _ in starts] == pytest.approx([-0.5439598402833697 / 2], rel=1e-12)
    eigvals = np.linalg.eigvals
    expected = eigvals(tv.A_tv)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    assert tv.max_real_part == float(np.max(expected.real))
    assert tv.max_real_part == pytest.approx(-0.54278, abs=1e-5)
    assert tv.is_hurwitz()
    assert calls == [(5, 5)]  # one dense eigvals, shared
    assert negative_count(inst, gains, tv.max_real_part * (1 - 1e-10)) == 1


PATH3 = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))


@pytest.mark.parametrize(
    "graph, rho, gains, reached",
    [
        # the roots run from -1e-320 to -3e300, which no power-of-two time scale
        # holds: on the scale 2^-32 (centred between them) C~ overflows, so
        # -Q~(mu) is not finite, and no Cholesky of it is tried
        (PATH3, [-1.0, -2.0, -1.5], Gains(alpha=1e300, beta=1e-20, gamma=0.0),
         ["eigvalsh", "at"]),
        # beta * lambda_2 = 1e-324 underflows to 0: K_2^-1/2 of the estimate
        # is not finite, and no eigvalsh of it is tried
        (Graph(3, ((0, 1, 1e-3), (1, 2, 1.0))), [-1.0, -2.0, -1.5],
         Gains(alpha=1.0, beta=1e-321, gamma=0.0), ["eigvalsh", "at", "cholesky"]),
        # on the time scale 2^-266 the slow root near -1.2e-200 times c_00 =
        # 1.8e-140 underflows: q_00 is 0 at the upper bracket, its Schur
        # complement is not finite, and no Cholesky of it is tried
        (ring(3, 0.25), [-1e-220, -2e-220, -1.5e-220], Gains(alpha=1e120, beta=1e-160, gamma=0.0),
         ["eigvalsh", "at", "cholesky", "eigvalsh", "at", "one_root_above", "at"]),
    ],
    ids=["non-finite-shifted-pencil", "non-finite-estimate", "non-finite-schur-complement"],
)
def test_hyperbolic_guards_fall_back_to_eigvals(monkeypatch, graph, rho, gains, reached):
    # each guard of the hyperbolic path hands the spectrum to the dense eigvals;
    # the log holds the symmetric solves, the Q~(s) formed (repeats folded) and
    # the lower bracket check, in order
    log = []
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, lambda a, _name=name, _fn=getattr(np.linalg, name):
                            log.append(_name) or _fn(a))
    one_root_above, at = transverse._one_root_above, DampedQEP.at
    monkeypatch.setattr(transverse, "_one_root_above",
                        lambda qep, s: log.append("one_root_above") or one_root_above(qep, s))
    monkeypatch.setattr(DampedQEP, "at", lambda self, s: log.append("at") or at(self, s))
    inst = Instance.from_graph(graph, rho, np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv = transverse_system(inst, gains)
    assert [e for i, e in enumerate(log) if i == 0 or e != log[i - 1]] == reached
    assert tv.spectrum == "dense" and tv.hyperbolic_max_real_part is None
    eigs = np.linalg.eigvals(tv.A_tv)
    assert tv.max_real_part == float(np.max(eigs.real))
    assert tv.is_hurwitz() is bool(np.all(eigs.real < 0))


GUARD_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, 1e300, -1e300)


@st.composite
def damping_and_stiffness(draw):
    """The diagonal c of C~, any float, and k >= 0 or NaN with k_0 = 0 (the average mode)."""
    n = draw(st.integers(2, 6))
    # ordinary sizes too, where most gaps are
    value = st.one_of(st.sampled_from(GUARD_SPECIALS), st.floats(), st.floats(0.1, 10.0))
    stiffness = st.one_of(st.sampled_from([v for v in GUARD_SPECIALS if not v < 0]),
                          st.floats(min_value=0.0), st.floats(0.0, 1.0))
    return (draw(st.lists(value, min_size=n, max_size=n)),
            [0.0] + draw(st.lists(stiffness, min_size=n - 1, max_size=n - 1)))


@settings(max_examples=200, deadline=None)
@given(damping_and_stiffness())
@example(([2.0, 3.0], [0.0, 1.0]))  # a gap: lo = -2 < hi = -0.38 < 0
def test_property_gap_needs_positive_damping_and_finite_stiffness(case):
    # _hyperbolic_max_real_part tests only lo < hi < 0: some c_i <= 0 or NaN
    # gives lo >= 0 or NaN, and an infinite k_i gives slow_i = fast_i = -c_i/2
    c, k = map(np.array, case)
    with np.errstate(all="ignore"):
        slow = transverse.dominant_real_part(c, k)
        hi, lo = float(np.min(slow[1:])), float(np.max(-c - slow))
    if lo < hi < 0:
        assert np.all(c > 0) and np.isfinite(k).all()


def test_overflowing_shifted_pencil_scales_down_to_a_certified_one():
    # mu * C~ of this loop overflows on its own time scale; on a power-of-two
    # scale it is certified, at 1e150 times the slowest root of the same loop
    # with time scaled by 1e-150
    def scaled(scale):
        inst = Instance.from_graph(PATH3, np.array([-1e5, -2e5, -1.5e5]) * scale, np.zeros(3))
        return transverse_system(inst, Gains(alpha=1e6 * scale, beta=1e7 * scale**2, gamma=0.0))
    large, small = scaled(1e150), scaled(1.0)
    assert (large.spectrum, small.spectrum) == ("hyperbolic", "hyperbolic")
    assert large.is_hurwitz()
    assert large.max_real_part == pytest.approx(1e150 * small.max_real_part, rel=1e-15)


@pytest.mark.parametrize(
    "weight, rho, gains, expected",
    [
        (1.0, [-1e150, -2e150, -1.5e150], Gains(alpha=1e201, beta=1e300, gamma=0.0), -1e99),
        # q_00 underflowed on the unscaled bracket, and the dense eigvals read +8e-292
        (0.25, [-1e-17, -2e-17, -1.5e-17], Gains(alpha=1.0, beta=1e-308, gamma=0.0), -1e-308),
    ],
    ids=["roots-near-1e99", "roots-near-1e-308"],
)
def test_power_of_two_time_scale_certifies_roots_far_from_one(weight, rho, gains, expected):
    # the same loops with time scaled to put their roots near 1 are certified
    # hyperbolic, so these are too, at the scaled-back slowest root
    tv = transverse_system(Instance.from_graph(ring(3, weight), rho, np.zeros(3)), gains)
    assert tv.spectrum == "hyperbolic" and tv.is_hurwitz()
    assert tv.max_real_part == pytest.approx(expected, rel=1e-12)


def test_certified_root_that_rounds_to_zero_is_hurwitz():
    # beta = 2.5e-323 on a path of 8: the slowest root, certified on the time
    # scale 2^e, scales back below the smallest subnormal to -0.0; the
    # certificate, not the sign of max_real_part, decides hurwitz
    path = Graph(8, tuple((k, k + 1, 1.0) for k in range(7)))
    tv = transverse_system(Instance.from_graph(path, -2.0 * np.ones(8), np.zeros(8)),
                           Gains(alpha=2.0, beta=2.5e-323, gamma=0.0))
    assert (tv.spectrum, tv.max_real_part) == ("hyperbolic", 0.0)
    assert tv.is_hurwitz() and tv.hurwitz_sub_block


def test_singular_estimate_solve_starts_from_ones(monkeypatch):
    # a singular estimate shift leaves the start at K_2^-1/2 ones; the iteration
    # still ends on the slowest root
    solve = np.linalg.solve
    calls = []

    def singular_first(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_first)
    inst, gains = pidbench_case(0)
    tv = transverse_system(inst, gains)
    assert calls[0] == (49, 49) and tv.spectrum == "hyperbolic"
    eigs = np.linalg.eigvals(tv.A_tv)
    assert abs(tv.max_real_part - np.max(eigs.real)) <= 1e-10 * np.max(np.abs(eigs))


def test_bracket_checks_tell_the_sides_of_the_root(monkeypatch):
    # each inertia check holds on its own side of r and fails on the other
    args, refined = [], []
    slowest_root, refine = transverse._slowest_root, transverse._refine
    monkeypatch.setattr(transverse, "_slowest_root",
                        lambda *a: args.extend(a) or slowest_root(*a))
    monkeypatch.setattr(transverse, "_refine", lambda *a: refined.append(refine(*a)) or refined[-1])
    inst, gains = pidbench_case(0)
    r = transverse_system(inst, gains).max_real_part
    qep, _ = args
    [(s, x)] = refined
    assert s == r
    above, below = r * (1 - 1e-10), r * (1 + 1e-10)
    assert transverse._one_root_above(qep, above)
    assert not transverse._one_root_above(qep, below)
    assert transverse._two_roots_above(qep, below, x)
    assert not transverse._two_roots_above(qep, above, x)


def _cholesky_succeeds(A):
    try:
        return bool(np.isfinite(np.linalg.cholesky(A)).all())
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
@pytest.mark.parametrize("low, definite", [(1.0, True), (-1e-3, False), (1e-10, True),
                                           (-1e-10, False)],
                         ids=["spd", "indefinite", "nearly-singular", "nearly-singular-below"])
def test_positive_definite_agrees_with_cholesky(rng, n, low, definite):
    # eigenvalues in [1, 2] but one of low, in a random basis; where A is
    # definite, the check leaves a factor of it in A's lower triangle
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.linspace(1.0, 2.0, n)
    w[rng.integers(n)] = low
    A = (basis * w) @ basis.T
    A = (A + A.T) / 2
    work = A.copy()
    assert transverse._positive_definite(work) is definite
    assert _cholesky_succeeds(A) is definite
    if definite:
        factor = np.tril(work)
        np.testing.assert_allclose(factor @ factor.T, A, rtol=0, atol=1e-12)


def test_positive_definite_rejects_a_non_finite_later_block():
    # a finite input: the first block's factor is 1e-150 I, so the last row's
    # panel entry 1e200 / 1e-150 overflows, and the trailing update's 0 * inf
    # leaves NaN in the second block, which numpy factors without raising (as
    # it does the whole matrix)
    n = BLOCK_ROWS + 2
    A = np.eye(n)
    A[:BLOCK_ROWS, :BLOCK_ROWS] *= 1e-300
    A[-1, 0] = A[0, -1] = 1e200
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.linalg.cholesky(A)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not transverse._positive_definite(A)


def test_transverse_traced_peak_holds_no_factor():
    # beside V, formed before tracing starts: C~, work and blocks of BLOCK_ROWS
    # rows (2.46 N^2 floats at N = 400; 3.03 while each certificate's Cholesky
    # returned an N x N factor)
    case = load_pidbench("inputs").random_instance(np.random.default_rng(1), 400)
    inst = Instance.from_graph(Graph(case.n, tuple(case.edges)), case.rho, case.delta)
    gains = Gains(case.alpha, case.beta, case.gamma)
    tracemalloc.start()
    try:
        tv = transverse_system(inst, gains)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tv.spectrum == "hyperbolic"
    assert peak < 2.75 * 8 * 400**2


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
    inst = Instance.from_graph(ring(4, 1e10), -np.ones(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv = transverse_system(inst, Gains(alpha=1e300, beta=1.0, gamma=0.0))
        assert tv.spectrum == "dense"
        with pytest.raises(NonFinite, match="gains.alpha"):
            tv.is_hurwitz()


def test_overflowing_gamma_names_the_gain():
    # gamma * lambda_N = 4e308 leaves the float range before any matrix is formed
    inst = Instance.from_graph(ring(4, 1.0), -np.ones(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"gains.gamma \* L leaves the float range"):
            transverse_system(inst, Gains(alpha=1.0, beta=1.0, gamma=1e308))


# ----------------------------------------------- relabelling and rescaling
# Three changes that leave the loop the same, so they need no oracle: the
# nodes relabelled; time scaled by 2^e (rho, delta and alpha times 2^e, beta
# times 4^e: every root times 2^e); the weights times 2^j with the gains over
# 2^j. Node 1 stays in place where the paper's heterogeneous condition reads
# it (rho_bar and ||I + H_hat|| are taken against node 1).

# certificate values and the power of 2^e each scales by with time
SCALED_VALUES = {"x_inf": 0, "z_inf_bound": 1, "epsilon_bound": 0, "mu": 1}


def loop_facts(n, edges, rho, delta, gains):
    inst = Instance.from_graph(Graph(n, tuple(edges)), rho, delta)
    tv = transverse_system(inst, gains)
    try:
        cert = certify(inst, gains)
        verdict = (cert.regime, cert.certified)
        values = {key: getattr(cert, key) for key in SCALED_VALUES}
    except PidnetError as exc:
        verdict, values = type(exc).__name__, {}
    size = float(np.max(np.abs(tv.A_tv)))
    floor = n * np.finfo(float).eps * size  # below it the dense eigvals cannot tell a sign
    sub = float(np.max(np.linalg.eigvals(tv.A_tv[1:, 1:]).real))
    return {
        "verdict": verdict,
        "spectrum": tv.spectrum,
        "max_real_part": tv.max_real_part,
        "size": size,
        "hurwitz": tv.is_hurwitz() if abs(tv.max_real_part) > floor else None,
        "hurwitz_sub_block": tv.hurwitz_sub_block if abs(sub) > floor else None,
        "values": values,
    }


@st.composite
def invariance_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["homogeneous", "heterogeneous", "tiny"]))
    if kind == "homogeneous":
        rho = -float(rng.uniform(0.2, 3.0)) * np.ones(n)
    elif kind == "heterogeneous":
        rho = rng.uniform(-3.0, 0.5, n)
    else:  # poles of either sign within rounding of zero, or all equal
        rho = rng.uniform(-1e-13, 1e-13, n) if rng.random() < 0.7 else np.full(n, -1e-13)
    gains = Gains(alpha=float(10 ** rng.uniform(-1, 2)),
                  beta=draw(st.sampled_from([0.0, float(rng.uniform(0.1, 5.0))])),
                  gamma=draw(st.sampled_from([0.0, float(rng.uniform(0.1, 3.0))])))
    edges = random_graph(rng, n).edges
    return (n, edges, rho, rng.normal(0.0, 2.0, n), gains, draw(st.permutations(range(n))),
            draw(st.integers(min_value=-400, max_value=400)),
            draw(st.integers(min_value=-20, max_value=20)))


def assert_same_loop(base, other, scale):
    assert other["verdict"] == base["verdict"]
    assert other["spectrum"] == base["spectrum"]
    for flag in ("hurwitz", "hurwitz_sub_block"):
        if base[flag] is not None and other[flag] is not None:
            assert other[flag] == base[flag]
    if base["spectrum"] == "hyperbolic":
        assert other["max_real_part"] == pytest.approx(base["max_real_part"] * scale, rel=1e-12)
    else:  # a dense value is good to a small multiple of eps max|A_tv|
        assert other["max_real_part"] == pytest.approx(
            base["max_real_part"] * scale, rel=0, abs=1e-12 * max(base["size"] * scale, other["size"]))
    for key, power in SCALED_VALUES.items():
        if base["values"].get(key) is not None:
            assert other["values"][key] == pytest.approx(base["values"][key] * scale**power,
                                                         rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(invariance_cases())
def test_property_relabelling_and_rescaling_keep_the_verdicts(case):
    n, edges, rho, delta, gains, perm, e, j = case
    base = loop_facts(n, edges, rho, delta, gains)
    if not NodeEnsemble(rho=rho, delta=delta).is_homogeneous():
        perm = [0] + [p for p in perm if p != 0]  # node 1 stays node 1
    relabelled = np.empty(n)
    relabelled[perm] = rho
    moved = np.empty(n)
    moved[perm] = delta
    assert_same_loop(base, loop_facts(n, [(perm[a], perm[b], w) for a, b, w in edges],
                                      relabelled, moved, gains), 1.0)
    t = 2.0**e
    assert_same_loop(base, loop_facts(n, edges, rho * t, delta * t,
                                      Gains(gains.alpha * t, gains.beta * t * t, gains.gamma)), t)
    c = 2.0**j
    assert_same_loop(base, loop_facts(n, [(a, b, w * c) for a, b, w in edges], rho, delta,
                                      Gains(gains.alpha / c, gains.beta / c, gains.gamma / c)), 1.0)
