"""Certificates, gain thresholds, convergence rate and analytic bounds."""

import decimal
import warnings

import numpy as np
import pytest

from pidnet import (
    Gains,
    Graph,
    Instance,
    NotHomogeneous,
    SimConfig,
    UnstableAverage,
    assemble,
    certify,
    certify_heterogeneous_pid,
    certify_homogeneous_pd,
    certify_homogeneous_pi,
    certify_homogeneous_pid,
    convergence_rate,
    equilibrium,
    h_norm_bound,
    integrate,
    metrics,
    min_alpha,
    modified_laplacian,
    transverse_system,
    z_infinity_bound,
)
from pidnet.transverse import dominant_real_part
from conftest import (BENCH_DELTA, BENCH_RHO, random_graph, random_heterogeneous_instance,
                      random_homogeneous_instance, ring)

TOL = 1e-9


def bench_instance() -> Instance:
    return Instance.from_graph(ring(6, 5.0), BENCH_RHO, BENCH_DELTA)


# ------------------------------------------------------------- regimes


def test_dispatch_selects_regime(rng):
    hom = random_homogeneous_instance(rng, 5)
    het = random_heterogeneous_instance(rng, 5)
    assert certify(hom, Gains(1, 1, 1)).regime == "HomogeneousPID"
    assert certify(hom, Gains(1, 1, 0)).regime == "HomogeneousPI"
    assert certify(hom, Gains(1, 0, 1)).regime == "HomogeneousPD"
    assert certify(het, Gains(9, 1, 1)).regime == "HeterogeneousPID"


def test_homogeneous_certifiers_reject_heterogeneous(rng):
    het = random_heterogeneous_instance(rng, 5)
    for fn in (certify_homogeneous_pid, certify_homogeneous_pi, certify_homogeneous_pd):
        with pytest.raises(NotHomogeneous):
            fn(het, Gains(1, 1, 0.5))


def test_homogeneous_pid_any_positive_gains(rng):
    for _ in range(5):
        inst = random_homogeneous_instance(rng, int(rng.integers(2, 9)))
        gains = Gains(float(rng.uniform(0.01, 10)), float(rng.uniform(0.01, 10)),
                      float(rng.uniform(0.01, 10)))
        cert = certify_homogeneous_pid(inst, gains)
        assert cert.certified
        assert cert.mu is not None and cert.mu > 0


def test_homogeneous_pid_consensus_value(rng):
    inst = Instance.from_graph(random_graph(rng, 5), -2.0 * np.ones(5), 2.0 * np.ones(5))
    cert = certify_homogeneous_pid(inst, Gains(1, 1, 1))
    assert cert.x_inf == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_pid_z_bound_formula(rng):
    # benchmark-sized check of the closed form sqrt(N^3 (N-1)) / (gamma lam2 + 1)
    inst = Instance.from_graph(ring(6, 5.0), -2.0 * np.ones(6), BENCH_DELTA)
    cert = certify_homogeneous_pid(inst, Gains(6, 5, 1))
    expected = np.sqrt(216.0 * 5.0) / 6.0 * np.linalg.norm(BENCH_DELTA)
    assert cert.z_inf_bound == pytest.approx(expected, rel=1e-12)


def test_zero_disturbance_bounds_vanish(rng):
    inst = Instance.from_graph(random_graph(rng, 4), -np.ones(4), np.zeros(4))
    assert certify_homogeneous_pid(inst, Gains(1, 1, 1)).z_inf_bound == 0.0
    assert certify_homogeneous_pi(inst, Gains(1, 1, 0)).z_inf_bound == 0.0
    assert certify_homogeneous_pd(inst, Gains(1, 0, 0)).epsilon_bound == 0.0


def test_pi_bound_two_nodes():
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2),
                               np.array([0.6, 0.8]))  # ||delta|| = 1
    cert = certify_homogeneous_pi(inst, Gains(1, 1, 0))
    assert cert.z_inf_bound == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_pid_vs_pi_bound_ratio(rng):
    # the formula-level ratio of the two bounds is N / (gamma lam2 + 1)
    inst = Instance.from_graph(random_graph(rng, 6), -1.5 * np.ones(6), rng.normal(0, 2, 6))
    gamma = 1.7
    pid = certify_homogeneous_pid(inst, Gains(2, 1, gamma))
    pi = certify_homogeneous_pi(inst, Gains(2, 1, 0))
    n, lam2 = 6, inst.dec.lambda_2
    assert pid.z_inf_bound / pi.z_inf_bound == pytest.approx(n / (gamma * lam2 + 1), rel=1e-12)


# ------------------------------------------------------- convergence rate


def test_rate_hand_factorable_quadratic():
    # two nodes, unit weight (lam2 = 2), rho* = 1, alpha = beta = 1, gamma = 0:
    # eta^2 + 3 eta + 2 = 0 -> roots {-1, -2} -> rate 1
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    assert convergence_rate(inst, Gains(1, 1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_rate_beta_zero_limit(rng):
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    # beta -> 0: roots approach {0, -(alpha lam + rho*)/(gamma lam + 1)}
    mu = convergence_rate(inst, Gains(2.0, 1e-12, 0.5))
    assert mu == pytest.approx(0.0, abs=1e-10)


def test_rate_matches_eigensolve(rng):
    # oracle: dense eigensolve of the decoupled transverse sub-block
    for _ in range(20):
        inst = random_homogeneous_instance(rng, int(rng.integers(2, 11)))
        gains = Gains(float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)),
                      float(rng.uniform(0.0, 3)))
        tv = transverse_system(inst, gains)
        mu_eig = float(-np.max(np.linalg.eigvals(tv.A_tv[1:, 1:]).real))
        assert convergence_rate(inst, gains) == pytest.approx(mu_eig, abs=1e-8)


@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [(1e300, 1.0, 0.0), (1e300, 1e300, 0.0), (1e200, 1e250, 0.5), (1.0, 8e307, 0.0),
     (1.0, 1e308, 0.0)],
    ids=["tiny-root", "unit-root", "both-large", "4c-overflows", "c-overflows"],
)
def test_rate_without_overflow(alpha, beta, gamma):
    # b*b, 4c or c itself overflows; the oracle solves the same float
    # coefficients in 1000-digit decimal arithmetic
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    lam = float(inst.dec.lam[1])
    b = (alpha * lam + 1.0) / (gamma * lam + 1.0)
    c = beta * lam / (gamma * lam + 1.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        B, C = decimal.Decimal(b), decimal.Decimal(c)
        disc = B * B - 4 * C
        root = -B / 2 if disc < 0 else (-B + disc.sqrt()) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = convergence_rate(inst, Gains(alpha, beta, gamma))
    assert mu == pytest.approx(float(abs(root)), rel=1e-12)


@pytest.mark.parametrize(
    "b, c, expected",
    [(3.0, 2.0, -1.0), (2.0, 5.0, -1.0), (2.0, 1.0, -1.0), (1e8, 1.0, -1e-8),
     (3.0, float("inf"), -1.5), (1e200, float("inf"), float("nan"))],
    ids=["real", "complex", "double", "tiny-root", "c-infinite", "unknown-sign"],
)
def test_dominant_real_part(b, c, expected):
    # the tiny root comes from the product of the roots: (-b + sqrt(b*b - 4c))/2
    # would be 25% off at b = 1e8, c = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dominant_real_part(np.array([b]), np.array([c]))[0]
    assert got == pytest.approx(expected, rel=1e-15, nan_ok=True)


# --------------------------------------------------------------- PD


def test_pd_epsilon_formula():
    # ring (lam2 = 5, lamN = 20), rho* = 2, alpha = 10, gamma = 1
    inst = Instance.from_graph(ring(6, 5.0), -2.0 * np.ones(6), BENCH_DELTA)
    cert = certify_homogeneous_pd(inst, Gains(10, 0, 1))
    expected = (21.0 / 6.0) * (6.0 / 202.0) * np.linalg.norm(BENCH_DELTA)
    assert cert.epsilon_bound == pytest.approx(expected, rel=1e-12)
    # cross-check: simulated steady disagreement respects epsilon here
    sys_ = assemble(inst, Gains(10, 0, 1))
    trace = integrate(sys_, SimConfig(t_end=40.0))
    assert metrics(trace).steady_disagreement <= cert.epsilon_bound


def test_pd_epsilon_decreases_with_alpha(rng):
    inst = random_homogeneous_instance(rng, 6)
    eps = [
        certify_homogeneous_pd(inst, Gains(a, 0, 0.5)).epsilon_bound
        for a in (0.5, 1.0, 2.0, 8.0)
    ]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_pd_epsilon_can_underestimate_disagreement():
    """Documented limitation: the epsilon formula divides by
    (alpha*lam_N + rho*), pricing the residual at the fastest transverse
    mode, while the steady offset per mode is delta_k / (alpha*lam_k + rho*)
    and peaks at lam_2. At gamma = 0 (where no eigenvalue-ratio factor pads
    the value) a sizable fraction of random instances exceeds the formula.
    This pins the algebraic steady state against the formula so the behavior
    is tracked rather than silently relied on."""
    rng = np.random.default_rng(11)
    found = None
    for _ in range(200):
        n = int(rng.integers(4, 9))
        inst = random_homogeneous_instance(rng, n)
        gains = Gains(float(rng.uniform(0.5, 6)), 0.0, 0.0)
        cert = certify_homogeneous_pd(inst, gains)
        if not cert.certified:
            continue
        rho_star = -float(inst.ensemble.rho[0])
        # exact steady state of the proportional-only loop: (P - alpha L) x = -delta
        x_ss = np.linalg.solve(
            rho_star * np.eye(n) + gains.alpha * inst.dec.laplacian, inst.ensemble.delta
        )
        spread = float(x_ss.max() - x_ss.min())
        if spread > cert.epsilon_bound * 1.05:  # a clear-margin counterexample
            found = (spread, cert.epsilon_bound, inst, gains)
            break
    assert found is not None, "expected at least one instance exceeding the formula value"
    # cross-check the violation dynamically as well
    spread, eps, inst, gains = found
    sys_ = assemble(inst, gains)
    trace = integrate(sys_, SimConfig(t_end=60.0))
    assert metrics(trace).steady_disagreement > eps * (1 + 1e-6)


# ------------------------------------------------------- heterogeneous


def test_heterogeneous_benchmark_certifies_alpha6():
    inst = bench_instance()
    cert = certify_heterogeneous_pid(inst, Gains(6, 5, 1))
    assert cert.regime == "HeterogeneousPID"
    assert cert.certified
    assert cert.x_inf == pytest.approx(50.0, abs=1e-12)


def test_heterogeneous_requires_negative_average(rng):
    inst = Instance.from_graph(random_graph(rng, 4), [1.0, 0.5, -0.2, -0.3], np.ones(4))
    with pytest.raises(UnstableAverage):
        certify_heterogeneous_pid(inst, Gains(1, 1, 1))
    with pytest.raises(UnstableAverage):
        min_alpha(inst, 1.0)


def test_z_bound_needs_a_nonzero_average_pole():
    # psi11 = mean(rho) = 0 while rho_bar != 0: the heterogeneous term divides by psi11
    inst = Instance.from_graph(ring(3), [1.0, -1.0, 0.0], np.ones(3))
    with pytest.raises(UnstableAverage, match="psi11 = 0: heterogeneous bound undefined"):
        z_infinity_bound(inst, Gains(1, 1, 1))


def test_heterogeneous_beta_zero_fails_condition(rng):
    inst = random_heterogeneous_instance(rng, 5)
    cert = certify_heterogeneous_pid(inst, Gains(50, 0, 1))
    names = {c.name: c.satisfied for c in cert.conditions}
    assert names["beta_positive"] is False
    assert not cert.certified


def test_min_alpha_homogeneous_closed_form(rng):
    # rho_bar = 0: alpha_min = max|rho| (gamma lam2 + 1) / (N lam2)
    n, m, gamma = 5, 2.0, 0.7
    inst = Instance.from_graph(random_graph(rng, n), -m * np.ones(n), np.zeros(n))
    lam2 = inst.dec.lambda_2
    assert min_alpha(inst, gamma) == pytest.approx(m * (gamma * lam2 + 1) / (n * lam2), rel=1e-12)


def test_min_alpha_bisection_consistency(rng):
    for _ in range(8):
        inst = random_heterogeneous_instance(rng, int(rng.integers(3, 9)))
        gamma = float(rng.uniform(0, 2))
        a_min = min_alpha(inst, gamma)
        hi = certify_heterogeneous_pid(inst, Gains(1.01 * a_min, 1.0, gamma))
        lo = certify_heterogeneous_pid(inst, Gains(0.99 * a_min, 1.0, gamma))
        assert hi.certified
        assert not lo.certified


def test_min_alpha_conservative_dominates_exact(rng):
    inst = bench_instance()
    exact = min_alpha(inst, 1.0)
    cons = min_alpha(inst, 1.0, conservative=True)
    assert cons >= exact
    # both modes certify the benchmark gain of 6
    assert exact < 6.0 and cons < 6.0
    # conservative closed form: (gamma lam2 + 1)/lam2 * (max|rho| + rr (1 + N/(gamma lam2 + 1))^2 / (4 |psi11|)) / N
    h1 = 1.0 + 6.0 / 6.0
    expected = (6.0 / 5.0) * (6.0 + 32.0 * h1**2 / 8.0) / 6.0
    assert cons == pytest.approx(expected, rel=1e-12)


def test_h1_matrix_norm_bound(rng):
    inst = random_heterogeneous_instance(rng, 7)
    mod = modified_laplacian(inst.dec, 1.3)
    assert mod.h1_norm <= 1.0 + mod.h_norm + TOL


def test_z_bound_homogeneous_reduction(rng):
    # with ||H_hat|| replaced by its bound N/(gamma*lambda_2 + 1) and rho_bar = 0
    # the heterogeneous expression collapses to the homogeneous closed form,
    # which the exact norm of H_hat can only tighten
    n = 6
    inst = Instance.from_graph(random_graph(rng, n), -2.0 * np.ones(n), rng.normal(0, 2, n))
    gains = Gains(2, 1, 1.2)
    bound = (np.sqrt(n * (n - 1)) * h_norm_bound(inst.dec, gains.gamma)
             * np.linalg.norm(inst.ensemble.delta))
    hom = certify_homogeneous_pid(inst, gains).z_inf_bound
    assert bound == pytest.approx(hom, rel=1e-12)
    assert z_infinity_bound(inst, gains) <= hom * (1 + 1e-12)


def test_z_bound_zero_disturbance(rng):
    inst = Instance.from_graph(random_graph(rng, 5), [-1, -2, -1, -3, -2], np.zeros(5))
    assert z_infinity_bound(inst, Gains(2, 1, 1)) == 0.0


def test_z_bound_holds_in_simulation_benchmark():
    inst = bench_instance()
    gains = Gains(7.0, 5.0, 1.0)  # effective proportional gain of the benchmark
    cert = certify_heterogeneous_pid(inst, gains)
    assert cert.certified
    sys_ = assemble(inst, gains)
    trace = integrate(sys_, SimConfig(t_end=30.0))
    assert metrics(trace).steady_z_norm <= cert.z_inf_bound
    eq = equilibrium(sys_.ensemble, sys_.mod_lap)
    assert np.linalg.norm(eq.z_star) <= cert.z_inf_bound


def test_certified_implies_hurwitz(rng):
    for _ in range(10):
        inst = random_heterogeneous_instance(rng, int(rng.integers(3, 9)))
        gamma = float(rng.uniform(0, 2))
        gains = Gains(1.2 * min_alpha(inst, gamma), float(rng.uniform(0.3, 3)), gamma)
        cert = certify_heterogeneous_pid(inst, gains)
        if not cert.certified:
            continue
        tv = transverse_system(inst, gains)
        assert tv.is_hurwitz()
