"""Acceptance gate: one pass/fail line per criterion (run with -s to see them).

Each test prints "[PASS]"/"[FAIL] criterion <id>" before asserting, so the
gate's outcome is readable even inside a long pytest run.
"""

import time

import numpy as np

from pidnet import (
    Gains,
    Instance,
    NodeEnsemble,
    SimConfig,
    UnstableAverage,
    assemble,
    build_microgrid,
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
    psi_blocks,
    spectral_decompose,
    transverse_system,
)
from conftest import (BENCH_DELTA, BENCH_RHO, BENCHMARK_ALPHA_REFERENCE, complete,
                      exact_affine_solution, random_graph, ring)

BENCH_GAINS = Gains(alpha=6.0, beta=5.0, gamma=1.0)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def bench_instance() -> Instance:
    return Instance.from_graph(ring(6, 5.0), BENCH_RHO, BENCH_DELTA)


def test_criterion_1_benchmark_reproduction():
    """Six-inverter benchmark converges to the predicted value of 50."""
    sys_ = build_microgrid(bench_instance(), BENCH_GAINS)
    start = time.perf_counter()
    trace = integrate(sys_, SimConfig(t_end=30.0))
    elapsed = time.perf_counter() - start
    mu_hat = metrics(trace, x_inf=50.0).empirical_rate
    assert mu_hat is not None and mu_hat > 0
    t_target = 12.0 / mu_hat
    idx = int(np.searchsorted(trace.times, min(t_target, trace.times[-1])))
    idx = min(idx, trace.times.size - 1)
    err = float(np.max(np.abs(trace.x[idx] - 50.0)))
    ok = err < 1e-3 and elapsed < 1.0
    verdict(
        "1",
        ok,
        f"max |x_i - 50| = {err:.3e} at t = {trace.times[idx]:.2f} "
        f"(12/mu_hat = {t_target:.2f}), runtime {elapsed:.3f} s",
    )


def test_criterion_2_benchmark_analysis_values():
    """Spectral/average-pole values exact; alpha threshold certifies 6."""
    inst = bench_instance()
    psi = psi_blocks(inst, 1.0)
    lam2_ok = abs(inst.dec.lambda_2 - 5.0) < 1e-9
    psi_ok = psi.psi11 == -2.0
    rr = float(psi.rho_bar @ psi.rho_bar)
    rr_ok = rr == 32.0
    a_exact = min_alpha(inst, 1.0)
    a_cons = min_alpha(inst, 1.0, conservative=True)
    certifies_six = certify_heterogeneous_pid(inst, BENCH_GAINS).certified and a_exact < 6.0
    bracketed = a_exact <= BENCHMARK_ALPHA_REFERENCE <= a_cons
    ok = lam2_ok and psi_ok and rr_ok and (certifies_six or bracketed)
    verdict(
        "2",
        ok,
        f"lambda_2 = {inst.dec.lambda_2:.12g}, psi11 = {psi.psi11}, "
        f"rho_bar.rho_bar = {rr}; alpha threshold exact {a_exact:.3f} / "
        f"conservative {a_cons:.3f} vs reference {BENCHMARK_ALPHA_REFERENCE} (reported, not asserted); "
        f"alpha = 6 certified: {certifies_six}",
    )


def test_criterion_3_identity_suite():
    """All block/spectral identities on 500 random graphs, residual < 1e-9."""
    rng = np.random.default_rng(3)
    tol = 1e-9
    worst = 0.0
    start = time.perf_counter()
    count = 500
    for _ in range(count):
        n = int(rng.integers(2, 13))
        gamma = float(rng.uniform(0.0, 10.0))
        dec = spectral_decompose(random_graph(rng, n))
        mod = modified_laplacian(dec, gamma)
        ones = np.ones((n - 1, 1))
        one = ones.ravel()
        res = [
            # block identities of U^-1
            np.max(np.abs(dec.R21 + dec.R22 @ ones)),
            np.max(np.abs(dec.R21 @ dec.R21.T + dec.R22 @ dec.R22.T - np.eye(n - 1) / n)),
            np.max(np.abs(dec.r11 * dec.R21.T + dec.R12 @ dec.R22.T)),
            np.max(np.abs(dec.R21 @ dec.R21.T - dec.R22 @ ones @ ones.T @ dec.R22.T)),
            max(0.0, np.linalg.norm(dec.R22, 2) - 1.0 / np.sqrt(n)),
            # block identities of the inverse modified Laplacian
            abs(mod.L12_hat @ one - (1.0 - mod.l11_hat)),
            abs(mod.L21_hat @ one - (1.0 - mod.l11_hat)),
            np.max(np.abs(mod.L22_hat @ one - (one - mod.L21_hat))),
            np.max(np.abs(np.outer(one, one @ mod.L22_hat)
                          - (np.outer(one, one) - np.outer(one, mod.L12_hat)))),
            np.max(np.abs(mod.H_hat @ one - (mod.l11_hat * one - mod.L21_hat))),
            np.max(np.abs(mod.Sigma_hat_inv / n
                          - dec.R22 @ (mod.H_hat + np.outer(mod.l11_hat * one - mod.L21_hat, one))
                          @ dec.R22.T)),
            # spectrum of the product and the norm bound
            np.max(np.abs(
                np.sort(np.linalg.eigvals(mod.L_tilde_inv @ dec.laplacian).real)
                - np.sort(np.concatenate([[0.0], dec.lam[1:] / (gamma * dec.lam[1:] + 1.0)]))
            )),
            max(0.0, mod.h_norm - h_norm_bound(dec, gamma)),
        ]
        # closed-form Psi blocks against the direct product
        ens = NodeEnsemble(rng.uniform(-3.0, 1.0, n), rng.normal(0.0, 2.0, n))
        psi = psi_blocks(Instance(dec, ens), gamma)
        direct = dec.U_inv @ mod.L_tilde_inv @ ens.P @ dec.U
        res.append(np.max(np.abs(psi.assembled() - direct)))
        worst = max(worst, max(float(r) for r in res))
    elapsed = time.perf_counter() - start
    ok = worst < tol and elapsed < 30.0
    verdict("3", ok, f"{count} graphs, worst residual {worst:.3e}, runtime {elapsed:.1f} s")


def test_criterion_4_rate_formula():
    """Closed-form rate vs eigensolve (1e-8); empirical fit within 15%."""
    rng = np.random.default_rng(4)
    worst_formula = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        rho_star = float(rng.uniform(0.2, 3.0))
        inst = Instance.from_graph(random_graph(rng, n), -rho_star * np.ones(n), np.zeros(n))
        gains = Gains(float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)),
                      float(rng.uniform(0.0, 3)))
        tv = transverse_system(inst, gains)
        mu_eig = float(-np.max(np.linalg.eigvals(tv.A_tv[1:, 1:]).real))
        worst_formula = max(worst_formula, abs(convergence_rate(inst, gains) - mu_eig))

    # The empirical check targets representative tunings with beta <= alpha:
    # strongly underdamped gains mix several oscillatory modes inside the
    # fit window and the window slope then differs from the asymptotic rate.
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 8))
        rho_star = float(rng.uniform(0.5, 2.0))
        inst = Instance.from_graph(
            random_graph(rng, n),
            -rho_star * np.ones(n),
            rng.normal(0.0, 1.0, n),
        )
        alpha = float(rng.uniform(0.5, 3))
        gains = Gains(alpha, float(rng.uniform(0.3, 1.0)) * alpha,
                      float(rng.uniform(0.0, 1.5)))
        mu = convergence_rate(inst, gains)
        sys_ = assemble(inst, gains)
        trace = integrate(sys_, SimConfig(t_end=16.0 / mu))
        mu_hat = metrics(trace).empirical_rate
        assert mu_hat is not None
        worst_rel = max(worst_rel, abs(mu_hat - mu) / mu)
    ok = worst_formula < 1e-8 and worst_rel < 0.15
    verdict(
        "4",
        ok,
        f"formula-vs-eigensolve max |diff| = {worst_formula:.2e} over 200 instances; "
        f"empirical fit max rel err = {worst_rel:.1%} over 20 simulations",
    )


def _certified_pi_pid_instances(rng, count):
    """Random certified full-PID/PI instances, heterogeneous and homogeneous."""
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 8))
        graph = random_graph(rng, n)
        if rng.uniform() < 0.5:
            rho = rng.uniform(-3.0, 0.3, n)
            rho -= max(0.0, np.mean(rho) + 0.3)
        else:
            rho = -float(rng.uniform(0.3, 3.0)) * np.ones(n)
        inst = Instance.from_graph(graph, rho, rng.normal(0.0, 2.0, n))
        gamma = float(rng.uniform(0.0, 2.0))
        if inst.ensemble.is_homogeneous():
            alpha = float(rng.uniform(0.5, 4.0))
        else:
            try:
                alpha = float(rng.uniform(1.05, 3.0)) * min_alpha(inst, gamma)
            except UnstableAverage:
                continue
        gains = Gains(alpha, float(rng.uniform(0.3, 3.0)), gamma)
        cert = certify(inst, gains)
        if cert.certified:
            out.append((inst, gains, cert))
    return out


def test_criterion_5a_integral_state_bound():
    """Steady ||z|| stays below the certified bound on random instances."""
    rng = np.random.default_rng(51)
    cases = _certified_pi_pid_instances(rng, 40)
    worst = -np.inf
    sims = 0
    for k, (inst, gains, cert) in enumerate(cases):
        sys_ = assemble(inst, gains)
        observed = float(np.linalg.norm(equilibrium(sys_.ensemble, sys_.mod_lap).z_star))
        if k < 12:  # simulate a subset to steady state; check the rest algebraically
            tv = transverse_system(inst, gains)
            rate = float(-np.max(tv.eigenvalues.real))
            trace = integrate(sys_, SimConfig(t_end=min(14.0 / rate, 300.0)))
            observed = max(observed, metrics(trace).steady_z_norm)
            sims += 1
        bound = cert.z_inf_bound
        margin = (observed - bound) / max(bound, 1e-30)
        worst = max(worst, margin)
    ok = worst <= 1e-6
    verdict(
        "5a",
        ok,
        f"z bound holds on {len(cases)} certified instances ({sims} simulated); "
        f"worst relative violation {worst:.2e}",
    )


def test_criterion_5b_pd_disagreement_bound():
    """Steady pairwise disagreement vs the derivative-only epsilon formula.

    Expected to FAIL: the epsilon formula prices every residual mode at the
    largest Laplacian eigenvalue, dividing by (alpha*lam_N + rho*), but the
    steady offset per transverse mode is delta_k / (alpha*lam_k + rho*) and
    is largest at lam_2 whenever alpha > gamma*rho*; the formula also
    compares a transverse-coordinate norm against the larger pairwise
    spread without a dimension conversion factor. The gap is widest at
    gamma = 0, where the eigenvalue-ratio inflation (gamma*lam_N+1)/
    (gamma*lam_2+1) does not pad the value: ~19% of random certified
    instances then exceed it, by factors above 3. The formula is
    implemented exactly as stated; this test documents that it is not a
    sound bound on the pairwise disagreement.
    """
    rng = np.random.default_rng(52)
    total, violations, worst = 0, 0, 0.0
    for _ in range(150):
        n = int(rng.integers(3, 9))
        rho_star = float(rng.uniform(0.2, 3.0))
        inst = Instance.from_graph(
            random_graph(rng, n), -rho_star * np.ones(n), rng.normal(0.0, 2.0, n)
        )
        gamma = float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else 0.0
        gains = Gains(float(rng.uniform(0.3, 6.0)), 0.0, gamma)
        cert = certify_homogeneous_pd(inst, gains)
        if not cert.certified:
            continue
        total += 1
        sys_ = assemble(inst, gains)
        rate = float(-np.max(np.linalg.eigvals(sys_.A1).real))
        trace = integrate(sys_, SimConfig(t_end=min(max(20.0, 14.0 / max(rate, 1e-3)), 300.0)))
        observed = metrics(trace).steady_disagreement
        ratio = observed / max(cert.epsilon_bound, 1e-30)
        if ratio > 1.0 + 1e-6:
            violations += 1
            worst = max(worst, ratio)
    ok = violations == 0
    verdict(
        "5b",
        ok,
        f"epsilon formula violated on {violations}/{total} certified instances "
        f"(worst observed/epsilon = {worst:.2f}); the stated closed form is not "
        f"a sound bound on the pairwise disagreement",
    )


def test_criterion_5c_bound_ratio_formula():
    """Formula-level ratio of the full vs gamma=0 integral bounds."""
    rng = np.random.default_rng(53)
    ok = True
    detail = ""
    for _ in range(20):
        n = int(rng.integers(2, 11))
        inst = Instance.from_graph(
            random_graph(rng, n), -np.ones(n) * float(rng.uniform(0.2, 3)),
            rng.normal(0.0, 2.0, n),
        )
        gamma = float(rng.uniform(0.01, 5.0))
        pid = certify_homogeneous_pid(inst, Gains(1.0, 1.0, gamma)).z_inf_bound
        pi = certify_homogeneous_pi(inst, Gains(1.0, 1.0, 0.0)).z_inf_bound
        if pi == 0.0:
            continue
        expected = n / (gamma * inst.dec.lambda_2 + 1.0)
        if abs(pid / pi - expected) > 1e-12 * expected:
            ok = False
            detail = f"ratio {pid / pi} != {expected} at N={n}, gamma={gamma}"
            break
    verdict("5c", ok, detail or "PID/PI bound ratio equals N/(gamma*lambda_2+1) exactly")


def test_criterion_6_integrator_order():
    """Terminal error vs the matrix-exponential oracle scales as dt^4."""
    rng = np.random.default_rng(6)
    min_order = np.inf
    for _ in range(5):
        n = int(rng.integers(3, 7))
        rho = rng.uniform(-3.0, -0.5, n)
        inst = Instance.from_graph(random_graph(rng, n), rho, rng.normal(0, 2, n))
        gains = Gains(float(rng.uniform(0.5, 3)), float(rng.uniform(0.3, 2)),
                      float(rng.uniform(0, 1.5)))
        sys_ = assemble(inst, gains)
        x0 = rng.normal(0, 1, n)
        v0 = np.concatenate([x0, np.zeros(n)])
        exact = exact_affine_solution(sys_.A, sys_.affine, v0, 2.0)
        errs = []
        for dt in (0.08, 0.04, 0.02, 0.01):
            trace = integrate(sys_, SimConfig(t_end=2.0, dt=dt, x0=x0))
            errs.append(np.linalg.norm(np.concatenate([trace.x[-1], trace.z[-1]]) - exact))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        min_order = min(min_order, min(orders))
    ok = min_order >= 3.7
    verdict("6", ok, f"observed convergence order >= {min_order:.2f} over a 4-point dt ladder")


def test_criterion_7_hurwitz_consistency():
    """Certified instances are Hurwitz; unstable-average homogeneous
    networks still synchronize while the common trajectory diverges."""
    rng = np.random.default_rng(7)
    hurwitz_ok = True
    checked = 0
    for inst, gains, cert in _certified_pi_pid_instances(rng, 30):
        tv = transverse_system(inst, gains)
        heterogeneous = cert.regime == "HeterogeneousPID"
        if not (tv.is_hurwitz() if heterogeneous else tv.hurwitz_sub_block):
            hurwitz_ok = False
            break
        checked += 1

    # unbounded synchronized divergence: identical unstable agents still
    # reach consensus in the disagreement sense while every state grows
    inst = Instance.from_graph(complete(4, 1.0), np.ones(4), np.zeros(4))
    gains = Gains(2.0, 1.0, 0.5)
    cert = certify_homogeneous_pid(inst, gains)
    flagged = not cert.certified and any(
        c.name == "stable_poles" and not c.satisfied for c in cert.conditions
    )
    sys_ = assemble(inst, gains)
    trace = integrate(sys_, SimConfig(t_end=12.0))
    d_ratio = trace.disagreement[-1] / trace.disagreement[0]
    growth = abs(trace.x[-1, 0]) / abs(trace.x[0, 0])
    unbounded_ok = flagged and d_ratio < 1e-4 and growth > 100.0
    ok = hurwitz_ok and unbounded_ok
    verdict(
        "7",
        ok,
        f"Hurwitz on {checked} certified instances; unstable-pole network: "
        f"disagreement shrank by {d_ratio:.1e} while |x_1| grew {growth:.3g}x "
        f"(flagged uncertified: {flagged})",
    )
