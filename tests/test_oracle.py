"""An exact oracle for the transverse verdicts and the certificate's values.

The closed loop is built from the edges, poles, disturbances and gains
alone, in exact rational arithmetic: every float is a dyadic rational, so
``Fraction`` holds it without rounding, and no pidnet code, eigenbasis or
``DampedQEP`` is read. The transverse spectrum is the roots of
p(s) = det Q(s) / s, Q(s) = s^2 L_tilde + s (alpha L - P) + beta L (the
closed loop's 2N roots less the structural zero of the average integral
state), and the sub-block's is the roots of det W^T Q(s) W for any basis W
of the complement of the ones vector: W^T Q W is congruent to the
eigenbasis compression V2^T Q V2, so the two determinants share their roots.
Both polynomials are interpolated from exact determinants at integer s.

Whether every root has real part below c is the Routh-Hurwitz test of
p(s + c), exact in rationals: all of its first column positive. So each
verdict below is decided exactly, however far apart the roots lie (time is
scaled by up to 2^+-300), and no working precision has to be chosen.
"""

from fractions import Fraction

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pidnet import Gains, Graph, Instance, UnstableAverage, certify, transverse_system
from pidnet.transverse import BRACKET
from conftest import random_graph

EPS = Fraction(np.finfo(float).eps)


def det(A: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination, exact."""
    A = [row[:] for row in A]
    n, d = len(A), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            A[k], A[p], d = A[p], A[k], -d
        d *= A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k + 1, n):
                A[i][j] -= f * A[k][j]
    return d


def quadratic_det(M, C, K) -> list[Fraction]:
    """Coefficients, highest first, of det(s^2 M + s C + K): Newton's divided
    differences of its values at s = 0, ..., 2N, expanded."""
    n = len(M)
    deg = 2 * n
    c = [det([[s * s * M[i][j] + s * C[i][j] + K[i][j] for j in range(n)] for i in range(n)])
         for s in range(deg + 1)]
    for k in range(1, deg + 1):
        for i in range(deg, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / k
    poly = [c[deg]]  # Horner on the Newton form: poly * (s - k) + c_k
    for k in range(deg - 1, -1, -1):
        poly = [a - k * b for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
        poly[-1] += c[k]
    return poly


def roots_below(poly: list[Fraction], c: Fraction) -> bool:
    """Every root of poly (leading coefficient > 0) has real part below c: the
    Routh-Hurwitz test of poly(s + c), whose roots are poly's less c."""
    a, d = poly[:], len(poly) - 1
    for i in range(d):  # Taylor shift by repeated synthetic division
        for j in range(1, d + 1 - i):
            a[j] += c * a[j - 1]
    prev, row = a[0::2], a[1::2]
    for _ in range(d):
        if not row or row[0] <= 0:
            return False
        prev, row = row, [prev[j + 1] - prev[0] * (row[j + 1] if j + 1 < len(row) else 0) / row[0]
                          for j in range(len(prev) - 1)]
    return True


class ExactLoop:
    """The transverse and sub-block polynomials of one loop, and its exact
    consensus value and steady state."""

    def __init__(self, n, edges, rho, delta, gains: Gains):
        rho, delta = [Fraction(v) for v in rho], [Fraction(v) for v in delta]
        alpha, beta, gamma = (Fraction(v) for v in (gains.alpha, gains.beta, gains.gamma))
        L = [[Fraction(0)] * n for _ in range(n)]
        for i, j, w in edges:
            w = Fraction(w)
            L[i][j] -= w
            L[j][i] -= w
            L[i][i] += w
            L[j][j] += w
        eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        M = [[eye[i][j] + gamma * L[i][j] for j in range(n)] for i in range(n)]
        C = [[alpha * L[i][j] - eye[i][j] * rho[i] for j in range(n)] for i in range(n)]
        K = [[beta * L[i][j] for j in range(n)] for i in range(n)]
        full = quadratic_det(M, C, K)
        assert full[-1] == 0  # the structural zero
        self.transverse = full[:-1]
        last = n - 1

        def compress(A):  # W^T A W, W's columns e_i - e_last
            return [[A[i][j] - A[i][last] - A[last][j] + A[last][last] for j in range(last)]
                    for i in range(last)]

        self.sub_block = quadratic_det(compress(M), compress(C), compress(K))
        self.x_inf = -sum(delta) / sum(rho) if sum(rho) else None
        self.z_star = None
        if self.x_inf is not None:  # L_tilde z* = -(P x* + delta)
            b = [-(r * self.x_inf + d) for r, d in zip(rho, delta)]
            det_m = det(M)
            self.z_star = [det([row[:k] + [bk] + row[k + 1:] for row, bk in zip(M, b)]) / det_m
                           for k in range(n)]  # Cramer's rule


@st.composite
def loops(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(2, 6))  # from the seed: Hypothesis would favour N = 2
    if draw(st.booleans()):  # identical poles, stable or not
        rho = -float(rng.uniform(-1.0, 3.0)) * np.ones(n)
    else:
        rho = rng.uniform(-3.0, 0.5, n)
    alpha = float(10 ** rng.uniform(-1.0, 2.0))
    beta = draw(st.sampled_from([0.0, float(rng.uniform(0.1, 5.0))]))
    gamma = draw(st.sampled_from([0.0, float(rng.uniform(0.1, 3.0))]))
    # time scaled by t = 2^e: every root times t
    t = 2.0 ** draw(st.integers(min_value=-300, max_value=300))
    return (n, random_graph(rng, n).edges, rho * t, rng.normal(0.0, 2.0, n) * t,
            Gains(alpha * t, beta * t * t, gamma))


def dense_floor(A_tv: np.ndarray) -> Fraction:
    """The dense path's rounding of zero: eigvals balances A_tv, scaling the
    rows of [-diag(k), 0] and the columns of [0; I] towards sqrt(k), and
    returns the exact roots of a matrix that differs from the balanced one by
    a small multiple of (2N - 1) eps times its largest entry."""
    n = (A_tv.shape[0] + 1) // 2
    size = max(np.max(np.abs(A_tv[:n, :n])), np.sqrt(np.max(np.abs(A_tv[n:, :n]))))
    return (2 * n - 1) * EPS * Fraction(float(size))


def within_rounding(poly: list[Fraction], floor: Fraction) -> bool:
    """The slowest root's real part lies in [-floor, floor): the dense path
    cannot tell its sign."""
    return roots_below(poly, floor) and not roots_below(poly, -floor)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(loops())
# ROADMAP item 16's 3-path: certified and Hurwitz, with slow roots near
# -1e-320 that the dense eigvals of entries near 1e300 reads as -0.0
@example((3, ((0, 1, 1.0), (1, 2, 1.0)), np.array([-1.0, -2.0, -1.5]), np.array([1.0, -1.0, 0.5]),
          Gains(alpha=1e300, beta=1e-20, gamma=0.0)))
def test_exact_oracle_agrees_with_the_verdicts_and_bounds(case):
    n, edges, rho, delta, gains = case
    inst = Instance.from_graph(Graph(n, edges), rho, delta)
    tv = transverse_system(inst, gains)
    exact = ExactLoop(n, edges, rho, delta, gains)
    hurwitz = roots_below(exact.transverse, Fraction(0))
    floor = dense_floor(tv.A_tv)
    # at beta = 0 the N - 1 zero roots are rows of zeros in A_tv, which eigvals
    # isolates exactly, and the sub-block is decided by that structure
    if tv.spectrum == "hyperbolic":  # a proof: the slowest root within BRACKET
        r, bracket = Fraction(tv.max_real_part), Fraction(BRACKET)
        assert roots_below(exact.transverse, r * (1 - bracket))
        assert not roots_below(exact.transverse, r * (1 + bracket))
    elif gains.beta > 0 and within_rounding(exact.transverse, floor):
        event("hurwitz unasserted: the slowest root within the dense rounding of zero")
    else:
        assert tv.is_hurwitz() == hurwitz
    if tv.energy_certified or gains.beta == 0 or not within_rounding(exact.sub_block, floor):
        assert tv.hurwitz_sub_block == roots_below(exact.sub_block, Fraction(0))
    else:
        event("hurwitz_sub_block unasserted: the slowest root within the dense rounding of zero")
    try:
        cert = certify(inst, gains)
    except UnstableAverage:  # a nonnegative average pole: no certificate to check
        return
    if cert.certified and gains.beta > 0:
        assert hurwitz
    if cert.x_inf is not None:
        assert abs(Fraction(cert.x_inf) - exact.x_inf) <= Fraction(1e-12) * abs(exact.x_inf)
    if cert.z_inf_bound is not None and exact.z_star is not None:
        assert Fraction(cert.z_inf_bound) ** 2 >= sum(z * z for z in exact.z_star)
