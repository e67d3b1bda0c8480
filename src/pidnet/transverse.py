"""Transverse coordinates of the consensus manifold.

Applying U^-1 to the closed loop and dropping the uncontrollable first
integral coordinate yields a (2N-1)-dimensional system whose matrix is
Hurwitz exactly when the network converges to its consensus equilibrium.
In the graph's eigenbasis the paper's Psi = U^-1 L_tilde^-1 P U is D^-1 Pi
(Pi the pole matrix below), so A_tv needs only Pi and lambda, not psi_blocks.

Eliminating z gives the symmetric quadratic eigenproblem (QEP) Q(s) =
s^2 L_tilde + s (alpha L - P) + beta L, whose 2N roots are the closed loop's
spectrum; the transverse system has all of them but one zero. In the
graph's eigenbasis V = U / sqrt(N), with D = diag(1 + gamma*lambda),
D^-1/2 V^T Q(s) V D^-1/2 = s^2 I + s C~ + diag(k), where C~ = D^-1/2 (alpha
Lambda - V^T P V) D^-1/2 and k = beta lambda / (1 + gamma lambda). For an
eigenpair (s, x) of a QEP with symmetric coefficients, the Rayleigh
quotients m, c, k of the three at x give m s^2 + c s + k = 0 with m > 0
(Tisseur & Meerbergen, "The Quadratic Eigenvalue Problem", SIAM Review
43(2), 2001). Two certificates follow from it.

``DampedQEP`` is this problem for one (instance, gains). It holds d,
alpha*lambda/d and k, and the transverse layer's only two N x N buffers: the
pole matrix Pi = V^T P V, turned into C~ in place, and one work buffer that
each step below overwrites. Both certificates and A_tv read it.

Energy certificate (the sub-block). Without the average mode, the (x_hat,
z_hat) sub-block is exactly the QEP s^2 D2 + s C2 + beta Lambda_2 with
D2 = diag(1 + gamma*lambda_k), C2 = alpha Lambda_2 - V2^T P V2 (V2 =
V[:, 1:]) and Lambda_2. There m > 0, c > 0 when C2 is positive
definite and k > 0 when beta > 0, so every root lies in the open left
half-plane. This costs one symmetric (N-1)^2 eigvalsh; the dense eigvals of
the sub-block runs only where it does not hold and beta > 0.

Hyperbolic certificate (the full system). If beta > 0 and Q~(mu) = mu^2 I +
mu C~ + diag(k) is negative definite for some mu < 0, then mu^2 + mu c(x) +
k(x) < 0 for every unit x, so c(x) > |mu| + k(x)/|mu| >= |mu|: C~ > |mu| I.
Every root then has real part <= 0, and real part 0 needs k(x) = 0, which
holds only at the average direction, where the root is s = 0 and simple
(c > 0 there). So the transverse system, spectrum(Q) less that zero, is
Hurwitz. The one mu tried is -sqrt(lo hi), the geometric mean of the gap
(lo, hi) that Q~(mu) < 0 needs on the diagonal, and a Cholesky factorisation
of -Q~(mu), in place, certifies it. Q~(mu) < 0 also makes the QEP
hyperbolic (Guo, Higham & Tisseur, SIAM J. Matrix Anal. Appl. 30(4), 2009):
all 2N roots are real, N of them above mu, and for s > mu the number of
negative eigenvalues of Q~(s) is the number of roots above s. The largest
real part is the root r next below the zero, found with N^2 work:
- estimate: with s^2 dropped and the average mode eliminated (k_0 = 0), the
  slow roots are -1/eig(K2^-1/2 S K2^-1/2), S the Schur complement of
  c~_00 in C~; one (N-1)^2 eigvalsh. The largest of them bounds r from above;
- refine: Rayleigh functional iteration x <- Q~(s)^-1 Q~'(s) x, s <- p+(x),
  the larger root of s^2 + c(x) s + k(x); one N^2 solve a step;
- bracket: Q~(r(1 - 1e-10)) has one negative eigenvalue (e_0^T Q~ e_0 < 0
  and an in-place Cholesky of the Schur complement of that entry, by
  Haynsworth's inertia additivity), and Q~(r(1 + 1e-10)) at least two (its
  compression on span(e_0, x) is negative definite). So the largest real
  part lies within 1e-10 of r, relatively.
The shift and all three run on the time scale s = 2^e s', e the mean of the
binary exponents of hi and of the largest damping, so the roots lie near 1
(exactly, where nothing underflows) and a loop's scale alone overflows nothing.
Where the shift is not certified (beta = 0, complex modes, no gap, a failed
Cholesky), no bracket is (an iteration that ends on the lower root of a
close pair fails the first check), or a value is not finite, the dense
eigvals of A_tv decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFinite
from .netmodel import Gains, Instance, norm2
from .spectral import EPS, gamma_scaling, modified_laplacian

# Rounding allowance of both certificates, relative to the size of the terms.
IDENTITY_TOL = 1e-9

# Rows of an N x N product formed at a time: the blocked Cholesky and the
# rank-one update of the Schur complement.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class PsiBlocks:
    """Block form of Psi = U^-1 L_tilde^-1 P U."""

    psi11: float
    Psi12: np.ndarray  # 1 x (N-1)
    Psi21: np.ndarray  # (N-1) x 1
    Psi22: np.ndarray  # (N-1) x (N-1)
    rho_bar: np.ndarray  # [rho_2 - rho_1, ..., rho_N - rho_1]

    def assembled(self) -> np.ndarray:
        return np.block([[np.array([[self.psi11]]), self.Psi12], [self.Psi21, self.Psi22]])


def psi_blocks(instance: Instance, gamma: float) -> PsiBlocks:
    """Closed-form Psi blocks (equal to the direct product U^-1 L_tilde^-1 P U)."""
    dec = instance.dec
    n = dec.node_count
    ens = instance.ensemble
    rho, rho_bar = ens.rho, ens.rho_bar
    R22 = dec.R22
    H = modified_laplacian(dec, gamma).H_hat
    return PsiBlocks(
        psi11=ens.psi11,
        Psi12=rho_bar[None, :] @ R22.T,
        Psi21=R22 @ H @ rho_bar[:, None],
        Psi22=n * R22 @ H @ (np.diag(rho[1:]) + rho[0]) @ R22.T,  # P_hat + rho_1 1 1^T
        rho_bar=rho_bar,
    )


def dominant_real_part(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Largest real part of the roots of s^2 + b s + c, elementwise, for b > 0.

    Complex (or double) roots give -b/2. Real ones give the larger root from
    the product of the roots, -2q/(1 + sqrt(1 - 4q/b)) with q = c/b, so no
    b*b is formed and nothing cancels however small the root. An infinite c
    leaves the sign of the discriminant unknown where b*b overflows: NaN.
    """
    with np.errstate(all="ignore"):
        q = c / b
        disc = 1.0 - 4.0 * (q / b)
        root = np.where(disc > 0.0, -2.0 * q / (1.0 + np.sqrt(disc)), -b / 2.0)
        return np.where(np.isinf(c) & np.isinf(b * b), np.nan, root)


class DampedQEP:
    """Q~(s) = s^2 I + s C~ + diag(k) of one (instance, gains): d = 1 + gamma*lambda,
    c_alpha = alpha*lambda/d, k = beta*lambda/d and C~ = D^-1/2 (alpha Lambda - Pi) D^-1/2.

    It owns the transverse layer's two N x N buffers. ``C`` holds the pole
    matrix Pi = V^T diag(rho) V (the agents' poles in the graph's eigenbasis)
    until the shift search turns it into C~ in place; ``work`` is overwritten
    by each step: rho*V2 of the pole product, the energy block C2, -Q~(mu),
    the estimate, each Q~(s) and the Schur complement; both certificates
    factor theirs in place there.
    """

    def __init__(self, instance: Instance, gains: Gains):
        lam = instance.dec.lam
        n = lam.size
        self.gains, self.lam = gains, lam
        self.d = gamma_scaling(instance.dec, gains.gamma)
        self.r = 1.0 / np.sqrt(self.d)
        self.rho_max = float(np.max(np.abs(instance.ensemble.rho)))
        with np.errstate(all="ignore"):  # a non-finite value sends the caller to eigvals
            self.c_alpha = gains.alpha * (lam / self.d)  # finite where alpha*lambda_N need not be
            self.k = gains.beta * (lam / self.d)
            # |C~_ij| <= c_alpha_i [i = j] + max|rho| r_i r_j
            self.c_size = self.c_alpha + self.rho_max * self.r * self.r
        self.C, self.work = np.empty((n, n)), np.empty((n, n))
        V, rho = instance.dec.V, instance.ensemble.rho
        V2 = V[:, 1:]
        PV = np.matmul(V2.T, np.multiply(rho[:, None], V2, out=self.work[:, 1:]),
                       out=self.C[1:, 1:])
        PV *= 0.5  # halves first: no overflow near the float limit
        PV[...] = np.add(PV, PV.T, out=self.work[1:, 1:])
        self.C[0, 1:] = self.C[1:, 0] = V2.T @ (rho * V[:, 0])
        self.C[0, 0] = instance.ensemble.psi11

    def energy_block(self, unit: float) -> np.ndarray:
        """C2 / unit = (alpha Lambda_2 - V2^T P V2) / unit in ``work``, from Pi: the
        damping of the sub-block's quadratic eigenproblem, V2 = V[:, 1:]."""
        C2 = np.divide(self.C[1:, 1:], -unit, out=self.work[1:, 1:])
        C2[np.diag_indices_from(C2)] += self.gains.alpha / unit * self.lam[1:]
        return C2

    def at(self, s: float) -> np.ndarray:
        """Q~(s), formed in ``work``."""
        Q = np.multiply(self.C, s, out=self.work)
        Q[np.diag_indices_from(Q)] += s * s + self.k
        return Q


def _hyperbolic_max_real_part(qep: DampedQEP) -> float | None:
    """Largest nonzero root of a hyperbolic Q, or None where the shift mu is not
    certified or no bracket around the root is. Turns ``qep.C`` into C~, and
    then ``qep`` into the same problem on a power-of-two time scale."""
    C, k, c_size = qep.C, qep.k, qep.c_size
    diag = np.diag_indices(k.size)
    with np.errstate(all="ignore"):  # each value is checked before it decides
        C *= -qep.r[:, None]
        C *= qep.r
        C[diag] += qep.c_alpha
        # Q(mu) < 0 needs each diagonal s^2 + c s + k negative at mu: real roots,
        # mu below every slow root and above every fast one (complex roots give
        # slow = fast = -c/2, so lo >= hi); the gap also needs every c > 0 (else
        # lo >= 0 or NaN) and every k finite (k = inf gives slow = fast = -c/2)
        c = C.diagonal()
        slow = dominant_real_part(c, k)
        hi, lo = float(np.min(slow[1:])), float(np.max(-c - slow))
        if not (np.isfinite(C).all() and lo < hi < 0):
            return None
        mu = -math.sqrt(-lo) * math.sqrt(-hi)  # inside the gap; lo * hi is never formed
        # the time scale 2^e above: C~/2^e, k/4^e, and the roots near 1; mu/2^e
        # stays near 1 too, where lo/2^e can leave the float range
        e = (math.frexp(hi)[1] + math.frexp(float(np.max(c)))[1]) // 2
        np.ldexp(C, -e, out=C)
        np.ldexp(k, -2 * e, out=k)
        np.ldexp(c_size, -e, out=c_size)
        mu = math.ldexp(mu, -e)
        negQ = np.negative(qep.at(mu), out=qep.work)
        # IDENTITY_TOL times the size of the terms of each diagonal entry
        # covers its rounding, and that of the off-diagonal entries, which
        # stays below the geometric mean of the two diagonal sizes
        negQ[diag] -= IDENTITY_TOL * (mu * mu - mu * c_size + k)
        if not (np.isfinite(negQ).all() and _positive_definite(negQ)):
            return None
        root = _slowest_root(qep, mu)
        return None if root is None else math.ldexp(root, e)


def _positive_definite(A: np.ndarray) -> bool:
    """Whether the symmetric A is positive definite, by a blocked right-looking
    Cholesky that overwrites A's lower triangle with the factor (and the
    diagonal blocks' upper triangles with zeros): no N x N factor beside A.

    Each diagonal block of BLOCK_ROWS is factored, each panel below it solved
    against that factor, and the trailing triangle updated a row block at a
    time. Higham's backward-error bound for Cholesky holds for this order of
    the sums too, so the callers' rounding allowances stand. Later blocks are
    computed values, so a block whose factor is not finite (numpy does not
    raise on every one) fails as a raising one does.
    """
    n = A.shape[0]
    with np.errstate(all="ignore"):  # each factor is checked before it decides
        for j in range(0, n, BLOCK_ROWS):
            e = min(j + BLOCK_ROWS, n)
            panel = A[e:, j:e]
            try:
                factor = np.linalg.cholesky(A[j:e, j:e])
                if not np.isfinite(factor).all():
                    return False
                A[j:e, j:e] = factor
                if e < n:
                    panel[...] = np.linalg.solve(factor, panel.T).T
            except np.linalg.LinAlgError:  # or a factor singular to working precision
                return False
            for r in range(e, n, BLOCK_ROWS):
                rows = slice(r, min(r + BLOCK_ROWS, n))
                A[rows, e:rows.stop] -= panel[r - e:rows.stop - e] @ panel[:rows.stop - e].T
    return True


# Relative half-width of the bracket certified around the slowest root, and
# the Rayleigh functional steps allowed (they converge cubically).
BRACKET = 1e-10
MAX_STEPS = 8


def _slowest_root(qep: DampedQEP, mu: float) -> float | None:
    """Largest nonzero root r of Q(s) = s^2 I + s C + diag(k) above the certified
    mu, or None where the iteration does not end on a certified bracket
    r (1 -+ BRACKET).

    On (-c_00, 0) the Schur complement of q_00 in Q(s) is at least s S + K_2,
    so the estimate -1/theta lies at or above r wherever it exceeds -c_00,
    and the first step, taken there, favours r over the roots below it.
    """
    C, k = qep.C, qep.k
    n = k.size
    c00, col = C[0, 0], C[1:, 0]
    # estimate: without s^2, and with x_0 = -C_02 x_2 / c_00, s S x_2 + K_2 x_2 = 0
    # for the Schur complement S; the slowest root is -1/theta, theta the top
    # eigenvalue of K_2^-1/2 S K_2^-1/2, and one inverse iteration gives its vector
    w = 1.0 / np.sqrt(k[1:])
    M = np.outer(col / c00, col, out=qep.work[1:, 1:])
    np.subtract(C[1:, 1:], M, out=M)
    M *= w[:, None]
    M *= w
    if not np.isfinite(M).all():
        return None
    theta = float(np.linalg.eigvalsh(M)[-1])  # > 0: C~ > |mu| I makes S > 0
    M[np.diag_indices(n - 1)] -= theta * (1.0 + 1e-8)  # just past theta: nonsingular
    try:
        y = np.linalg.solve(M, np.ones(n - 1))
    except np.linalg.LinAlgError:
        y = np.ones(n - 1)
    start = np.empty(n)
    start[1:] = w * y
    start[0] = -(col @ start[1:]) / (c00 - 1.0 / theta)
    s, x = _refine(qep, -1.0 / theta, start)
    if (s < 0.0 and mu < s * (1.0 + BRACKET)
            and _one_root_above(qep, s * (1.0 - BRACKET))
            and _two_roots_above(qep, s * (1.0 + BRACKET), x)):
        return s
    return None


def _refine(qep: DampedQEP, s: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Rayleigh functional iteration x <- Q(s)^-1 Q'(s) x, s <- p+(x) from (s, x);
    returns s and unit x."""
    C, k = qep.C, qep.k
    x = x / norm2(x)
    for _ in range(MAX_STEPS):
        Q = qep.at(s)
        rhs = C @ x + 2.0 * s * x
        try:
            y = np.linalg.solve(Q, rhs / norm2(rhs))
        except np.linalg.LinAlgError:
            break  # Q(s) is singular to working precision: s is the root
        x = y / norm2(y)
        prev, s = s, float(dominant_real_part(x @ (C @ x), k @ (x * x)))
        if not abs(s - prev) > 4.0 * EPS * abs(s):  # converged, or NaN
            break
    return s, x


def _one_root_above(qep: DampedQEP, s: float) -> bool:
    """Q(s), s in (mu, 0), has one negative eigenvalue, so 0 is its only root above
    s: the Schur complement of e_0^T Q(s) e_0 = s (s + c_00) < 0 (c_00 > |mu|) is
    positive definite (Haynsworth's inertia additivity). A q_00 that rounds to 0
    leaves the complement non-finite."""
    k = qep.k
    n = k.size
    Q = qep.at(s)
    q00, q = Q[0, 0], Q[1:, 0]
    schur, u = Q[1:, 1:], q / q00
    for start in range(0, n - 1, BLOCK_ROWS):  # no (N-1)^2 outer product beside C and work
        schur[start:start + BLOCK_ROWS] -= np.outer(u[start:start + BLOCK_ROWS], q)
    # (N + 1) eps times the size of each diagonal entry's terms allows for
    # the rounding of the entries and of the factor
    size = s * s - s * qep.c_size[1:] + k[1:] - q * (q / q00)
    schur[np.diag_indices(n - 1)] -= (n + 1) * EPS * size
    return bool(np.isfinite(schur).all()) and _positive_definite(schur)


def _two_roots_above(qep: DampedQEP, s: float, x: np.ndarray) -> bool:
    """Q(s) has two negative eigenvalues or more, so a nonzero root lies above s:
    its compression on span(e_0, x), unit x, is negative definite."""
    C, k = qep.C, qep.k
    n = k.size
    a = s * (s + C[0, 0])  # e_0^T Q(s) e_0, as k_0 = 0
    b = s * (s * x[0] + C[0] @ x)
    kx = k @ (x * x)
    dd = s * s + s * (x @ (C @ x)) + kx
    # |C_ij| <= sqrt(c_size_i c_size_j) bounds |x|^T |C| |x|
    size = s * s - s * (np.sqrt(qep.c_size) @ np.abs(x)) ** 2 + kx
    return bool(a < 0.0 and dd - b * (b / a) + (n + 1) * EPS * size < 0.0)


@dataclass(frozen=True)
class TransverseSystem:
    """(2N-1)-dimensional dynamics transverse to consensus.

    ``energy_margin`` is lambda_min(C2), the smallest eigenvalue of the
    sub-block's damping (None where it leaves the float range).
    ``energy_certified`` says whether it proves the sub-block Hurwitz: beta >
    0 and a margin above the rounding tolerance. ``hyperbolic_max_real_part``
    is the largest real part of the spectrum where the hyperbolic certificate
    holds (None elsewhere); then the system is Hurwitz and the dense ``A_tv``,
    which needs only the pole matrix and lambda, is built only on request.
    """

    instance: Instance
    gains: Gains
    energy_margin: float | None
    energy_certified: bool
    hyperbolic_max_real_part: float | None

    @cached_property
    def A_tv(self) -> np.ndarray:
        """[[D^-1 (Pi - alpha Lambda), [0; I]], [-beta D2^-1 Lambda_2, 0]], with Pi the
        pole matrix and D = diag(1 + gamma*lambda), from a DampedQEP of its own."""
        qep = DampedQEP(self.instance, self.gains)
        n = qep.lam.size
        for name, term in (("alpha", qep.c_alpha), ("beta", qep.k[1:])):
            if not np.isfinite(term).all():
                raise NonFinite(f"transverse system: gains.{name} * Gamma_hat leaves the float "
                                f"range (gains.{name} = {getattr(self.gains, name):.6g})")
        A = np.zeros((2 * n - 1, 2 * n - 1))
        np.divide(qep.C, qep.d[:, None], out=A[:n, :n])
        A[np.diag_indices(n)] -= qep.c_alpha
        A[1:n, n:] = np.eye(n - 1)
        A[n:, 1:n] = np.diag(-qep.k[1:])
        return A

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The dense spectrum of A_tv, read-only: shared by every caller."""
        eigs = np.linalg.eigvals(self.A_tv)
        eigs.flags.writeable = False
        return eigs

    @property
    def spectrum(self) -> str:
        """Which computation decides ``hurwitz`` and ``max_real_part``."""
        return "dense" if self.hyperbolic_max_real_part is None else "hyperbolic"

    @property
    def max_real_part(self) -> float:
        if self.hyperbolic_max_real_part is not None:
            return self.hyperbolic_max_real_part
        return float(np.max(self.eigenvalues.real))

    def is_hurwitz(self) -> bool:
        """Every eigenvalue in the open left half-plane: the hyperbolic
        certificate where it holds, else the sign of the dense spectrum. A
        certified root can round to -0.0 (a subnormal beta), so the
        certificate is not read from its sign.
        """
        return self.hyperbolic_max_real_part is not None or self.max_real_part < 0

    @property
    def hurwitz_sub_block(self) -> bool:
        """Whether the (x_hat, z_hat) dynamics are Hurwitz: the energy certificate, else
        the dense A_tv[1:, 1:]; at beta = 0 its z_hat rows are 0, so N - 1 roots are 0."""
        return self.energy_certified or (
            self.gains.beta > 0 and bool(np.all(np.linalg.eigvals(self.A_tv[1:, 1:]).real < 0)))

    def verdict(self) -> TransverseVerdict:
        return TransverseVerdict(self.is_hurwitz(), self.hurwitz_sub_block,
                                 self.max_real_part, self.energy_margin, self.spectrum)


@dataclass(frozen=True)
class TransverseVerdict:
    """What ``analyze`` reports of a TransverseSystem: in field order, its
    ``transverse`` block, which ``TransverseSystem.verdict`` forms in that order."""

    hurwitz: bool
    hurwitz_sub_block: bool
    max_real_part: float
    energy_margin: float | None
    spectrum: str


def transverse_system(instance: Instance, gains: Gains) -> TransverseSystem:
    """The transverse system with its energy and hyperbolic certificates, both
    read from one DampedQEP."""
    dec = instance.dec
    qep = DampedQEP(instance, gains)
    rho_max = qep.rho_max
    # alpha*lambda_N + max|rho| bounds the entries and the norm of both terms
    # of C2. Forming C2 and eigvalsh round by about N*eps times it (below
    # 1e-12 for N <= config.MAX_NODES), so a margin above IDENTITY_TOL times
    # it cannot come from rounding, even where the two terms cancel. Where
    # that bound overflows, C2/alpha decides against the bound over alpha.
    unit = 1.0 if math.isfinite(gains.alpha * dec.lambda_max + rho_max) else gains.alpha
    low = float(np.linalg.eigvalsh(qep.energy_block(unit))[0])
    bound = gains.alpha / unit * dec.lambda_max + rho_max / unit
    certified = gains.beta > 0 and low > IDENTITY_TOL * bound
    margin = unit * low
    return TransverseSystem(
        instance=instance,
        gains=gains,
        energy_margin=margin if math.isfinite(margin) else None,
        energy_certified=certified,
        hyperbolic_max_real_part=_hyperbolic_max_real_part(qep),
    )
