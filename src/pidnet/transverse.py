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

Energy certificate (the sub-block). Without the average mode, the (x_hat,
z_hat) sub-block is exactly the QEP s^2 D2 + s C2 + beta Lambda_2 with
D2 = diag(1 + gamma*lambda_k), C2 = alpha Lambda_2 - V2^T P V2 (V2 =
V[:, 1:]) and Lambda_2. There m > 0, c > 0 when C2 is positive
definite and k > 0 when beta > 0, so every root lies in the open left
half-plane. This costs one symmetric (N-1)^2 eigvalsh; the dense eigvals of
the sub-block runs only where it does not hold.

Hyperbolic certificate (the full system). If beta > 0 and Q~(mu) = mu^2 I +
mu C~ + diag(k) is negative definite for some mu < 0, then mu^2 + mu c(x) +
k(x) < 0 for every unit x, so c(x) > |mu| + k(x)/|mu| >= |mu|: C~ > |mu| I.
Every root then has real part <= 0, and real part 0 needs k(x) = 0, which
holds only at the average direction, where the root is s = 0 and simple
(c > 0 there). So the transverse system, spectrum(Q) less that zero, is
Hurwitz. A Cholesky factor certifies mu. Q~(mu) < 0 also makes the QEP
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
  and a Cholesky factor of the Schur complement of that entry, by
  Haynsworth's inertia additivity), and Q~(r(1 + 1e-10)) at least two (its
  compression on span(e_0, x) is negative definite). So the largest real
  part lies within 1e-10 of r, relatively. An iteration that ends on a
  lower root of a close pair fails the first check and restarts with that
  root's vector projected out.
Where no shift is certified (beta = 0, complex modes, no mu found), no
bracket is, or a value is not finite, the dense eigvals of A_tv decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFinite
from .netmodel import Gains, Instance, norm2
from .spectral import EPS, IDENTITY_TOL, check_gamma, modified_laplacian


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


def pole_matrix(instance: Instance) -> np.ndarray:
    """V^T diag(rho) V, symmetrised: the agents' poles in the graph's
    orthonormal eigenbasis V, shared by the damping block and the pencil."""
    V = instance.dec.V
    n = V.shape[0]
    rho = instance.ensemble.rho
    V2 = V[:, 1:]
    PV = V2.T @ (rho[:, None] * V2)
    PV *= 0.5  # halves first: no overflow near the float limit
    poles = np.empty((n, n))
    poles[1:, 1:] = PV
    poles[1:, 1:] += PV.T
    poles[0, 1:] = poles[1:, 0] = V2.T @ (rho * V[:, 0])
    poles[0, 0] = instance.ensemble.psi11
    return poles


def damping_block(poles: np.ndarray, lam: np.ndarray, alpha: float) -> np.ndarray:
    """C2 = alpha Lambda_2 - V2^T diag(rho) V2 from the pole matrix, V2 = V[:, 1:].

    The damping of the sub-block's quadratic eigenproblem.
    """
    C2 = -poles[1:, 1:]
    C2[np.diag_indices_from(C2)] += alpha * lam[1:]
    return C2


# Shifts mu tried, as multiples of the most negative diagonal estimate of the
# slow roots.
SHIFT_FACTORS = (2.0, 3.0, 1.5, 4.0, 1.25, 6.0)


def _hyperbolic_max_real_part(C: np.ndarray, lam: np.ndarray, gains: Gains,
                              rho_max: float) -> float | None:
    """Largest nonzero root of a hyperbolic Q, or None where no shift mu is
    certified or no bracket around the root is.

    ``C``, the pole matrix, becomes C~ in place.
    """
    n = lam.size
    work = np.empty_like(C)
    d = 1.0 + gains.gamma * lam
    r = 1.0 / np.sqrt(d)
    diag = np.diag_indices(n)
    with np.errstate(all="ignore"):  # a non-finite value sends the caller to eigvals
        C *= -r[:, None]
        C *= r
        c_alpha = gains.alpha * (lam / d)  # finite where alpha*lambda_N need not be
        C[diag] += c_alpha
        k = gains.beta * (lam / d)
        # Q(mu) < 0 needs each diagonal s^2 + c s + k negative at mu: real
        # roots, mu below every slow root and above every fast one
        c = C.diagonal().copy()
        q = k / c
        disc = 1.0 - 4.0 * (q / c)
        slow = -2.0 * q / (1.0 + np.sqrt(disc))
        hi, lo = float(np.min(slow[1:])), float(np.max(-c - slow))
        # |C_ij| <= alpha*lambda_i/d_i [i = j] + max|rho|/sqrt(d_i d_j)
        c_size = c_alpha + rho_max * r * r
    if not (np.isfinite(C).all() and np.isfinite(k).all() and np.all(c > 0)
            and np.all(disc > 0) and lo < hi < 0):
        return None
    for factor in SHIFT_FACTORS:
        mu = factor * hi
        if not lo < mu:
            continue
        with np.errstate(all="ignore"):
            negQ = np.multiply(C, -mu, out=work)
            negQ[diag] -= mu * mu + k
            # IDENTITY_TOL times the size of the terms of each diagonal entry
            # covers its rounding, and that of the off-diagonal entries, which
            # stays below the geometric mean of the two diagonal sizes
            negQ[diag] -= IDENTITY_TOL * (mu * mu - mu * c_size + k)
        if not np.isfinite(negQ).all():
            continue
        try:
            np.linalg.cholesky(negQ)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        return None
    with np.errstate(all="ignore"):
        return _slowest_root(C, k, mu, c_size, work)


# Relative half-width of the bracket certified around the slowest root; the
# Rayleigh functional steps allowed (they converge cubically), and the starts
# (a start that ends on a lower root of a close pair is restarted without it).
BRACKET = 1e-10
MAX_STEPS = 8
STARTS = 3


def _slowest_root(C: np.ndarray, k: np.ndarray, mu: float, c_size: np.ndarray,
                  work: np.ndarray) -> float | None:
    """Largest nonzero root r of Q(s) = s^2 I + s C + diag(k) above the certified
    mu, or None where no start ends on a certified bracket r (1 -+ BRACKET).

    On (-c_00, 0) the Schur complement of q_00 in Q(s) is at least s S + K_2,
    so the estimate -1/theta lies at or above r wherever it exceeds -c_00,
    and the first step, taken there, favours r over the roots below it.
    """
    n = k.size
    c00, col = C[0, 0], C[1:, 0]
    # estimate: without s^2, and with x_0 = -C_02 x_2 / c_00, s S x_2 + K_2 x_2 = 0
    # for the Schur complement S; the slowest root is -1/theta, theta the top
    # eigenvalue of K_2^-1/2 S K_2^-1/2, and one inverse iteration gives its vector
    w = 1.0 / np.sqrt(k[1:])
    M = np.subtract(C[1:, 1:], np.outer(col / c00, col), out=work[1:, 1:])
    M *= w[:, None]
    M *= w
    if not np.isfinite(M).all():
        return None
    theta = float(np.linalg.eigvalsh(M)[-1])
    if not theta > 0.0:
        return None
    M[np.diag_indices(n - 1)] -= theta * (1.0 + 1e-8)  # just past theta: nonsingular
    try:
        y = np.linalg.solve(M, np.ones(n - 1))
    except np.linalg.LinAlgError:
        y = np.ones(n - 1)
    start = np.empty(n)
    start[1:] = w * y
    start[0] = -(col @ start[1:]) / (c00 - 1.0 / theta)
    found = []
    for _ in range(STARTS):
        s, x = _refine(C, k, -1.0 / theta, start, work, found)
        if not s < 0.0:
            return None
        if (mu < s * (1.0 + BRACKET)
                and _one_root_above(C, k, s * (1.0 - BRACKET), c_size, work)
                and _two_roots_above(C, k, s * (1.0 + BRACKET), x, c_size)):
            return s
        found.append((s, x))
    return None


def _refine(C: np.ndarray, k: np.ndarray, s: float, x: np.ndarray, work: np.ndarray,
            found: list) -> tuple[float, np.ndarray]:
    """Rayleigh functional iteration x <- Q(s)^-1 Q'(s) x, s <- p+(x) from (s, x),
    with the vectors of the roots ``found`` projected out; returns s and unit x."""
    diag = np.diag_indices(k.size)
    x = _deflated(C, x, s, found)
    for _ in range(MAX_STEPS):
        Q = np.multiply(C, s, out=work)
        Q[diag] += s * s + k
        rhs = C @ x + 2.0 * s * x
        try:
            y = np.linalg.solve(Q, rhs / norm2(rhs))
        except np.linalg.LinAlgError:
            break  # Q(s) is singular to working precision: s is the root
        x = _deflated(C, y, s, found)
        prev, s = s, _larger_root(x @ (C @ x), k @ (x * x))
        if not abs(s - prev) > 4.0 * EPS * abs(s):  # converged, or NaN
            break
    return s, x


def _deflated(C: np.ndarray, v: np.ndarray, s: float, found: list) -> np.ndarray:
    """v with each root's vector x_f projected out, normalised. Vectors of
    distinct roots s, s_f are orthogonal in the metric (s + s_f) I + C."""
    v = v.copy()
    for s_f, x_f in found:
        b = C @ x_f + (s + s_f) * x_f
        v -= (b @ v) / (b @ x_f) * x_f
    return v / norm2(v)


def _larger_root(c: float, k: float) -> float:
    """The larger root of s^2 + c s + k for c > 0 and real roots, else NaN; from
    the product of the roots, so c*c may overflow and the root stays accurate."""
    if not c > 0.0:
        return math.nan
    q = k / c
    disc = 1.0 - 4.0 * (q / c)
    return -2.0 * q / (1.0 + math.sqrt(disc)) if disc >= 0.0 else math.nan


def _one_root_above(C: np.ndarray, k: np.ndarray, s: float, c_size: np.ndarray,
                    work: np.ndarray) -> bool:
    """Q(s) has one negative eigenvalue, so 0 is its only root above s: e_0^T Q(s)
    e_0 < 0 and the Schur complement of that entry is positive definite
    (Haynsworth's inertia additivity)."""
    n = k.size
    Q = np.multiply(C, s, out=work)
    Q[np.diag_indices(n)] += s * s + k
    q00, q = Q[0, 0], Q[1:, 0]
    if not q00 < 0.0:
        return False
    schur = Q[1:, 1:]
    schur -= np.outer(q / q00, q)
    # (N + 1) eps times the size of each diagonal entry's terms allows for
    # the rounding of the entries and of the factor
    size = s * s - s * c_size[1:] + k[1:] - q * (q / q00)
    schur[np.diag_indices(n - 1)] -= (n + 1) * EPS * size
    if not np.isfinite(schur).all():
        return False
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    return True


def _two_roots_above(C: np.ndarray, k: np.ndarray, s: float, x: np.ndarray,
                     c_size: np.ndarray) -> bool:
    """Q(s) has two negative eigenvalues or more, so a nonzero root lies above s:
    its compression on span(e_0, x), unit x, is negative definite."""
    n = k.size
    a = s * (s + C[0, 0])  # e_0^T Q(s) e_0, as k_0 = 0
    b = s * (s * x[0] + C[0] @ x)
    kx = k @ (x * x)
    dd = s * s + s * (x @ (C @ x)) + kx
    # |C_ij| <= sqrt(c_size_i c_size_j) bounds |x|^T |C| |x|
    size = s * s - s * (np.sqrt(c_size) @ np.abs(x)) ** 2 + kx
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
        pole matrix and D = diag(1 + gamma*lambda)."""
        gains, lam = self.gains, self.instance.dec.lam
        n = lam.size
        d = 1.0 + gains.gamma * lam
        with np.errstate(over="ignore"):  # the diagonal of Gamma_hat, times each gain
            alpha_G, beta_G = gains.alpha * (lam / d), gains.beta * (lam[1:] / d[1:])
        for name, term in (("alpha", alpha_G), ("beta", beta_G)):
            if not np.isfinite(term).all():
                raise NonFinite(f"transverse system: gains.{name} * Gamma_hat leaves the float "
                                f"range (gains.{name} = {getattr(gains, name):.6g})")
        A = np.zeros((2 * n - 1, 2 * n - 1))
        A[:n, :n] = pole_matrix(self.instance) / d[:, None]
        A[np.diag_indices(n)] -= alpha_G
        A[1:n, n:] = np.eye(n - 1)
        A[n:, 1:n] = np.diag(-beta_G)
        return A

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        eigs = np.linalg.eigvals(self.A_tv)
        eigs.flags.writeable = False  # shared by every caller
        return eigs

    def eigenvalues(self) -> np.ndarray:
        """The dense spectrum of A_tv."""
        return self._eigenvalues

    def sub_block_eigenvalues(self) -> np.ndarray:
        """Spectrum of the (x_hat, z_hat) dynamics, excluding the average mode."""
        return np.linalg.eigvals(self.A_tv[1:, 1:])

    @property
    def spectrum(self) -> str:
        """Which computation decides ``hurwitz`` and ``max_real_part``."""
        return "dense" if self.hyperbolic_max_real_part is None else "hyperbolic"

    @property
    def max_real_part(self) -> float:
        if self.hyperbolic_max_real_part is not None:
            return self.hyperbolic_max_real_part
        return float(np.max(self.eigenvalues().real))

    def is_hurwitz(self, include_average_mode: bool = True) -> bool:
        """Every eigenvalue in the open left half-plane.

        With the average mode the hyperbolic certificate decides where it
        holds; without it the energy certificate does. Otherwise the dense
        eigvals of the full matrix or of the sub-block does.
        """
        if include_average_mode:
            if self.hyperbolic_max_real_part is not None:
                return True
            eigs = self.eigenvalues()
        elif self.energy_certified:
            return True
        else:
            eigs = self.sub_block_eigenvalues()
        return bool(np.all(eigs.real < 0))


def transverse_system(instance: Instance, gains: Gains) -> TransverseSystem:
    """The transverse system with its energy and hyperbolic certificates."""
    dec = instance.dec
    check_gamma(dec, gains.gamma)
    rho_max = float(np.max(np.abs(instance.ensemble.rho)))
    poles = pole_matrix(instance)
    # alpha*lambda_N + max|rho| bounds the entries and the norm of both terms
    # of C2. Forming C2 and eigvalsh round by about N*eps times it (below
    # 1e-12 for N <= config.MAX_NODES), so a margin above IDENTITY_TOL times
    # it cannot come from rounding, even where the two terms cancel. Where
    # that bound overflows, C2/alpha decides against the bound over alpha.
    unit = 1.0 if math.isfinite(gains.alpha * dec.lambda_max + rho_max) else gains.alpha
    C2 = damping_block(poles if unit == 1.0 else poles / unit, dec.lam, gains.alpha / unit)
    low = float(np.linalg.eigvalsh(C2)[0])
    del C2
    bound = gains.alpha / unit * dec.lambda_max + rho_max / unit
    certified = gains.beta > 0 and low > IDENTITY_TOL * bound
    margin = unit * low
    hyperbolic = None
    if gains.beta > 0:
        hyperbolic = _hyperbolic_max_real_part(poles, dec.lam, gains, rho_max)
    return TransverseSystem(
        instance=instance,
        gains=gains,
        energy_margin=margin if math.isfinite(margin) else None,
        energy_certified=certified,
        hyperbolic_max_real_part=hyperbolic,
    )
