"""Transverse coordinates of the consensus manifold.

Applying U^-1 to the closed loop and dropping the uncontrollable first
integral coordinate yields a (2N-1)-dimensional system whose matrix is
Hurwitz exactly when the network converges to its consensus equilibrium.
The closed-form blocks of Psi = U^-1 L_tilde^-1 P U computed here are what
the gain-tuning layer certifies against.

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
U[:, 1:] / sqrt(N)) and Lambda_2. There m > 0, c > 0 when C2 is positive
definite and k > 0 when beta > 0, so every root lies in the open left
half-plane. This costs one symmetric (N-1)^2 eigvalsh; the dense eigvals of
the sub-block runs only where it does not hold.

Hyperbolic certificate (the full system). If beta > 0 and Q~(mu) = mu^2 I +
mu C~ + diag(k) is negative definite for some mu < 0, then mu^2 + mu c(x) +
k(x) < 0 for every unit x, so c(x) > |mu| + k(x)/|mu| >= |mu|: C~ > |mu| I.
Every root then has real part <= 0, and real part 0 needs k(x) = 0, which
holds only at the average direction, where the root is s = 0 and simple
(c > 0 there). So the transverse system, spectrum(Q) less that zero, is
Hurwitz. Q~(mu) < 0 also makes the QEP hyperbolic (Guo, Higham & Tisseur,
SIAM J. Matrix Anal. Appl. 30(4), 2009): all 2N roots are real, and with
-Q~(mu) = R R^T the theta = 1/(s - mu) are the eigenvalues of the symmetric
[[R^-1 Q~'(mu) R^-T, R^-1], [R^-T, 0]], one 2N^2 eigvalsh. Its N positive
theta are the roots above mu; the smallest is the zero and the next one
gives the largest real part. The slow roots, nearest mu, get the largest
theta and so keep their relative accuracy. A Cholesky factor certifies mu;
where none of a few shifts is certified (beta = 0, complex modes, no mu
found) or a value is not finite, the dense eigvals of A_tv decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFinite
from .netmodel import Gains, Instance
from .spectral import IDENTITY_TOL, modified_laplacian


@dataclass(frozen=True)
class PsiBlocks:
    """Block form of Psi = U^-1 L_tilde^-1 P U."""

    psi11: float
    Psi12: np.ndarray  # 1 x (N-1)
    Psi21: np.ndarray  # (N-1) x 1
    Psi22: np.ndarray  # (N-1) x (N-1)
    rho_bar: np.ndarray  # [rho_2 - rho_1, ..., rho_N - rho_1]

    def assembled(self) -> np.ndarray:
        top = np.concatenate([[self.psi11], self.Psi12.ravel()])[None, :]
        bottom = np.hstack([self.Psi21, self.Psi22])
        return np.vstack([top, bottom])


def psi_blocks(instance: Instance, gamma: float) -> PsiBlocks:
    """Closed-form Psi blocks (equal to the direct product U^-1 L_tilde^-1 P U).

    The result is kept on ``instance``, so each (instance, gamma) pair is
    computed once.
    """
    if gamma in instance.psi:
        return instance.psi[gamma]
    dec = instance.dec
    n = dec.node_count
    rho = instance.ensemble.rho
    rho_bar = rho[1:] - rho[0]
    R22 = dec.R22
    H = modified_laplacian(dec, gamma).H_hat
    ones = np.ones((n - 1, 1))
    P_hat = np.diag(rho[1:])
    psi = instance.psi[gamma] = PsiBlocks(
        psi11=float(np.mean(rho)),
        Psi12=rho_bar[None, :] @ R22.T,
        Psi21=R22 @ H @ rho_bar[:, None],
        Psi22=n * R22 @ H @ (P_hat + rho[0] * (ones @ ones.T)) @ R22.T,
        rho_bar=rho_bar,
    )
    return psi


def pole_matrix(instance: Instance) -> np.ndarray:
    """V^T diag(rho) V, symmetrised, with V = U / sqrt(N): the agents' poles in
    the graph's eigenbasis, shared by the damping block and the pencil."""
    dec = instance.dec
    n = dec.node_count
    rho = instance.ensemble.rho
    V2 = dec.U[:, 1:] / np.sqrt(n)
    PV = V2.T @ (rho[:, None] * V2)
    PV *= 0.5  # halves first: no overflow near the float limit
    poles = np.empty((n, n))
    poles[1:, 1:] = PV
    poles[1:, 1:] += PV.T
    poles[0, 1:] = poles[1:, 0] = V2.T @ (rho * (dec.U[:, 0] / np.sqrt(n)))
    poles[0, 0] = np.mean(rho)
    return poles


def damping_block(poles: np.ndarray, lam: np.ndarray, alpha: float) -> np.ndarray:
    """C2 = alpha Lambda_2 - V2^T diag(rho) V2 from the pole matrix, V2 = U[:, 1:] / sqrt(N).

    The damping of the sub-block's quadratic eigenproblem.
    """
    C2 = -poles[1:, 1:]
    C2[np.diag_indices_from(C2)] += alpha * lam[1:]
    return C2


# Shifts mu tried, as multiples of the most negative diagonal estimate of the
# slow roots: the nearer mu, the better the pencil resolves the slow roots.
SHIFT_FACTORS = (2.0, 3.0, 1.5, 4.0, 1.25, 6.0)


def _hyperbolic_max_real_part(T: np.ndarray, lam: np.ndarray, gains: Gains,
                              rho_max: float) -> float | None:
    """Largest nonzero root of a hyperbolic Q, or None where no shift is certified.

    ``T``, 2N x 2N and zero but for the pole matrix in its top-left block,
    becomes the pencil; its top-right block, which eigvalsh does not read, is
    the work space, so no other N^2 array outlives a step.
    """
    n = lam.size
    C, work, Bt = T[:n, :n], T[:n, n:], T[n:, :n]
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
            exact = negQ.diagonal().copy()
            negQ[diag] -= IDENTITY_TOL * (mu * mu - mu * c_size + k)
        if not np.isfinite(negQ).all():
            continue
        try:
            np.linalg.cholesky(negQ)
        except np.linalg.LinAlgError:
            continue
        negQ[diag] = exact
        break
    else:
        return None
    Bt[...] = np.linalg.inv(np.linalg.cholesky(negQ)).T  # R^-T
    with np.errstate(all="ignore"):
        C[diag] += 2.0 * mu  # Q'(mu)
        np.matmul(Bt.T, C, out=work)
        np.matmul(work, Bt, out=C)  # R^-1 Q'(mu) R^-T
    work[...] = 0.0
    if not (np.isfinite(C).all() and np.isfinite(Bt).all()):
        return None
    theta = np.linalg.eigvalsh(T)  # theta = 1/(s - mu), ascending; reads the lower triangle
    # Exactly, the N roots above mu are the N positive theta, all at least
    # -1/mu, the theta of s = 0. Computed, each theta is off by far less than
    # tol: the zero must come out within tol of -1/mu, and the next root apart.
    zero = -1.0 / mu
    tol = IDENTITY_TOL * max(-theta[0], theta[-1])
    if not (np.isfinite(theta).all() and theta[n - 1] <= tol < zero - tol
            and abs(theta[n] - zero) <= tol < theta[n + 1] - zero):
        return None
    return mu + 1.0 / float(theta[n + 1])


@dataclass(frozen=True)
class TransverseSystem:
    """(2N-1)-dimensional dynamics transverse to consensus.

    ``energy_margin`` is lambda_min(C2), the smallest eigenvalue of the
    sub-block's damping (None where it leaves the float range).
    ``energy_certified`` says whether it proves the sub-block Hurwitz: beta >
    0 and a margin above the rounding tolerance. ``hyperbolic_max_real_part``
    is the largest real part of the spectrum where the hyperbolic certificate
    holds (None elsewhere); then the system is Hurwitz and the dense ``A_tv``
    is built only on request.
    """

    instance: Instance
    gains: Gains
    energy_margin: float | None
    energy_certified: bool
    hyperbolic_max_real_part: float | None

    @cached_property
    def A_tv(self) -> np.ndarray:
        gains = self.gains
        psi = psi_blocks(self.instance, gains.gamma)
        m = psi.Psi22.shape[0]  # N - 1
        Gamma = modified_laplacian(self.instance.dec, gains.gamma).Gamma_hat
        with np.errstate(over="ignore"):
            alpha_G, beta_G = gains.alpha * Gamma, gains.beta * Gamma
        for name, term in (("alpha", alpha_G), ("beta", beta_G)):
            if not np.isfinite(term).all():
                raise NonFinite(f"transverse system: gains.{name} * Gamma_hat leaves the float "
                                f"range (gains.{name} = {getattr(gains, name):.6g})")
        return np.block(
            [
                [np.array([[psi.psi11]]), psi.Psi12, np.zeros((1, m))],
                [psi.Psi21, psi.Psi22 - alpha_G, np.eye(m)],
                [np.zeros((m, 1)), -beta_G, np.zeros((m, m))],
            ]
        )

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
        n = dec.node_count
        T = np.zeros((2 * n, 2 * n))
        T[:n, :n] = poles
        del poles
        hyperbolic = _hyperbolic_max_real_part(T, dec.lam, gains, rho_max)
    return TransverseSystem(
        instance=instance,
        gains=gains,
        energy_margin=margin if math.isfinite(margin) else None,
        energy_certified=certified,
        hyperbolic_max_real_part=hyperbolic,
    )
