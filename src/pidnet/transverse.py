"""Transverse coordinates of the consensus manifold.

Applying U^-1 to the closed loop and dropping the uncontrollable first
integral coordinate yields a (2N-1)-dimensional system whose matrix is
Hurwitz exactly when the network converges to its consensus equilibrium.
The closed-form blocks of Psi = U^-1 L_tilde^-1 P U computed here are what
the gain-tuning layer certifies against.

Without the average mode, the (x_hat, z_hat) sub-block is exactly the
quadratic eigenproblem s^2 D2 + s C2 + beta Lambda_2 with symmetric
coefficients: D2 = diag(1 + gamma*lambda_k), the damping
C2 = alpha Lambda_2 - V2^T P V2 (V2 = U[:, 1:] / sqrt(N)) and Lambda_2. For
an eigenpair (s, x) the Rayleigh quotients m, c, k of the three at x give
m s^2 + c s + k = 0 with m > 0, so beta > 0 and C2 positive definite put
every root in the open left half-plane (Tisseur & Meerbergen, "The
Quadratic Eigenvalue Problem", SIAM Review 43(2), 2001). This energy
certificate costs one symmetric (N-1)^2 eigvalsh; the dense eigvals of the
sub-block runs only where it does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def damping_block(instance: Instance, alpha: float) -> np.ndarray:
    """C2 = alpha Lambda_2 - V2^T diag(rho) V2, symmetrised, V2 = U[:, 1:] / sqrt(N).

    The damping of the sub-block's quadratic eigenproblem, built in the
    eigenbasis of the graph's one decomposition.
    """
    dec = instance.dec
    V2 = dec.U[:, 1:] / np.sqrt(dec.node_count)
    PV = V2.T @ (instance.ensemble.rho[:, None] * V2)
    C2 = -0.5 * PV - 0.5 * PV.T  # halves first: no overflow near the float limit
    C2[np.diag_indices_from(C2)] += alpha * dec.lam[1:]
    return C2


@dataclass(frozen=True)
class TransverseSystem:
    """(2N-1)-dimensional dynamics transverse to consensus.

    ``energy_margin`` is lambda_min(C2), the smallest eigenvalue of the
    sub-block's damping (None when alpha*lambda_N + max|rho| leaves the
    float range and C2 is not formed). ``energy_certified`` says whether it
    proves the sub-block Hurwitz: beta > 0 and a margin above the rounding
    tolerance.
    """

    A_tv: np.ndarray
    energy_margin: float | None
    energy_certified: bool

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        eigs = np.linalg.eigvals(self.A_tv)
        eigs.flags.writeable = False  # shared by every caller
        return eigs

    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    def sub_block_eigenvalues(self) -> np.ndarray:
        """Spectrum of the (x_hat, z_hat) dynamics, excluding the average mode."""
        return np.linalg.eigvals(self.A_tv[1:, 1:])

    def is_hurwitz(self, include_average_mode: bool = True) -> bool:
        """Every eigenvalue in the open left half-plane.

        Without the average mode the energy certificate decides when it
        holds; otherwise the sub-block's dense eigvals does.
        """
        if include_average_mode:
            eigs = self.eigenvalues()
        elif self.energy_certified:
            return True
        else:
            eigs = self.sub_block_eigenvalues()
        return bool(np.all(eigs.real < 0))


def transverse_system(instance: Instance, gains: Gains) -> TransverseSystem:
    """Assemble the transverse system matrix and its sub-block energy certificate."""
    psi = psi_blocks(instance, gains.gamma)
    m = psi.Psi22.shape[0]  # N - 1
    Gamma = modified_laplacian(instance.dec, gains.gamma).Gamma_hat
    A_tv = np.block(
        [
            [np.array([[psi.psi11]]), psi.Psi12, np.zeros((1, m))],
            [psi.Psi21, psi.Psi22 - gains.alpha * Gamma, np.eye(m)],
            [np.zeros((m, 1)), -gains.beta * Gamma, np.zeros((m, m))],
        ]
    )
    # alpha*lambda_N + max|rho| bounds the entries and the norm of both terms
    # of C2. Forming C2 and eigvalsh round by about N*eps times it (below
    # 1e-12 for N <= config.MAX_NODES), so a margin above IDENTITY_TOL times
    # it cannot come from rounding, even where the two terms cancel.
    scale = gains.alpha * instance.dec.lambda_max + float(np.max(np.abs(instance.ensemble.rho)))
    margin = None
    if math.isfinite(scale):
        margin = float(np.linalg.eigvalsh(damping_block(instance, gains.alpha))[0])
    certified = gains.beta > 0 and margin is not None and margin > IDENTITY_TOL * scale
    return TransverseSystem(A_tv=A_tv, energy_margin=margin, energy_certified=certified)
