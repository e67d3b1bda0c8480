"""Transverse coordinates of the consensus manifold.

Applying U^-1 to the closed loop and dropping the uncontrollable first
integral coordinate yields a (2N-1)-dimensional system whose matrix is
Hurwitz exactly when the network converges to its consensus equilibrium.
The closed-form blocks of Psi = U^-1 L_tilde^-1 P U computed here are what
the gain-tuning layer certifies against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netmodel import Gains, Instance
from .spectral import modified_laplacian


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


@dataclass(frozen=True)
class TransverseSystem:
    """(2N-1)-dimensional dynamics transverse to consensus."""

    A_tv: np.ndarray

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
        eigs = self.eigenvalues() if include_average_mode else self.sub_block_eigenvalues()
        return bool(np.all(eigs.real < 0))


def transverse_system(instance: Instance, gains: Gains) -> TransverseSystem:
    """Assemble the transverse system matrix from the Psi blocks."""
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
    return TransverseSystem(A_tv=A_tv)
