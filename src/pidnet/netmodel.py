"""Agent ensembles and the augmented closed-loop consensus network.

The closed loop couples N first-order agents
``xdot_i = rho_i x_i + delta_i + u_i`` through the distributed PID protocol
``u_i = -sum_j L_ij (alpha x_j + beta int x_j + gamma xdot_j)``. Resolving
the implicit derivative coupling with ``L_tilde = I + gamma*L`` gives the
explicit 2N-dimensional augmented system integrated by :mod:`pidnet.sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, SingularEnsemble
from .spectral import (
    Graph,
    ModifiedLaplacian,
    SpectralDecomposition,
    modified_laplacian,
    spectral_decompose,
)

# Two poles are "identical" when their spread is below this relative level.
# It has no absolute floor: poles that spread by at most HOMOGENEITY_RTOL *
# max|rho| share one sign, so poles of mixed sign never count as identical,
# and rescaling time (rho times 2^e) leaves the verdict as it is. All-zero
# poles have spread 0 and stay homogeneous.
HOMOGENEITY_RTOL = 1e-12


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v * 2^-e and e, max|v * 2^-e| in [0.5, 1) (e = 0 for v = 0): its sums and
    squares cannot overflow, and the scaling is exact above 2^-1021 max|v|."""
    exp = math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]
    return np.ldexp(v, -exp), exp


def norm2(v: np.ndarray) -> float:
    """Euclidean norm whose squares cannot overflow: wherever np.linalg.norm(v)
    is finite the two agree bit for bit."""
    v, exp = _scaled(v)
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return float(np.ldexp(np.linalg.norm(v), exp))


def mean(v: np.ndarray) -> float:
    """np.mean(v), from _scaled values where the plain sum leaves the float range:
    wherever np.mean(v) is finite the two agree bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        m = float(np.mean(v))
    if not math.isfinite(m):
        v, exp = _scaled(v)
        m = float(np.ldexp(np.mean(v), exp))
    return m


def row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1), with norm2 on the rows whose squares overflow."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
    for i in np.flatnonzero(np.isinf(norms)):
        norms[i] = norm2(a[i])
    return norms


@dataclass(frozen=True)
class NodeEnsemble:
    """Per-node poles rho_i and constant disturbances delta_i."""

    rho: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        if self.rho.ndim != 1 or self.delta.shape != self.rho.shape:
            raise DimensionMismatch(
                f"rho shape {self.rho.shape} vs delta shape {self.delta.shape}"
            )
        for name in ("rho", "delta"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise ValueError(
                    f"{name}[{bad[0]}] must be a finite number, got {getattr(self, name)[bad[0]]}"
                )

    @property
    def node_count(self) -> int:
        return self.rho.size

    @property
    def P(self) -> np.ndarray:
        return np.diag(self.rho)

    @property
    def psi11(self) -> float:
        """The average pole mean(rho), Psi's (1, 1) entry for every gamma."""
        return mean(self.rho)

    @property
    def rho_bar(self) -> np.ndarray:
        """[rho_2 - rho_1, ..., rho_N - rho_1]."""
        return self.rho[1:] - self.rho[0]

    @property
    def rho_bar_sq(self) -> float:
        with np.errstate(over="ignore"):
            rr = float(self.rho_bar @ self.rho_bar)
        if not math.isfinite(rr):
            raise NonFinite(f"rho_bar_sq leaves the float range "
                            f"(max|ensemble.rho| = {np.max(np.abs(self.rho)):.6g})")
        return rr

    @property
    def delta_norm(self) -> float:
        return norm2(self.delta)

    @property
    def x_inf(self) -> float | None:
        """The consensus value -sum(delta)/sum(rho) from _scaled sums, which cannot
        overflow; None where sum(rho) is numerically zero (at most 1e-10 N max|rho|)."""
        delta, delta_exp = _scaled(self.delta)
        rho, rho_exp = _scaled(self.rho)
        rho_sum = float(np.sum(rho))
        if abs(rho_sum) <= 1e-10 * self.node_count * float(np.max(np.abs(rho))):
            return None
        with np.errstate(over="ignore"):
            x_inf = -float(np.ldexp(float(np.sum(delta)) / rho_sum, delta_exp - rho_exp))
        if not math.isfinite(x_inf):
            raise NonFinite(f"consensus value -sum(delta)/sum(rho) leaves the float range "
                            f"(||ensemble.delta|| = {self.delta_norm:.6g})")
        return x_inf

    def is_homogeneous(self) -> bool:
        with np.errstate(over="ignore"):  # a spread beyond the float range is inf
            spread = float(np.max(self.rho) - np.min(self.rho))
        return spread <= HOMOGENEITY_RTOL * float(np.max(np.abs(self.rho)))


@dataclass(frozen=True)
class Gains:
    """PID protocol gains: alpha > 0, beta >= 0, gamma >= 0."""

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class Instance:
    """A graph's spectral data paired with an agent ensemble."""

    dec: SpectralDecomposition
    ensemble: NodeEnsemble

    def __post_init__(self):
        if self.dec.node_count != self.ensemble.node_count:
            raise DimensionMismatch(
                f"graph has {self.dec.node_count} nodes, ensemble {self.ensemble.node_count}"
            )

    @staticmethod
    def from_graph(graph: Graph, rho, delta) -> "Instance":
        dec = spectral_decompose(graph)
        return Instance(dec=dec, ensemble=NodeEnsemble(rho=rho, delta=delta))

    @property
    def node_count(self) -> int:
        return self.dec.node_count


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Augmented dynamics d/dt [x; z] = A [x; z] + affine."""

    A: np.ndarray
    affine: np.ndarray
    mod_lap: ModifiedLaplacian
    ensemble: NodeEnsemble
    gains: Gains

    @property
    def node_count(self) -> int:
        return self.ensemble.node_count

    @property
    def A1(self) -> np.ndarray:
        n = self.node_count
        return self.A[:n, :n]


def assemble(instance: Instance, gains: Gains) -> ClosedLoopSystem:
    """Build the 2N-dimensional closed-loop system matrix and affine term."""
    dec, ensemble = instance.dec, instance.ensemble
    mod_lap = modified_laplacian(dec, gains.gamma)
    n = dec.node_count
    L = dec.laplacian
    Linv = mod_lap.L_tilde_inv
    with np.errstate(over="ignore"):
        alpha_L, A2 = gains.alpha * L, -gains.beta * (Linv @ L)
    for name, term in (("alpha", alpha_L), ("beta", A2)):
        if not np.isfinite(term).all():
            raise NonFinite(f"closed-loop assembly: gains.{name} * L leaves the float range "
                            f"(gains.{name} = {getattr(gains, name):.6g})")
    with np.errstate(over="ignore", invalid="ignore"):
        A1 = Linv @ (ensemble.P - alpha_L)
    if not np.isfinite(A1).all():
        raise NonFinite(f"closed-loop assembly: ensemble.rho - gains.alpha * L leaves the float "
                        f"range (max|ensemble.rho| = {np.max(np.abs(ensemble.rho)):.6g}, "
                        f"gains.alpha = {gains.alpha:.6g})")
    A = np.block([[A1, np.eye(n)], [A2, np.zeros((n, n))]])
    affine = np.concatenate([Linv @ ensemble.delta, np.zeros(n)])
    return ClosedLoopSystem(A=A, affine=affine, mod_lap=mod_lap, ensemble=ensemble, gains=gains)


@dataclass(frozen=True)
class Equilibrium:
    """Unique fixed point of the closed-loop network."""

    x_inf: float
    x_star: np.ndarray
    z_star: np.ndarray


def equilibrium(ensemble: NodeEnsemble, mod_lap: ModifiedLaplacian) -> Equilibrium:
    """Consensus equilibrium x* = x_inf * ones, z* = -L_tilde^-1 (P x* + delta).

    L_tilde^-1 = V diag(1, g) V^T, so z* costs two matrix-vector products.
    """
    rho, x_inf = ensemble.rho, ensemble.x_inf
    if x_inf is None:
        raise SingularEnsemble(f"sum of poles {float(np.sum(rho)):.3e} is numerically zero")
    x_star = x_inf * np.ones(rho.size)
    # b = rho * x_inf + delta from terms scaled by powers of two, so that neither
    # overflows; |V^T b| reaches sqrt(N) max|b|, where L_tilde^-1 b (a weighted
    # mean of b) stays within max|b|, so b is scaled to below 1 before V^T b
    rho_s, rho_exp = _scaled(rho)
    frac, x_exp = math.frexp(x_inf)
    delta_s, delta_exp = _scaled(ensemble.delta)
    exp = max(rho_exp + x_exp, delta_exp)
    b, b_exp = _scaled(np.ldexp(rho_s * frac, rho_exp + x_exp - exp)
                       + np.ldexp(delta_s, delta_exp - exp))
    exp += b_exp
    V = mod_lap.dec.V
    w = V.T @ b
    w[1:] *= mod_lap.g
    with np.errstate(over="ignore"):
        z_star = -np.ldexp(V @ w, exp)
    if not np.isfinite(z_star).all():
        raise NonFinite(f"consensus equilibrium: z* leaves the float range "
                        f"(max|ensemble.delta| = {np.max(np.abs(ensemble.delta)):.6g})")
    return Equilibrium(x_inf=x_inf, x_star=x_star, z_star=z_star)
