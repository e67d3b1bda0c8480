"""Weighted graph Laplacians and their block spectral machinery.

Everything downstream (network assembly, transverse analysis, gain
certification) is built on the objects defined here: the combinatorial
Laplacian of a connected weighted graph, its normalized eigendecomposition
with the averaging direction pinned to the all-ones vector, and the
derivative-modified Laplacian ``I + gamma*L`` together with the block
combinations of its inverse.

The norms ||H_hat|| and ||I + H_hat|| are the square roots of the largest
eigenvalues of the Gram matrices G = H_hat^T H_hat and I + H_hat + H_hat^T
+ G: one (N-1)^3 product and two symmetric eigvalsh, no SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDecomposition,
    DisconnectedGraph,
    InvalidGraph,
    InvalidWeight,
    NonFinite,
)

# Absolute residual accepted on algebraic identities.
IDENTITY_TOL = 1e-9

# Connectivity is declared when lambda_2 > CONNECTIVITY_RTOL * lambda_N.
CONNECTIVITY_RTOL = 1e-8


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph with strictly positive edge weights."""

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.node_count < 2:
            raise InvalidGraph(f"node_count must be at least 2, got {self.node_count}")
        object.__setattr__(
            self,
            "edges",
            tuple((int(i), int(j), float(w)) for i, j, w in self.edges),
        )
        seen = set()
        for i, j, w in self.edges:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise InvalidGraph(f"edge ({i}, {j}) out of range for N={self.node_count}")
            if i == j:
                raise InvalidGraph(f"self-loop on node {i}")
            if not math.isfinite(w):
                raise InvalidWeight(f"edge ({i}, {j}) has non-finite weight {w}")
            if w <= 0:
                raise InvalidWeight(f"edge ({i}, {j}) has nonpositive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidGraph(f"duplicate undirected edge ({i}, {j})")
            seen.add(key)
        if not self._connected():
            raise DisconnectedGraph(
                f"graph with {self.node_count} nodes and {len(self.edges)} edges is disconnected"
            )

    def _connected(self) -> bool:
        # Union-find; exact check independent of the eigenvalue-based one.
        parent = list(range(self.node_count))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j, _ in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        root = find(0)
        return all(find(k) == root for k in range(self.node_count))

    @staticmethod
    def ring(node_count: int, weight: float = 1.0) -> "Graph":
        """Cycle graph with uniform edge weight."""
        edges = tuple((k, (k + 1) % node_count, weight) for k in range(node_count))
        return Graph(node_count, edges)

    @staticmethod
    def complete(node_count: int, weight: float = 1.0) -> "Graph":
        edges = tuple(
            (i, j, weight)
            for i in range(node_count)
            for j in range(i + 1, node_count)
        )
        return Graph(node_count, edges)


def build_laplacian(graph: Graph) -> np.ndarray:
    """Assemble the weighted combinatorial Laplacian matrix."""
    n = graph.node_count
    L = np.zeros((n, n))
    for i, j, w in graph.edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition L = U diag(lambda) U^-1 with U[:, 0] = ones.

    ``U`` is sqrt(N) times an orthogonal matrix whose first column is the
    normalized averaging direction, so ``U_inv = U.T / N``. The blocks of
    ``U_inv`` (r11, R12, R21, R22) drive every transverse-coordinate
    computation downstream.
    """

    laplacian: np.ndarray
    lam: np.ndarray
    U: np.ndarray
    U_inv: np.ndarray
    # ModifiedLaplacian per gamma, filled by modified_laplacian().
    modified: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return self.U.shape[0]

    @property
    def lambda_2(self) -> float:
        return float(self.lam[1])

    @property
    def lambda_max(self) -> float:
        return float(self.lam[-1])

    @property
    def r11(self) -> float:
        return float(self.U_inv[0, 0])

    @property
    def R12(self) -> np.ndarray:
        return self.U_inv[0:1, 1:]

    @property
    def R21(self) -> np.ndarray:
        return self.U_inv[1:, 0:1]

    @property
    def R22(self) -> np.ndarray:
        return self.U_inv[1:, 1:]


def spectral_decompose(L: np.ndarray) -> SpectralDecomposition:
    """Compute the block-normalized spectral decomposition of a Laplacian.

    This is the only eigensolve of a graph. The eigenvector of the zero
    eigenvalue is fixed to +ones/sqrt(N) exactly; the sign of every other
    eigenvector is fixed so its first entry above the noise floor is
    positive. Within a repeated eigenvalue any orthonormal basis is accepted.
    """
    n = L.shape[0]
    eigs, V = np.linalg.eigh(L)
    if n > 1 and eigs[1] <= CONNECTIVITY_RTOL * max(float(eigs[-1]), 1.0):
        raise DisconnectedGraph(
            f"lambda_2 = {eigs[1]:.3e} is not above {CONNECTIVITY_RTOL:g} * max(lambda_N, 1) "
            f"with lambda_N = {eigs[-1]:.3e}: numerically disconnected"
        )
    eigs[0] = 0.0  # exact by construction (L @ ones = 0)
    # lambda_1 is simple for connected graphs, so the remaining columns are
    # already orthogonal to ones; replace column 0 exactly.
    V[:, 0] = 1.0 / np.sqrt(n)
    above = np.abs(V[:, 1:]) > 1e-12
    lead = V[np.argmax(above, axis=0), np.arange(1, n)]  # first entry above the floor
    flip = 1 + np.flatnonzero(above.any(axis=0) & (lead < 0))
    V[:, flip] = -V[:, flip]
    U = np.sqrt(n) * V
    U_inv = V.T / np.sqrt(n)
    scale = max(1.0, float(eigs[-1]))
    residual = np.max(np.abs((U * eigs) @ U_inv - L))
    if residual > IDENTITY_TOL * scale:
        raise DegenerateDecomposition(f"reconstruction residual {residual:.3e}")
    return SpectralDecomposition(laplacian=L, lam=eigs, U=U, U_inv=U_inv)


@dataclass(frozen=True)
class ModifiedLaplacian:
    """The matrix I + gamma*L, its inverse, and derived block quantities."""

    gamma: float
    L_tilde: np.ndarray
    L_tilde_inv: np.ndarray
    Sigma_hat_inv: np.ndarray  # diag(1 / (gamma*lambda_k + 1)), k >= 2

    @cached_property
    def H_hat(self) -> np.ndarray:
        return self.L22_hat - self.L12_hat  # L12_hat taken from every row

    @property
    def node_count(self) -> int:
        return self.L_tilde.shape[0]

    @property
    def l11_hat(self) -> float:
        return float(self.L_tilde_inv[0, 0])

    @property
    def L12_hat(self) -> np.ndarray:
        return self.L_tilde_inv[0, 1:]

    @property
    def L21_hat(self) -> np.ndarray:
        return self.L_tilde_inv[1:, 0]

    @property
    def L22_hat(self) -> np.ndarray:
        return self.L_tilde_inv[1:, 1:]

    @cached_property
    def _gram(self) -> np.ndarray:
        # L_tilde_inv is nonnegative with unit row sums (an M-matrix inverse),
        # so H_hat's entries lie in [-1, 1] and G's in [-(N-1), N-1]. And
        # ||H_hat|| >= 1/(gamma*lambda_N + 1): I + gamma*L is singular to working
        # precision (gamma*lambda_N near 1e16) long before squares underflow.
        return self.H_hat.T @ self.H_hat

    @cached_property
    def h_norm(self) -> float:
        """Exact spectral norm of H_hat: sqrt(lambda_max(H_hat^T H_hat))."""
        return math.sqrt(np.linalg.eigvalsh(self._gram)[-1])

    @cached_property
    def h1_norm(self) -> float:
        """Exact spectral norm of I + H_hat (heterogeneous gain condition)."""
        gram1 = self._gram + self.H_hat + self.H_hat.T + np.eye(self.node_count - 1)
        return math.sqrt(np.linalg.eigvalsh(gram1)[-1])


def modified_laplacian(dec: SpectralDecomposition, gamma: float) -> ModifiedLaplacian:
    """Build I + gamma*L and the block data of its inverse.

    The inverse is computed by a dense linear solve, not through the
    eigendecomposition, so the diagonalization identities cross-check two
    independent computation paths. The result is kept on ``dec``, so each
    (graph, gamma) pair is solved once.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if gamma in dec.modified:
        return dec.modified[gamma]
    n = dec.node_count
    L_tilde = np.eye(n) + gamma * dec.laplacian
    try:
        L_tilde_inv = np.linalg.solve(L_tilde, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NonFinite(
            f"modified Laplacian I + gamma*L is singular to working precision at gamma = {gamma:.6g}"
        ) from exc
    mod_lap = dec.modified[gamma] = ModifiedLaplacian(
        gamma=float(gamma),
        L_tilde=L_tilde,
        L_tilde_inv=L_tilde_inv,
        Sigma_hat_inv=np.diag(1.0 / (gamma * dec.lam[1:] + 1.0)),
    )
    return mod_lap


def h_norm_bound(dec: SpectralDecomposition, gamma: float) -> float:
    """Closed-form upper bound N / (gamma*lambda_2 + 1) on ||H_hat||."""
    if dec.lambda_2 <= 0:
        raise DisconnectedGraph("bound requires lambda_2 > 0")
    return dec.node_count / (gamma * dec.lambda_2 + 1.0)
