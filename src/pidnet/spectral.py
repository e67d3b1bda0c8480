"""Weighted graph Laplacians and their block spectral machinery.

Everything downstream (network assembly, transverse analysis, gain
certification) is built on the objects defined here: the combinatorial
Laplacian of a connected weighted graph, its orthonormal eigenbasis V with
the averaging direction pinned to ones/sqrt(N), and the derivative-modified
Laplacian ``I + gamma*L``, held as its eigenvalues in that basis.

After the eigensolve the decomposition holds L as its diagonal, the weighted
degrees, which is all of L that ``analyze`` and ``tune`` read. The dense L is
rebuilt from the graph, bit for bit, on first use.

The derivative gain enters only through ``I + gamma*L = V diag(1 + gamma*
lambda) V^T``, so ``analyze`` and ``tune`` read g_k = 1/(1 + gamma*lambda_k)
and V alone. The dense ``I + gamma*L``, its inverse (a dense linear solve)
and the block combinations of that inverse are built on first use, by the
closed-loop assembly of ``simulate`` and ``reproduce`` and by the tests, which
check the diagonalization identities against that independent path.

The norms ||H_hat|| and ||I + H_hat|| come from the eigendecomposition in
O(N). With z = V[0, 1:], Z = V[1:, 1:] and g_k = 1/(1 + gamma*lambda_k) for
k >= 2, H_hat = M diag(g) M^-1 where M = Z - 1 z^T and M^-1 = Z^T, so H_hat
is similar to diag(g). Since M^T M = P := I + N z z^T, ||H_hat||^2 is the
largest eigenvalue of the pencil (D P D, P) with D = diag(g), and ||I +
H_hat||^2 that of D = I + diag(g). D^2 is diagonal and P - I has rank one, so
that eigenvalue is the root of a secular equation (Golub, "Some modified
matrix eigenvalue problems", SIAM Review 15(2), 1973): no (N-1)^2 matrix is
formed and no eigensolve beyond the graph's one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, InvalidGraph, InvalidWeight, NonFinite

# Connectivity is declared when lambda_2 > CONNECTIVITY_RTOL * lambda_N.
CONNECTIVITY_RTOL = 1e-8

EPS = float(np.finfo(float).eps)


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


def build_laplacian(graph: Graph) -> np.ndarray:
    """Assemble the weighted combinatorial Laplacian matrix; raise NonFinite
    where a weighted degree (a sum of edge weights) leaves the float range."""
    n = graph.node_count
    L = np.zeros((n, n))
    with np.errstate(over="ignore"):  # checked below
        for i, j, w in graph.edges:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
    bad = np.flatnonzero(np.isinf(np.diagonal(L)))
    if bad.size:
        raise NonFinite(f"graph.edges: the weighted degree of node {bad[0]} leaves the float range")
    return L


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition L = V diag(lambda) V^T, V orthogonal with V[:, 0] =
    ones/sqrt(N).

    L is held as its diagonal ``degree``; the dense ``laplacian`` is rebuilt
    from ``graph`` on first use, by the closed-loop assembly and the tests.
    ``U = sqrt(N) V`` (first column exactly ones) and ``U_inv = V^T / sqrt(N)``
    are the paper's normalization; they and the blocks of ``U_inv`` (r11, R12,
    R21, R22) are built on first use, by the block-identity checks and the
    Psi blocks. Every other computation reads V.
    """

    graph: Graph
    degree: np.ndarray  # the diagonal of L
    lam: np.ndarray
    V: np.ndarray

    @property
    def node_count(self) -> int:
        return self.V.shape[0]

    @property
    def lambda_2(self) -> float:
        return float(self.lam[1])

    @property
    def lambda_max(self) -> float:
        return float(self.lam[-1])

    @cached_property
    def laplacian(self) -> np.ndarray:
        return build_laplacian(self.graph)

    @cached_property
    def U(self) -> np.ndarray:
        return np.sqrt(self.node_count) * self.V

    @cached_property
    def U_inv(self) -> np.ndarray:
        return self.V.T / np.sqrt(self.node_count)

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


def spectral_decompose(graph: Graph) -> SpectralDecomposition:
    """Compute the block-normalized spectral decomposition of a graph's Laplacian.

    This is the only eigensolve of a graph. The eigenvector of the zero
    eigenvalue is fixed to +ones/sqrt(N) exactly; the sign of every other
    eigenvector is fixed so its first entry above the noise floor is
    positive, in place on eigh's V: no copy of V or of its columns is made.
    Within a repeated eigenvalue any orthonormal basis is accepted.
    LAPACK's ``eigh`` is backward stable (L - V diag(lambda) V^T and V^T V - I
    within a small multiple of N eps ||L||), so the result is not re-checked.
    """
    L = build_laplacian(graph)
    n = L.shape[0]
    eigs, V = np.linalg.eigh(L)
    if eigs[1] <= CONNECTIVITY_RTOL * max(float(eigs[-1]), 1.0):
        raise DisconnectedGraph(
            f"lambda_2 = {eigs[1]:.3e} is not above {CONNECTIVITY_RTOL:g} * max(lambda_N, 1) "
            f"with lambda_N = {eigs[-1]:.3e}: numerically disconnected"
        )
    eigs[0] = 0.0  # exact by construction (L @ ones = 0)
    # lambda_1 is simple for connected graphs, so the remaining columns are
    # already orthogonal to ones; replace column 0 exactly.
    V[:, 0] = 1.0 / np.sqrt(n)
    # a unit column has an entry of at least 1/sqrt(N), far above the floor;
    # compared on both sides, so no float |V| is formed beside V
    V2 = V[:, 1:]
    lead = V[np.argmax((V2 > 1e-12) | (V2 < -1e-12), axis=0), np.arange(1, n)]
    V2 *= np.where(lead < 0, -1.0, 1.0)  # in place on V's view; exact for +-0 too
    return SpectralDecomposition(graph=graph, degree=np.diagonal(L).copy(), lam=eigs, V=V)


@dataclass(frozen=True)
class ModifiedLaplacian:
    """I + gamma*L = V diag(1, 1/g) V^T, held as g and z.

    The dense ``L_tilde``, its inverse, the blocks of that inverse and
    ``H_hat`` are built on first use, from a dense linear solve.
    """

    gamma: float
    g: np.ndarray  # 1 / (gamma*lambda_k + 1), k >= 2
    z: np.ndarray  # V[0, 1:]: the first row of the orthonormal eigenbasis, k >= 2
    dec: SpectralDecomposition = field(repr=False, compare=False)

    @cached_property
    def L_tilde(self) -> np.ndarray:
        return np.eye(self.dec.node_count) + self.gamma * self.dec.laplacian

    @cached_property
    def L_tilde_inv(self) -> np.ndarray:
        try:
            return np.linalg.solve(self.L_tilde, np.eye(self.dec.node_count))
        except np.linalg.LinAlgError as exc:
            raise NonFinite(f"modified Laplacian I + gamma*L is singular to working precision "
                            f"at gamma = {self.gamma:.6g}") from exc

    @property
    def Sigma_hat_inv(self) -> np.ndarray:
        return np.diag(self.g)

    @cached_property
    def H_hat(self) -> np.ndarray:
        return self.L22_hat - self.L12_hat  # L12_hat taken from every row

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
    def h_norm(self) -> float:
        """Exact spectral norm of H_hat ~ diag(g): the square root of the top
        eigenvalue of the pencil (D P D, P), D = diag(g), scaled to max g = 1."""
        top = float(np.max(self.g))
        return top * math.sqrt(_pencil_top(self.g / top, self.z, 0.0))

    @cached_property
    def h1_norm(self) -> float:
        """Exact spectral norm of I + H_hat ~ I + diag(g) (heterogeneous gain
        condition): the pencil (D P D, P) with D = I + diag(g)."""
        return math.sqrt(_pencil_top(self.g, self.z, 1.0))


def _pencil_top(g: np.ndarray, z: np.ndarray, shift: float) -> float:
    """Largest eigenvalue nu of the pencil (D P D, P), D = shift + diag(g) >= 0,
    P = I + N z z^T, for max D of order one.

    For nu above every D_k^2, Haynsworth's inertia formula applied to D P D -
    nu P = diag(D^2 - nu) + N [Dz z] diag(1, -nu) [Dz z]^T and ||z||^2 = 1 - 1/N
    put nu above the whole pencil exactly where phi(nu) < 1, with
    phi(nu) = N nu sum_{j<k} p_j p_k (g_j - g_k)^2 and p_k = z_k^2/(nu - D_k^2).
    phi falls from its value at max D^2 to 0, so nu = max D^2 + tau with tau
    the root of phi = 1, or tau = 0 where phi <= 1 throughout. The pair sum is
    sum(p) times the p-weighted variance of g, which has no cancellation.
    The bracket halves each step: at most log2((N-1)/EPS) steps, 63 at config.MAX_NODES.
    """
    n = g.size + 1
    top = float(np.max(g))
    h = g - top  # exact zeros on the top group: equal g give phi = 0
    gap = -h * (2.0 * shift + top + g)  # max D^2 - D_k^2 without cancellation
    z2 = z * z
    d2 = (shift + top) ** 2
    lo, hi = 0.0, (n - 1) * d2  # nu <= ||M||^2 ||M^-1||^2 max D^2 = N max D^2
    while hi - lo > EPS * (d2 + lo):
        tau = 0.5 * (lo + hi)
        p = z2 / (tau + gap)
        c = p.sum()
        dev = h - (p @ h) / c
        phi = n * (d2 + tau) * c * (p @ (dev * dev))
        if phi == 0.0:  # one value of g_k wherever z_k != 0
            return d2
        lo, hi = (tau, hi) if phi > 1.0 else (lo, tau)
    return d2 + hi


def gamma_scaling(dec: SpectralDecomposition, gamma: float) -> np.ndarray:
    """d_k = gamma*lambda_k + 1 for every mode (d[0] = 1): the eigenvalues of I +
    gamma*L, through which alone the derivative gain enters. Raises NonFinite
    where gamma*L leaves the float range; no entry of L exceeds its largest
    diagonal entry."""
    if not math.isfinite(gamma * max(dec.lambda_max, float(np.max(dec.degree)))):
        raise NonFinite(f"modified Laplacian: gains.gamma * L leaves the float range "
                        f"(gains.gamma = {gamma:.6g})")
    return gamma * dec.lam + 1.0


def modified_laplacian(dec: SpectralDecomposition, gamma: float) -> ModifiedLaplacian:
    """I + gamma*L in the graph's eigenbasis: g_k = 1/d_k, k >= 2, d from gamma_scaling.

    No matrix is formed. Where gamma*L_ii absorbs the identity on every
    diagonal entry, the formed I + gamma*L would be fl(gamma*L), singular to
    rounding as L 1 = 0, so that gamma raises NonFinite here, as a failed
    solve of the lazy ``L_tilde_inv`` does.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    d = gamma_scaling(dec, gamma)
    scaled = gamma * dec.degree
    if np.all(scaled + 1.0 == scaled):
        raise NonFinite(
            f"modified Laplacian I + gamma*L is singular to working precision at gamma = {gamma:.6g}"
        )
    return ModifiedLaplacian(gamma=float(gamma), g=1.0 / d[1:], z=dec.V[0, 1:], dec=dec)


def h_norm_bound(dec: SpectralDecomposition, gamma: float) -> float:
    """Closed-form upper bound N / d_2 = N / (gamma*lambda_2 + 1) on ||H_hat||."""
    if dec.lambda_2 <= 0:
        raise DisconnectedGraph("bound requires lambda_2 > 0")
    return dec.node_count / float(gamma_scaling(dec, gamma)[1])
