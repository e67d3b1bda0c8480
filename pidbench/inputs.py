"""Seeded workload inputs: random connected heterogeneous instances as YAML.

Only numpy and PyYAML are used here, so the program under test sees nothing
but the generated config files. Every quantity the output checks rely on
(lambda_2, lambda_N, x_inf, the conservative gain threshold) is computed in
this module from the raw graph, independently of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

# Weight range and pole construction follow the library's own test suite.
W_RANGE = (0.2, 3.0)

# Margin applied to the conservative proportional-gain threshold, so every
# generated instance is certified and the expected exit code is 0.
ALPHA_MARGIN = 1.5
BETA = 1.0
GAMMA = 1.0


@dataclass(frozen=True)
class Instance:
    """A generated instance plus the facts its outputs are checked against."""

    n: int
    edges: list[tuple[int, int, float]]
    rho: np.ndarray
    delta: np.ndarray
    alpha: float
    beta: float
    gamma: float

    def laplacian(self) -> np.ndarray:
        L = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
        return L

    def facts(self) -> dict:
        lam = np.linalg.eigvalsh(self.laplacian())
        return {
            "n": self.n,
            "lambda_2": float(lam[1]),
            "lambda_max": float(lam[-1]),
            "x_inf": -float(np.sum(self.delta)) / float(np.sum(self.rho)),
            "alpha_min_conservative": conservative_alpha(
                self.n, float(lam[1]), self.rho, self.gamma
            ),
        }

    def to_yaml(self) -> str:
        doc = {
            "graph": {
                "nodes": self.n,
                "edges": [{"i": i, "j": j, "w": w} for i, j, w in self.edges],
            },
            "ensemble": {"rho": self.rho.tolist(), "delta": self.delta.tolist()},
            "gains": {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma},
        }
        return yaml.safe_dump(doc, default_flow_style=None, sort_keys=False)


def conservative_alpha(n: int, lam2: float, rho: np.ndarray, gamma: float) -> float:
    """Closed-form sufficient proportional gain of the heterogeneous theorem.

    Uses ||I + H_hat|| <= 1 + N/(gamma*lambda_2 + 1), so it upper-bounds the
    exact threshold.
    """
    rho_bar = rho[1:] - rho[0]
    psi11 = float(np.mean(rho))
    h1 = 1.0 + n / (gamma * lam2 + 1.0)
    rhs = (np.max(np.abs(rho)) + float(rho_bar @ rho_bar) / (4.0 * abs(psi11)) * h1**2) / n
    return float(rhs * (gamma * lam2 + 1.0) / lam2)


def random_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int, float]]:
    """Random connected graph: random spanning tree plus n // 2 extra edges.

    The edge count is fixed for a given n, so the work of an op (YAML size,
    matrix fill) does not change with the seed.
    """
    perm = rng.permutation(n)
    edges = []
    have = set()
    for k in range(1, n):
        i, j = int(perm[int(rng.integers(0, k))]), int(perm[k])
        edges.append((i, j, float(rng.uniform(*W_RANGE))))
        have.add((min(i, j), max(i, j)))
    target = len(edges) + min(n // 2, n * (n - 1) // 2 - len(edges))
    while len(edges) < target:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and (min(i, j), max(i, j)) not in have:
            have.add((min(i, j), max(i, j)))
            edges.append((i, j, float(rng.uniform(*W_RANGE))))
    return edges


def random_instance(rng: np.random.Generator, n: int) -> Instance:
    """Certified heterogeneous instance with a clearly negative average pole."""
    edges = random_edges(rng, n)
    rho = rng.uniform(-3.0, 0.5, n)
    rho -= max(0.0, float(np.mean(rho)) + 0.2)
    delta = rng.normal(0.0, 2.0, n)
    inst = Instance(n, edges, rho, delta, alpha=1.0, beta=BETA, gamma=GAMMA)
    lam2 = float(np.linalg.eigvalsh(inst.laplacian())[1])
    alpha = ALPHA_MARGIN * conservative_alpha(n, lam2, rho, GAMMA)
    return Instance(n, edges, rho, delta, alpha=alpha, beta=BETA, gamma=GAMMA)
