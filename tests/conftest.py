"""Shared generators and oracles for the test suite.

Random graphs are built as a random spanning tree plus extra edges, so
connectivity holds by construction. The affine-linear exact solution (used
as the integrator oracle) comes from the matrix exponential of the
augmented system and is the only place scipy is needed. The step-by-step
RK4 loop and the row-by-row CSV writer are the plain forms of what
``pidnet.sim`` computes with a precomputed propagator and chunked
formatting, and the column-by-column sign rule is the plain form of the
one ``spectral_decompose`` applies to all columns at once; tests compare
the two.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from pidnet import Graph, Instance


def load_pidbench(name: str):
    """Import a module of the benchmark harness (not a package) by file path."""
    path = Path(__file__).resolve().parent.parent / "pidbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"pidbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def random_graph(rng: np.random.Generator, n: int, extra_edges: int | None = None,
                 w_range: tuple[float, float] = (0.2, 3.0)) -> Graph:
    """Random connected graph: random spanning tree plus extra edges."""
    perm = rng.permutation(n)
    edges = []
    have = set()
    for k in range(1, n):
        i, j = int(perm[int(rng.integers(0, k))]), int(perm[k])
        edges.append((i, j, float(rng.uniform(*w_range))))
        have.add((min(i, j), max(i, j)))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and (min(i, j), max(i, j)) not in have:
            have.add((min(i, j), max(i, j)))
            edges.append((i, j, float(rng.uniform(*w_range))))
    return Graph(n, tuple(edges))


def random_heterogeneous_instance(rng: np.random.Generator, n: int) -> Instance:
    """Instance with strictly negative average pole and generic disturbance."""
    rho = rng.uniform(-3.0, 0.5, n)
    rho -= max(0.0, np.mean(rho) + 0.2)  # ensure a clearly negative average
    delta = rng.normal(0.0, 2.0, n)
    return Instance.from_graph(random_graph(rng, n), rho, delta)


def random_homogeneous_instance(
    rng: np.random.Generator, n: int, rho_star: float | None = None
) -> Instance:
    if rho_star is None:
        rho_star = float(rng.uniform(0.2, 3.0))
    delta = rng.normal(0.0, 2.0, n)
    return Instance.from_graph(random_graph(rng, n), -rho_star * np.ones(n), delta)


def exact_affine_solution(A: np.ndarray, b: np.ndarray, v0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form solution of vdot = A v + b via the augmented exponential."""
    m = A.shape[0]
    M = np.zeros((m + 1, m + 1))
    M[:m, :m] = A
    M[:m, m] = b
    return (expm(t * M) @ np.concatenate([v0, [1.0]]))[:m]


def rk4_step_loop(A: np.ndarray, b: np.ndarray, v0: np.ndarray, dt: float, steps: int,
                  stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical four-stage RK4 on vdot = A v + b, one step at a time.

    Records v0 and the state after every ``stride``-th step and after the
    last one; returns (times, states). Non-finite states are recorded as
    they are.
    """
    state = v0.copy()
    times, states = [0.0], [state]
    for step in range(1, steps + 1):
        k1 = A @ state + b
        k2 = A @ (state + 0.5 * dt * k1) + b
        k3 = A @ (state + 0.5 * dt * k2) + b
        k4 = A @ (state + dt * k3) + b
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0 or step == steps:
            times.append(step * dt)
            states.append(state)
    return np.array(times), np.array(states)


def sign_fixed_column_by_column(V: np.ndarray) -> np.ndarray:
    """The sign rule of ``spectral_decompose``, one column at a time: every
    column after the first is negated when its first entry above 1e-12 in
    size is negative."""
    V = V.copy()
    for k in range(1, V.shape[1]):
        col = V[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            V[:, k] = -col
    return V


def csv_row_by_row(trace) -> str:
    """A trace in CSV form, one value and one row at a time."""
    n = trace.node_count
    header = (["t"] + [f"x_{k + 1}" for k in range(n)] + [f"z_{k + 1}" for k in range(n)]
              + [f"u_{k + 1}" for k in range(n)] + ["d", "z_norm"])
    data = np.hstack([trace.times[:, None], trace.x, trace.z, trace.u,
                      trace.disagreement[:, None], trace.z_norm[:, None]])
    return "".join([",".join(header) + "\n"] + [",".join(f"{v:.11e}" for v in row) + "\n"
                                                for row in data])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
