#!/usr/bin/env python3
"""Quantify how often the derivative-only (PD) epsilon value underestimates
the steady pairwise disagreement.

The closed form

    epsilon = (gamma*lam_N + 1)/(gamma*lam_2 + 1) * N/(alpha*lam_N + rho*) * ||delta||

prices every residual mode at the largest Laplacian eigenvalue lam_N, but
the exact steady state of the proportional/derivative loop,

    x_ss = (rho* I + alpha L)^-1 delta,

has per-mode offsets delta_k / (alpha*lam_k + rho*) that peak at lam_2.
This scan samples random connected graphs with identical stable agents,
compares the exact steady spread max(x_ss) - min(x_ss) against epsilon,
and reports the violation rate and worst observed/epsilon ratio, split by
gamma = 0 versus gamma > 0 (the eigenvalue-ratio prefactor pads the value
whenever gamma > 0, hiding the mispricing).

The random graphs come from the test suite's generator
(``tests/conftest.py``), so the script needs the ``[test]`` extras.

Usage:
    python scripts/pd_bound_scan.py [TRIALS] [SEED]
"""

import sys
from pathlib import Path

import numpy as np

from pidnet import Gains, Instance, certify_homogeneous_pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_graph  # noqa: E402


def scan(trials: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    # bucket label -> [count, violations, worst observed/epsilon ratio]
    stats = {"gamma = 0": [0, 0, 0.0], "gamma > 0": [0, 0, 0.0]}
    for _ in range(trials):
        n = int(rng.integers(3, 10))
        rho_star = float(rng.uniform(0.2, 3.0))
        delta = rng.normal(0.0, 2.0, n)
        alpha = float(rng.uniform(0.3, 6.0))
        inst = Instance.from_graph(random_graph(rng, n), -rho_star * np.ones(n), delta)
        # the steady state does not depend on gamma, only epsilon does
        x_ss = np.linalg.solve(
            rho_star * np.eye(n) + alpha * inst.dec.laplacian, delta
        )
        spread = float(np.max(x_ss) - np.min(x_ss))
        for bucket, gamma in (
            ("gamma = 0", 0.0),
            ("gamma > 0", float(rng.uniform(0.05, 2.0))),
        ):
            cert = certify_homogeneous_pd(inst, Gains(alpha, 0.0, gamma))
            if not cert.certified or cert.epsilon_bound is None:
                continue
            ratio = spread / cert.epsilon_bound
            entry = stats[bucket]
            entry[0] += 1
            entry[1] += int(ratio > 1.0)
            entry[2] = max(entry[2], ratio)

    print(f"=== PD epsilon scan: {trials} instances, seed {seed} ===")
    for bucket, (total, bad, worst) in stats.items():
        rate = 100.0 * bad / total if total else 0.0
        print(
            f"{bucket}: {bad}/{total} violations ({rate:.1f}%), "
            f"worst observed/epsilon = {worst:.2f}"
        )
    print()
    print("A ratio above 1 means the actual steady pairwise spread exceeds")
    print("the stated epsilon, i.e. the closed form is not a sound bound.")


if __name__ == "__main__":
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    scan(trials, seed)
