"""The benchmark workloads.

An op is one user action: one ``pidnet`` CLI invocation (two for
analyze-tune: ``analyze`` then ``tune`` on the same config), including the
files it writes and the JSON it prints. For each op a workload

- ``prepare`` writes the op's inputs and returns the CLI calls and the
  values the outputs must match (``expected``);
- ``load`` reads the op's outputs once (the expensive part);
- ``verify`` compares loaded outputs with ``expected`` and returns a list of
  problems. ``verify`` is cheap, so a run also feeds it deliberately
  perturbed ``expected`` values to show the check can fail.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Call:
    """One CLI invocation and what it produced."""

    args: list[str]
    code: int = -1
    wall_s: float = 0.0
    rss_mb: float | None = None
    stdout: str = ""


@dataclass
class Op:
    k: int
    n: int
    workdir: str
    calls: list[Call]
    expected: dict
    # (atol, rtol) used to perturb ``expected`` for the checker self-test.
    perturb: tuple[float, float]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


def _stdout_json(call: Call) -> dict | None:
    try:
        return json.loads(call.stdout)
    except json.JSONDecodeError:
        return None


def _read_json(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _csv_facts(path: str) -> dict | None:
    """Header, line count (header included), SHA-256, the worst excess of
    |sum(z)| over its rounding allowance, and the last row's x values."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        header = raw.split(b"\n", 1)[0].decode()
        data = np.loadtxt(io.StringIO(raw.decode()), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, UnicodeDecodeError, ValueError):
        return None
    cols = header.split(",")
    z = data[:, [i for i, c in enumerate(cols) if c.startswith("z_") and c != "z_norm"]]
    # sum(z) = 0 is invariant when z starts at 0; allow the rounding of 12
    # printed digits on each entry.
    excess = np.abs(z.sum(axis=1)) - 1e-10 * (1.0 + np.abs(z).sum(axis=1))
    return {
        "header": header,
        "lines": raw.count(b"\n"),
        "digest": hashlib.sha256(raw).hexdigest(),
        "zsum_excess": float(excess.max()),
        "last_x": [float(v) for v, c in zip(data[-1], cols) if c.startswith("x_")],
    }


class Reproduce6:
    """``pidnet reproduce``: the bundled six-inverter ring, four scenarios.

    Every op has the same input, so every op of a run must also write
    byte-identical CSV traces.
    """

    name = "reproduce6"
    cycle = 1
    min_ops = 1
    # Sizes whose ops feed op_p50_s and ops_per_s (None: every op).
    p50_n = rate_n = None

    def __init__(self, seed: int):
        with open(os.path.join(HERE, "reference", "reproduce6.json")) as fh:
            ref = json.load(fh)
        self.header = ref["csv_header"]
        self.expected = {"exit_code": 0, "report": ref["report"], "csv_lines": ref["csv_lines"]}
        self.digests: dict[str, str] | None = None

    def prepare(self, k: int, workdir: str) -> Op:
        out = os.path.join(workdir, "out")
        return Op(k, 6, workdir, [Call(["reproduce", "--out", out, "--json"])],
                  self.expected, (checks.ATOL, checks.RTOL))

    def load(self, op: Op) -> dict:
        out = op.calls[0].args[2]
        csvs = {name: _csv_facts(os.path.join(out, f"{name}.csv")) for name in self.expected["csv_lines"]}
        return {
            "code": op.calls[0].code,
            "printed": _stdout_json(op.calls[0]),
            "report": _read_json(os.path.join(out, "report.json")),
            "csvs": csvs,
        }

    def verify(self, got: dict, expected: dict) -> list[str]:
        problems = []
        if got["code"] != expected["exit_code"]:
            problems.append(f"exit code {got['code']}")
        if got["report"] is None:
            return problems + ["report.json missing or unreadable"]
        if got["printed"] != got["report"]:
            problems.append("printed JSON differs from report.json")
        problems += checks.compare_tree(got["report"], expected["report"], "report")
        for name, lines in expected["csv_lines"].items():
            csv = got["csvs"][name]
            if csv is None:
                problems.append(f"{name}.csv missing or unreadable")
                continue
            if csv["header"] != self.header:
                problems.append(f"{name}.csv: header {csv['header']!r}")
            if csv["lines"] != lines:
                problems.append(f"{name}.csv: {csv['lines']} lines, expected {lines}")
            if csv["zsum_excess"] > 0:
                problems.append(f"{name}.csv: sum(z) != 0 on some row")
            final = expected["report"]["scenarios"][name]["final_state"]
            problems += checks.compare_tree(csv["last_x"], final, f"{name}.csv last row")
        return problems

    def repeat_problems(self, got: dict) -> list[str]:
        """Byte-identity of each CSV trace with the first op of the run."""
        digests = {name: csv and csv["digest"] for name, csv in got["csvs"].items()}
        if self.digests is None:
            self.digests = digests
        return [f"{name}.csv differs from the first op's" for name in digests
                if digests[name] != self.digests[name]]


class AnalyzeTune:
    """``pidnet analyze`` then ``pidnet tune`` on a fresh random graph per op."""

    name = "analyze-tune"
    # Each cycle has two N=200 ops, before and after the N=800 one, so
    # op_p50_s (the N=200 median) has twice the samples of a plain
    # 50 -> 200 -> 800 cycle.
    sizes = (50, 200, 800, 200)
    cycle = len(sizes)
    min_ops = len(sizes)
    p50_n, rate_n = 200, 800

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, k: int, workdir: str) -> Op:
        n = self.sizes[k % len(self.sizes)]
        inst = inputs.random_instance(np.random.default_rng([self.seed, k]), n)
        cfg = os.path.join(workdir, "config.yaml")
        with open(cfg, "w") as fh:
            fh.write(inst.to_yaml())
        expected = {"exit_code": 0, "certified": True, **inst.facts()}
        calls = [Call(["analyze", "--config", cfg, "--json"]), Call(["tune", "--config", cfg, "--json"])]
        return Op(k, n, workdir, calls, expected, (1e-12, checks.FACT_RTOL))

    def load(self, op: Op) -> dict:
        return {
            "codes": [c.code for c in op.calls],
            "analyze": _stdout_json(op.calls[0]),
            "tune": _stdout_json(op.calls[1]),
        }

    def verify(self, got: dict, expected: dict) -> list[str]:
        problems = [f"exit code {c}" for c in got["codes"] if c != expected["exit_code"]]
        ana, tune = got["analyze"], got["tune"]
        if ana is None or tune is None:
            return problems + ["printed JSON missing or unreadable"]
        problems += [f"non-finite {p}" for p in checks.non_finite(ana) + checks.non_finite(tune)]
        for report in (ana, tune):
            problems += checks.fact(report, "analysis.lambda_2", expected["lambda_2"])
            problems += checks.fact(report, "analysis.lambda_max", expected["lambda_max"])
            problems += checks.fact(report, "analysis.nodes", expected["n"], rtol=0.0)
        problems += checks.fact(ana, "certificate.x_inf", expected["x_inf"])
        problems += checks.fact(ana, "equilibrium.x_inf", expected["x_inf"])
        if ana.get("certificate", {}).get("certified") is not expected["certified"]:
            problems.append("certificate.certified differs")
        problems += checks.fact(tune, "alpha_min_conservative", expected["alpha_min_conservative"])
        exact = tune.get("alpha_min_exact")
        if not isinstance(exact, float) or not 0.0 < exact <= expected["alpha_min_conservative"]:
            problems.append(f"alpha_min_exact {exact!r} outside (0, conservative]")
        return problems


WORKLOADS = {w.name: w for w in (Reproduce6, AnalyzeTune)}
