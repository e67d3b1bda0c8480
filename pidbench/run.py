"""pidnet benchmark: fresh-interpreter CLI ops, checked, timed and traced.

Usage (from the root of a source checkout):

    python3 pidbench/run.py --workload reproduce6 --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``reproduce6`` and ``analyze-tune``. Ops
run in a closed loop, one at a time, each in a fresh interpreter, as a user
runs the ``pidnet`` command, with ``PYTHONPATH=src`` and BLAS threads
pinned to ``nproc``. Ops are started until ``--seconds`` have passed (at
least one whole 50 -> 200 -> 800 -> 200 cycle for analyze-tune, whose
traced runs also end on a whole cycle).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
input twice, once under ``traced.py`` (spans around the library's public
functions) and once plain, in alternating order, and reports per-layer
self times, call counts and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record of the
environment, the latency spread within the run and any problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from checks import perturbations
from traced import TRACED, span_name
from workloads import WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
# Peak RSS is the op process's own VmHWM, printed to stderr at exit. The
# kernel's ru_maxrss for a child also folds in the parent's high-water mark
# at fork/exec, which here includes the benchmark's own output parsing.
HWM_TAG = "pidbench-vmhwm-kb"
REPORT_HWM = (
    "import atexit, sys; atexit.register(lambda: print('" + HWM_TAG + "', "
    "open('/proc/self/status').read().split('VmHWM:')[1].split()[0], file=sys.stderr))"
)
CLI = REPORT_HWM + "; from pidnet.cli import main; sys.exit(main())"
# Fresh imports timed for setup_s: a few before the first op, one after
# each op input, then more at the end until there are SETUP_MIN, so the
# samples spread over the whole run.
SETUP_FIRST = 3
SETUP_MIN = 9
CALL_TIMEOUT_S = 150.0
FUNCTIONS = [span_name(m, a) for m, a in TRACED]
LAYERS = ("cli", "config", "spectral", "netmodel", "transverse", "tuning", "sim")


def blas_threads() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def spawn(argv: list[str], env: dict, stdout, stderr=subprocess.DEVNULL) -> tuple[int, float]:
    """Run a process to completion: (exit code, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    return proc.returncode, time.perf_counter() - start


def peak_rss_mb(stderr_text: str) -> float | None:
    for line in reversed(stderr_text.splitlines()):
        if line.startswith(HWM_TAG):
            return int(line.split()[1]) / 1024.0
    return None


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter importing pidnet.cli."""
    code, wall = spawn([sys.executable, "-c", "import pidnet.cli"], env, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError("importing pidnet.cli failed")
    return wall


def run_op(op: Op, traced: bool, env: dict) -> list[dict]:
    """Run every CLI call of an op; return the spans of a traced op."""
    spans = []
    for i, call in enumerate(op.calls):
        out_path = os.path.join(op.workdir, f"stdout{i}.txt")
        err_path = os.path.join(op.workdir, f"stderr{i}.txt")
        spans_path = os.path.join(op.workdir, f"spans{i}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, str(op.k), str(op.n), "--"]
        else:
            argv = [sys.executable, "-c", CLI]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            call.code, call.wall_s = spawn(argv + call.args, env, out, err)
        with open(out_path) as fh:
            call.stdout = fh.read()
        with open(err_path, errors="replace") as fh:
            call.rss_mb = peak_rss_mb(fh.read())
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans.append(json.load(fh))
    return spans


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def exact_counts(call_spans: list[list[dict]]) -> dict:
    """Calls per function plus RK4 steps and CSV rows, for one op."""
    counts = {f"{f}.calls": 0 for f in FUNCTIONS}
    counts["sim.integrate.steps"] = 0
    counts["sim.to_csv.rows"] = 0
    for spans in call_spans:
        for s in spans:
            counts[f"{s['name']}.calls"] += 1
            counts["sim.integrate.steps"] += s.get("steps", 0)
            counts["sim.to_csv.rows"] += s.get("rows", 0)
    return counts


def layer_metrics(traced_ops: list[list[list[dict]]], overhead: float) -> dict:
    ops = len(traced_ops)
    self_s = {f: 0.0 for f in FUNCTIONS}
    steps = nbytes = 0
    for call_spans in traced_ops:
        for spans in call_spans:
            for s, t in zip(spans, self_times(spans)):
                self_s[s["name"]] += t
                steps += s.get("steps", 0)
                nbytes += s.get("bytes", 0)
    counts = exact_counts(traced_ops[0])
    out = {}
    for f in FUNCTIONS:
        out[f"{f}.calls"] = (counts[f"{f}.calls"], "count")
        out[f"{f}.self_s"] = (self_s[f] / ops, "s")
    for layer in LAYERS:
        total = sum(v for f, v in self_s.items() if f.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (total / ops, "s")
    integ, csv = self_s["sim.integrate"], self_s["sim.to_csv"]
    mb = nbytes / 1e6
    out["sim.integrate.steps"] = (counts["sim.integrate.steps"], "count")
    out["sim.integrate.us_per_step"] = (1e6 * integ / steps if steps else 0.0, "us")
    out["sim.to_csv.rows"] = (counts["sim.to_csv.rows"], "count")
    out["sim.to_csv.mb"] = (mb / ops, "MB")
    out["sim.to_csv.mb_per_s"] = (mb / csv if csv > 0 else 0.0, "MB/s")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def spread(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    tail = None
    if n > 10:
        pct = 100.0 * (n - 10) / n
        tail = {"percentile": round(pct, 1), "value": values[n - 11], "samples_beyond": 10}
    return {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3, "tail": tail}


def environment(seed: int, root: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": blas_threads(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running op is killed and waited
    # for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pidnet", "cli.py")):
        print("pidbench: run from the root of a pidnet checkout (src/pidnet missing)", file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return run(args, root, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: str, env: dict, work: str) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    time_import(env)  # warm-up: byte-compiles src/ on a fresh checkout
    setup = [time_import(env) for _ in range(SETUP_FIRST)]

    records = []  # (op, traced, problems)
    traced_ops = []
    problems_seen = []
    self_test = None  # checker self-test on the first op that passes
    min_inputs = max(workload.min_ops, 2 if args.trace else 1)
    start = time.perf_counter()
    k = 0
    while True:
        order = [False] if not args.trace else ([True, False] if k % 2 == 0 else [False, True])
        for traced in order:
            workdir = os.path.join(work, f"op{k}{'t' if traced else 'u'}")
            os.makedirs(workdir)
            op = workload.prepare(k, workdir)
            spans = run_op(op, traced, env)
            got = workload.load(op)
            problems = workload.verify(got, op.expected)
            if any(c.rss_mb is None for c in op.calls):
                problems.append("an op process reported no peak RSS")
            if hasattr(workload, "repeat_problems"):
                problems += workload.repeat_problems(got)
            if not problems and self_test is None:
                # The check must reject an expected value moved just past its
                # tolerance, one leaf at a time.
                atol, rtol = op.perturb
                perturbed = list(perturbations(op.expected, atol, rtol))
                blind = [p for p, bad in perturbed if not workload.verify(got, bad)]
                problems_seen += [f"checker accepts perturbed expected value {p}" for p in blind]
                self_test = {"perturbed": len(perturbed), "rejected": len(perturbed) - len(blind)}
            if traced:
                if len(spans) != len(op.calls):
                    problems.append("traced op wrote no spans")
                traced_ops.append(spans)
            records.append((op, traced, problems))
            problems_seen += [f"op {k}{'t' if traced else ''}: {p}" for p in problems]
            shutil.rmtree(workdir)
        setup.append(time_import(env))
        k += 1
        # Traced runs end on a whole cycle, so per-op self times average
        # over the same mix of sizes in every run.
        whole = k % workload.cycle == 0 or not args.trace
        if k >= min_inputs and whole and time.perf_counter() - start >= args.seconds:
            break

    setup += [time_import(env) for _ in range(SETUP_MIN - len(setup))]
    attempted = len(records)
    failed = sum(1 for _, _, p in records if p)
    if self_test is None:
        problems_seen.append("no op passed, so the checker self-test did not run")
    plain = [op for op, traced, _ in records if not traced]
    latency = {f"n{n}": spread([op.wall_s for op in plain if op.n == n]) for n in sorted({op.n for op in plain})}

    if args.trace:
        counts = [json.dumps(exact_counts(s), sort_keys=True) for s in traced_ops]
        if len(set(counts)) != 1:
            problems_seen.append("exact counters differ between traced ops")
        # Each input ran traced and plain back to back; compare within pairs.
        wall = {(op.k, traced): op.wall_s for op, traced, _ in records}
        ratios = [wall[(i, True)] / wall[(i, False)] for i in range(k)]
        metrics = layer_metrics(traced_ops, statistics.median(ratios) - 1.0)
    else:
        p50_ops = [op.wall_s for op in plain if workload.p50_n in (None, op.n)]
        rate_ops = [op.wall_s for op in plain if workload.rate_n in (None, op.n)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (len(rate_ops) / sum(rate_ops), "1/s"),
            "op_p50_s": (statistics.median(p50_ops), "s"),
            "peak_rss_mb": (max(c.rss_mb or 0.0 for op in plain for c in op.calls), "MB"),
            "success_rate": (1.0 - failed / attempted, "frac"),
        }

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, root),
        "setup_s": spread(setup),
        "op_latency_s": latency,
        "measured_s": time.perf_counter() - start,
        "checker_self_test": self_test,
        "problems": problems_seen,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems_seen,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
