"""Traced op process: wrap pidnet's public functions, then run the CLI.

Usage: python3 traced.py SPANS_JSON OP_ID N -- CLI_ARGS...

Every module binding of each traced function is replaced, not only the
one in the defining module, because ``cli``, ``config``, ``sim`` and
``tuning`` import several of them by name. ``Trace.to_csv`` and
``TransverseSystem.is_hurwitz`` are patched on their classes. Spans stay
in memory and are written to SPANS_JSON when the CLI returns.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time

# (module, attribute) of each traced function; "Class.method" for methods.
TRACED = (
    ("cli", "main"),
    ("config", "load_config"),
    ("spectral", "build_laplacian"),
    ("spectral", "spectral_decompose"),
    ("spectral", "modified_laplacian"),
    ("netmodel", "assemble"),
    ("netmodel", "equilibrium"),
    ("transverse", "psi_blocks"),
    ("transverse", "transverse_system"),
    ("transverse", "TransverseSystem.is_hurwitz"),
    ("tuning", "certify"),
    ("tuning", "min_alpha"),
    ("sim", "build_microgrid"),
    ("sim", "integrate"),
    ("sim", "metrics"),
    ("sim", "Trace.to_csv"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function, e.g. ``sim.to_csv``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def integrate_steps(cfg, trace) -> int:
    """RK4 steps taken, recovered from the sample times of the result."""
    times = trace.times
    if times.size >= 3:
        dt = (times[1] - times[0]) / cfg.record_stride
    elif cfg.dt is not None:
        dt = cfg.dt
    else:
        return times.size - 1
    return int(round(float(times[-1]) / dt))


class Tracer:
    def __init__(self, op_id: str, n: int):
        self.op_id = op_id
        self.n = n
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                    "op": self.op_id, "n": self.n}
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if name == "sim.integrate":
                span["steps"] = integrate_steps(args[1] if len(args) > 1 else kwargs["cfg"], result)
            elif name == "sim.to_csv":
                span["rows"] = int(args[0].times.size)
                span["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
            return result

        return traced

    def install(self) -> None:
        import pidnet.cli  # noqa: F401  (imports every module)

        modules = [m for k, m in list(sys.modules.items()) if k == "pidnet" or k.startswith("pidnet.")]
        for mod_name, attr in TRACED:
            owner = sys.modules[f"pidnet.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span_name(mod_name, attr), getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name(mod_name, attr), original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def report_peak_rss() -> None:
    """Same stderr line as the plain op's bootstrap in run.py."""
    with open("/proc/self/status") as fh:
        kb = fh.read().split("VmHWM:")[1].split()[0]
    print("pidbench-vmhwm-kb", kb, file=sys.stderr)


def main() -> int:
    atexit.register(report_peak_rss)
    spans_path, op_id, n, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON OP_ID N -- CLI_ARGS...")
    tracer = Tracer(op_id, int(n))
    tracer.install()
    import pidnet.cli

    try:
        return pidnet.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
