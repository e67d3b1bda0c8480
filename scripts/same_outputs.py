#!/usr/bin/env python3
"""Run the default output set from two checkouts and report every byte that differs.

The default output set is, each command run once with ``--json`` and once
with the tree output:
- ``analyze`` and ``tune`` on ``microgrid6.yaml``, on the 12 pidbench
  configs ``random_instance(default_rng([s, k]), (50, 200, 800, 200)[k])``,
  s = 1-3, k = 0-3, and on the ``variants``: the homogeneous PID, PI and PD
  regimes, the dense spectrum, each agent-data section's config errors and
  the homogeneous PID and PD at ``gamma: 1.0e+308``, where gamma*L overflows;
- ``simulate`` on ``microgrid6.yaml``, on ``SIMULATE_CONFIG``, the N = 200
  config of seed 1 with a short ``sim`` section, and on the ``OVERFLOWING_GAMMA``
  variants, whose error must come out the same whichever stage raises it;
- ``reproduce``.

Both sides read the same config files: the bundled ``microgrid6.yaml`` and
the README's Configuration example of PARENT_SRC, the variants built from
them, and the pidbench configs this checkout's ``pidbench/inputs.py``
writes. Each side runs under ``OPENBLAS_NUM_THREADS=1`` in a scratch
directory of its own, and each run's exit code, stdout, stderr and the files
under its ``--out`` are compared byte for byte.

Usage:
    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a checkout, a directory holding ``src/pidnet``. Exits 0
when every output is the same, 1 otherwise.
"""

import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 200, 800, 200)

# simulate also runs on s1k1n200.yaml with this sim section: 1,486 samples and
# 16.4 MB of trace.csv, propagated by 401 x 401 BLAS products (the microgrid's
# are 13 x 13).
SIMULATE_CONFIG = "s1k1n200-simulate.yaml"
SIMULATE_SIM = "sim: {t_end: 0.002, record_stride: 10}\n"

# The README example as homogeneous PID and PD with gamma*lambda_N beyond the
# float range; simulate runs on them too.
OVERFLOWING_GAMMA = ("readme-pid-gamma-overflow.yaml", "readme-pd-gamma-overflow.yaml")


# The path of 3 whose slow roots, near -1e-320, the dense eigvals reads as 0:
# certified beside a dense hurwitz: false.
PATH3_DENSE = """
graph: {nodes: 3, edges: [{i: 0, j: 1, w: 1.0}, {i: 1, j: 2, w: 1.0}]}
ensemble: {rho: [-1.0, -2.0, -1.5], delta: [1.0, 2.0, 3.0]}
gains: {alpha: 1.0e+300, beta: 1.0e-20, gamma: 0.0}
"""
# A path of 8 whose certified slowest root rounds to -0.0 on the time scale of
# the loop: hyperbolic, and Hurwitz by the certificate.
PATH8_ZERO_ROOT = """
graph:
  nodes: 8
  edges: [{i: 0, j: 1, w: 1.0}, {i: 1, j: 2, w: 1.0}, {i: 2, j: 3, w: 1.0}, {i: 3, j: 4, w: 1.0},
          {i: 4, j: 5, w: 1.0}, {i: 5, j: 6, w: 1.0}, {i: 6, j: 7, w: 1.0}]
ensemble:
  rho: [-2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0]
  delta: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
gains: {alpha: 2.0, beta: 2.5e-323, gamma: 0.0}
"""


def readme_config(checkout: Path) -> str:
    """The Configuration example of the checkout's README.md."""
    readme = (checkout / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Configuration\n.*?```yaml\n(.*?)```", readme, re.S).group(1)


def replaced(text: str, old: str, new: str) -> str:
    if old not in text:
        raise ValueError(f"{old!r} is not in the config it is to be replaced in")
    return text.replace(old, new)


def variants(readme: str, microgrid: str) -> dict[str, str]:
    """Configs by file name, from the README example (homogeneous PID) and the
    bundled microgrid config."""
    poles, injections = "[-2.0, -2.0, -2.0, -2.0]", "[150.0, 80.0, 120.0, 100.0, 100.0, 50.0]"
    section = microgrid[microgrid.index("microgrid:"):microgrid.index("gains:")]
    overflowing = replaced(readme, "gamma: 0.5", "gamma: 1.0e+308")
    return {
        "readme-pid.yaml": readme,
        "readme-pi.yaml": replaced(readme, "gamma: 0.5", "gamma: 0.0"),
        "readme-pd.yaml": replaced(readme, "beta: 1.0", "beta: 0.0"),
        "readme-heterogeneous-no-integral.yaml": replaced(
            replaced(readme, poles, "[-1.0, -2.0, -1.5, -3.0]"), "beta: 1.0", "beta: 0.0"),
        "path3-dense.yaml": PATH3_DENSE,
        "path8-zero-root.yaml": PATH8_ZERO_ROOT,
        "both-sections.yaml": replaced(microgrid, "gains:", "ensemble:\n  rho: [-1.0, -1.0, -1.0, "
                                       "-1.0, -1.0, -1.0]\n  delta: " + injections + "\ngains:"),
        "no-agent-section.yaml": replaced(microgrid, section, ""),
        "microgrid-unknown-key.yaml": replaced(microgrid, "  p_star:", "  droop: 1.0\n  p_star:"),
        "short-p-star.yaml": replaced(microgrid, injections, "[150.0, 80.0]"),
        OVERFLOWING_GAMMA[0]: overflowing,
        OVERFLOWING_GAMMA[1]: replaced(overflowing, "beta: 1.0", "beta: 0.0"),
    }


def write_configs(parent: Path, where: Path) -> list[Path]:
    """The configs of the default set, written to ``where``."""
    spec = importlib.util.spec_from_file_location("pidbench_inputs", ROOT / "pidbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses resolve annotations through it
    spec.loader.exec_module(inputs)
    microgrid = (parent / "src" / "pidnet" / "microgrid6.yaml").read_text(encoding="utf-8")
    texts = {"microgrid6.yaml": microgrid, **variants(readme_config(parent), microgrid)}
    for s in (1, 2, 3):
        for k, n in enumerate(SIZES):
            texts[f"s{s}k{k}n{n}.yaml"] = inputs.random_instance(np.random.default_rng([s, k]), n).to_yaml()
    texts[SIMULATE_CONFIG] = texts["s1k1n200.yaml"] + SIMULATE_SIM
    paths = []
    for name, text in texts.items():
        paths.append(where / name)
        paths[-1].write_text(text, encoding="utf-8")
    return paths


def commands(configs: list[Path]) -> dict[str, list[str]]:
    """Each run of the default set by name; ``--out`` is relative to the side's directory."""
    runs = {}
    for json_flag in ([], ["--json"]):
        suffix = "".join(json_flag)
        for config in configs:
            if config.name == SIMULATE_CONFIG:
                names = ("simulate",)
            elif config.name in OVERFLOWING_GAMMA:
                names = ("analyze", "tune", "simulate")
            else:
                names = ("analyze", "tune")
            for command in names:
                out = ["--out", f"{config.stem}{suffix}"] if command == "simulate" else []
                runs[f"{command}{suffix} {config.name}"] = [command, "--config", str(config), *out,
                                                            *json_flag]
        runs[f"simulate{suffix}"] = ["simulate", "--config", str(configs[0]),
                                     "--out", f"simulate{suffix}", *json_flag]
        runs[f"reproduce{suffix}"] = ["reproduce", "--out", f"reproduce{suffix}", *json_flag]
    return runs


def run_side(checkout: Path, runs: dict[str, list[str]], where: Path) -> dict[str, dict]:
    """Exit code, stdout, stderr and the files under ``--out`` of each run."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = {}
    for name, argv in runs.items():
        done = subprocess.run([sys.executable, "-m", "pidnet.cli", *argv], cwd=where, env=env,
                              capture_output=True)
        files = {}
        if "--out" in argv:
            out = where / argv[argv.index("--out") + 1]
            files = {str(path.relative_to(out)): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()}
        results[name] = {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
                         "files": files}
    return results


def _first_difference(a: bytes, b: bytes) -> int:
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line for each run, stream or file that differs between the two sides."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            lines.append(f"{name}: only in {'parent' if name in parent else 'change'}")
            continue
        old, new = parent[name], change[name]
        if old["exit"] != new["exit"]:
            lines.append(f"{name}: exit code {old['exit']} != {new['exit']}")
        streams = [(stream, old[stream], new[stream]) for stream in ("stdout", "stderr")]
        for path in sorted(old["files"].keys() | new["files"].keys()):
            if path not in old["files"] or path not in new["files"]:
                lines.append(f"{name}: file {path} only in {'parent' if path in old['files'] else 'change'}")
            else:
                streams.append((f"file {path}", old["files"][path], new["files"][path]))
        for what, a, b in streams:
            if a != b:
                lines.append(f"{name}: {what} differs from byte {_first_difference(a, b)} "
                             f"({len(a)} and {len(b)} bytes)")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        (scratch / "configs").mkdir()
        runs = commands(write_configs(parent, scratch / "configs"))
        results = []
        for side, checkout in (("parent", parent), ("change", change)):
            (scratch / side).mkdir()
            results.append(run_side(checkout, runs, scratch / side))
    lines = compare(*results)
    files = sum(len(result["files"]) for result in results[0].values())
    print("\n".join(lines) if lines else f"same: {len(runs)} runs and {files} files, byte for byte")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
