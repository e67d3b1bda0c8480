"""Output checks. Each returns a list of problems; an empty list is a pass."""

from __future__ import annotations

import math

# Mixed tolerance for comparing with stored seed-code results:
# |got - ref| <= ATOL + RTOL * |ref|. Pure relative tolerance would reject
# legitimate ~1e-11 changes to values near 1e-9 (final disagreements).
ATOL = 1e-10
RTOL = 1e-10

# Tolerance for values the benchmark recomputes independently with numpy.
FACT_RTOL = 1e-9


def close(got: float, ref: float, atol: float = ATOL, rtol: float = RTOL) -> bool:
    return math.isfinite(got) and abs(got - ref) <= atol + rtol * abs(ref)


def compare_tree(got, ref, path: str = "") -> list[str]:
    """Compare two JSON trees: numbers by tolerance, everything else exactly."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(ref):
            out += compare_tree(got[key], ref[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        out = []
        for k, (g, r) in enumerate(zip(got, ref)):
            out += compare_tree(g, r, f"{path}[{k}]")
        return out
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref and type(got) is type(ref) else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not close(got, ref):
        return [f"{path}: {got!r} not within tolerance of {ref!r}"]
    return []


def perturbations(ref, atol: float, rtol: float, path: str = ""):
    """Yield (path, tree) pairs, each with one leaf of ``ref`` moved by twice
    the tolerance ``atol + rtol * |leaf|`` (booleans flipped, strings kept).

    A check that accepts a matching result must reject every one of these.
    """
    if isinstance(ref, dict):
        for key in sorted(ref):
            for p, sub in perturbations(ref[key], atol, rtol, f"{path}.{key}"):
                yield p, {**ref, key: sub}
    elif isinstance(ref, list):
        for k, val in enumerate(ref):
            for p, sub in perturbations(val, atol, rtol, f"{path}[{k}]"):
                yield p, ref[:k] + [sub] + ref[k + 1 :]
    elif isinstance(ref, bool):
        yield path, not ref
    elif isinstance(ref, (int, float)):
        yield path, ref + 2.0 * (atol + rtol * abs(ref))


def non_finite(tree, path: str = "") -> list[str]:
    """Paths of numbers in a JSON tree that are NaN or infinite."""
    if isinstance(tree, dict):
        return [p for k, v in tree.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(tree, list):
        return [p for k, v in enumerate(tree) for p in non_finite(v, f"{path}[{k}]")]
    if isinstance(tree, float) and not math.isfinite(tree):
        return [path]
    return []


def fact(report: dict, keys: str, expected: float, rtol: float = FACT_RTOL) -> list[str]:
    """Check one dotted-path number of a report against an independent value."""
    val = report
    for key in keys.split("."):
        if not isinstance(val, dict) or key not in val:
            return [f"{keys}: missing"]
        val = val[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return [f"{keys}: {val!r} is not a number"]
    if not close(val, expected, atol=0.0, rtol=rtol):
        return [f"{keys}: {val!r} != expected {expected!r}"]
    return []
