"""Instance configuration files: schema validation and object construction.

A config is a single YAML document with a ``graph`` section, either an
``ensemble`` section (per-node poles and disturbances) or a ``microgrid``
section (local feedback gains and nominal injections), a ``gains`` section,
and an optional ``sim`` section. Unknown keys are rejected so typos fail
loudly instead of silently using defaults.
"""

from __future__ import annotations

import re
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

from .errors import ConfigError, GraphTooLarge, PidnetError
from .netmodel import ClosedLoopSystem, Gains, Instance, assemble
from .sim import SimConfig, default_x0, microgrid_gains
from .spectral import Graph


# Largest graph.nodes a config may declare, checked before any matrix is
# built. Every command holds dense N^2 matrices, and simulate and the dense
# transverse fallback of analyze (2N)^2 ones. On the pidbench instance
# random_instance(default_rng([1, 2]), N), a fresh analyze process (2 CPUs,
# warm file cache) peaks at 63 MiB at N = 800, 95 MiB at N = 1200 and 203 MiB
# at this cap where the hyperbolic certificate holds (the graph's eigensolve,
# as in tune), in 0.5 s, 1.0-1.1 s and 3.7 s; where the dense eigvals decides
# (beta = 0) it peaks at 100 MiB, 175 MiB and 366 MiB, in 0.8 s, 1.6 s and
# 6.0 s. A fresh simulate of the pidbench instance with sim: {t_end: 0.001,
# record_stride: 10} peaks at 166 MiB at N = 800 and 366 MiB at N = 1200
# (record_stride: 20); 270 bytes * N^2 fits both, so 1.1 GB here.
MAX_NODES = 2048

# Deepest nesting of YAML collections a config may have: libyaml composes
# nested nodes recursively and overflows an 8 MB C stack at 20,000-40,000
# levels. _check_nesting's count stays below it on pidbench configs to N = 800.
MAX_NESTING = 10_000

# Values in messages, to two levels of nesting: YAML aliases fan lists out.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 2

# libyaml's parser builds the same document as the pure-Python one, faster.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)} (allowed: {sorted(allowed)})")


def _finite(val) -> bool:
    # False for nan, +-inf and ints beyond the float range; never raises.
    return abs(val) <= sys.float_info.max


def _float_hint(val) -> str:
    """Advice for a number in exponent form that PyYAML read as a string."""
    form = r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+"
    if not (isinstance(val, str) and re.fullmatch(form, val)) or not _finite(float(val)):
        return ""
    fixed = np.format_float_scientific(float(val)).replace(".e", ".0e")
    return f"; YAML 1.1 needs a dot and a signed exponent (unquoted), write {fixed}"


def _as_number(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {_SHORT.repr(val)}{_float_hint(val)}")
    if not _finite(val):
        raise ConfigError(f"{where}: expected a finite number, got {_SHORT.repr(val)}")
    return float(val)


def _number(section: dict, key: str, path: str, required: bool = True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: missing required value")
        return default
    return _as_number(section[key], f"{path}.{key}")


def _vector(section: dict, key: str, path: str, n: int) -> np.ndarray:
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required list")
    val = section[key]
    if not isinstance(val, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    if len(val) != n:
        raise ConfigError(f"{path}.{key}: expected {n} entries, got {len(val)}")
    return np.array([_as_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(val)])


def _parse_graph(section: dict) -> Graph:
    _check_keys(section, {"nodes", "edges"}, "graph")
    if "nodes" not in section or not isinstance(section["nodes"], int) or isinstance(section["nodes"], bool):
        raise ConfigError("graph.nodes: expected a positive integer")
    if section["nodes"] > MAX_NODES:
        raise GraphTooLarge(
            f"graph.nodes = {section['nodes']} exceeds the node budget of {MAX_NODES} "
            "(dense N^2 matrices)"
        )
    edges_raw = section.get("edges")
    if not isinstance(edges_raw, list):
        raise ConfigError("graph.edges: expected a list of {i, j, w} mappings")
    edges = []
    for idx, item in enumerate(edges_raw):
        entry = _require_mapping(item, f"graph.edges[{idx}]")
        _check_keys(entry, {"i", "j", "w"}, f"graph.edges[{idx}]")
        for key in ("i", "j"):
            if key not in entry or not isinstance(entry[key], int) or isinstance(entry[key], bool):
                raise ConfigError(f"graph.edges[{idx}].{key}: expected a 0-based node index")
        w = _number(entry, "w", f"graph.edges[{idx}]")
        edges.append((entry["i"], entry["j"], w))
    try:
        return Graph(node_count=section["nodes"], edges=tuple(edges))
    except PidnetError as exc:
        raise ConfigError(f"graph: {exc}") from exc


@dataclass(frozen=True)
class InstanceConfig:
    """Validated configuration: graph, agent data, gains, sim settings."""

    graph: Graph
    rho: np.ndarray
    delta: np.ndarray
    gains: Gains
    microgrid: bool
    sim: SimConfig

    @cached_property
    def instance(self) -> Instance:
        """The graph's one spectral decomposition with the agent data."""
        return Instance.from_graph(self.graph, self.rho, self.delta)

    @property
    def effective_gains(self) -> Gains:
        """The gains the closed loop runs (``microgrid_gains`` in microgrid mode)."""
        return microgrid_gains(self.gains) if self.microgrid else self.gains

    @cached_property
    def system(self) -> ClosedLoopSystem:
        return assemble(self.instance, self.effective_gains)


def _check_nesting(text: str) -> None:
    """Reject collections nested deeper than MAX_NESTING before they are composed.

    Each collection needs an indicator of its own among "[{-:?", so their
    count bounds the depth; only past that bound is the depth taken, from
    the parser's events, which do not recurse.
    """
    if sum(map(text.count, "[{-:?")) <= MAX_NESTING:
        return
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                raise ConfigError(f"config: collections nest deeper than {MAX_NESTING} levels "
                                  f"(line {event.start_mark.line + 1})")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def parse_config(text: str) -> InstanceConfig:
    try:
        _check_nesting(text)
        doc = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int beyond Python's digit limit
        raise ConfigError(f"invalid YAML: {exc}") from exc
    except RecursionError as exc:  # the pure-Python composer recurses once per level
        raise ConfigError("config: collections nest too deep for the YAML parser") from exc
    doc = _require_mapping(doc, "config")
    _check_keys(doc, {"graph", "ensemble", "microgrid", "gains", "sim"}, "config")

    graph = _parse_graph(_require_mapping(doc.get("graph"), "graph"))
    n = graph.node_count

    has_microgrid = "microgrid" in doc
    if ("ensemble" in doc) == has_microgrid:
        raise ConfigError("config: exactly one of 'ensemble' or 'microgrid' is required")
    # the agent data: poles and disturbances, or local gains and injections
    name, keys = ("microgrid", ("k", "p_star")) if has_microgrid else ("ensemble", ("rho", "delta"))
    section = _require_mapping(doc[name], name)
    _check_keys(section, set(keys), name)
    rho, delta = (_vector(section, key, name, n) for key in keys)

    gains_raw = _require_mapping(doc.get("gains"), "gains")
    _check_keys(gains_raw, {"alpha", "beta", "gamma"}, "gains")
    try:
        gains = Gains(
            alpha=_number(gains_raw, "alpha", "gains"),
            beta=_number(gains_raw, "beta", "gains", required=False, default=0.0),
            gamma=_number(gains_raw, "gamma", "gains", required=False, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"gains: {exc}") from exc

    sim_raw = doc.get("sim")
    sim_raw = {} if sim_raw is None else _require_mapping(sim_raw, "sim")
    _check_keys(sim_raw, {"dt", "t_end", "x0", "x0_scale", "record_stride"}, "sim")
    dt = _number(sim_raw, "dt", "sim", required=False)
    t_end = _number(sim_raw, "t_end", "sim", required=False, default=30.0)
    if "x0" in sim_raw and "x0_scale" in sim_raw:
        raise ConfigError("sim: give x0 or x0_scale, not both")
    x0_scale = _number(sim_raw, "x0_scale", "sim", required=False, default=1.0)
    x0 = _vector(sim_raw, "x0", "sim", n) if "x0" in sim_raw else default_x0(n, x0_scale)
    stride = sim_raw.get("record_stride", 1)
    if not isinstance(stride, int) or isinstance(stride, bool):
        raise ConfigError("sim.record_stride: expected a positive integer")
    try:
        sim = SimConfig(t_end=t_end, dt=dt, x0=x0, record_stride=stride)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc

    return InstanceConfig(
        graph=graph,
        rho=rho,
        delta=delta,
        gains=gains,
        microgrid=has_microgrid,
        sim=sim,
    )


def load_config(path) -> InstanceConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)
