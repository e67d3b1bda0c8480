"""Fixed-step integration of the closed-loop network and trace metrics.

A classical fourth-order Runge-Kutta scheme integrates the affine linear
system d/dt [x; z] = A [x; z] + b. The systems are small and dense, so a
fixed step keeps runs deterministic and lets the convergence order be
verified against a matrix-exponential oracle in the test suite.

On a linear time-invariant system one RK4 step is a fixed affine map, so
it is precomputed once as a matrix M on the augmented state [x; z; 1].
The step count then costs only the squarings of Q = M^record_stride. The
samples come from chains grown from the one sample w (Moler & Van Loan,
"Nineteen Dubious Ways to Compute the Exponential of a Matrix", SIAM Review
2003): k chains W give the next k samples W Q^k. They double up to B chains
(see CHAIN_BYTES), and each later block of B samples is the last one times
Q^B. So the run holds M, Q^B and two blocks of B samples, whatever its length.

propagate() yields the trace one block at a time, each with its u, d and
||z|| and each checked for overflow. write_trace() writes each block's CSV
rows as the block is formed and keeps only the sample times, d, ||z|| and
the final state, which is all that metrics() reads; integrate() collects
the blocks into one Trace.

write_trace() writes every value as "%.11e" would, byte for byte, but
formats whole chunks in numpy: the 12 digits come from one scale by a
power of ten and a rint, table lookups place them in fixed byte slots, and
bytearray.translate drops the slots' pad bytes. Values whose digits that
scale cannot settle (near rounding ties, extreme exponents, non-finite
values) are formatted by Python's "%.11e" instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, StepTooLarge, TraceTooLarge
from .netmodel import ClosedLoopSystem, Gains, Instance, assemble, mean, norm2, row_norms

# dt * spectral_radius(A) must stay below this for RK4 stability.
STEP_GUARD = 2.5

# Budget of the trace propagate() records, in values (samples x 2N); it bounds
# the CSV size and the run time. The check counts steps per stride, not the
# t = 0 or remainder sample, so a trace may pass it by under two samples (4N
# values). A streamed run holds only t, d and ||z|| of each sample.
MAX_RECORDED_VALUES = 2**25

# Bytes of the block of chained augmented states propagate() advances at once
# on a small system: B samples, the largest power of two within
# max(CHAIN_BYTES // (8m), m // 16) for m = 2N + 1. Past m = 512 the second
# term decides: the chains stay within a sixteenth of Q^B's 8m^2 bytes, and
# each pass over Q^B forms at least m/16 samples (64 at N = 800, not 8).
CHAIN_BYTES = 2**17

# Values the CSV writer formats per numpy pass (whole rows, at least one);
# chunks keep the whole table and its text out of memory.
CSV_CHUNK_VALUES = 2**12

# Distance of |v| * 10^(11 - e) from a rounding boundary below which the CSV
# writer leaves a value to Python's "%.11e" (see _format_e11).
E11_NEAR_TIE = 1e-3

# Decimal exponents of the CSV writer's power-of-ten table: it formats
# |v| in [10^E11_EMIN, 10^(E11_EMAX + 1)) in numpy (see _format_e11).
E11_EMIN, E11_EMAX = -280, 300

# Fraction of the horizon averaged when reporting steady-state quantities.
STEADY_STATE_FRACTION = 0.1

# Disagreement levels, relative to d(0), between which the decay rate is fitted.
FIT_WINDOW = (1e-6, 1e-2)


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; ``dt=None`` picks 1/(20 * spectral radius)."""

    t_end: float
    dt: float | None = None
    x0: np.ndarray | None = None
    record_stride: int = 1

    def __post_init__(self):
        for name in ("t_end", "dt"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be a finite number, got {val}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0 or (self.dt is not None and self.t_end < self.dt):
            raise ValueError(f"t_end must be at least one step, got {self.t_end}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))


def default_x0(n: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic spread of initial states: node index times scale.

    Entries past the float range are inf; propagate() rejects them."""
    with np.errstate(over="ignore"):
        return scale * np.arange(1, n + 1, dtype=float)


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory with reconstructed control inputs and metrics."""

    times: np.ndarray
    x: np.ndarray  # (samples, N)
    z: np.ndarray  # (samples, N)
    u: np.ndarray  # (samples, N)
    disagreement: np.ndarray  # max_{i,j} |x_i - x_j| per sample
    z_norm: np.ndarray

    @property
    def node_count(self) -> int:
        return self.x.shape[1]

    @property
    def x_final(self) -> np.ndarray:
        return self.x[-1]

    def to_csv(self, path) -> None:
        """CSV export: a header, then each sample as "%.11e" values."""
        write_trace(path, self.times, [self])


@dataclass(frozen=True)
class StreamedTrace:
    """What a run streamed to CSV keeps of its trace: what metrics reads."""

    times: np.ndarray
    disagreement: np.ndarray
    z_norm: np.ndarray
    x_final: np.ndarray  # x at the last sample


@functools.cache
def _e11_tables() -> tuple[np.ndarray, ...]:
    """Tables of _format_e11: four of 4-byte slot words, then the scales.

    Each word table holds every combination of one byte from each of its
    four columns, the last varying fastest, so it holds the same bytes on
    any byte order. Row k of expo and pow10 is the decimal exponent
    e = E11_EMIN - 1 + k, except row 0, which is e = 0: it takes zeros and
    the values below 10^E11_EMIN. The scales 10^(11 - e) are Python's
    correctly rounded float("1e<11 - e>").
    """

    def words(*columns: bytes) -> np.ndarray:
        grids = np.meshgrid(*[np.frombuffer(c, dtype=np.uint8) for c in columns], indexing="ij")
        return np.stack(grids, axis=-1).view(np.uint32).ravel()

    digits = b"0123456789"
    head = words(b",", b"\x00-", digits, b".")
    quads = words(digits, digits, digits, digits)
    triples = words(digits, digits, digits, b"e")
    e = np.arange(E11_EMIN - 1, E11_EMAX + 1)
    e[0] = 0
    # sign, then |e| < 400 as hundreds or pad, tens and units
    expo = words(b"+-", b"\x00123", digits, digits)[400 * (e < 0) + np.abs(e)]
    pow10 = np.array([float(f"1e{11 - k}") for k in e.tolist()])
    return head, quads, triples, expo, pow10


def _format_e11(block: np.ndarray) -> bytearray:
    """CSV bytes of the rows of a 2-D float block, each value as "%.11e" % v.

    Each value gets a 20-byte slot of five 4-byte words: [separator, sign or
    pad, d0, "."], [d1..d4], [d5..d8], [d9, d10, d11, "e"], [exponent sign,
    hundreds or pad, tens, units]. The separator is "," inside a row, a
    newline at a row's start, and a pad for the block's first value; a
    newline follows the last slot. Pad bytes are 0, and bytearray.translate
    drops them once all slots are filled: neither the digits nor "%.11e"
    text holds a 0 byte.

    The 12 significant digits are rint(m) for m = |v| * 10^(11 - e) and
    e = floor(log10|v|). The power of ten is correctly rounded and the
    product rounds once, so m is within a relative 2u + u^2 (u = 2^-53) of
    the exact product M: within 2.3e-4 for M < 1e12. If m is more than that
    inside (n - 0.5, n + 0.5), M rounds to n as well, and n is the digit
    string of the correctly rounded "%.11e"; E11_NEAR_TIE = 1e-3 leaves a
    factor of four. (If m >= 1e11 > M, both print 1.00000000000e+<e>.) Where
    n = 1e12 the digits carry into a thirteenth place, and "%.11e" prints
    1.00000000000e+<e + 1>: the digits become 1e11 and the exponent e + 1.
    e is clamped into [E11_EMIN - 1, E11_EMAX], and E11_EMIN - 1 stands for
    e = 0 (see _e11_tables). These values take Python's "%.11e" % v in their
    slot instead:

    - m within E11_NEAR_TIE of n + 0.5, exact ties included, so that only
      Python decides round-half-even;
    - m below 1e11 or rounding above 1e12, or a carry at e = E11_EMAX: log10
      misjudged e, or the clamp moved it. That takes NaN, +-inf, subnormals
      and every |v| outside [1e-280, 1e301). Zeros of either sign have m = 0
      and are exact.
    """
    head, quads, triples, expo, pow10 = _e11_tables()
    v = block.ravel()
    a = np.abs(v)
    # log10 of zeros and non-finite values, inf - inf: all flagged, not warned about
    with np.errstate(all="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        np.fmax(e, E11_EMIN - 1, out=e)  # also takes NaN
        np.fmin(e, E11_EMAX, out=e)
        k = e.astype(np.intp)
        k -= E11_EMIN - 1
        m = np.take(pow10, k, out=e)
        m *= a
        d = np.rint(m, out=a)
        exact = m >= 1e11
        exact |= m == 0
        m -= d
        np.abs(m, out=m)
        exact &= m < 0.5 - E11_NEAR_TIE
        carry = d == 1e12
        carry &= k < E11_EMAX - E11_EMIN + 1  # the table has no row above E11_EMAX
        np.copyto(d, 1e11, where=carry)
        k += carry
        exact &= d < 1e12
    flagged = np.flatnonzero(~exact)
    d[flagged] = 0.0
    # d = [d0 d1..d4] * 10^7 + [d5..d8 d9..d11], split in the buffers of m and d
    lo = m.view(np.int64)
    lo[:] = d
    hi = np.floor_divide(lo, 10**7, out=d.view(np.int64))
    lo -= hi * 10**7
    lead = hi // 10**4
    hi -= lead * 10**4
    mid = lo // 1000
    lo -= mid * 1000
    lead += 10 * np.signbit(v)
    text = bytearray(20 * v.size + 4)
    slots = np.frombuffer(text, dtype=np.uint32)[:-1].reshape(-1, 5)
    slots[:, 0] = head[lead]
    slots[:, 1] = quads[hi]
    slots[:, 2] = quads[mid]
    slots[:, 3] = triples[lo]
    slots[:, 4] = expo[k]
    raw = slots.view(np.uint8).reshape(block.shape + (20,))
    raw[1:, 0, 0] = ord("\n")
    raw[0, 0, 0] = 0
    text[-4] = ord("\n")
    if flagged.size:
        fallback = "".join([("%.11e" % x).ljust(19, "\0") for x in v[flagged].tolist()])
        raw.reshape(-1, 20)[flagged, 1:] = np.frombuffer(fallback.encode(), np.uint8).reshape(-1, 19)
    return text.translate(None, b"\0")


def _check_finite(block: np.ndarray, times: np.ndarray, name: str = "state") -> None:
    """Raise NonFinite at the time of the first non-finite row of a block (the
    whole block is one row where times holds one time)."""
    bad = ~np.isfinite(block).reshape(times.size, -1).all(axis=1)
    if bad.any():
        raise NonFinite(f"{name} overflowed at t = {times[np.argmax(bad)]:.6g}")


def _checked_next():
    """np.errstate for a product whose result is checked on the next line."""
    return np.errstate(over="ignore", invalid="ignore")


def _rk4_map(A: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of vdot = A v + b as a matrix on [v; 1].

    RK4 on a linear system is the degree-4 Taylor polynomial of dt times
    [[A, b], [0, 0]]. Its last row is exactly e_m, so the last entry of the
    augmented state stays exactly 1.
    """
    m = A.shape[0] + 1
    X = np.zeros((m, m))
    X[:-1, :-1] = dt * A
    X[:-1, -1] = dt * b
    eye = np.eye(m)
    return eye + X @ (eye + X @ (eye + X @ (eye + X / 4.0) / 3.0) / 2.0)


def propagate(
    sys: ClosedLoopSystem, cfg: SimConfig, strict: bool = False
) -> tuple[np.ndarray, Iterator[Trace]]:
    """Sample times of the RK4 run, and its samples as a generator of blocks.

    The step, the guard and the sample budget are checked here, before any
    step; the blocks (Trace objects of consecutive samples) are formed one
    at a time as the generator is advanced.
    """
    n = sys.node_count
    A = sys.A
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    dt = cfg.dt if cfg.dt is not None else (1.0 / (20.0 * radius) if radius > 0 else cfg.t_end / 100.0)
    if not 0.0 < dt < math.inf:
        raise NonFinite(f"time step dt = {dt!r} is not a positive finite number")
    if radius > 0 and dt * radius >= STEP_GUARD:
        msg = f"dt * spectral_radius = {dt * radius:.3g} exceeds the stability guard {STEP_GUARD}"
        if strict:
            raise StepTooLarge(msg)
        warnings.warn(msg, stacklevel=2)

    x0 = cfg.x0 if cfg.x0 is not None else default_x0(n)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},)")
    if not np.isfinite(x0).all():
        raise NonFinite(f"x0 leaves the float range at node {np.argmin(np.isfinite(x0)) + 1} "
                        "(the default x0 is sim.x0_scale times the node number)")

    stride = cfg.record_stride
    # Checked before math.ceil, which raises on an infinite step count; the int
    # budget is scaled by the stride so that no stride overflows a float.
    steps_float = cfg.t_end / dt
    if steps_float * 2 * n > MAX_RECORDED_VALUES * stride:
        raise TraceTooLarge(
            f"{steps_float:.3g} steps of dt = {dt:.3g}, recorded every {stride}, would hold "
            f"more than {MAX_RECORDED_VALUES} values; raise sim.record_stride or shorten sim.t_end"
        )
    steps = max(1, math.ceil(steps_float))
    full, rem = divmod(steps, stride)
    # Sample j is taken at step j * stride, the last one at step `steps`.
    times = np.empty(full + 1 + (rem != 0))
    times[0] = 0.0
    times[-1] = steps * dt
    if full:
        # stride <= steps here, so float(stride) is finite
        times[1 : full + 1] = np.arange(1, full + 1) * float(stride) * dt
    w = np.concatenate([x0, np.zeros(n), [1.0]])  # z(0) = 0: the integral states keep zero sum
    return times, _blocks(sys, w, dt, stride, full, rem, times)


def _blocks(sys, w, dt, stride, full, rem, times) -> Iterator[Trace]:
    """The samples of propagate(), in blocks of 1, 1, 2, 4, ..., B samples.

    W starts as the one sample w and P as Q = M^stride. Each step forms the
    next samples as W @ P; while W holds fewer than B chains they join W and
    P is squared (a P^2 that is not finite stops the growth), and after that
    they replace W. Each sample is checked on the next line, and M, M^stride
    and M^rem at the first sample they form, so the error names the first
    sample that is not finite or whose propagator is not.
    """
    with _checked_next():
        M = _rk4_map(sys.A, sys.affine, dt)
    _check_finite(M, times[1:2], "propagator")
    if full:
        with _checked_next():
            P = np.linalg.matrix_power(M, stride).T  # P = (Q^k)^T for k = len(W)
        _check_finite(P, times[1:2], "propagator")
    W = w[None, :]
    yield _block(sys, W, times[:1])
    m = M.shape[0]
    B = 1 << (max(1, CHAIN_BYTES // (8 * m), m // 16).bit_length() - 1)
    pos = 1
    while pos <= full:
        with _checked_next():
            new = W[: full + 1 - pos] @ P
        _check_finite(new, times[pos : pos + len(new)])
        yield _block(sys, new, times[pos : pos + len(new)])
        pos += len(new)
        if len(W) < B and pos <= full:
            with _checked_next():
                P2 = P @ P
            if np.isfinite(P2).all():
                W, P = np.concatenate([W, new]), P2
                continue
            B = len(W)
        W = new
    if rem:
        with _checked_next():
            R = np.linalg.matrix_power(M, rem)
        _check_finite(R, times[pos:], "propagator")
        with _checked_next():
            W = (R @ W[-1])[None, :]
        _check_finite(W, times[pos:])
        yield _block(sys, W, times[pos:])


def _block(sys: ClosedLoopSystem, W: np.ndarray, times: np.ndarray) -> Trace:
    """The samples of the augmented states W (rows), with u, d and ||z||.

    u comes from the agent equation xdot = rho*x + delta + u, with xdot
    taken from the ODE right-hand side, so the protocol is exact at the
    samples: xdot - rho*x - delta.
    """
    n = sys.node_count
    xs = W[:, :n]
    zs = W[:, n:-1]
    with _checked_next():
        disagreement = xs.max(axis=1) - xs.min(axis=1)
    _check_finite(disagreement, times, "d")
    z_norm = row_norms(zs)
    _check_finite(z_norm, times, "z_norm")
    with _checked_next():
        # sys.affine[:n] is L_tilde^-1 delta
        us = xs @ sys.A1.T + zs + sys.affine[:n] - xs * sys.ensemble.rho - sys.ensemble.delta
    _check_finite(us, times, "u")
    return Trace(times=times, x=xs, z=zs, u=us, disagreement=disagreement, z_norm=z_norm)


def integrate(sys: ClosedLoopSystem, cfg: SimConfig, strict: bool = False) -> Trace:
    """The whole trace of propagate(), collected into one Trace."""
    times, blocks = propagate(sys, cfg, strict)
    blocks = list(blocks)
    return Trace(times, *(np.concatenate([getattr(b, field) for b in blocks])
                          for field in ("x", "z", "u", "disagreement", "z_norm")))


def write_trace(path, times: np.ndarray, blocks: Iterator[Trace]) -> StreamedTrace:
    """Write a header, then each block's CSV rows as it is formed, in chunks of
    CSV_CHUNK_VALUES values (whole rows); keep only what metrics reads."""
    disagreement, z_norm = np.empty(times.size), np.empty(times.size)
    pos = 0
    with open(path, "wb") as fh:
        for block in blocks:
            n = block.node_count
            if not pos:
                names = ["t"] + [f"{c}_{k + 1}" for c in "xzu" for k in range(n)] + ["d", "z_norm"]
                fh.write((",".join(names) + "\n").encode())
            columns = [block.times[:, None], block.x, block.z, block.u,
                       block.disagreement[:, None], block.z_norm[:, None]]
            rows = max(1, CSV_CHUNK_VALUES // (3 * n + 3))
            for start in range(0, block.times.size, rows):
                fh.write(_format_e11(np.hstack([c[start : start + rows] for c in columns])))
            end = pos + block.times.size
            disagreement[pos:end] = block.disagreement
            z_norm[pos:end] = block.z_norm
            pos = end
    return StreamedTrace(times=times, disagreement=disagreement, z_norm=z_norm,
                         x_final=block.x[-1].copy())


@dataclass(frozen=True)
class TraceMetrics:
    """What a run reports of its trace: in field order, ``simulate``'s ``simulation`` block."""

    t_end: float                # time of the last sample
    samples: int
    x_inf: float | None         # the consensus value the offset is taken from
    final_state: list[float]    # x at the last sample
    final_disagreement: float
    final_offset: float | None  # ||x(t_end) - x_inf * ones||
    final_z_norm: float
    steady_z_norm: float        # averaged over the trailing window
    steady_disagreement: float
    empirical_rate: float | None


def metrics(trace: Trace | StreamedTrace, x_inf: float | None = None) -> TraceMetrics:
    """Summary metrics including a log-linear fit of the disagreement decay.

    The decay rate is fitted on the running envelope of d(t) inside the
    window where d has dropped to FIT_WINDOW of its initial value, which
    keeps oscillatory traces from biasing the slope.
    """
    if trace.times.size == 0:
        raise ValueError("empty trace")
    d = trace.disagreement
    tail = max(1, int(round(STEADY_STATE_FRACTION * d.size)))
    rate = None
    d0 = d[0]
    if d0 > 0:
        lo, hi = FIT_WINDOW[0] * d0, FIT_WINDOW[1] * d0
        below_hi = np.flatnonzero(d <= hi)
        below_lo = np.flatnonzero(d <= lo)
        if below_hi.size and below_lo.size and below_lo[0] > below_hi[0] + 3:
            i0, i1 = below_hi[0], below_lo[0]
            seg = d[i0 : i1 + 1]
            # envelope: running max from the right
            env = np.maximum.accumulate(seg[::-1])[::-1]
            mask = env > 0
            if np.count_nonzero(mask) > 3:
                slope = np.polyfit(trace.times[i0 : i1 + 1][mask], np.log(env[mask]), 1)[0]
                if slope < 0:
                    rate = float(-slope)
    return TraceMetrics(
        t_end=float(trace.times[-1]),
        samples=int(trace.times.size),
        x_inf=x_inf,
        final_state=[float(v) for v in trace.x_final],
        final_disagreement=float(d[-1]),
        final_offset=(
            norm2(trace.x_final - x_inf) if x_inf is not None else None
        ),
        final_z_norm=float(trace.z_norm[-1]),
        steady_z_norm=mean(trace.z_norm[-tail:]),
        steady_disagreement=mean(d[-tail:]),
        empirical_rate=rate,
    )


def microgrid_gains(gains: Gains) -> Gains:
    """Loop gains of a droop-controlled inverter network: the physical power
    flow adds one unit of diffusive coupling, so the proportional gain is 1 + alpha."""
    return Gains(alpha=1.0 + gains.alpha, beta=gains.beta, gamma=gains.gamma)


def build_microgrid(instance: Instance, gains: Gains) -> ClosedLoopSystem:
    """Assemble a droop-controlled inverter network as a generic closed loop.

    The instance carries the local feedback gains k_i as poles and the
    nominal power injections P*_i as disturbances.
    """
    return assemble(instance, microgrid_gains(gains))
