"""Fixed-step integrator, trace metrics and the inverter-network builder."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidnet import sim
from pidnet.errors import TraceTooLarge
from pidnet import (
    DimensionMismatch,
    Gains,
    Graph,
    Instance,
    NonFinite,
    SimConfig,
    SingularEnsemble,
    StepTooLarge,
    Trace,
    assemble,
    build_microgrid,
    convergence_rate,
    default_x0,
    equilibrium,
    integrate,
    metrics,
)
from conftest import (
    BENCH_DELTA,
    BENCH_RHO,
    complete,
    csv_row_by_row,
    exact_affine_solution,
    random_heterogeneous_instance,
    random_homogeneous_instance,
    rk4_step_loop,
    ring,
)

def bench_system(gains: Gains):
    return build_microgrid(Instance.from_graph(ring(6, 5.0), BENCH_RHO, BENCH_DELTA), gains)


def replace_dynamics(sys_, A, b):
    """Same metadata, different dynamics — for analytic integrator checks."""
    from dataclasses import replace

    return replace(sys_, A=A, affine=b)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, dt=-0.1)
    with pytest.raises(ValueError):
        SimConfig(t_end=0.5, dt=1.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, record_stride=0)


def test_sim_config_rejects_non_finite():
    with pytest.raises(ValueError, match=r"^t_end must be a finite number, got inf$"):
        SimConfig(t_end=np.inf)
    with pytest.raises(ValueError, match=r"^dt must be a finite number, got nan$"):
        SimConfig(t_end=1.0, dt=np.nan)


def test_default_x0_spread():
    assert np.array_equal(default_x0(4), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(default_x0(3, 0.5), [0.5, 1.0, 1.5])


def test_constant_solution(rng):
    inst = random_heterogeneous_instance(rng, 3)
    sys_ = assemble(inst, Gains(1.0))
    frozen = replace_dynamics(sys_, np.zeros((6, 6)), np.zeros(6))
    x0 = np.array([1.0, -2.0, 0.5])
    trace = integrate(frozen, SimConfig(t_end=2.0, dt=0.01, x0=x0))
    assert np.max(np.abs(trace.x - x0)) == 0.0


def test_scalar_exponential_decay(rng):
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    sys_ = assemble(inst, Gains(1.0))
    A = np.diag([-1.0, -1.0, 0.0, 0.0])
    decayed = replace_dynamics(sys_, A, np.zeros(4))
    trace = integrate(decayed, SimConfig(t_end=1.0, dt=0.01, x0=np.ones(2)))
    assert trace.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_rk4_matches_matrix_exponential(rng):
    # oracle: closed-form affine-linear solution
    for _ in range(6):
        inst = random_heterogeneous_instance(rng, int(rng.integers(3, 7)))
        gains = Gains(float(rng.uniform(0.5, 3)), float(rng.uniform(0.2, 2)),
                      float(rng.uniform(0, 1.5)))
        sys_ = assemble(inst, gains)
        n = inst.node_count
        x0 = rng.normal(0, 1, n)
        trace = integrate(sys_, SimConfig(t_end=3.0, x0=x0))
        v0 = np.concatenate([x0, np.zeros(n)])
        exact = exact_affine_solution(sys_.A, sys_.affine, v0, float(trace.times[-1]))
        got = np.concatenate([trace.x[-1], trace.z[-1]])
        rel = np.linalg.norm(got - exact) / max(np.linalg.norm(exact), 1.0)
        assert rel < 1e-7


def test_rk4_fourth_order_convergence(rng):
    inst = random_heterogeneous_instance(rng, 4)
    sys_ = assemble(inst, Gains(2.0, 1.0, 0.5))
    x0 = rng.normal(0, 1, 4)
    v0 = np.concatenate([x0, np.zeros(4)])
    t_end = 2.0
    exact = exact_affine_solution(sys_.A, sys_.affine, v0, t_end)
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        trace = integrate(sys_, SimConfig(t_end=t_end, dt=dt, x0=x0))
        got = np.concatenate([trace.x[-1], trace.z[-1]])
        errs.append(np.linalg.norm(got - exact))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 3.7


@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "batch-3"])
@pytest.mark.parametrize("stride", [1, 7, 10])
def test_integrate_matches_step_loop(rng, monkeypatch, stride, batch):
    # 201 steps: a remainder and a partial last batch of 3 for strides 7 and 10
    dt, t_end = 0.01, 2.005
    steps = math.ceil(t_end / dt)
    for _ in range(3):
        inst = random_heterogeneous_instance(rng, int(rng.integers(3, 7)))
        n = inst.node_count
        sys_ = assemble(inst, Gains(float(rng.uniform(0.5, 3)), float(rng.uniform(0.2, 2)),
                                    float(rng.uniform(0, 1.5))))
        if batch is not None:
            monkeypatch.setattr(sim, "CHAIN_BYTES", batch * 8 * (2 * n + 1))
        x0 = rng.normal(0, 1, n)
        trace = integrate(sys_, SimConfig(t_end=t_end, dt=dt, x0=x0, record_stride=stride))
        times, ref = rk4_step_loop(sys_.A, sys_.affine, np.concatenate([x0, np.zeros(n)]), dt,
                                   steps, stride)
        assert np.array_equal(trace.times, times)
        got = np.hstack([trace.x, trace.z])
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_step_guard_strict_and_warn(rng):
    inst = random_heterogeneous_instance(rng, 4)
    sys_ = assemble(inst, Gains(5.0, 2.0, 0.0))
    radius = float(np.max(np.abs(np.linalg.eigvals(sys_.A))))
    big = SimConfig(t_end=10.0, dt=3.0 / radius)
    with pytest.raises(StepTooLarge):
        integrate(sys_, big, strict=True)
    with pytest.warns(UserWarning):
        integrate(sys_, big, strict=False)


def test_nonfinite_on_divergence():
    # homogeneous unstable poles with proportional-only coupling on a
    # disconnected-from-consensus average mode: the mean state blows up
    inst = Instance.from_graph(complete(3, 1.0), np.ones(3), np.zeros(3))
    sys_ = assemble(inst, Gains(1.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
        integrate(sys_, SimConfig(t_end=2000.0, dt=0.05, x0=np.array([1.0, 1.0, 1.0])))


def test_nonfinite_reports_first_bad_sample(monkeypatch):
    # x is multiplied by the RK4 factor g of h = 0.4 per step; the first
    # recorded sample past the float range lies inside a batch of 4
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    growing = replace_dynamics(assemble(inst, Gains(1.0)), np.diag([40.0, 40.0, 0.0, 0.0]),
                               np.zeros(4))
    g = 1.0 + 0.4 + 0.4**2 / 2 + 0.4**3 / 6 + 0.4**4 / 24
    first_step = 7 * math.ceil(np.log(np.finfo(float).max) / np.log(g) / 7)
    monkeypatch.setattr(sim, "CHAIN_BYTES", 4 * 8 * 5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NonFinite, match=rf"^state overflowed at t = {first_step * 0.01:.6g}$"
    ):
        integrate(growing, SimConfig(t_end=30.0, dt=0.01, x0=np.ones(2), record_stride=7))


@pytest.mark.parametrize(
    "chains", [None, 1, 3, 7, 64, 256, 300, 429],
    ids=["default-chains", "1-chain", "3-chains", "7-chains", "64-chains", "256-chains",
         "300-chains", "429-chains"])
def test_overflowing_propagator_names_its_first_sample(monkeypatch, chains):
    # x0 = 1e-300 grows by Q = g^7 = 16.4 per sample, so every sample up to
    # t = 30 (428 samples) is finite, but Q^256 (10^311) is not: the chains
    # stop growing at 128 and the run goes on, the same for any chain count
    inst = Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2))
    growing = replace_dynamics(assemble(inst, Gains(1.0)), np.diag([40.0, 40.0, 0.0, 0.0]),
                               np.zeros(4))
    cfg = SimConfig(t_end=30.0, dt=0.01, x0=np.full(2, 1e-300), record_stride=7)
    default = integrate(growing, cfg).x
    if chains is not None:
        monkeypatch.setattr(sim, "CHAIN_BYTES", chains * 8 * 5)
    x = integrate(growing, cfg).x
    assert np.isfinite(x).all()
    assert np.max(np.abs(x - default) / default) <= 1e-13
    # M^2000 = g^2000 (10^347) forms the first sample at t = 20 by itself
    with pytest.raises(NonFinite, match=r"^propagator overflowed at t = 20$"):
        integrate(growing, SimConfig(t_end=30.0, dt=0.01, x0=np.ones(2), record_stride=2000))


def test_sample_budget_admits_its_tie(monkeypatch):
    # 10 steps x 2N = 40 values is the tie and is accepted; the check leaves
    # out the t = 0 sample, so the run records 11 samples (44 values)
    monkeypatch.setattr(sim, "MAX_RECORDED_VALUES", 40)
    sys_ = assemble(Instance.from_graph(Graph(2, ((0, 1, 1.0),)), -np.ones(2), np.zeros(2)), Gains(1.0))
    trace = integrate(sys_, SimConfig(t_end=1.25, dt=0.125, record_stride=1))
    assert trace.times.size == 11
    with pytest.raises(TraceTooLarge, match=r"^11 steps of dt = 0\.125, .* more than 40 values"):
        integrate(sys_, SimConfig(t_end=1.375, dt=0.125, record_stride=1))


def test_record_stride_and_final_sample(rng):
    inst = random_heterogeneous_instance(rng, 3)
    sys_ = assemble(inst, Gains(1.0, 1.0, 0.5))
    trace = integrate(sys_, SimConfig(t_end=1.0, dt=0.01, record_stride=7))
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(trace.times) > 0)


def test_u_reconstruction_satisfies_agent_equation(rng):
    # xdot from the ODE right-hand side must equal rho*x + delta + u
    inst = random_heterogeneous_instance(rng, 5)
    sys_ = assemble(inst, Gains(2.0, 1.0, 0.7))
    trace = integrate(sys_, SimConfig(t_end=5.0, dt=0.01, record_stride=10))
    states = np.hstack([trace.x, trace.z])
    xdot = states @ sys_.A[:5, :].T + sys_.affine[:5]
    residual = xdot - (trace.x * inst.ensemble.rho + inst.ensemble.delta + trace.u)
    assert np.max(np.abs(residual)) < 1e-9


@pytest.mark.parametrize("chains", [None, 7], ids=["default-blocks", "blocks-of-7"])
def test_in_place_u_matches_the_expression(rng, monkeypatch, chains):
    # each block's u, d and ||z|| are the one-line expressions on the block's
    # rows, and integrate() stacks the blocks
    inst = random_heterogeneous_instance(rng, 5)
    sys_ = assemble(inst, Gains(2.0, 1.0, 0.7))
    if chains is not None:
        monkeypatch.setattr(sim, "CHAIN_BYTES", chains * 8 * 11)
    cfg = SimConfig(t_end=5.0, dt=0.01, record_stride=10)
    times, blocks = sim.propagate(sys_, cfg)
    us = []
    for block in blocks:
        xs, zs = block.x, block.z
        expected = (xs @ sys_.A1.T + zs + sys_.affine[:5]
                    - xs * inst.ensemble.rho - inst.ensemble.delta)
        assert np.array_equal(block.u, expected)
        assert np.array_equal(block.disagreement, xs.max(axis=1) - xs.min(axis=1))
        assert np.array_equal(block.z_norm, np.linalg.norm(zs, axis=1))
        us.append(block.u)
    # 51 samples in blocks of 1, 1, 2, 4, ... up to B: 1024 by default, and 4
    # (the largest power of two within 7) with 7 chains
    sizes = [len(u) for u in us]
    assert sizes == ([1, 1, 2, 4, 8, 16, 19] if chains is None else [1, 1, 2] + [4] * 11 + [3])
    assert np.array_equal(integrate(sys_, cfg).u, np.vstack(us))


def test_x0_of_the_wrong_length_is_rejected(rng):
    sys_ = assemble(random_heterogeneous_instance(rng, 5), Gains(2.0, 1.0, 0.7))
    with pytest.raises(DimensionMismatch, match=re.escape("x0 must have shape (5,)")):
        sim.propagate(sys_, SimConfig(t_end=1.0, dt=0.01, x0=np.ones(4)))


def test_metrics_of_an_empty_trace_are_rejected():
    empty = np.zeros((0, 3))
    trace = Trace(times=np.zeros(0), x=empty, z=empty, u=empty, disagreement=np.zeros(0),
                  z_norm=np.zeros(0))
    with pytest.raises(ValueError, match="empty trace"):
        metrics(trace)


def test_chains_sized_by_the_propagator(rng, monkeypatch):
    # m = 2N + 1 = 81 and a byte cap of one chain: m // 16 = 5 decides, so the
    # blocks grow to B = 4 samples
    inst = Instance.from_graph(ring(40, 1.0), rng.uniform(-3.0, -0.5, 40), rng.normal(0, 2, 40))
    sys_ = assemble(inst, Gains(2.0, 1.0, 0.7))
    monkeypatch.setattr(sim, "CHAIN_BYTES", 8 * 81)
    dt, steps = 0.01, 31
    x0 = rng.normal(0.0, 1.0, 40)
    _, blocks = sim.propagate(sys_, SimConfig(t_end=0.305, dt=dt, x0=x0))
    blocks = list(blocks)
    assert [len(b.times) for b in blocks] == [1, 1, 2] + [4] * 7
    _, ref = rk4_step_loop(sys_.A, sys_.affine, np.concatenate([x0, np.zeros(40)]), dt, steps, 1)
    got = np.vstack([np.hstack([b.x, b.z]) for b in blocks])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("chains", [None, 1, 3], ids=["default-chains", "1-chain", "3-chains"])
@pytest.mark.parametrize("stride", [1, 7, 10])
def test_streamed_csv_matches_collected_trace(tmp_path, rng, monkeypatch, stride, chains):
    # 201 steps: a remainder for strides 7 and 10, and a partial last block
    inst = random_heterogeneous_instance(rng, 4)
    sys_ = assemble(inst, Gains(2.0, 1.0, 0.7))
    if chains is not None:
        monkeypatch.setattr(sim, "CHAIN_BYTES", chains * 8 * 9)
    cfg = SimConfig(t_end=2.005, dt=0.01, record_stride=stride)
    trace = integrate(sys_, cfg)
    trace.to_csv(tmp_path / "collected.csv")
    kept = sim.write_trace(tmp_path / "streamed.csv", *sim.propagate(sys_, cfg))
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "collected.csv").read_bytes()
    assert np.array_equal(kept.times, trace.times)
    assert np.array_equal(kept.disagreement, trace.disagreement)
    assert np.array_equal(kept.z_norm, trace.z_norm)
    assert np.array_equal(kept.x_final, trace.x[-1])
    assert metrics(kept) == metrics(trace)


def test_steady_means_past_the_float_sum():
    # ten trailing samples of 1e308 sum past the float range; their mean does not
    t = np.linspace(0, 1, 100)
    d = np.full(100, 1e308)
    z = np.zeros((100, 2))
    trace = Trace(times=t, x=z, z=z, u=z, disagreement=d, z_norm=d)
    m = metrics(trace)
    assert (m.steady_disagreement, m.steady_z_norm) == (1e308, 1e308)


def test_metrics_on_consensus_trace():
    t = np.linspace(0, 1, 11)
    x = np.full((11, 3), 2.5)
    z = np.zeros((11, 3))
    trace = Trace(times=t, x=x, z=z, u=z, disagreement=np.zeros(11), z_norm=np.zeros(11))
    m = metrics(trace, x_inf=2.5)
    assert m.final_disagreement == 0.0
    assert m.final_offset == 0.0
    assert m.empirical_rate is None


def test_empirical_rate_on_synthetic_decay():
    t = np.linspace(0, 40, 4001)
    d = np.exp(-0.8 * t)
    x = np.zeros((t.size, 2))
    x[:, 0] = d / 2
    x[:, 1] = -d / 2
    z = np.zeros((t.size, 2))
    trace = Trace(times=t, x=x, z=z, u=z, disagreement=d, z_norm=np.zeros(t.size))
    m = metrics(trace)
    assert m.empirical_rate == pytest.approx(0.8, rel=1e-6)


def test_empirical_rate_matches_formula(rng):
    inst = random_homogeneous_instance(rng, 5, rho_star=1.0)
    gains = Gains(2.0, 1.5, 0.5)
    mu = convergence_rate(inst, gains)
    sys_ = assemble(inst, gains)
    trace = integrate(sys_, SimConfig(t_end=18.0 / mu))
    m = metrics(trace)
    assert m.empirical_rate is not None
    assert abs(m.empirical_rate - mu) / mu < 0.15


def test_microgrid_effective_alpha():
    sys_ = bench_system(Gains(6.0, 5.0, 1.0))
    assert sys_.gains.alpha == 7.0
    assert sys_.gains.beta == 5.0 and sys_.gains.gamma == 1.0
    assert np.array_equal(sys_.ensemble.rho, BENCH_RHO)
    assert np.array_equal(sys_.ensemble.delta, BENCH_DELTA)


def test_microgrid_zero_gains_singular():
    sys_ = build_microgrid(
        Instance.from_graph(ring(4, 1.0), np.zeros(4), np.zeros(4)), Gains(1.0, 1.0, 0.0)
    )
    with pytest.raises(SingularEnsemble):
        equilibrium(sys_.ensemble, sys_.mod_lap)


def test_microgrid_converges_to_predicted_value():
    sys_ = bench_system(Gains(6.0, 5.0, 1.0))
    trace = integrate(sys_, SimConfig(t_end=30.0))
    assert np.max(np.abs(trace.x[-1] - 50.0)) < 1e-6
    assert trace.disagreement[-1] < 1e-6
    assert np.max(np.abs(trace.z.sum(axis=1))) < 1e-8


def test_proportional_residual_decreases_with_alpha():
    import warnings as _w

    residuals = {}
    for alpha in (10.0, 30.0):
        sys_ = bench_system(Gains(alpha, 0.0, 0.0))
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            trace = integrate(sys_, SimConfig(t_end=30.0))
        residuals[alpha] = metrics(trace).steady_disagreement
    assert residuals[30.0] < residuals[10.0]
    assert residuals[30.0] > 0.0


def test_csv_export_roundtrip(tmp_path, rng):
    inst = random_heterogeneous_instance(rng, 3)
    sys_ = assemble(inst, Gains(1.0, 1.0, 0.5))
    trace = integrate(sys_, SimConfig(t_end=2.0, dt=0.01, record_stride=20))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "x_1", "x_2", "x_3", "z_1", "z_2", "z_3",
                      "u_1", "u_2", "u_3", "d", "z_norm"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (trace.times.size, 12)
    assert np.allclose(data[:, 0], trace.times, atol=1e-9)
    assert np.allclose(data[:, 1:4], trace.x, rtol=1e-10)
    # bit-identical re-export
    path2 = tmp_path / "trace2.csv"
    trace.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_bytes_match_row_by_row_writer(tmp_path, rng):
    # 300 rows of 9 values: all in one chunk of CSV_CHUNK_VALUES // 9 = 455 rows
    rows, n = 300, 2
    data = rng.normal(0.0, 1.0, (rows, 3 * n + 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3 * n + 3))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, 0.1]
    for k, v in enumerate(special):
        data[17 * k + 3, k % data.shape[1]] = v
    trace = Trace(times=data[:, 0], x=data[:, 1:3], z=data[:, 3:5], u=data[:, 5:7],
                  disagreement=data[:, 7], z_norm=data[:, 8])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == csv_row_by_row(trace).encode()


def one_node_trace(values: np.ndarray) -> Trace:
    """The values row by row in a one-node trace (six columns), zero-padded."""
    data = np.zeros(-(-values.size // 6) * 6)
    data[: values.size] = values
    data = data.reshape(-1, 6)
    return Trace(times=data[:, 0], x=data[:, 1:2], z=data[:, 2:3], u=data[:, 3:4],
                 disagreement=data[:, 4], z_norm=data[:, 5])


EXPONENT_FIELDS = np.arange(2048, dtype=np.uint64) << np.uint64(52)


@settings(max_examples=100, deadline=None)
@given(sign=st.integers(0, 1), mantissa=st.integers(0, 2**52 - 1),
       raw=st.lists(st.integers(0, 2**64 - 1), max_size=60))
@example(sign=0, mantissa=0, raw=[])
@example(sign=1, mantissa=0, raw=[])
@example(sign=1, mantissa=1, raw=[])
def test_csv_bytes_match_on_raw_bit_patterns(tmp_path_factory, sign, mantissa, raw):
    # One mantissa under all 2048 exponent fields: zero or a subnormal (field
    # 0), every binade of normal numbers, then inf or a NaN payload (field
    # 2047); followed by arbitrary bit patterns.
    head = EXPONENT_FIELDS | np.uint64(mantissa) | (np.uint64(sign) << np.uint64(63))
    bits = np.concatenate([head, np.array(raw, dtype=np.uint64)])
    trace = one_node_trace(bits.view(np.float64))
    path = tmp_path_factory.mktemp("bits") / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == csv_row_by_row(trace).encode()


@pytest.mark.parametrize(
    "value, text",
    [
        # exact decimal ties round half to even
        (1000000000005.0, "1.00000000000e+12"),
        (1000000000015.0, "1.00000000002e+12"),
        (500000000002.5, "5.00000000002e+11"),
        (500000000007.5, "5.00000000008e+11"),
        # the double lies just above or below a tie that |v| * 10^(11 - e)
        # rounds onto, or one ulp past, in float64
        (1.438819396545, "1.43881939655e+00"),
        (9.890844236615e-161, "9.89084423661e-161"),
        (9.343712195085e-34, "9.34371219509e-34"),
        # the twelve digits carry into a thirteenth
        (0.99999999999995, "1.00000000000e+00"),
        (999999.9999999999, "1.00000000000e+06"),
        # the ends of the power-of-ten table: numpy formats [1e-280, 1e301)
        (1e300, "1.00000000000e+300"),
        (9.99999999999e300, "9.99999999999e+300"),
        (1e301, "1.00000000000e+301"),
        (1e-280, "1.00000000000e-280"),
        (float(np.nextafter(1e-280, 0.0)), "1.00000000000e-280"),
        (9.99999999999e-281, "9.99999999999e-281"),
    ],
)
def test_csv_rounding_boundaries(tmp_path, value, text):
    trace = one_node_trace(np.array([value, -value]))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    zero = "0.00000000000e+00"
    assert path.read_text().splitlines()[1] == ",".join([text, "-" + text] + [zero] * 4)
    assert path.read_bytes() == csv_row_by_row(trace).encode()


@pytest.mark.parametrize("chunk_values", [1, 7, 50])
def test_csv_chunk_boundaries_change_no_byte(tmp_path, monkeypatch, rng, chunk_values):
    # 20 rows of 6 values; 50 values per chunk gives chunks of 8, 8 and 4 rows
    values = rng.normal(0.0, 1.0, 120) * 10.0 ** rng.integers(-120, 120, 120)
    values[[5, 47, 48, 96]] = [np.nan, 1000000000005.0, -np.inf, 500000000002.5]
    trace = one_node_trace(values)
    monkeypatch.setattr(sim, "CSV_CHUNK_VALUES", chunk_values)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == csv_row_by_row(trace).encode()


def test_e11_carries_match_python():
    # either side of 9.999999999995 * 10^k the twelve digits round down to
    # 9.99999999999e+k or carry to 1.00000000000e+(k + 1), for every k of the
    # power-of-ten table; near-ties and the carry at E11_EMAX go to Python
    rows = []
    for k in range(sim.E11_EMIN, sim.E11_EMAX + 1):
        tie = float(f"9.999999999995e{k}")
        near = [float(f"9.99999999999{tail}e{k}") for tail in ("4", "49", "51", "6", "9999")]
        row = [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)] + near
        rows.append(row + [-v for v in row])
    block = np.array(rows)
    expected = "".join(",".join("%.11e" % v for v in row) + "\n" for row in block.tolist())
    assert sim._format_e11(block).decode() == expected


def test_e11_tables_match_their_text():
    # the CSV writer's byte tables, built from the text each word holds
    def words(texts):
        return np.frombuffer("".join(texts).encode("latin-1"), dtype=np.uint32)

    head, quads, triples, expo, pow10 = sim._e11_tables()
    exponents = [0] + list(range(sim.E11_EMIN, sim.E11_EMAX + 1))
    assert np.array_equal(head, words("," + sign + f"{k}." for sign in ("\0", "-") for k in range(10)))
    assert np.array_equal(quads, words(f"{k:04d}" for k in range(10**4)))
    assert np.array_equal(triples, words(f"{k:03d}e" for k in range(1000)))
    assert np.array_equal(expo, words("+-"[e < 0] + f"{abs(e):02d}".rjust(3, "\0") for e in exponents))
    assert np.array_equal(pow10, [float(f"1e{11 - e}") for e in exponents])
