"""Serving-layer simulation: batching, tails, sustainable load."""

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.core.serving import (
    MAX_BATCH,
    BatchingPolicy,
    ContinuousBatching,
    LatencyCurve,
    max_sustainable_qps,
    resolve_percentile_field,
    serve_stream,
    serve_tenant_streams,
    simulate_serving,
)
from repro.fleet.router import (
    simulate_fleet,
    simulate_fleet_stream,
    simulate_fleet_tenant_streams,
)
from repro.fleet.topology import FleetSpec


def linear_model(batch):
    # 10 ms fixed + 10 us per query
    return 10.0 + 0.01 * batch


class TestLatencyCurve:
    def test_interpolation(self):
        model = LatencyCurve.interpolated([512, 2048], [30.0, 90.0])
        assert model(512) == pytest.approx(30.0)
        assert model(1280) == pytest.approx(60.0)
        assert model(2048) == pytest.approx(90.0)

    def test_clamps_outside_range(self):
        model = LatencyCurve.interpolated([512, 2048], [30.0, 90.0])
        assert model(100) == pytest.approx(30.0)
        # the table ends at MAX_BATCH; past it there is no latency
        with pytest.raises(ValueError, match="outside"):
            model(10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyCurve.interpolated([1, 2], [1.0])
        with pytest.raises(ValueError):
            LatencyCurve.interpolated([], [])

    @pytest.mark.parametrize("table, batch", [
        ([1.0, np.nan, 3.0], 2),
        ([np.inf], 1),
        ([1.0, 2.0, -1.0], 3),
        ([0.0, 1.0], 1),
        ([1.0, 2.0, 2.0, 1.5], 4),
    ], ids=["nan", "inf", "negative", "zero", "decreasing"])
    def test_bad_table_names_first_batch_at_fault(self, table, batch):
        with pytest.raises(ValueError, match=f"at batch {batch}\\b"):
            LatencyCurve(table)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            LatencyCurve([])

    def test_call_outside_table_raises(self):
        curve = LatencyCurve([1.0, 2.0, 3.0])
        assert curve.max_batch == 3
        assert [curve(b) for b in (1, 2, 3)] == [1.0, 2.0, 3.0]
        for bad in (0, 4, 2.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                curve(bad)

    def test_tabulate_covers_max_batch(self):
        curve = LatencyCurve.tabulate(linear_model)
        assert curve.max_batch == MAX_BATCH
        assert curve(MAX_BATCH) == linear_model(MAX_BATCH)
        assert LatencyCurve.tabulate(linear_model, 8).max_batch == 8

    def test_table_is_read_only(self):
        curve = LatencyCurve([1.0, 2.0])
        assert curve.ms == (0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            curve.table_ms[0] = 5.0

    def test_scaled_and_plus_per_query(self):
        curve = LatencyCurve([1.0, 2.0])
        assert curve.scaled(2.0).ms == (0.0, 2.0, 4.0)
        assert curve.plus_per_query(500.0).ms == (0.0, 1.5, 3.0)
        with pytest.raises(ValueError, match="batch 1"):
            curve.scaled(0.0)


class TestSimulateServing:
    def test_light_load_low_latency(self):
        report = simulate_serving(
            linear_model, qps=50, duration_s=5.0,
            policy=BatchingPolicy(max_batch=64, timeout_ms=1.0),
        )
        # mostly singleton batches served immediately: ~exec + timeout
        assert report.p50_ms < 25.0
        assert report.mean_batch_size < 8
        assert report.gpu_utilization < 0.9

    def test_overload_grows_tail(self):
        light = simulate_serving(
            linear_model, qps=50, duration_s=5.0, seed=1,
        )
        heavy = simulate_serving(
            linear_model, qps=5_000, duration_s=5.0, seed=1,
        )
        assert heavy.p99_ms > light.p99_ms
        assert heavy.mean_batch_size > light.mean_batch_size

    def test_batching_amortizes_under_load(self):
        # big batches keep utilization below 100% even at high qps
        report = simulate_serving(
            linear_model, qps=20_000, duration_s=2.0,
            policy=BatchingPolicy(max_batch=2048, timeout_ms=5.0),
        )
        assert report.mean_batch_size > 100
        assert report.n_queries == 40_000

    def test_percentiles_ordered(self):
        report = simulate_serving(linear_model, qps=500, duration_s=3.0)
        assert report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_deterministic_by_seed(self):
        a = simulate_serving(linear_model, qps=500, seed=3)
        b = simulate_serving(linear_model, qps=500, seed=3)
        assert a.p99_ms == b.p99_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_serving(linear_model, qps=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(timeout_ms=-1)

    def test_non_finite_timeout_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="timeout_ms"):
                BatchingPolicy(timeout_ms=bad)

    def test_non_integral_max_batch_rejected(self):
        for policy in (BatchingPolicy, ContinuousBatching):
            for bad in (2.5, 64.0, np.nan, True):
                with pytest.raises(ValueError, match="max_batch"):
                    policy(max_batch=bad)
        assert BatchingPolicy(max_batch=np.int64(8)).max_batch == 8


class TestSustainableQps:
    def test_faster_model_sustains_more(self):
        slow = LatencyCurve.interpolated([1, 2048], [40.0, 90.0])
        fast = LatencyCurve.interpolated([1, 2048], [20.0, 50.0])
        qps_slow, _ = max_sustainable_qps(
            slow, sla_ms=100.0, qps_grid=(1000, 4000, 16000, 64000),
        )
        qps_fast, _ = max_sustainable_qps(
            fast, sla_ms=100.0, qps_grid=(1000, 4000, 16000, 64000),
        )
        assert qps_fast >= qps_slow

    def test_impossible_sla_yields_zero(self):
        model = LatencyCurve.interpolated([1, 2048], [500.0, 900.0])
        qps, reports = max_sustainable_qps(
            model, sla_ms=10.0, qps_grid=(100, 1000),
        )
        assert qps == 0.0
        assert len(reports) == 2

    def test_sla_check_percentile(self):
        report = simulate_serving(linear_model, qps=100, duration_s=2.0)
        assert report.meets_sla(10_000.0)
        assert not report.meets_sla(0.001)


class TestMeetsSlaPercentiles:
    def test_known_percentiles_and_case(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        for name in ("p50", "p95", "p99", "P99", "P50"):
            assert report.meets_sla(10_000.0, name)

    def test_unknown_percentile_rejected(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        for bad in ("p75", "mean", "p99_ms", "", "scheme_name"):
            with pytest.raises(ValueError, match="unknown percentile"):
                report.meets_sla(100.0, bad)

    def test_non_string_percentile_rejected(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        with pytest.raises(ValueError, match="unknown percentile"):
            report.meets_sla(100.0, 99)

    def test_resolver_maps_fields(self):
        assert resolve_percentile_field("p95") == "p95_ms"


class _SteadyStream:
    """Minimal stream for serve_stream unit tests."""

    def __init__(self, times, phase_ids=None, phases=("steady",),
                 phase_durations=None, duration_s=None):
        self.name = "unit"
        self.times = np.asarray(times, dtype=float)
        self.phase_ids = (
            np.zeros(len(times), dtype=np.int64) if phase_ids is None
            else np.asarray(phase_ids)
        )
        self.phases = phases
        self.duration_s = (
            duration_s if duration_s is not None
            else float(self.times[-1]) + 0.1
        )
        self.phase_durations = phase_durations or (self.duration_s,)


class TestContinuousBatching:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatching(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatching(sla_ms=0.0)
        with pytest.raises(ValueError):
            ContinuousBatching(sla_ms=-5.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sla_ms"):
                ContinuousBatching(sla_ms=bad)
        assert "continuous" in ContinuousBatching().label

    def test_dispatches_immediately_when_idle(self):
        # 3 well-separated queries: each served alone, no formation wait
        stream = _SteadyStream([0.0, 1.0, 2.0])
        report = serve_stream(
            lambda b: 10.0, stream, policy=ContinuousBatching(),
        )
        assert report.p99_ms == pytest.approx(10.0)
        assert report.mean_batch_size == pytest.approx(1.0)

    def test_riders_join_in_flight_formation(self):
        # queries landing while the GPU is busy form the next batch
        stream = _SteadyStream([0.0, 0.001, 0.002, 0.003])
        report = serve_stream(
            lambda b: 10.0, stream, policy=ContinuousBatching(),
        )
        # batch 1 = [t0]; batch 2 = the three riders at gpu_free=10ms
        assert report.mean_batch_size == pytest.approx(2.0)
        assert report.n_queries == 4

    def test_max_batch_respected(self):
        stream = _SteadyStream([0.0] * 10)
        report = serve_stream(
            lambda b: 1.0, stream, policy=ContinuousBatching(max_batch=4),
        )
        assert report.mean_batch_size <= 4.0

    def test_sla_adaptive_sizing_prefers_in_sla_batches(self):
        # 100 queries at t=0; exec(b) = b ms; SLA 10 ms.  A full drain
        # (100 ms) saves nobody; goodput-greedy serves 10-sized batches
        # while they can still hit, then drains
        stream = _SteadyStream([0.0] * 100, duration_s=1.0)
        exec_ms = lambda b: float(b)
        greedy = serve_stream(
            exec_ms, stream,
            policy=ContinuousBatching(max_batch=100, sla_ms=10.0),
            sla_ms=10.0,
        )
        blind = serve_stream(
            exec_ms, stream,
            policy=ContinuousBatching(max_batch=100), sla_ms=10.0,
        )
        assert greedy.sla_hit_pct > blind.sla_hit_pct

    def test_simulate_serving_accepts_continuous_policy(self):
        report = simulate_serving(
            linear_model, qps=200, duration_s=2.0,
            policy=ContinuousBatching(max_batch=64, sla_ms=50.0),
        )
        assert report.n_queries == 400
        assert report.p50_ms > 0


class TestServeStream:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            serve_stream(lambda b: 1.0, _SteadyStream([], duration_s=1.0))

    def test_fixed_policy_matches_simulate_serving(self):
        rng = np.random.default_rng(3)
        qps, duration = 500, 2.0
        n = int(qps * duration)
        times = np.cumsum(rng.exponential(1.0 / qps, size=n))
        via_stream = serve_stream(
            linear_model,
            _SteadyStream(times, duration_s=duration),
            policy=BatchingPolicy(),
        )
        direct = simulate_serving(
            linear_model, qps=qps, duration_s=duration, seed=3,
        )
        assert via_stream.p99_ms == pytest.approx(direct.p99_ms)
        assert via_stream.mean_batch_size == pytest.approx(
            direct.mean_batch_size
        )

    def test_goodput_counts_only_in_sla_completions(self):
        stream = _SteadyStream([0.0, 0.0, 0.0, 0.0], duration_s=2.0)
        # batch of 4 takes 40 ms; SLA 50 -> all good, SLA 30 -> none
        loose = serve_stream(
            lambda b: 10.0 * b, stream,
            policy=ContinuousBatching(), sla_ms=50.0,
        )
        tight = serve_stream(
            lambda b: 10.0 * b, stream,
            policy=ContinuousBatching(), sla_ms=30.0,
        )
        assert loose.goodput_qps == pytest.approx(4 / 2.0)
        assert tight.goodput_qps == pytest.approx(0.0)
        assert tight.sla_hit_pct == pytest.approx(0.0)

    def test_phase_stats_partition_queries(self):
        stream = _SteadyStream(
            [0.0, 0.5, 1.0, 1.5],
            phase_ids=[0, 0, 1, 1],
            phases=("a", "b"),
            phase_durations=(1.0, 1.0),
            duration_s=2.0,
        )
        report = serve_stream(
            lambda b: 1.0, stream, policy=ContinuousBatching(),
            sla_ms=5.0,
        )
        assert [p.phase for p in report.phases] == ["a", "b"]
        assert all(p.n_queries == 2 for p in report.phases)
        assert report.offered_qps == pytest.approx(2.0)


def _flat(batch):
    return 1.0


_FLEET = FleetSpec.homogeneous(A100_SXM4_80GB, 2)
#: every stream entry point, single-GPU and routed, solo and per tenant
_STREAM_ENTRY_POINTS = {
    "serve_stream": lambda stream: serve_stream(_flat, stream),
    "simulate_fleet_stream": lambda stream: simulate_fleet_stream(
        _FLEET, {A100_SXM4_80GB.name: _flat}, stream
    ),
    "serve_tenant_streams": lambda stream: serve_tenant_streams(
        {"t": _flat}, {"t": stream}
    ),
    "simulate_fleet_tenant_streams":
        lambda stream: simulate_fleet_tenant_streams(
            _FLEET, {"t": {A100_SXM4_80GB.name: _flat}}, {"t": stream}
        ),
}


@pytest.mark.parametrize("serve", list(_STREAM_ENTRY_POINTS.values()),
                         ids=list(_STREAM_ENTRY_POINTS))
class TestStreamValidation:
    """Bad arrival streams are rejected at every stream entry point."""

    def test_unsorted_times_rejected(self, serve):
        with pytest.raises(ValueError, match="not time-sorted"):
            serve(_SteadyStream([0.0, 0.2, 0.1], duration_s=1.0))

    def test_non_finite_times_rejected(self, serve):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                serve(_SteadyStream([0.0, 0.1, bad], duration_s=1.0))

    def test_out_of_range_phase_ids_rejected(self, serve):
        for bad in (-1, 2):
            stream = _SteadyStream(
                [0.0, 0.1], phase_ids=[0, bad], phases=("a", "b"),
                phase_durations=(0.5, 0.5), duration_s=1.0,
            )
            with pytest.raises(ValueError, match="phase ids outside"):
                serve(stream)

    def test_non_positive_duration_rejected(self, serve):
        with pytest.raises(ValueError, match="positive duration_s"):
            serve(_SteadyStream([0.0, 0.1], duration_s=0.0))


#: curves no entry point may accept, by what is wrong with them
_BAD_CURVES = {
    "nan": lambda b: np.nan,
    "inf": lambda b: np.inf,
    "negative": lambda b: -1.0,
    "zero": lambda b: 0.0,
    "decreasing": lambda b: 100.0 - 0.01 * b,
}
_POLICY = BatchingPolicy(max_batch=64, timeout_ms=2.0)
_FLEET_64 = FleetSpec.homogeneous(A100_SXM4_80GB, 2, batching=_POLICY)
_STREAM = _SteadyStream([0.0, 0.001, 0.002], duration_s=1.0)
#: every curve entry point, fed one curve under a max_batch=64 batcher
_CURVE_ENTRY_POINTS = {
    "serve_stream": lambda curve: serve_stream(
        curve, _STREAM, policy=_POLICY),
    "simulate_serving": lambda curve: simulate_serving(
        curve, qps=100, duration_s=0.1, policy=_POLICY),
    "simulate_fleet_stream": lambda curve: simulate_fleet_stream(
        _FLEET_64, {A100_SXM4_80GB.name: curve}, _STREAM),
    "simulate_fleet": lambda curve: simulate_fleet(
        _FLEET_64, {A100_SXM4_80GB.name: curve}, qps=100, duration_s=0.1),
}


@pytest.mark.parametrize("enter", list(_CURVE_ENTRY_POINTS.values()),
                         ids=list(_CURVE_ENTRY_POINTS))
class TestCurveValidation:
    """Bad latency curves are rejected at every entry point."""

    @pytest.mark.parametrize("bad", list(_BAD_CURVES))
    def test_bad_curve_rejected(self, enter, bad):
        with pytest.raises(ValueError, match="latency curve"):
            enter(_BAD_CURVES[bad])

    def test_curve_shorter_than_max_batch_rejected(self, enter):
        short = LatencyCurve([1.0] * 63)
        with pytest.raises(ValueError, match="fewer than max_batch=64"):
            enter(short)


class TestSlaValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_stream_entry_points_reject_bad_sla(self, bad):
        with pytest.raises(ValueError, match="sla_ms"):
            serve_stream(linear_model, _STREAM, policy=_POLICY, sla_ms=bad)
        with pytest.raises(ValueError, match="sla_ms"):
            simulate_fleet_stream(
                _FLEET_64, {A100_SXM4_80GB.name: linear_model}, _STREAM,
                sla_ms=bad,
            )
