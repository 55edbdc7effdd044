"""End-to-end tiered serving: kernel stage, oversized fleets, drift.

The acceptance path of the memstore refactor:

* the kernel/stage layer composes host-fetch time with the (memoized)
  kernel simulation;
* a fleet whose embedding bytes exceed aggregate HBM *places* (no
  error), and the tiered placement feeds the routed fleet simulator to
  an end-to-end p99/goodput report;
* under the drift scenario the reported hit rate decays phase by phase
  and recovers after a cache refresh.
"""

import dataclasses

import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.config.model import PAPER_MODEL
from repro.config.scale import TEST_SCALE
from repro.core.embedding import kernel_workload, run_embedding_stage, \
    run_table_kernel
from repro.core.schemes import BASE, OPTMT
from repro.core.serving import ContinuousBatching, LatencyCurve
from repro.datasets.spec import HOTNESS_PRESETS
from repro.fleet import (
    FleetSpec,
    place_tables_tiered,
    simulate_fleet,
    tiered_fleet_models,
)
from repro.memstore import HostLink, store_for_spec
from repro.traffic import (
    DriftSpec,
    StationarySpec,
    memstore_drift_profile,
    simulate_scenario_serving,
)


@pytest.fixture(scope="module")
def workload():
    return kernel_workload(A100_SXM4_80GB, scale=TEST_SCALE)


def _store(workload, fraction, dataset="med_hot", policy="static_hot"):
    return store_for_spec(
        HOTNESS_PRESETS[dataset],
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        row_bytes=workload.row_bytes,
        hbm_fraction=fraction,
        link=HostLink.pcie(workload.gpu),
        policy=policy,
        seed=0,
    )


class TestTieredKernelStage:
    def test_miss_dependent_latency_composes(self, workload):
        spec = HOTNESS_PRESETS["med_hot"]
        resident = run_table_kernel(
            workload, spec, BASE, store=_store(workload, 1.0)
        )
        tiered = run_table_kernel(
            workload, spec, BASE, store=_store(workload, 0.05)
        )
        # identical kernel (same trace, same scheme) — only the tier
        # differs, and only through the host-fetch composition
        assert tiered.kernel_time_us == resident.kernel_time_us
        assert resident.host_fetch_us == 0.0
        assert resident.total_time_us == resident.kernel_time_us
        assert tiered.host_fetch_us > 0.0
        assert tiered.total_time_us == pytest.approx(
            tiered.kernel_time_us + tiered.host_fetch_us
        )
        assert 0.0 < tiered.tier_stats.hit_rate < 1.0

    def test_untiered_result_unchanged(self, workload):
        result = run_table_kernel(workload, HOTNESS_PRESETS["med_hot"], BASE)
        assert result.tier_stats is None
        assert result.host_fetch_us == 0.0
        assert result.total_time_us == result.kernel_time_us

    def test_stage_threads_stores(self, workload):
        mix = {"med_hot": 3, "random": 2}
        stores = {
            name: _store(workload, 0.05, dataset=name) for name in mix
        }
        plain = run_embedding_stage(workload, mix, BASE)
        tiered = run_embedding_stage(workload, mix, BASE, stores=stores)
        assert plain.hit_rate is None and plain.host_fetch_us == 0.0
        assert 0.0 < tiered.hit_rate < 1.0
        assert tiered.host_fetch_us > 0.0
        assert tiered.total_time_us == pytest.approx(
            plain.total_time_us + tiered.host_fetch_us
        )


class TestOversizedFleet:
    # 600 x 256 MB = ~154 GB of tables against one 80 GB A100: well
    # past aggregate HBM, must place (split) instead of failing.
    MIX = {"med_hot": 400, "random": 200}

    @pytest.fixture(scope="class")
    def placement(self):
        return place_tables_tiered(
            self.MIX, OPTMT, [A100_SXM4_80GB], num_sms=2, seed=0,
        )

    def test_oversized_model_places(self, placement):
        assert not placement.fits_in_hbm
        shard = placement.shards[0]
        assert len(shard.tables) == sum(self.MIX.values())
        assert 0.0 < shard.hbm_fraction < 1.0
        assert shard.host_bytes > 0
        assert shard.resident_bytes <= \
            A100_SXM4_80GB.hbm_bytes * placement.hbm_utilization
        assert shard.host_us > 0.0
        assert placement.critical_path_us > shard.compute_us
        # slicing keeps per-batch time invariant, so the per-query
        # penalty normalizes by the FULL model batch, not the slice's
        assert shard.host_us_per_query == pytest.approx(
            shard.host_us / PAPER_MODEL.batch_size
        )

    def test_end_to_end_p99_and_goodput(self, placement):
        fleet = FleetSpec.homogeneous(A100_SXM4_80GB, 1, scheme=OPTMT)
        base = {A100_SXM4_80GB.name: lambda batch: 10.0 + 0.01 * batch}
        models = tiered_fleet_models(base, placement)
        # the host penalty is in the curve the router sees
        assert models[A100_SXM4_80GB.name](64) > base[
            A100_SXM4_80GB.name](64)
        report = simulate_fleet(
            fleet, models, qps=50, duration_s=2.0, seed=0,
        )
        assert report.n_queries > 0
        assert report.p99_ms > 0.0

    def test_fitting_fleet_fully_resident(self):
        placement = place_tables_tiered(
            {"med_hot": 2}, OPTMT, [A100_SXM4_80GB], num_sms=2, seed=0,
        )
        assert placement.fits_in_hbm
        shard = placement.shards[0]
        assert shard.hbm_fraction == 1.0
        assert shard.host_us == 0.0 and shard.host_bytes == 0

    def test_hbm_utilization_validated(self):
        with pytest.raises(ValueError, match="hbm_utilization"):
            place_tables_tiered(
                {"med_hot": 1}, OPTMT, [A100_SXM4_80GB],
                hbm_utilization=0.0,
            )

    def test_empty_mix_rejected(self):
        for mix in ({}, {"med_hot": 0}):
            with pytest.raises(ValueError, match="mix is empty"):
                place_tables_tiered(mix, OPTMT, [A100_SXM4_80GB])

    def test_missing_latency_model_raises(self, placement):
        with pytest.raises(KeyError, match="no latency model"):
            tiered_fleet_models({"H100-NVL": lambda b: 1.0}, placement)


class TestDriftHitRate:
    SPEC = DriftSpec(n_phases=4, drift_per_phase=0.3, duration_s=4.0)

    @pytest.fixture(scope="class")
    def profiles(self):
        kwargs = dict(hbm_fraction=0.05, num_sms=2, seed=0)
        return (
            memstore_drift_profile(self.SPEC, **kwargs),
            memstore_drift_profile(self.SPEC, refresh_every=2, **kwargs),
        )

    def test_hit_rate_decays_without_refresh(self, profiles):
        pin_once, _ = profiles
        rates = pin_once.hit_rates
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert not any(pin_once.refreshed)
        # decay is mirrored by growing latency factors
        assert pin_once.factors[0] == 1.0
        assert pin_once.factors[-1] > 1.05

    def test_refresh_recovers_hit_rate(self, profiles):
        pin_once, refreshed = profiles
        assert refreshed.refreshed == (False, False, True, False)
        # identical until the refresh fires...
        assert refreshed.hit_rates[:2] == pin_once.hit_rates[:2]
        # ...then the re-warmed cache recovers hit rate and latency
        for phase in (2, 3):
            assert refreshed.hit_rates[phase] > pin_once.hit_rates[phase]
            assert refreshed.factors[phase] < pin_once.factors[phase]

    def test_hit_rates_thread_into_stream_report(self, profiles):
        pin_once, _ = profiles
        report = simulate_scenario_serving(
            self.SPEC,
            [lambda b, f=f: (1.0 + 0.01 * b) * f for f in pin_once.factors],
            policy=ContinuousBatching(max_batch=256),
            sla_ms=30.0,
            seed=0,
            phase_hit_rates=pin_once.hit_rates,
        )
        assert report.hit_rate == pytest.approx(
            sum(
                p.n_queries * p.hit_rate for p in report.phases
            ) / report.n_queries
        )
        by_phase = [p.hit_rate for p in report.phases]
        assert by_phase == list(pin_once.hit_rates[:len(by_phase)])
        # serializes cleanly (golden snapshots rely on this)
        dataclasses.asdict(report)


def test_plus_per_query_adds_host_cost():
    base = LatencyCurve.tabulate(lambda batch: 5.0 + 0.02 * batch)
    assert base.plus_per_query(0.0).ms == base.ms
    tiered = base.plus_per_query(50.0)
    assert tiered(100) == pytest.approx(base(100) + 5.0)
    # the same IEEE operations the per-batch wrapper used to perform
    assert tiered(100) == base(100) + 50.0 * 100 / 1e3
    with pytest.raises(ValueError, match=">= 0"):
        base.plus_per_query(-1.0)


def test_poisson_scenario_with_hit_rates():
    spec = StationarySpec(base_qps=500, duration_s=2.0)
    report = simulate_scenario_serving(
        spec, lambda b: 2.0 + 0.01 * b, seed=1, phase_hit_rates=(0.9,),
    )
    assert report.hit_rate == pytest.approx(0.9)
    assert report.phases[0].hit_rate == pytest.approx(0.9)
