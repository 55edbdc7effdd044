"""Unit tests for the interference model and zoo serving orchestration."""

import pytest

from repro.core.serving import LatencyCurve

from repro.config.gpu import A100_SXM4_80GB
from repro.tenancy import (
    ShareDemand,
    TenantSpec,
    ZooSpec,
    calibrate_tenant,
    contention_factor,
    simulate_zoo_serving,
    zoo_contention,
)
from repro.tenancy.share import zoo_effective_times
from repro.tenancy.zoo import example_zoo
from repro.traffic.scenario import StationarySpec


def _toy(batch: int) -> float:
    return 10.0 + 0.01 * batch


def test_share_demand_validation():
    with pytest.raises(ValueError, match="sm_fraction"):
        ShareDemand(sm_fraction=1.2, hbm_fraction=0.5)
    with pytest.raises(ValueError, match="hbm_fraction"):
        ShareDemand(sm_fraction=0.5, hbm_fraction=-0.1)


def test_contention_factor_oversubscription():
    own = ShareDemand(0.6, 0.2)
    # SM is the binding resource: 0.6 + 0.8*0.75 = 1.2
    co = [(ShareDemand(0.8, 0.1), 0.75)]
    assert contention_factor(own, co) == pytest.approx(1.2)
    # HBM binds instead when the co-runner is bandwidth-hungry
    co = [(ShareDemand(0.1, 1.0), 1.0)]
    assert contention_factor(own, co) == pytest.approx(1.2)
    with pytest.raises(ValueError, match="load"):
        contention_factor(own, [(own, 1.5)])


def test_zoo_contention_requires_loads():
    demands = {"a": ShareDemand(0.5, 0.5), "b": ShareDemand(0.5, 0.5)}
    with pytest.raises(KeyError, match="no load"):
        zoo_contention(demands, {"a": 0.5})
    factors = zoo_contention(demands, {"a": 1.0, "b": 0.0})
    # b is idle, so a sees no one; a is busy, so b pays for a
    assert factors["a"] == 1.0
    assert factors["b"] == pytest.approx(1.0)  # 0.5 + 0.5*1.0


def test_scaled_curve_identity_and_scaling():
    solo = LatencyCurve.tabulate(_toy)
    # a factor of exactly 1.0 keeps every entry bit for bit
    assert solo.scaled(1.0).ms == solo.ms
    scaled = solo.scaled(1.5)
    assert scaled(100) == _toy(100) * 1.5
    with pytest.raises(ValueError, match="batch 1"):
        solo.scaled(-1.0)


def test_simulate_zoo_serving_requires_all_models():
    zoo = example_zoo(2, base_qps=300.0, duration_s=2.0)
    with pytest.raises(KeyError, match="no latency model"):
        simulate_zoo_serving(zoo, {zoo.tenant_names[0]: _toy})


def test_consolidation_erodes_tails_not_correctness():
    """Co-residency must slow tenants down, never lose their queries."""
    zoo = example_zoo(3, base_qps=2000.0, duration_s=2.0, sla_ms=50.0)
    models = {name: _toy for name in zoo.tenant_names}
    solo_p99 = {}
    for tenant in zoo.tenants:
        alone = ZooSpec(name=f"s-{tenant.name}", tenants=(tenant,))
        report = simulate_zoo_serving(
            alone, {tenant.name: _toy}, seed=5,
        )
        solo_p99[tenant.name] = report.tenant(tenant.name).p99_ms
    shared = simulate_zoo_serving(zoo, models, seed=5)
    for name in zoo.tenant_names:
        report = shared.tenant(name)
        assert shared.contention[name] >= 1.0
        assert report.p99_ms >= solo_p99[name]
        # same stream, every query still served
        assert report.n_queries == zoo.tenant(name).stream(5).n_arrivals
    assert shared.n_tenants == 3
    with pytest.raises(KeyError, match="known"):
        shared.tenant("stranger")


def test_calibrate_tenant_demand_is_a_valid_fraction():
    tenant = TenantSpec(
        name="cal", scenario=StationarySpec(base_qps=100, duration_s=1.0)
    )
    cal = calibrate_tenant(tenant, A100_SXM4_80GB, num_sms=2, seed=0)
    assert 0.0 <= cal.demand.sm_fraction <= 1.0
    assert 0.0 <= cal.demand.hbm_fraction <= 1.0
    assert cal.embedding_stage_us > 0
    # the curve is usable and increasing in batch
    assert cal.latency_ms(2048) > cal.latency_ms(1) > 0


def test_zoo_effective_times_cover_every_tenant_and_gpu():
    zoo = example_zoo(2, base_qps=100.0, duration_s=1.0)
    times = zoo_effective_times(zoo, [A100_SXM4_80GB], num_sms=2, seed=0)
    assert set(times) == {A100_SXM4_80GB.name}
    assert set(times[A100_SXM4_80GB.name]) == set(zoo.tenant_names)
    assert all(t > 0 for t in times[A100_SXM4_80GB.name].values())
