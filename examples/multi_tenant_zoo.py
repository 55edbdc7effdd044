"""Multi-tenant model-zoo serving: GPU sharing, HBM arbitration, SLAs.

Production fleets co-locate many recommendation models per device.
This example builds a three-variant model zoo (distinct table sizes,
pooling factors and hotness), then shows:

1. HBM arbitration: a pressured budget waterfilled across the tenants'
   embedding caches on marginal hit rate, floors honoured exactly;
2. MPS-style interference: per-tenant contention factors calibrated
   from each variant's solo SM/HBM demand, and the consolidation
   trade — aggregate goodput up, per-tenant p99 eroded;
3. zoo placement across a heterogeneous A100+H100 fleet and the
   per-tenant fleet reports that come back.

Run:  python examples/multi_tenant_zoo.py
"""

from repro import A100_SXM4_80GB, H100_NVL, arbitrate, example_zoo
from repro.fleet import FleetSpec, place_zoo
from repro.memstore import HostLink
from repro.tenancy import (
    ZooSpec,
    calibrate_zoo,
    simulate_zoo_fleet,
    simulate_zoo_serving,
    zoo_effective_times,
    zoo_hit_curves,
)

SEED = 0
zoo = example_zoo(3, base_qps=4000.0, duration_s=4.0, sla_ms=40.0)
print(f"Model zoo: {zoo.describe()}")
for tenant in zoo.tenants:
    print(f"  {tenant.name:10s} {tenant.model.num_tables:3d} tables x "
          f"{tenant.model.table.rows:,} rows, pooling "
          f"{tenant.model.pooling_factor}, SLA {tenant.sla_ms:g} ms")

# ---------------------------------------------------------------------
# (1) HBM arbitration under pressure
# ---------------------------------------------------------------------
print("\nCalibrating per-tenant kernels and cache curves (2-SM slice)...")
calibrations = calibrate_zoo(
    zoo, (A100_SXM4_80GB, H100_NVL), num_sms=2, seed=SEED,
)
curves = zoo_hit_curves(zoo, num_sms=2, seed=SEED)
budget = sum(c.table_bytes for c in curves.values()) // 20  # 5% of zoo
grant = arbitrate(budget, curves)
print(f"\nWaterfilling {budget / 1e6:.0f} MB of HBM across the zoo "
      "(marginal hit rate per byte):\n")
for name, g in grant.grants.items():
    print(f"  {name:10s} {g.granted_bytes / 1e6:7.1f} MB "
          f"({g.granted_rows:,} rows/table, floor {g.floor_rows:,}) "
          f"-> hit rate {g.hit_rate:.3f}")
print(f"  leftover {grant.leftover_bytes / 1e6:.1f} MB "
      "(budget conserved exactly)")

# ---------------------------------------------------------------------
# (2) consolidation on one A100: goodput up, p99 eroded
# ---------------------------------------------------------------------
gpu_cal = calibrations[A100_SXM4_80GB.name]
link = HostLink.pcie(A100_SXM4_80GB)
models = {
    name: gpu_cal[name].latency_ms.plus_per_query(
        curves[name].host_us_per_query(grant.grant(name).granted_rows, link)
    )
    for name in zoo.tenant_names
}
demands = {name: gpu_cal[name].demand for name in zoo.tenant_names}
print("\nOne A100, solo vs consolidated (MPS-style sharing):\n")
print(f"  {'tenant':10s} {'solo p99':>9s} {'zoo p99':>9s} "
      f"{'factor':>7s} {'goodput':>9s} {'SLA %':>6s}")
solo_total = 0.0
solo_p99 = {}
for name in zoo.tenant_names:
    alone = ZooSpec(name=f"solo-{name}",
                    tenants=(zoo.tenant(name),))
    solo = simulate_zoo_serving(
        alone, {name: models[name]},
        demands={name: demands[name]}, seed=SEED,
    )
    solo_total += solo.aggregate_goodput_qps
    solo_p99[name] = solo.tenant(name).p99_ms
consolidated = simulate_zoo_serving(
    zoo, models, demands=demands, seed=SEED,
)
for name in zoo.tenant_names:
    report = consolidated.tenant(name)
    print(f"  {name:10s} {solo_p99[name]:8.2f}  "
          f"{report.p99_ms:8.2f}  {consolidated.contention[name]:6.2f}  "
          f"{report.goodput_qps:8.0f}  {report.sla_hit_pct:5.1f}")
print(f"\n  sum of solo goodput {solo_total:8.0f} QPS on 3 GPUs"
      f"\n  consolidated        {consolidated.aggregate_goodput_qps:8.0f}"
      " QPS on 1 GPU — the consolidation trade in one line")

# ---------------------------------------------------------------------
# (3) zoo placement on a heterogeneous fleet
# ---------------------------------------------------------------------
fleet = FleetSpec.mixed({A100_SXM4_80GB: 1, H100_NVL: 1}, name="a+h")
times = zoo_effective_times(
    zoo, [A100_SXM4_80GB, H100_NVL], num_sms=2, seed=SEED,
)
placement = place_zoo(
    times, zoo.tenant_names,
    [(r.name, r.gpu.name) for r in fleet.replicas],
)
print("\nPacking the zoo onto 1xA100 + 1xH100 by tiered effective "
      "time:\n")
for shard in placement.shards:
    tenants = ", ".join(shard.tenants) or "(idle)"
    print(f"  {shard.replica_name:18s} {tenants:24s} "
          f"{shard.effective_us / 1e3:6.2f} ms/batch")
fleet_models = {
    name: {g: calibrations[g][name].latency_ms.plus_per_query(
        curves[name].host_us_per_query(grant.grant(name).granted_rows, link)
    ) for g in calibrations}
    for name in zoo.tenant_names
}
zoo_fleet = simulate_zoo_fleet(
    zoo, fleet, fleet_models,
    assignments=placement.assignments, demands=demands, seed=SEED,
)
print("\nPer-tenant fleet reports (placed replicas only):\n")
for name, report in zoo_fleet.tenant_reports.items():
    print(f"  {name:10s} p99 {report.p99_ms:7.2f} ms, goodput "
          f"{report.goodput_qps:7.0f} QPS, SLA {report.sla_hit_pct:5.1f}%")
print(f"\n  fleet aggregate goodput {zoo_fleet.aggregate_goodput_qps:.0f} "
      f"QPS, attainment {zoo_fleet.sla_attainment_pct:.1f}%")
