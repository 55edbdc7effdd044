"""Golden-regression snapshots of the kernel, serving and fleet simulators.

The warp engine, the serving engine and the routed fleet simulator are
deterministic under a fixed seed, so their results can be pinned as
small JSON summaries.  Any change to warp scheduling, the memory
hierarchy, the event loop, batch sizing, routing, or percentile math
shows up here as a diff — deliberate behaviour changes regenerate the
snapshots with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_regression.py -q

and commit the updated ``tests/golden/*.json``.  Comparison is at
relative tolerance 1e-9: tight enough to catch any real behaviour
change, loose enough to survive benign float-library drift.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    LatencyCurve,
    simulate_serving,
)
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.fleet import FleetSpec, simulate_fleet
from repro.memstore import HostLink, store_for_spec
from repro.tenancy import (
    ShareDemand,
    arbitrate,
    example_zoo,
    simulate_zoo_serving,
    zoo_hit_curves,
)
from repro.traffic import (
    StationarySpec,
    scenario_profile,
    simulate_fleet_scenario,
    simulate_scenario_serving,
)
from tests.gpusim.lineup import (
    DATASETS,
    PINNED_SCHEME,
    SCHEMES,
    launch,
    lineup_traces,
    lineup_workload,
    pinned_hot_rows,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


def _toy_model(batch: int) -> float:
    return 10.0 + 0.01 * batch


def _fast_toy_model(batch: int) -> float:
    return 6.0 + 0.006 * batch


def _kernels_summary() -> dict:
    """Absolute kernel counters for the curated scheme lineup.

    ``RawKernelStats`` plus the memory-hierarchy counters of every
    scheme on both datasets and of the L2-pinned variant.  The
    differential tests only pin the launch path to the generator
    oracle; both could drift together, and this snapshot would not.
    """
    workload = lineup_workload()
    traces = lineup_traces(workload)
    cases = [
        (scheme, dataset, None) for scheme in SCHEMES for dataset in DATASETS
    ]
    cases.append((PINNED_SCHEME, "med_hot", pinned_hot_rows(workload)))
    summary = {}
    for scheme, dataset, hot_rows in cases:
        name = f"{scheme.name}/{dataset}"
        stats, hierarchy = launch(
            workload, scheme, traces[dataset], hot_rows=hot_rows, name=name,
        )
        summary[name] = {"stats": stats, "hierarchy": hierarchy}
    return summary


def _serving_summary() -> dict:
    fixed = simulate_serving(
        _toy_model, qps=800, duration_s=5.0, seed=42,
        policy=BatchingPolicy(max_batch=256, timeout_ms=5.0),
    )
    continuous = simulate_serving(
        _toy_model, qps=800, duration_s=5.0, seed=42,
        policy=ContinuousBatching(max_batch=256, sla_ms=30.0),
    )
    flash = simulate_scenario_serving(
        scenario_profile("flash", base_qps=2500, duration_s=6.0),
        _toy_model,
        policy=ContinuousBatching(max_batch=256, sla_ms=30.0),
        sla_ms=30.0,
        seed=7,
    )
    return {
        "fixed": dataclasses.asdict(fixed),
        "continuous": dataclasses.asdict(continuous),
        "flash_continuous": dataclasses.asdict(flash),
    }


def _fleet_summary() -> dict:
    fleet = FleetSpec.mixed(
        {A100_SXM4_80GB: 1, H100_NVL: 1}, name="golden-fleet"
    )
    models = {
        A100_SXM4_80GB.name: _toy_model,
        H100_NVL.name: _fast_toy_model,
    }
    poisson = simulate_fleet(
        fleet, models, qps=3000, duration_s=3.0, policy="jsq", seed=7,
    )
    burst = simulate_fleet_scenario(
        fleet, models,
        scenario_profile("mmpp", base_qps=2000, duration_s=5.0),
        policy="least-latency", sla_ms=40.0, seed=7,
    )

    def fleet_dict(report):
        data = dataclasses.asdict(report)
        data["routed_fractions"] = report.routed_fractions
        data["utilization_balance"] = report.utilization_balance
        return data

    return {"poisson_jsq": fleet_dict(poisson),
            "mmpp_least_latency": fleet_dict(burst)}


def _memstore_summary() -> dict:
    """One end-to-end tiered serving run, pinned tier by tier.

    A med_hot table behind a small static-hot HBM cache: the tier
    accounting (hits/fetches/host time) and the serving report it
    produces (host penalty in the latency curve, hit rate threaded into
    the phases) are both snapshot.
    """
    batch, pooling, rows = 64, 20, 4096
    store = store_for_spec(
        HOTNESS_PRESETS["med_hot"],
        batch_size=batch,
        pooling_factor=pooling,
        table_rows=rows,
        row_bytes=512,
        hbm_fraction=0.05,
        link=HostLink("pcie", 25.0, 10.0),
        seed=11,
    )
    trace = generate_trace(
        HOTNESS_PRESETS["med_hot"],
        batch_size=batch, pooling_factor=pooling, table_rows=rows, seed=11,
    )
    tier = store.lookup(trace)
    host_us_per_query = tier.host_fetch_us / batch
    tiered_model = LatencyCurve.tabulate(_toy_model).plus_per_query(
        host_us_per_query
    )

    report = simulate_scenario_serving(
        StationarySpec(base_qps=600, duration_s=5.0),
        tiered_model,
        policy=ContinuousBatching(max_batch=256, sla_ms=40.0),
        sla_ms=40.0,
        seed=11,
        phase_hit_rates=(tier.hit_rate,),
    )
    return {
        "tier_stats": dataclasses.asdict(tier),
        "host_us_per_query": host_us_per_query,
        "report": dataclasses.asdict(report),
    }


def _tenancy_summary() -> dict:
    """A 3-tenant zoo end to end, pinned tenant by tenant.

    Arbitration (grants, hit rates, exact conservation) runs on the
    real per-tenant cache curves at the 2-SM scale; serving runs the
    two-pass interference model over toy latency curves with fixed
    demands, so the snapshot pins the zoo layer itself — contention
    factors, per-tenant p99/goodput/SLA attainment, threaded hit
    rates — without dragging the kernel simulator in.
    """
    zoo = example_zoo(
        3, base_qps=900.0, duration_s=4.0, sla_ms=45.0,
        hbm_floor_fraction=0.01,
    )
    curves = zoo_hit_curves(zoo, num_sms=2, seed=13)
    budget = sum(c.table_bytes for c in curves.values()) // 20
    grant = arbitrate(budget, curves)

    link = HostLink("pcie", 25.0, 10.0)
    base = {"med_hot": _toy_model, "high_hot": _fast_toy_model,
            "low_hot": _toy_model}
    models = {
        name: LatencyCurve.tabulate(base[name]).plus_per_query(
            curves[name].host_us_per_query(
                grant.grant(name).granted_rows, link
            )
        )
        for name in zoo.tenant_names
    }
    demands = {
        "med_hot": ShareDemand(0.6, 0.3),
        "high_hot": ShareDemand(0.9, 0.1),
        "low_hot": ShareDemand(0.5, 0.4),
    }
    report = simulate_zoo_serving(
        zoo, models, demands=demands,
        phase_hit_rates={
            name: (grant.grant(name).hit_rate,)
            for name in zoo.tenant_names
        },
        seed=13,
    )
    return {
        "budget_bytes": grant.budget_bytes,
        "leftover_bytes": grant.leftover_bytes,
        "grants": {
            name: dataclasses.asdict(g)
            for name, g in grant.grants.items()
        },
        "report": dataclasses.asdict(report),
    }


def _assert_matches(actual, golden, path=""):
    if isinstance(golden, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(golden), (
            f"{path}: keys {sorted(actual)} != {sorted(golden)}"
        )
        for key in golden:
            _assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), path
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_matches(a, g, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=1e-9, abs=1e-12), (
            f"{path}: {actual} != {golden}"
        )
    else:
        assert actual == golden, f"{path}: {actual!r} != {golden!r}"


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tuples_to_lists(v) for v in obj]
    return obj


_KERNELS_DRIFT_NOTE = (
    "kernel counters drifted; a deliberate engine, hierarchy or "
    "lowering semantics change must regenerate tests/golden/kernels.json "
    "and also bump MEMO_SCHEMA_VERSION in repro/gpusim/memo.py, or "
    "disk-memoized timings go stale"
)


@pytest.mark.parametrize("name, build", [
    ("kernels", _kernels_summary),
    ("serving", _serving_summary),
    ("fleet", _fleet_summary),
    ("memstore", _memstore_summary),
    ("tenancy", _tenancy_summary),
])
def test_golden_snapshot(name, build):
    golden_path = GOLDEN_DIR / f"{name}.json"
    summary = _tuples_to_lists(build())
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(summary, indent=2) + "\n")
        pytest.skip(f"regenerated {golden_path}")
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; run with "
        "REPRO_REGEN_GOLDEN=1 to create it"
    )
    golden = json.loads(golden_path.read_text())
    try:
        _assert_matches(summary, golden)
    except AssertionError as err:
        if name != "kernels":
            raise
        raise AssertionError(f"{err}\n{_KERNELS_DRIFT_NOTE}") from None
