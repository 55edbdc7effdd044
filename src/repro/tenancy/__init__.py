"""Multi-tenant model-zoo serving: GPU sharing, HBM arbitration, SLAs.

The paper's envelope assumes one DLRM owning the whole GPU; production
fleets co-locate a *zoo* of recommendation models per device.  This
package models that regime end to end:

* :mod:`~repro.tenancy.zoo` — who shares the fleet: per-tenant model
  variant, traffic scenario, SLA, and HBM floor.
* :mod:`~repro.tenancy.share` — MPS-style concurrent execution: a
  calibrated interference function turns co-runners' SM/HBM demand
  into per-tenant effective latency (exactly 1.0 solo, monotone in
  co-runner load), plus the zoo serving orchestrators.
* :mod:`~repro.tenancy.arbiter` — one GPU's HBM budget waterfilled
  across tenants' embedding caches on marginal hit rate, with exact
  byte conservation, contractual floors, and drift re-arbitration.
"""

from repro.tenancy.arbiter import (
    TenantGrant,
    TenantHitCurve,
    ZooGrant,
    arbitrate,
    rearbitrate_on_drift,
    stores_for_grants,
    tenant_hit_curve,
    zoo_hit_curves,
)
from repro.tenancy.share import (
    ShareDemand,
    TenantCalibration,
    ZooFleetReport,
    ZooReport,
    calibrate_tenant,
    calibrate_zoo,
    contention_factor,
    simulate_zoo_fleet,
    simulate_zoo_serving,
    zoo_contention,
    zoo_effective_times,
)
from repro.tenancy.zoo import TenantSpec, ZooSpec, example_zoo

__all__ = [
    "ShareDemand",
    "TenantCalibration",
    "TenantGrant",
    "TenantHitCurve",
    "TenantSpec",
    "ZooFleetReport",
    "ZooGrant",
    "ZooReport",
    "ZooSpec",
    "arbitrate",
    "calibrate_tenant",
    "calibrate_zoo",
    "contention_factor",
    "example_zoo",
    "rearbitrate_on_drift",
    "simulate_zoo_fleet",
    "simulate_zoo_serving",
    "stores_for_grants",
    "tenant_hit_curve",
    "zoo_contention",
    "zoo_effective_times",
    "zoo_hit_curves",
]
