"""Non-stationary traffic scenarios and their serving entry points.

Describe a traffic shape declaratively (:class:`DiurnalSpec`,
:class:`FlashCrowdSpec`, :class:`MMPPSpec`, :class:`DriftSpec`, or the
:func:`scenario_profile` presets), sample a seeded bit-reproducible
arrival stream from it, and play it against the continuous-batching
single-GPU server or the routed fleet simulator.
"""

from repro.traffic.scenario import (
    SCENARIO_PROFILES,
    Arrival,
    DiurnalSpec,
    DriftSpec,
    FlashCrowdSpec,
    MMPPSpec,
    ScenarioSpec,
    ScenarioTrace,
    StationarySpec,
    derive_seed,
    generate_arrivals,
    iter_arrivals,
    scenario_profile,
)
from repro.traffic.serve import (
    MemstoreDriftProfile,
    drift_phase_factors,
    memstore_drift_profile,
    simulate_fleet_scenario,
    simulate_scenario_serving,
)

__all__ = [
    "SCENARIO_PROFILES",
    "Arrival",
    "DiurnalSpec",
    "DriftSpec",
    "FlashCrowdSpec",
    "MMPPSpec",
    "MemstoreDriftProfile",
    "ScenarioSpec",
    "ScenarioTrace",
    "StationarySpec",
    "derive_seed",
    "drift_phase_factors",
    "generate_arrivals",
    "iter_arrivals",
    "memstore_drift_profile",
    "scenario_profile",
    "simulate_fleet_scenario",
    "simulate_scenario_serving",
]
