"""SLA-aware query routing over a heterogeneous replica fleet.

One query stream hits a router that assigns each query to a replica at
arrival time.  Every replica batches its routed queries with the
single-GPU batch decision of :mod:`repro.core.serving` — size-or-timeout
(:class:`~repro.core.serving.BatchingPolicy`) or continuous, optionally
SLA-adaptive (:class:`~repro.core.serving.ContinuousBatching`) — and
executes batches back to back on its GPU, whose batch latency comes
from a per-replica calibrated model.  This composes the single-GPU
serving simulation into the cluster-scale setting the paper's SLA
framing targets (DeepRecSys-style serving studies).

Routing policies are pluggable.  ``round-robin`` is the oblivious
baseline; ``jsq`` (join-shortest-queue) and ``power-of-two`` use queue
state; ``least-latency`` additionally weighs each replica's speed, which
is what makes heterogeneous fleets (A100 next to H100) behave: an
oblivious router feeds the slow replicas the same load as the fast ones
and their tail blows up first.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.serving import (
    CurveLike,
    LatencyCurve,
    _next_batch,
    _stream_entry,
    poisson_arrivals,
    resolve_curve,
)
from repro.fleet.report import (
    FleetReport,
    fold_fleet_report,
)
from repro.fleet.topology import FleetSpec, ReplicaSpec
from repro.telemetry.events import ArrivalBlock, BatchBlock, FleetRun
from repro.telemetry.sinks import Sink, emit_run


class _ReplicaState:
    """Mutable simulation state of one replica: routed arrivals, GPU
    timeline, and the planned next batch."""

    __slots__ = (
        "spec", "curve", "times", "phase_ids", "n", "head",
        "gpu_free", "next_start", "next_size",
        "batch_starts", "batch_exec", "batch_sizes",
    )

    def __init__(self, spec: ReplicaSpec, curve: LatencyCurve) -> None:
        self.spec = spec
        self.curve = curve
        # routed arrivals in arrival order, which FIFO batching keeps as
        # batch order: ``times[head:n]`` still wait, the rest are served
        self.times = np.empty(64)
        self.phase_ids = np.empty(64, dtype=np.int64)
        self.n = 0
        self.head = 0
        self.gpu_free = 0.0
        self.next_start = math.inf
        self.next_size = 0
        # per-batch columns in dispatch order — with the served arrivals,
        # everything the report fold (and the telemetry BatchBlock) needs
        self.batch_starts: list[float] = []
        self.batch_exec: list[float] = []
        self.batch_sizes: list[int] = []

    # -- event mechanics ------------------------------------------------
    def _plan(self) -> None:
        """Re-plan the next batch from the arrivals routed so far."""
        if self.head == self.n:
            self.next_start = math.inf
            return
        start, self.next_size = _next_batch(
            self.times[:self.n], self.head, self.gpu_free,
            self.curve, self.spec.batching,
        )
        self.next_start = float(start)

    def advance(self, now: float) -> None:
        """Dispatch every planned batch that starts at or before ``now``
        (a batch due at ``now`` leaves before an arrival at ``now``
        joins)."""
        while self.next_start <= now and self.head < self.n:
            size = self.next_size
            exec_s = self.curve.ms[size] / 1e3
            self.gpu_free = self.next_start + exec_s
            self.batch_starts.append(self.next_start)
            self.batch_exec.append(exec_s)
            self.batch_sizes.append(size)
            self.head += size
            self._plan()

    def to_block(self, phases: tuple[str, ...] = ()) -> BatchBlock:
        """This replica's served batches as a telemetry column block."""
        return BatchBlock(
            starts=np.asarray(self.batch_starts, dtype=float),
            exec_s=np.asarray(self.batch_exec, dtype=float),
            sizes=np.asarray(self.batch_sizes, dtype=np.int64),
            replica=self.spec.name,
            member_times=self.times[:self.head].copy(),
            member_phases=self.phase_ids[:self.head].copy(),
            phases=phases,
        )

    def enqueue(self, arrival: float, phase: int = 0) -> None:
        if self.n == len(self.times):
            self.times = np.concatenate([self.times, self.times])
            self.phase_ids = np.concatenate([self.phase_ids, self.phase_ids])
        self.times[self.n] = arrival
        self.phase_ids[self.n] = phase
        self.n += 1
        self._plan()

    # -- routing metrics ------------------------------------------------
    def queue_len(self) -> int:
        return self.n - self.head

    def backlog_s(self, now: float) -> float:
        """Seconds of already-committed GPU work still ahead of ``now``."""
        return max(self.gpu_free - now, 0.0)

    def estimated_completion_s(self, now: float) -> float:
        """Predicted time-in-system for a query routed here at ``now``.

        Counts every batch the queue implies, not just the next one —
        a deeply backed-up replica must not look cheap just because the
        latency curve saturates at one max-batch execution.
        """
        max_batch = self.spec.batching.max_batch
        pending = self.queue_len() + 1
        full_batches, remainder = divmod(pending, max_batch)
        work_ms = full_batches * self.curve.ms[max_batch]
        if remainder:
            work_ms += self.curve.ms[remainder]
        return self.backlog_s(now) + work_ms / 1e3


class RoutingPolicy:
    """Chooses a replica index for each arriving query."""

    name = "policy"

    def reset(self, n_replicas: int) -> None:  # pragma: no cover - default
        pass

    def select(
        self,
        replicas: Sequence[_ReplicaState],
        now: float,
        rng: np.random.Generator,
    ) -> int:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Oblivious cycling; the baseline every load balancer starts from."""

    name = "round-robin"

    def reset(self, n_replicas: int) -> None:
        self._next = 0

    def select(self, replicas, now, rng):
        index = self._next % len(replicas)
        self._next += 1
        return index


class JoinShortestQueuePolicy(RoutingPolicy):
    """Route to the replica with the fewest waiting queries."""

    name = "jsq"

    def select(self, replicas, now, rng):
        return min(
            range(len(replicas)),
            key=lambda i: (
                replicas[i].queue_len(),
                replicas[i].backlog_s(now),
                i,
            ),
        )


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two random replicas, keep the shorter queue (Mitzenmacher)."""

    name = "power-of-two"

    def select(self, replicas, now, rng):
        if len(replicas) == 1:
            return 0
        a, b = rng.choice(len(replicas), size=2, replace=False)
        key = lambda i: (replicas[i].queue_len(), replicas[i].backlog_s(now))
        return int(a) if key(a) <= key(b) else int(b)


class LeastLatencyPolicy(RoutingPolicy):
    """Route to the lowest predicted completion time.

    Unlike JSQ this weighs queue depth by the replica's own speed, so an
    H100 with three waiting queries can still beat an idle A100.
    """

    name = "least-latency"

    def select(self, replicas, now, rng):
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].estimated_completion_s(now), i),
        )


#: policy name -> zero-argument factory.
ROUTING_POLICIES: dict[str, Callable[[], RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    JoinShortestQueuePolicy.name: JoinShortestQueuePolicy,
    PowerOfTwoPolicy.name: PowerOfTwoPolicy,
    LeastLatencyPolicy.name: LeastLatencyPolicy,
}


def resolve_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        known = ", ".join(ROUTING_POLICIES)
        raise ValueError(
            f"unknown routing policy {policy!r}; known: {known}"
        ) from None


def resolve_latency_models(
    fleet: FleetSpec, latency_models: Mapping[str, CurveLike]
) -> dict[str, LatencyCurve]:
    """Map each replica to its curve, by replica name or by GPU name;
    a callable shared by several replicas is tabulated once."""
    resolved, tabulated = {}, {}
    for replica in fleet.replicas:
        model = latency_models.get(replica.name) \
            or latency_models.get(replica.gpu.name)
        if model is None:
            raise KeyError(
                f"no latency model for replica {replica.name!r} "
                f"(gpu {replica.gpu.name!r})"
            )
        key = (id(model), replica.batching.max_batch)
        if key not in tabulated:
            tabulated[key] = resolve_curve(model, key[1])
        resolved[replica.name] = tabulated[key]
    return resolved


def _route_run(
    fleet: FleetSpec,
    latency_models: Mapping[str, CurveLike],
    times: np.ndarray,
    phase_ids: np.ndarray,
    phases: tuple[str, ...],
    meta: dict,
    *,
    router: RoutingPolicy,
    seed: int,
) -> tuple[FleetReport, FleetRun]:
    """Route a time-sorted arrival stream, drain every replica, and
    package (report, run record)."""
    models = resolve_latency_models(fleet, latency_models)
    states = [
        _ReplicaState(replica, models[replica.name])
        for replica in fleet.replicas
    ]
    router.reset(len(states))
    # distinct stream from the arrival-generation rng: sampling policies
    # must not replay the bits that produced the inter-arrival gaps
    rng = np.random.default_rng([seed, 0x617])

    for arrival, phase in zip(times.tolist(), phase_ids.tolist()):
        for state in states:
            state.advance(arrival)
        states[router.select(states, arrival, rng)].enqueue(arrival, phase)
    for state in states:
        state.advance(math.inf)
    run = FleetRun(
        meta=meta,
        arrivals=ArrivalBlock(
            times=times, phase_ids=phase_ids, phases=phases
        ),
        replicas=[s.to_block(phases) for s in states],
    )
    return fold_fleet_report(run), run


def simulate_fleet(
    fleet: FleetSpec,
    latency_models: Mapping[str, CurveLike],
    *,
    qps: float,
    duration_s: float = 10.0,
    policy: str | RoutingPolicy = "jsq",
    seed: int = 0,
    sink: Sink | None = None,
) -> FleetReport:
    """Discrete-event simulation of a routed fleet serving Poisson load.

    ``latency_models`` maps replica names — or, as a convenient fallback,
    GPU names — to batch-latency curves (ms as a function of batch size).
    Query latency = routing (instant) + batching wait + queueing + batch
    execution on the assigned replica.  The run's telemetry (arrival
    block + one batch block per replica) goes to ``sink``, falling back
    to the ambient default.
    """
    times = poisson_arrivals(qps, duration_s, seed)
    router = resolve_policy(policy)
    meta = {
        "kind": "fleet",
        "fleet": fleet.name,
        "policy": router.name,
        "qps": qps,
        "seed": seed,
        "cost_units": float(fleet.cost_units),
    }
    report, run = _route_run(
        fleet, latency_models, times,
        np.zeros(len(times), dtype=np.int64), ("all",), meta,
        router=router, seed=seed,
    )
    emit_run(sink, run)
    return report


def _simulate_fleet_stream_run(
    fleet: FleetSpec,
    latency_models: Mapping[str, CurveLike],
    stream,
    *,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: float | None = None,
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
    tenant: str | None = None,
) -> tuple[FleetReport, FleetRun]:
    """Route one scenario stream; package (report, run record)."""
    router = resolve_policy(policy)
    times, phase_ids, meta = _stream_entry(
        stream, sla_ms, phase_hit_rates, tenant, kind="fleet_stream",
        fleet=fleet.name, scenario=stream.name, policy=router.name,
        cost_units=float(fleet.cost_units),
    )
    return _route_run(
        fleet, latency_models, times, phase_ids, tuple(stream.phases),
        meta, router=router, seed=seed,
    )


def simulate_fleet_stream(
    fleet: FleetSpec,
    latency_models: Mapping[str, CurveLike],
    stream,
    *,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: float | None = None,
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
    sink: Sink | None = None,
) -> FleetReport:
    """A routed fleet serving one scenario stream, with per-phase tails.

    ``stream`` is any object with the
    :class:`repro.traffic.ScenarioTrace` shape (``times``, ``phase_ids``,
    ``phases``, ``phase_durations``, ``duration_s``, ``name``) — this is
    how routing policies get evaluated *inside* a burst or a drift
    window instead of on the run average.  ``seed`` only drives the
    router's sampling policies (the stream is already materialized).
    ``phase_hit_rates`` (one memstore HBM hit rate per phase) is
    threaded into the per-phase breakdown.  The run's telemetry goes to
    ``sink`` (or the ambient default).
    """
    report, run = _simulate_fleet_stream_run(
        fleet, latency_models, stream, policy=policy, sla_ms=sla_ms,
        seed=seed, phase_hit_rates=phase_hit_rates,
    )
    emit_run(sink, run)
    return report


def subfleet(fleet: FleetSpec, replicas: Sequence[str]) -> FleetSpec:
    """The sub-fleet holding exactly ``replicas`` (order preserved).

    Returns ``fleet`` itself when the subset is the whole fleet, so a
    degenerate selection changes nothing — not even the fleet name.
    """
    wanted = set(replicas)
    unknown = sorted(wanted - {r.name for r in fleet.replicas})
    if unknown:
        known = ", ".join(r.name for r in fleet.replicas)
        raise KeyError(f"unknown replicas {unknown}; known: {known}")
    if wanted == {r.name for r in fleet.replicas}:
        return fleet
    subset = tuple(r for r in fleet.replicas if r.name in wanted)
    return FleetSpec(
        name=f"{fleet.name}/{'+'.join(r.name for r in subset)}",
        replicas=subset,
    )


def _tenant_fleet(
    fleet: FleetSpec,
    assignments: Mapping[str, Sequence[str]] | None,
    tenant: str,
) -> FleetSpec:
    """The sub-fleet one tenant is routed over: its assigned replicas,
    or the whole fleet when it has no assignment."""
    replicas = assignments.get(tenant) if assignments is not None else None
    return fleet if replicas is None else subfleet(fleet, replicas)


def _simulate_fleet_tenant_stream_runs(
    fleet: FleetSpec,
    latency_models: Mapping[str, Mapping[str, CurveLike]],
    streams: Mapping[str, object],
    *,
    assignments: Mapping[str, Sequence[str]] | None = None,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: Mapping[str, float | None] | float | None = None,
    seed: int = 0,
) -> tuple[dict[str, FleetReport], dict[str, FleetRun]]:
    """Per-tenant routed serves returning (reports, runs) by tenant."""
    missing = sorted(set(streams) - set(latency_models))
    if missing:
        raise KeyError(f"no latency models for tenants {missing}")
    reports: dict[str, FleetReport] = {}
    runs: dict[str, FleetRun] = {}
    for name in streams:
        sla = (
            sla_ms.get(name) if isinstance(sla_ms, Mapping) else sla_ms
        )
        reports[name], runs[name] = _simulate_fleet_stream_run(
            _tenant_fleet(fleet, assignments, name),
            latency_models[name], streams[name],
            policy=policy, sla_ms=sla, seed=seed, tenant=name,
        )
    return reports, runs


def simulate_fleet_tenant_streams(
    fleet: FleetSpec,
    latency_models: Mapping[str, Mapping[str, CurveLike]],
    streams: Mapping[str, object],
    *,
    assignments: Mapping[str, Sequence[str]] | None = None,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: Mapping[str, float | None] | float | None = None,
    seed: int = 0,
    sink: Sink | None = None,
) -> dict[str, FleetReport]:
    """Route several tenants' streams over the fleet, one report each.

    Multi-tenant serving in the MPS-style concurrency model: each
    tenant's queries are routed over its assigned replicas on the
    tenant's own timeline (contention between co-resident tenants is
    carried by the latency curves — :mod:`repro.tenancy.share` prices
    it), so per-tenant tails and SLA attainment stay attributable.
    ``latency_models[tenant]`` maps replica or GPU names to that
    tenant's curves; ``assignments[tenant]`` names the replicas it may
    use (omitted: all of them).  A single tenant assigned the whole
    fleet is served by :func:`simulate_fleet_stream` verbatim —
    field-identical to calling it directly.  Each tenant's run record
    is emitted to ``sink`` (or the ambient default) with
    ``meta["tenant"]`` set.
    """
    reports, runs = _simulate_fleet_tenant_stream_runs(
        fleet, latency_models, streams, assignments=assignments,
        policy=policy, sla_ms=sla_ms, seed=seed,
    )
    for run in runs.values():
        emit_run(sink, run)
    return reports
