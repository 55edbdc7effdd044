"""Property-based invariants for fleet placement and routing.

Randomized (hypothesis) checks of the structural guarantees the fleet
layer must never lose, whatever the workload:

* placement — every table instance in the mix lands on exactly one
  GPU, no instance is dropped or duplicated;
* routing — conservation: every request that enters the router is
  served exactly once (after the final drain nothing is left in
  flight), whatever the routing policy and replica batcher; each
  replica serves FIFO, never outgrows ``max_batch``, and every query's
  latency covers its batch's execution;
* JSQ — never picks a replica whose queue is strictly longer than
  another's.

``derandomize=True`` keeps CI deterministic (hypothesis still explores
the space, from a fixed seed).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    LatencyCurve,
)
from repro.fleet.placement import hetero_lpt_shard
from repro.fleet.router import (
    JoinShortestQueuePolicy,
    _ReplicaState,
    _simulate_fleet_stream_run,
    simulate_fleet,
)
from repro.fleet.topology import FleetSpec, ReplicaSpec
from repro.config.gpu import A100_SXM4_80GB, H100_NVL

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)

# ----------------------------------------------------------------------
# placement: every table placed exactly once
# ----------------------------------------------------------------------
_table_names = st.sampled_from(
    ["high_hot", "med_hot", "low_hot", "random", "one_item"]
)
_mixes = st.dictionaries(_table_names, st.integers(1, 5), min_size=1)
_gpu_lists = st.lists(
    st.sampled_from(["A100", "H100", "L4"]), min_size=1, max_size=5
)


@given(mix=_mixes, gpus=_gpu_lists, data=st.data())
@settings(**SETTINGS)
def test_every_table_placed_exactly_once(mix, gpus, data):
    table_times = {
        gpu: {
            name: data.draw(
                st.floats(0.5, 500.0, allow_nan=False),
                label=f"time[{gpu}][{name}]",
            )
            for name in mix
        }
        for gpu in set(gpus)
    }
    placement = hetero_lpt_shard(table_times, mix, gpus)
    assert len(placement) == len(gpus)
    placed: dict[str, int] = {}
    for shard in placement:
        for table in shard:
            placed[table] = placed.get(table, 0) + 1
    assert placed == dict(mix)


# ----------------------------------------------------------------------
# routing: conservation (in == served after drain), any policy
# ----------------------------------------------------------------------
class _Stream:
    """Minimal ScenarioTrace-shaped stream for arbitrary arrival lists."""

    def __init__(self, times):
        self.name = "prop"
        self.times = np.asarray(sorted(times), dtype=float)
        self.phase_ids = np.zeros(len(times), dtype=np.int64)
        self.phases = ("steady",)
        self.duration_s = float(self.times[-1]) + 1.0
        self.phase_durations = (self.duration_s,)


def _fleet(n_replicas, batching):
    gpus = [A100_SXM4_80GB, H100_NVL]
    return FleetSpec(
        name=f"prop{n_replicas}",
        replicas=tuple(
            ReplicaSpec(name=f"r{i}", gpu=gpus[i % 2], batching=batching)
            for i in range(n_replicas)
        ),
    )


_MODELS = {
    A100_SXM4_80GB.name: lambda b: 2.0 + 0.05 * b,
    H100_NVL.name: lambda b: 1.2 + 0.03 * b,
}


@st.composite
def _batchers(draw, max_batch):
    """One of the three batchers a replica can run."""
    kind = draw(st.sampled_from(["fixed", "continuous", "sla"]))
    if kind == "fixed":
        return BatchingPolicy(
            max_batch=max_batch, timeout_ms=draw(st.floats(0.0, 20.0))
        )
    if kind == "continuous":
        return ContinuousBatching(max_batch=max_batch)
    return ContinuousBatching(
        max_batch=max_batch, sla_ms=draw(st.floats(1.0, 50.0))
    )


@given(
    # bursts of queries 0.1 ms apart: a burst outpaces every replica's
    # batch execution, so queues build past max_batch
    bursts=st.lists(
        st.tuples(
            st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
            st.integers(1, 200),
        ),
        min_size=1, max_size=10,
    ),
    n_replicas=st.integers(1, 4),
    max_batch=st.integers(1, 64),
    data=st.data(),
    policy=st.sampled_from(
        ["round-robin", "jsq", "power-of-two", "least-latency"]
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(**SETTINGS)
def test_router_conserves_requests(
    bursts, n_replicas, max_batch, data, policy, seed
):
    times = [t + 1e-4 * k for t, size in bursts for k in range(size)]
    stream = _Stream(times)
    batching = data.draw(_batchers(max_batch), label="batching")
    fleet = _fleet(n_replicas, batching)
    report, run = _simulate_fleet_stream_run(
        fleet, _MODELS, stream, policy=policy, seed=seed,
    )
    # in == completed + in-flight, and after the final drain nothing is
    # in flight: every arrival was served exactly once, somewhere
    assert report.n_queries == len(times)
    assert sum(r.n_queries for r in report.replica_reports) == len(times)
    # latency is physical: at least one batch execution per query
    min_exec_ms = min(model(1) for model in _MODELS.values())
    assert report.p50_ms >= min_exec_ms - 1e-9
    for block in run.replicas:
        members = block.member_times
        # per-replica FIFO: queries leave in the order they arrived
        assert np.all(members[1:] >= members[:-1])
        # no batch outgrows the batcher
        assert np.all(block.sizes <= max_batch)
        # every query waits out its whole batch's execution (done -
        # arrival rounds once, so allow one ulp of the completion time)
        done = np.repeat(block.done, block.sizes)
        exec_s = np.repeat(block.exec_s, block.sizes)
        assert np.all(done - members >= exec_s - np.spacing(done))


@given(
    qps=st.floats(10.0, 5000.0),
    duration_s=st.floats(0.1, 3.0),
    policy=st.sampled_from(
        ["round-robin", "jsq", "power-of-two", "least-latency"]
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_poisson_router_conserves_requests(qps, duration_s, policy, seed):
    fleet = _fleet(3, BatchingPolicy(max_batch=64, timeout_ms=5.0))
    report = simulate_fleet(
        fleet, _MODELS, qps=qps, duration_s=duration_s, policy=policy,
        seed=seed,
    )
    expected = max(1, int(qps * duration_s))
    assert report.n_queries == expected
    assert sum(r.n_queries for r in report.replica_reports) == expected


# ----------------------------------------------------------------------
# JSQ: never picks a strictly longer queue
# ----------------------------------------------------------------------
@given(
    queue_lens=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    backlogs=st.data(),
)
@settings(**SETTINGS)
def test_jsq_never_picks_strictly_longer_queue(queue_lens, backlogs):
    states = []
    for i, qlen in enumerate(queue_lens):
        state = _ReplicaState(
            ReplicaSpec(name=f"r{i}", gpu=A100_SXM4_80GB),
            LatencyCurve.tabulate(_MODELS[A100_SXM4_80GB.name]),
        )
        for k in range(qlen):
            state.enqueue(0.01 * k)
        state.gpu_free = backlogs.draw(
            st.floats(0.0, 5.0, allow_nan=False), label=f"gpu_free[{i}]"
        )
        states.append(state)
    policy = JoinShortestQueuePolicy()
    policy.reset(len(states))
    chosen = policy.select(states, now=1.0, rng=np.random.default_rng(0))
    assert states[chosen].queue_len() == min(queue_lens)
