"""Property-based invariants of the single-GPU serving loop.

For random arrival bursts, both batchers (size-or-timeout, and
continuous with and without an SLA) and random non-decreasing latency
tables, flat runs and steps included, every :func:`serve_stream` run
must keep:

* conservation: every arrival is served exactly once;
* per-query FIFO: queries complete in arrival order;
* latency covers execution: no query finishes before its batch has
  executed, and each batch executes for exactly its curve entry;
* no batch outgrows ``max_batch``;
* utilization <= 1.

The SLA batcher finds the largest batch fitting a budget with one
``searchsorted`` over the curve's table; the last two tests pin that to
a brute-force scan and check that a batch whose latency equals the
budget fits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.serving import LatencyCurve, _adaptive_batch, _serve_stream_run
from tests.fleet.test_properties import SETTINGS, _batchers, _Stream


@st.composite
def _curves(draw, max_batch):
    """A non-decreasing table: flat runs, small slopes and jumps."""
    base = draw(st.floats(0.05, 20.0))
    steps = draw(st.lists(
        st.one_of(
            st.just(0.0), st.floats(0.0, 0.5), st.floats(1.0, 30.0)
        ),
        min_size=max_batch - 1, max_size=max_batch - 1,
    ))
    return LatencyCurve(base + np.cumsum([0.0] + steps))


@given(
    bursts=st.lists(
        st.tuples(
            st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
            st.integers(1, 200),
        ),
        min_size=1, max_size=10,
    ),
    max_batch=st.integers(1, 64),
    report_sla_ms=st.one_of(st.none(), st.floats(1.0, 50.0)),
    data=st.data(),
)
@settings(**SETTINGS)
def test_serve_stream_invariants(bursts, max_batch, report_sla_ms, data):
    times = [t + 1e-4 * k for t, size in bursts for k in range(size)]
    curve = data.draw(_curves(max_batch), label="curve")
    policy = data.draw(_batchers(max_batch), label="policy")
    report, run = _serve_stream_run(
        curve, _Stream(times), policy=policy, sla_ms=report_sla_ms,
    )
    batches = run.batches
    arrivals = run.arrivals.times
    assert int(batches.sizes.sum()) == len(times) == report.n_queries
    assert np.all((batches.sizes >= 1) & (batches.sizes <= max_batch))
    assert batches.exec_s.tolist() == [
        curve(int(size)) / 1e3 for size in batches.sizes
    ]
    done = batches.starts + batches.exec_s
    # back to back on one GPU: a batch starts once the previous is done,
    # and never before its members have arrived
    assert np.all(batches.starts[1:] >= done[:-1])
    assert np.all(np.repeat(batches.starts, batches.sizes) >= arrivals)
    done_at = np.repeat(done, batches.sizes)
    assert np.all(np.diff(done_at) >= 0)
    # done - arrival rounds once, so allow one ulp of the completion time
    exec_at = np.repeat(batches.exec_s, batches.sizes)
    assert np.all(done_at - arrivals >= exec_at - np.spacing(done_at))
    assert 0.0 < report.gpu_utilization <= 1.0


@given(max_batch=st.integers(1, 64), data=st.data())
@settings(**SETTINGS)
def test_fit_search_matches_brute_force(max_batch, data):
    curve = data.draw(_curves(max_batch), label="curve")
    size = data.draw(st.integers(1, max_batch), label="size")
    ms = curve.ms
    budget = data.draw(st.one_of(
        st.sampled_from(ms[1:size + 1]),  # ties with a table entry
        st.floats(0.0, ms[1], exclude_max=True),  # below every batch
        st.floats(0.0, 2.0 * ms[size] + 1.0),
    ), label="budget")
    fit = int(np.searchsorted(curve.table_ms[:size], budget, side="right"))
    brute = max(
        (b for b in range(1, size + 1) if ms[b] <= budget), default=0
    )
    assert fit == brute


def test_sla_fit_counts_a_tie_with_the_budget_as_fitting():
    # exec(b) = 5 + 0.5 b ms is exactly the 10 ms SLA at b = 10; every
    # query up to there lands in the SLA, so the tie is the best batch
    curve = LatencyCurve.tabulate(lambda b: 5.0 + 0.5 * b, 100)
    assert curve(10) == 10.0
    assert _adaptive_batch(curve, np.zeros(100), 0.0, 100, 10.0) == 10
