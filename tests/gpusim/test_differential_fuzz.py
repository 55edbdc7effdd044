"""Differential fuzzing: the launch path == the generator oracle.

``tests/gpusim/test_trace_compile.py`` pins ``run_kernel`` to the test
oracle ``run_reference_kernel`` on a curated scheme lineup; this suite
widens the net with *randomized* kernel configurations — scheme knobs
(prefetch kind/distance, register caps, pinning), dataset hotness,
and workload shape (batch, pooling, table size, trace seed) are all
drawn from seeded RNG streams — and asserts, case by case, that
``run_kernel``'s ``RawKernelStats`` and the full memory-hierarchy
counter state are field-identical to the oracle's.

The first :data:`SMOKE_CASES` draws always run (they fold into the
tier-1 suite and cover every prefetch station); the remaining draws up
to :data:`TOTAL_CASES` are the extended fuzz set, skipped unless
``REPRO_FUZZ_FULL=1`` (CI runs them as a dedicated step).  Draws are
indexed by case number, so case ``k`` is the same kernel configuration
forever — a failure reproduces with ``-k case47``.
"""

import os

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.kernels.pinning import profile_hot_rows
from tests.gpusim.lineup import launch

SMOKE_CASES = 12
TOTAL_CASES = 50
_RUN_FULL = os.environ.get("REPRO_FUZZ_FULL", "") == "1"

#: cycled through the first draws so the always-on smoke subset covers
#: every prefetch station, both register-cap styles, and pinning.
_COVERAGE_SCHEMES = (
    dict(),
    dict(optmt=True),
    dict(prefetch="register", optmt=True),
    dict(prefetch="shared", optmt=True),
    dict(prefetch="local", optmt=True),
    dict(prefetch="l1d", optmt=True),
    dict(l2_pinning=True, optmt=True),
    dict(prefetch="register", l2_pinning=True, optmt=True),
    dict(maxrregcount=40),
    dict(prefetch="register", maxrregcount=32),
    dict(prefetch="shared", l2_pinning=True),
    dict(prefetch="local"),
)


def draw_case(case: int) -> dict:
    """Deterministically draw one kernel configuration for case ``case``."""
    rng = np.random.default_rng(987_001 + case)
    if case < len(_COVERAGE_SCHEMES):
        scheme_kwargs = dict(_COVERAGE_SCHEMES[case])
    else:
        prefetch = rng.choice(
            [None, "register", "shared", "local", "l1d"]
        )
        scheme_kwargs = {
            "prefetch": None if prefetch is None else str(prefetch),
            "l2_pinning": bool(rng.random() < 0.3),
        }
        cap_style = rng.integers(0, 3)  # none / optmt / explicit cap
        if cap_style == 1:
            scheme_kwargs["optmt"] = True
        elif cap_style == 2:
            scheme_kwargs["maxrregcount"] = int(rng.integers(24, 96))
    if scheme_kwargs.get("prefetch") and rng.random() < 0.5:
        scheme_kwargs["prefetch_distance"] = int(rng.integers(1, 9))
    return {
        "scheme": Scheme(**scheme_kwargs),
        "gpu": A100_SXM4_80GB if rng.random() < 0.7 else H100_NVL,
        "dataset": str(rng.choice(sorted(HOTNESS_PRESETS))),
        "batch_size": int(rng.choice([4, 8, 12, 16])),
        "pooling_factor": int(rng.integers(4, 17)),
        "table_rows": int(rng.choice([1024, 4096, 16384])),
        "trace_seed": int(rng.integers(0, 10_000)),
    }


def _case_params():
    for case in range(TOTAL_CASES):
        marks = []
        if case >= SMOKE_CASES:
            marks.append(pytest.mark.fuzz_extended)
            if not _RUN_FULL:
                marks.append(pytest.mark.skip(
                    reason="extended fuzz case; set REPRO_FUZZ_FULL=1"
                ))
        yield pytest.param(case, id=f"case{case}", marks=marks)


@pytest.mark.fuzz
@pytest.mark.parametrize("case", _case_params())
def test_compiled_engine_matches_reference(case):
    cfg = draw_case(case)
    scheme, gpu = cfg["scheme"], cfg["gpu"]
    workload = kernel_workload(
        gpu,
        scale=SimScale(f"fuzz{case}", 2),
        batch_size=cfg["batch_size"],
        pooling_factor=cfg["pooling_factor"],
        table_rows=cfg["table_rows"],
    )
    spec = HOTNESS_PRESETS[cfg["dataset"]]
    trace = generate_trace(
        spec,
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        seed=cfg["trace_seed"],
    )
    hot_rows = None
    if scheme.l2_pinning:
        hot_rows = profile_hot_rows(
            spec,
            batch_size=workload.batch_size,
            pooling_factor=workload.pooling_factor,
            table_rows=workload.table_rows,
            k=64,
            seed=cfg["trace_seed"],
        )
    results = [
        launch(workload, scheme, trace, oracle=oracle, hot_rows=hot_rows,
               name=f"fuzz{case}")
        for oracle in (True, False)
    ]
    assert results[0] == results[1], (
        f"engines diverged on case {case}: {cfg}"
    )
