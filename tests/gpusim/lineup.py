"""The curated kernel lineup, and one launch helper for oracle tests.

Shared by the executor equivalence tests in ``test_trace_compile.py``,
the differential fuzz in ``test_differential_fuzz.py`` and the
``kernels`` golden snapshot in ``tests/test_golden_regression.py``:
nine schemes (baseline, OptMT, all four prefetch stations, register
caps) on two datasets, plus the L2-pinned variant, all on a 2-SM A100
slice small enough to simulate in well under a second per launch.
"""

import dataclasses

from repro.config.gpu import A100_SXM4_80GB
from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload, launch_hierarchy
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.gpusim.engine import run_kernel, run_reference_kernel
from repro.gpusim.profiler import HierarchyStats
from repro.kernels.address_map import AddressMap
from repro.kernels.pinning import pin_hot_rows, profile_hot_rows
from repro.kernels.registry import build_programs, build_trace

#: Every kernel shape the repo can emit: baseline, OptMT (spilled), all
#: four prefetch stations (with and without heavy spilling).
SCHEMES = [
    Scheme(),
    Scheme(optmt=True),
    Scheme(prefetch="register", optmt=True),
    Scheme(prefetch="shared", optmt=True),
    Scheme(prefetch="local", optmt=True),
    Scheme(prefetch="l1d", optmt=True),
    Scheme(maxrregcount=40),
    Scheme(prefetch="register", maxrregcount=32),
    Scheme(prefetch="shared"),
]
DATASETS = ("med_hot", "random")

#: The L2-pinning variant, run on ``med_hot`` with its 64 hottest rows
#: pinned in the set-aside.
PINNED_SCHEME = Scheme(l2_pinning=True, optmt=True)


def lineup_workload():
    return kernel_workload(
        A100_SXM4_80GB,
        scale=SimScale("trace-test", 2),
        batch_size=16,
        pooling_factor=12,
        table_rows=4096,
    )


def lineup_traces(workload):
    return {
        name: generate_trace(
            HOTNESS_PRESETS[name],
            batch_size=workload.batch_size,
            pooling_factor=workload.pooling_factor,
            table_rows=workload.table_rows,
            seed=0,
        )
        for name in DATASETS
    }


def pinned_hot_rows(workload):
    return profile_hot_rows(
        HOTNESS_PRESETS["med_hot"],
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        k=64,
        seed=0,
    )


def launch(workload, scheme, trace, *, oracle=False, hot_rows=None,
           name="kernel"):
    """One table-kernel launch in ``run_table_kernel``'s configuration.

    Runs ``build_trace`` through ``run_kernel``, or with ``oracle=True``
    the generator programs through ``run_reference_kernel``, on a fresh
    :func:`~repro.core.embedding.launch_hierarchy` with ``hot_rows``
    pinned for L2-pinning schemes.  Returns the ``RawKernelStats`` and
    ``HierarchyStats`` fields as two dicts.
    """
    build = scheme.compile(workload.gpu)
    amap = AddressMap(row_bytes=workload.row_bytes)
    set_aside = workload.gpu.l2_set_aside_bytes if scheme.l2_pinning else 0
    hierarchy = launch_hierarchy(workload, build, set_aside=set_aside)
    if hot_rows is not None:
        pin_hot_rows(hierarchy, hot_rows, amap)
    if oracle:
        run, kernel = run_reference_kernel, build_programs(trace, build, amap)
    else:
        run, kernel = run_kernel, build_trace(trace, build, amap)
    stats = run(
        workload.gpu, hierarchy, kernel,
        warps_per_sm=build.warps_per_sm,
        warps_per_block=build.warps_per_block,
        name=name,
    )
    return (
        dataclasses.asdict(stats),
        dataclasses.asdict(HierarchyStats.capture(hierarchy)),
    )
