"""Embedding-bag kernel variants and the compiler model.

:func:`build_trace` emits a launch's :class:`~repro.gpusim.CompiledTrace`,
the encoding :func:`repro.gpusim.run_kernel` executes.  The generator
builders (:func:`build_programs` and friends) emit the same launch as
warp programs, the input of the test oracle
:func:`repro.gpusim.run_reference_kernel`.
"""

from repro.kernels.address_map import LOCAL_WINDOW_BYTES, AddressMap
from repro.kernels.compiler import (
    PREFETCH_KINDS,
    KernelBuild,
    compile_kernel,
    demand_registers,
    optmt_maxrreg,
)
from repro.kernels.embedding_bag import (
    build_base_programs,
    expected_global_loads,
    iter_warp_work,
    warps_per_sample,
)
from repro.kernels.pinning import (
    build_pin_kernel_programs,
    hot_row_lines,
    pin_hot_rows,
    pinnable_rows,
    pinned_coverage,
    profile_hot_rows,
    simulate_pin_kernel,
)
from repro.kernels.prefetch import build_prefetch_programs
from repro.kernels.registry import build_programs, build_trace

__all__ = [
    "AddressMap",
    "KernelBuild",
    "LOCAL_WINDOW_BYTES",
    "PREFETCH_KINDS",
    "build_base_programs",
    "build_pin_kernel_programs",
    "build_prefetch_programs",
    "build_programs",
    "build_trace",
    "compile_kernel",
    "demand_registers",
    "expected_global_loads",
    "hot_row_lines",
    "iter_warp_work",
    "optmt_maxrreg",
    "pin_hot_rows",
    "pinnable_rows",
    "pinned_coverage",
    "profile_hot_rows",
    "simulate_pin_kernel",
    "warps_per_sample",
]
