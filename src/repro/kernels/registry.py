"""Dispatch from a compiled kernel build to its warp-program builder.

Every kernel variant has two equivalent emitters: structured compiled
traces (:func:`build_trace`, what :func:`repro.gpusim.run_kernel`
executes) and generator programs (:func:`build_programs`, the input of
the test oracle :func:`repro.gpusim.run_reference_kernel`).
"""

from __future__ import annotations

from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.trace import CompiledTrace
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import KernelBuild
from repro.kernels.embedding_bag import (
    WarpProgram,
    build_base_programs,
    build_base_trace,
)
from repro.kernels.prefetch import build_prefetch_programs, build_prefetch_trace


def build_programs(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> list[WarpProgram]:
    """Warp programs for one table's kernel launch under any variant."""
    if build.prefetch is None:
        return build_base_programs(
            trace, build, amap, warp_uid_base=warp_uid_base
        )
    return build_prefetch_programs(
        trace, build, amap, warp_uid_base=warp_uid_base
    )


def build_trace(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> CompiledTrace:
    """Compiled warp trace for one table's kernel launch."""
    if build.prefetch is None:
        return build_base_trace(
            trace, build, amap, warp_uid_base=warp_uid_base
        )
    return build_prefetch_trace(
        trace, build, amap, warp_uid_base=warp_uid_base
    )
