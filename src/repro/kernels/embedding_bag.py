"""Warp programs for the stock embedding-bag CUDA kernel (Algorithm 2).

Work partitioning follows the paper's Figure 4: each sample's output row
is split across ``row_bytes / 128`` warps (4 warps for a 128-dim fp32
table); every warp runs the full pooling loop for its 32-element chunk.
Per gather-reduce iteration a warp:

1. loads ``indices[idx]`` (one 32-B sector, broadcast),
2. burns the address-generation ALU burst (depends on the index),
3. loads its 128-B chunk of the embedding row (four sectors),
4. accumulates (depends on the row data),

plus register-spill round-trips to local memory when the compiler was
forced below the kernel's register demand.

Each kernel variant has two interchangeable emitters: a structured
*trace builder* that lowers the op stream straight into the
:class:`~repro.gpusim.trace.CompiledTrace` the engine executes — no
generators, no per-op tuples, consecutive ALU ops fused at build time —
and the generator *programs*, the readable input of the test oracle
:func:`~repro.gpusim.engine.run_reference_kernel`.  ``tests/gpusim/test_trace_compile.py`` pins the two
emitters to each other.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.config.gpu import CACHE_LINE_BYTES
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
)
from repro.gpusim.trace import CompiledTrace, TraceBuilder
from repro.kernels import calibration as cal
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import KernelBuild

WarpProgram = Callable[[], Iterator[tuple]]

# Scoreboard tag assignments (per-warp namespace).
TAG_OFF = 0
TAG_IDX = 1
TAG_ROW = 2
TAG_SPILL = 3
TAG_SMEM = 4
TAG_LOCAL_PF = 5
TAG_PF_BASE = 16  # prefetch slots use TAG_PF_BASE + j

#: Local-memory slot where LMPF buffers start (spill slots come first).
LMPF_SLOT_BASE = 48


def warps_per_sample(row_bytes: int) -> int:
    if row_bytes % CACHE_LINE_BYTES:
        raise ValueError("row size must be a multiple of the 128-B line")
    return row_bytes // CACHE_LINE_BYTES


def iter_warp_work(
    trace: EmbeddingTrace, row_bytes: int
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Yield ``(sample, col_byte_offset, flat_begin, rows)`` per warp, in
    launch order (all warps of sample 0, then sample 1, ...).

    The offsets array is converted to plain ints once and each sample's
    row list is materialized exactly once — the chunk loop re-yields the
    same list object for every warp of the sample.
    """
    col_offs = tuple(
        chunk * CACHE_LINE_BYTES
        for chunk in range(warps_per_sample(row_bytes))
    )
    bounds = trace.offsets.tolist()
    indices = trace.indices
    for sample in range(trace.batch_size):
        begin = bounds[sample]
        rows = indices[begin:bounds[sample + 1]].tolist()
        for col_off in col_offs:
            yield sample, col_off, begin, rows


def spill_state(build: KernelBuild) -> tuple[float, int]:
    """(spill round-trips per iteration, distinct spill lines per warp)."""
    return build.spill_pairs_per_iter, max(1, build.spilled_regs)


def make_base_warp_program(
    amap: AddressMap,
    sample: int,
    col_off: int,
    flat_begin: int,
    rows: list[int],
    warp_uid: int,
    spill_pairs: float,
    spill_lines: int,
) -> WarpProgram:
    """The off-the-shelf kernel body for one warp (plus spill traffic)."""
    row_bytes = amap.row_bytes
    addr_alu = cal.ADDR_CALC_ALU
    accum_alu = cal.ACCUM_ALU
    local_line = AddressMap.local_line

    def gen() -> Iterator[tuple]:
        yield (OP_LD_GLOBAL, amap.offsets_addr(sample), 1, TAG_OFF, None)
        yield (OP_ALU, cal.PROLOGUE_ALU, 0, None, TAG_OFF)
        idx_base = amap.index_addr(flat_begin)
        spill_acc = 0.0
        spill_slot = 0
        for i, row in enumerate(rows):
            yield (OP_LD_GLOBAL, idx_base + 8 * i, 1, TAG_IDX, None)
            yield (OP_ALU, addr_alu, 0, None, TAG_IDX)
            yield (OP_LD_GLOBAL, amap.row_addr(row, col_off), 4,
                   TAG_ROW, None)
            yield (OP_ALU, accum_alu, 0, None, TAG_ROW)
            spill_acc += spill_pairs
            while spill_acc >= 1.0:
                spill_acc -= 1.0
                addr = local_line(warp_uid, spill_slot % spill_lines)
                spill_slot += 1
                yield (OP_ST_LOCAL, addr, 4, None, None)
                yield (OP_LD_LOCAL, addr, 4, TAG_SPILL, None)
                yield (OP_ALU, cal.SPILL_CONSUME_ALU, 0, None, TAG_SPILL)
        yield (OP_ALU, cal.EPILOGUE_ALU, 0, None, None)
        yield (OP_ST_GLOBAL, amap.output_addr(sample, col_off), 4,
               None, None)

    return gen


def build_base_programs(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> list[WarpProgram]:
    """Programs for every warp of a baseline (or OptMT) kernel launch."""
    spill_pairs, spill_lines = spill_state(build)
    programs: list[WarpProgram] = []
    uid = warp_uid_base
    for sample, col_off, begin, rows in iter_warp_work(
            trace, amap.row_bytes):
        programs.append(
            make_base_warp_program(
                amap, sample, col_off, begin, rows,
                uid, spill_pairs, spill_lines,
            )
        )
        uid += 1
    return programs


# Per-gather-iteration column patterns for the structured trace builder
# (index load -> address ALU -> row load -> accumulate ALU).
_ROW_KINDS = (OP_LD_GLOBAL, OP_ALU, OP_LD_GLOBAL, OP_ALU)
_ROW_B = (1, 0, 4, 0)
_ROW_TAG = (TAG_IDX, -1, TAG_ROW, -1)
_ROW_DEP = (-1, TAG_IDX, -1, TAG_ROW)


def build_base_trace(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> CompiledTrace:
    """Compiled trace for a baseline (or OptMT) kernel launch.

    Emits exactly the op stream of :func:`build_base_programs`, lowered
    straight into flat columns: per gather iteration one 4-op pattern is
    extended onto the columns, and the epilogue ALU fuses into the
    trailing accumulate (or spill-consume) ALU burst.
    """
    spill_pairs, spill_lines = spill_state(build)
    row_bytes = amap.row_bytes
    addr_alu = cal.ADDR_CALC_ALU
    accum_alu = cal.ACCUM_ALU
    prologue_alu = cal.PROLOGUE_ALU
    epilogue_alu = cal.EPILOGUE_ALU
    spill_consume_alu = cal.SPILL_CONSUME_ALU
    local_line = AddressMap.local_line
    row_base = amap.row_addr(0)

    builder = TraceBuilder()
    kind_col = builder.kind
    a_col = builder.a
    b_col = builder.b
    tag_col = builder.tag
    dep_col = builder.dep
    end_warp = builder.end_warp

    uid = warp_uid_base
    for sample, col_off, begin, rows in iter_warp_work(trace, row_bytes):
        kind_col.append(OP_LD_GLOBAL)
        a_col.append(amap.offsets_addr(sample))
        b_col.append(1)
        tag_col.append(TAG_OFF)
        dep_col.append(-1)
        kind_col.append(OP_ALU)
        a_col.append(prologue_alu)
        b_col.append(0)
        tag_col.append(-1)
        dep_col.append(TAG_OFF)
        idx_addr = amap.index_addr(begin)
        chunk_base = row_base + col_off
        if spill_pairs == 0.0:
            for row in rows:
                kind_col.extend(_ROW_KINDS)
                a_col.extend((
                    idx_addr, addr_alu,
                    chunk_base + row * row_bytes, accum_alu,
                ))
                b_col.extend(_ROW_B)
                tag_col.extend(_ROW_TAG)
                dep_col.extend(_ROW_DEP)
                idx_addr += 8
        else:
            spill_acc = 0.0
            spill_slot = 0
            for row in rows:
                kind_col.extend(_ROW_KINDS)
                a_col.extend((
                    idx_addr, addr_alu,
                    chunk_base + row * row_bytes, accum_alu,
                ))
                b_col.extend(_ROW_B)
                tag_col.extend(_ROW_TAG)
                dep_col.extend(_ROW_DEP)
                idx_addr += 8
                spill_acc += spill_pairs
                while spill_acc >= 1.0:
                    spill_acc -= 1.0
                    addr = local_line(uid, spill_slot % spill_lines)
                    spill_slot += 1
                    kind_col.extend(_SPILL_KINDS)
                    a_col.extend((addr, addr, spill_consume_alu))
                    b_col.extend(_SPILL_B)
                    tag_col.extend(_SPILL_TAG)
                    dep_col.extend(_SPILL_DEP)
        # epilogue ALU is dependency-free and always follows an ALU
        # (prologue, accumulate, or spill-consume): fuse it
        a_col[-1] += epilogue_alu
        kind_col.append(OP_ST_GLOBAL)
        a_col.append(amap.output_addr(sample, col_off))
        b_col.append(4)
        tag_col.append(-1)
        dep_col.append(-1)
        end_warp()
        uid += 1
    return builder.build()


# spill round-trip column pattern: st.local -> ld.local -> consume ALU
_SPILL_KINDS = (OP_ST_LOCAL, OP_LD_LOCAL, OP_ALU)
_SPILL_B = (4, 4, 0)
_SPILL_TAG = (-1, TAG_SPILL, -1)
_SPILL_DEP = (-1, -1, TAG_SPILL)


def expected_global_loads(trace: EmbeddingTrace, row_bytes: int) -> int:
    """Analytic warp-level global load count for the baseline kernel:
    one offsets load per warp plus (index + row) per iteration."""
    n_warps = trace.batch_size * warps_per_sample(row_bytes)
    return n_warps + 2 * trace.n_accesses * warps_per_sample(row_bytes)


_SPILL_YIELDS = 3  # st.local + ld.local + consume ALU per round-trip


def spill_ops_estimate(build: KernelBuild, n_iters: int) -> int:
    """Rough micro-op count added by spill traffic (for sizing tests)."""
    return int(build.spill_pairs_per_iter * n_iters) * _SPILL_YIELDS
