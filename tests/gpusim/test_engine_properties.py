"""Engine invariants over randomized warp programs (hypothesis), and
the launch path against the generator oracle on random programs."""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.gpu import A100_SXM4_80GB
from repro.gpusim.engine import run_kernel, run_reference_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_NAMES,
    OP_PREFETCH_L1,
    OP_PREFETCH_L2,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
    OP_ST_SHARED,
)
from repro.gpusim.profiler import HierarchyStats
from repro.gpusim.trace import compile_programs
from repro.kernels.address_map import STREAMING_RANGE, AddressMap

GPU = A100_SXM4_80GB.scaled_slice(1)
TABLE = 1 << 35
#: the extended example count runs where the extended differential
#: fuzz does (``REPRO_FUZZ_FULL=1``)
_RUN_FULL = os.environ.get("REPRO_FUZZ_FULL", "") == "1"

# one random micro-op: (kind, operand, tag, dep)
_op = st.tuples(
    st.sampled_from([OP_ALU, OP_LD_GLOBAL, OP_LD_SHARED, OP_ST_GLOBAL]),
    st.integers(1, 8),       # ALU cycles / address stride
    st.integers(0, 3),       # tag
    st.one_of(st.none(), st.integers(0, 3)),  # dep
)
_program = st.lists(_op, min_size=1, max_size=20)
_programs = st.lists(_program, min_size=1, max_size=12)


def materialize(raw_program):
    def gen():
        for kind, operand, tag, dep in raw_program:
            if kind == OP_ALU:
                yield (OP_ALU, operand, 0, None, dep)
            elif kind == OP_LD_GLOBAL:
                yield (OP_LD_GLOBAL, TABLE + 128 * operand, 4, tag, dep)
            elif kind == OP_LD_SHARED:
                yield (OP_LD_SHARED, 0, 0, tag, dep)
            else:
                yield (OP_ST_GLOBAL, TABLE + 128 * operand, 4, None, dep)
    return gen


def run(raw_programs, warps_per_sm=8):
    programs = [materialize(p) for p in raw_programs]
    hierarchy = MemoryHierarchy(GPU)
    return run_kernel(
        GPU, hierarchy, compile_programs(programs),
        warps_per_sm=warps_per_sm, warps_per_block=1,
    )


class TestEngineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_all_instructions_issue_exactly_once(self, raw):
        stats = run(raw)
        expected = sum(
            op[1] if op[0] == OP_ALU else 1
            for program in raw for op in program
        )
        assert stats.issued_insts == expected

    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_makespan_bounds(self, raw):
        stats = run(raw)
        # lower bound: no SMSP can issue faster than 1/cycle
        per_warp_issue = [
            sum(op[1] if op[0] == OP_ALU else 1 for op in program)
            for program in raw
        ]
        assert stats.makespan_cycles >= max(per_warp_issue)
        # upper bound: fully serial execution with worst-case latency
        worst = sum(per_warp_issue) + 40 * len(raw) + sum(
            (GPU.lat_hbm + GPU.tlb_miss_penalty + GPU.lat_shared)
            for program in raw for op in program
            if op[0] in (OP_LD_GLOBAL, OP_LD_SHARED)
        )
        assert stats.makespan_cycles <= worst

    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_stalls_are_nonnegative(self, raw):
        stats = run(raw)
        assert stats.stall_long_scoreboard >= 0
        assert stats.stall_short_scoreboard >= 0
        assert stats.stall_not_selected >= 0
        assert stats.warp_resident_cycles >= 0

    @settings(max_examples=25, deadline=None)
    @given(_programs, st.integers(1, 16))
    def test_occupancy_never_changes_issue_totals(self, raw, warps):
        a = run(raw, warps_per_sm=8)
        b = run(raw, warps_per_sm=warps)
        assert a.issued_insts == b.issued_insts
        assert a.n_warps == b.n_warps

    @settings(max_examples=25, deadline=None)
    @given(_programs)
    def test_determinism_property(self, raw):
        a = run(raw)
        b = run(raw)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.stall_not_selected == b.stall_not_selected


class TestWaveStress:
    def test_many_small_blocks_all_complete(self):
        raw = [[(OP_ALU, 2, 0, None)]] * 200
        stats = run(raw, warps_per_sm=8)
        assert stats.n_warps == 200
        assert stats.issued_insts == 400

    def test_single_warp_many_loads(self):
        raw = [[(OP_LD_GLOBAL, i, i % 4, None) for i in range(20)]]
        stats = run(raw)
        assert stats.ld_global_insts == 20

    def test_mixed_block_sizes(self):
        programs = [materialize([(OP_ALU, 1, 0, None)])] * 13
        hierarchy = MemoryHierarchy(GPU)
        stats = run_kernel(
            GPU, hierarchy, compile_programs(programs),
            warps_per_sm=8, warps_per_block=4,
        )
        assert stats.n_warps == 13


# ----------------------------------------------------------------------
# differential: run_kernel(compile_programs(p)) == run_reference_kernel(p)
# ----------------------------------------------------------------------
DIFF_GPUS = [A100_SXM4_80GB.scaled_slice(n) for n in (1, 2)]
STREAM = STREAMING_RANGE[0]

# one random micro-op over all nine kinds, ALU-heavy so that
# dependency-free ALU runs (fusable pairs) are common:
# (kind, ALU cycles, line, streaming address?, sectors, tag, dep)
_any_op = st.tuples(
    st.one_of(st.just(OP_ALU), st.sampled_from(sorted(OP_NAMES))),
    st.integers(1, 8),
    st.integers(0, 15),      # few lines, so caches and the stream set hit
    st.booleans(),
    st.integers(1, 4),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 3)),
)
_any_program = st.lists(_any_op, max_size=16)
_any_programs = st.lists(_any_program, min_size=4, max_size=12)


def materialize_any(warp, raw_program):
    """Generator program for one warp; local ops use its own lines."""
    def gen():
        for kind, cycles, line, streaming, sectors, tag, dep in raw_program:
            addr = (STREAM if streaming else TABLE) + 128 * line
            if kind == OP_ALU:
                yield (OP_ALU, cycles, 0, None, dep)
            elif kind in (OP_LD_LOCAL, OP_ST_LOCAL):
                yield (kind, AddressMap.local_line(warp, line), sectors,
                       tag if kind == OP_LD_LOCAL else None, dep)
            elif kind == OP_LD_GLOBAL:
                yield (OP_LD_GLOBAL, addr, sectors, tag, dep)
            elif kind == OP_LD_SHARED:
                yield (OP_LD_SHARED, 0, 0, tag, dep)
            elif kind == OP_ST_SHARED:
                yield (OP_ST_SHARED, 0, 0, None, dep)
            else:
                assert kind in (OP_ST_GLOBAL, OP_PREFETCH_L1, OP_PREFETCH_L2)
                yield (kind, addr, sectors, None, dep)
    return gen


def _diff_hierarchy(gpu, set_aside, local_overflow):
    hierarchy = MemoryHierarchy(
        gpu,
        l2_set_aside_bytes=gpu.l2_set_aside_bytes if set_aside else 0,
        streaming_range=STREAMING_RANGE,
    )
    hierarchy.configure_local_memory(int(local_overflow), 0)
    return hierarchy


@pytest.mark.fuzz
@settings(max_examples=400 if _RUN_FULL else 60, deadline=None)
@given(
    _any_programs,
    st.sampled_from(DIFF_GPUS),
    st.sampled_from([1, 2, 4]),
    st.integers(1, 16),
    st.booleans(),
    st.booleans(),
)
def test_launch_path_matches_oracle_on_random_programs(
    raw, gpu, warps_per_block, warps_per_sm, set_aside, local_overflow
):
    """Lowering then ``run_kernel`` equals the generator oracle, field
    for field, on both the kernel counters and the hierarchy counters.
    Random programs hold dependency-free ALU runs, so this also guards
    build-time ALU fusion against the oracle's runtime coalescing."""
    out = []
    for oracle in (True, False):
        programs = [materialize_any(w, p) for w, p in enumerate(raw)]
        hierarchy = _diff_hierarchy(gpu, set_aside, local_overflow)
        execute, kernel = (
            (run_reference_kernel, programs) if oracle
            else (run_kernel, compile_programs(programs))
        )
        stats = execute(
            gpu, hierarchy, kernel,
            warps_per_sm=warps_per_sm, warps_per_block=warps_per_block,
        )
        out.append((
            dataclasses.asdict(stats),
            dataclasses.asdict(HierarchyStats.capture(hierarchy)),
        ))
    assert out[0] == out[1]
