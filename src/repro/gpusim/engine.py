"""Event-driven warp-level GPU execution engine.

Models what the paper's characterization hinges on, at warp granularity:

* each SM has 4 SMSPs (sub-partitions); an SMSP issues at most one
  warp-instruction per cycle,
* a per-warp scoreboard lets execution continue past loads until the
  first dependent instruction, which then stalls the warp ("long
  scoreboard stall" for global/local loads, "short" for shared memory),
* thread blocks occupy resident-warp slots; the block scheduler streams
  queued blocks onto SMs as slots free up (waves),
* warps that are ready but not picked accumulate "not selected" stalls.

One launch path: :func:`run_kernel` executes a
:class:`~repro.gpusim.trace.CompiledTrace` — the whole launch lowered
into flat per-op columns — against a
:class:`~repro.gpusim.hierarchy.MemoryHierarchy` that provides load
completion times.  Scheduling is loose-round-robin: the ready warp with
the earliest ready time issues first; ties break deterministically.

:func:`run_reference_kernel` is the test oracle: a slow, obviously
correct executor that drives warp programs written as generators of
the 5-tuple micro-ops defined in :mod:`repro.gpusim.isa`.  The tests
pin :func:`run_kernel` on the lowered programs to it, field for field
(``tests/gpusim/test_trace_compile.py``, ``test_differential_fuzz.py``
and ``test_engine_properties.py``).

Scheduling semantics shared by both executors:

* **ALU bursts** — consecutive ALU micro-ops with no intervening
  dependency issue as a single burst; the warp holds its SMSP issue
  port across the chain.  The oracle coalesces such runs as it drives
  the generators; :class:`~repro.gpusim.trace.TraceBuilder` fuses them
  when it builds a trace, so :func:`run_kernel` never sees a fusable
  pair.
* **one-step scoreboard scheduling** — when the op following a
  dispatch depends on an outstanding scoreboard tag, the stall
  (``ready_time - warp_avail``) is attributed immediately and the warp
  is scheduled directly at the dependency's ready time, rather than
  waking at ``warp_avail`` only to re-queue.  Stall attribution is
  therefore measured from when the warp *could have issued* — the way
  NCU's warp-state sampling attributes long/short-scoreboard cycles —
  and each dependency costs one heap event instead of two.  Makespans,
  issue counts and not-selected stalls are unaffected.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.config.gpu import CACHE_LINE_BYTES, GpuSpec
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_PREFETCH_L1,
    OP_PREFETCH_L2,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
    OP_ST_SHARED,
)
from repro.gpusim.trace import CompiledTrace, WarpProgram


class _Warp:
    __slots__ = ("gen", "op", "sm", "smsp", "pending", "short_tags",
                 "avail", "start", "block")

    def __init__(self, gen: Iterator[tuple], sm: int, smsp: int,
                 start: float, block: list) -> None:
        self.gen = gen
        self.op = next(gen, None)
        self.sm = sm
        self.smsp = smsp
        self.pending: dict[int, float] = {}
        self.short_tags: set[int] = set()
        self.avail = start
        self.start = start
        self.block = block


@dataclass
class RawKernelStats:
    """Raw counters from one kernel execution (pre-profiler)."""

    name: str
    makespan_cycles: float
    n_warps: int
    warps_per_sm: int
    n_smsp: int
    issued_insts: int
    alu_insts: int
    ld_global_insts: int
    ld_local_insts: int
    ld_shared_insts: int
    st_insts: int
    prefetch_insts: int
    warp_resident_cycles: float
    stall_long_scoreboard: float
    stall_short_scoreboard: float
    stall_not_selected: float

    @property
    def load_insts(self) -> int:
        """Load instructions the way NCU counts them for the paper's
        "#load insts" rows (global + local; shared reported separately)."""
        return self.ld_global_insts + self.ld_local_insts


def _check_launch(warps_per_sm: int, warps_per_block: int,
                  n_warps: int) -> None:
    if warps_per_sm <= 0:
        raise ValueError("kernel has zero occupancy (too many registers?)")
    if warps_per_block < 1:
        raise ValueError(
            f"warps_per_block must be >= 1, got {warps_per_block}"
        )
    if n_warps == 0:
        raise ValueError("kernel launched with zero warps")


def run_kernel(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    trace: CompiledTrace,
    *,
    warps_per_sm: int,
    warps_per_block: int = 8,
    name: str = "kernel",
) -> RawKernelStats:
    """Execute one kernel launch and return its raw statistics.

    ``trace`` holds one op stream per warp in launch order; consecutive
    groups of ``warps_per_block`` warps form thread blocks, which are
    distributed round-robin over the simulated SMs and streamed into
    ``warps_per_sm // warps_per_block`` resident slots per SM.
    """
    if not isinstance(trace, CompiledTrace):
        raise TypeError(
            "run_kernel takes a CompiledTrace, got "
            f"{type(trace).__name__}; lower generator warp programs with "
            "repro.gpusim.compile_programs first"
        )
    _check_launch(warps_per_sm, warps_per_block, trace.n_warps)
    num_sms = gpu.num_sms
    smsps_per_sm = gpu.smsps_per_sm
    n_smsp = num_sms * smsps_per_sm
    lat_shared = gpu.lat_shared

    # Instruction-mix counters are schedule-independent: every op issues
    # exactly once, so they are precomputed from the trace and the hot
    # loop tracks only time-dependent quantities.
    ops, counts = trace.exec_form()
    op_dep = trace.dep
    starts = trace.warp_starts
    n_warps = trace.n_warps

    blocks = [
        range(i, min(i + warps_per_block, n_warps))
        for i in range(0, n_warps, warps_per_block)
    ]
    queues: list[deque] = [deque() for _ in range(num_sms)]
    for bid, block in enumerate(blocks):
        queues[bid % num_sms].append(block)
    resident_slots = max(1, warps_per_sm // warps_per_block)

    smsp_next_free = [0.0] * n_smsp
    sm_warp_counter = [0] * num_sms

    # per-warp state, indexed by launch id (pc travels in heap entries)
    w_sm = [0] * n_warps
    w_smsp = [0] * n_warps
    w_start = [0.0] * n_warps
    w_pending: list[dict] = [None] * n_warps  # type: ignore[list-item]
    w_short: list[set] = [None] * n_warps  # type: ignore[list-item]
    w_block: list[list] = [None] * n_warps  # type: ignore[list-item]

    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    stall_long = stall_short = stall_ns = 0.0
    warp_resident = 0.0
    max_finish = 0.0
    n_warps_run = 0

    def start_block(sm: int, warp_ids, t: float) -> None:
        nonlocal seq, n_warps_run
        # block state: [warps remaining, latest finish, home SM]
        block_state = [len(warp_ids), t, sm]
        for wi in warp_ids:
            smsp = sm * smsps_per_sm + (sm_warp_counter[sm] % smsps_per_sm)
            sm_warp_counter[sm] += 1
            w_sm[wi] = sm
            w_smsp[wi] = smsp
            w_start[wi] = t
            w_pending[wi] = {}
            w_short[wi] = set()
            w_block[wi] = block_state
            n_warps_run += 1
            if starts[wi] == starts[wi + 1]:  # empty program
                _retire(wi, t)
                continue
            seq += 1
            heapq.heappush(heap, (t, seq, wi, starts[wi]))

    def _retire(wi: int, finish: float) -> None:
        nonlocal warp_resident, max_finish
        warp_resident += finish - w_start[wi]
        if finish > max_finish:
            max_finish = finish
        block_state = w_block[wi]
        block_state[0] -= 1
        if finish > block_state[1]:
            block_state[1] = finish
        if block_state[0] == 0:
            home = block_state[2]
            if queues[home]:
                start_block(home, queues[home].popleft(), block_state[1])

    for sm in range(num_sms):
        for _ in range(resident_slots):
            if queues[sm]:
                start_block(sm, queues[sm].popleft(), 0.0)

    heappush, heappop = heapq.heappush, heapq.heappop
    load = hierarchy.load
    load_local = hierarchy.load_local
    store = hierarchy.store
    pf_l1 = hierarchy.prefetch_into_l1
    pf_l2 = hierarchy.prefetch_pin_l2
    # Inlined warm-hit fast path for streaming addresses (offsets /
    # indices / output): once a line is in the per-SM seen set, a load
    # is a pure L1 hit — the accounting is accumulated locally and
    # flushed to the hierarchy after the loop (identical final stats).
    stream_lo, stream_hi = hierarchy.streaming_range
    stream_seen = hierarchy._stream_seen
    lat_l1 = hierarchy.gpu.lat_l1
    line_shift = CACHE_LINE_BYTES.bit_length() - 1
    stream_hits = [0] * num_sms

    while heap:
        t, _, wi, pc = heappop(heap)
        smsp = w_smsp[wi]
        nf = smsp_next_free[smsp]
        if nf > t:
            stall_ns += nf - t
            t_can = nf
        else:
            t_can = t

        kind, a_v, b_v, tag_v = ops[pc]
        pc += 1
        if kind == OP_ALU:
            avail = t_can + a_v
        elif kind == OP_LD_GLOBAL:
            sm = w_sm[wi]
            if (
                stream_lo <= a_v < stream_hi
                and (a_v >> line_shift) in stream_seen[sm]
            ):
                stream_hits[sm] += b_v
                w_pending[wi][tag_v] = t_can + lat_l1
            else:
                w_pending[wi][tag_v] = load(sm, a_v, b_v, t_can)
            avail = t_can + 1
        elif kind == OP_LD_LOCAL:
            w_pending[wi][tag_v] = load_local(w_sm[wi], a_v, b_v, t_can)
            avail = t_can + 1
        elif kind == OP_LD_SHARED:
            w_pending[wi][tag_v] = t_can + lat_shared
            w_short[wi].add(tag_v)
            avail = t_can + 1
        elif kind == OP_ST_GLOBAL:
            store(w_sm[wi], a_v, b_v, t_can)
            avail = t_can + 1
        elif kind == OP_ST_SHARED:
            avail = t_can + 1
        elif kind == OP_ST_LOCAL:
            store(w_sm[wi], a_v, b_v, t_can, local=True)
            avail = t_can + 1
        elif kind == OP_PREFETCH_L1:
            pf_l1(w_sm[wi], a_v, b_v, t_can)
            avail = t_can + 1
        elif kind == OP_PREFETCH_L2:
            pf_l2(a_v, b_v, t_can)
            avail = t_can + 1
        else:
            raise ValueError(f"unknown micro-op kind {kind}")
        smsp_next_free[smsp] = avail

        if pc == starts[wi + 1]:
            _retire(wi, avail)
            continue

        # one-step scoreboard scheduling for the next op
        dep = op_dep[pc]
        if dep >= 0:
            pending = w_pending[wi]
            dep_ready = pending.get(dep) if pending else None
            if dep_ready is not None:
                del pending[dep]
                if dep_ready > avail:
                    short_tags = w_short[wi]
                    if dep in short_tags:
                        stall_short += dep_ready - avail
                        short_tags.discard(dep)
                    else:
                        stall_long += dep_ready - avail
                    seq += 1
                    heappush(heap, (dep_ready, seq, wi, pc))
                    continue
                w_short[wi].discard(dep)
        seq += 1
        heappush(heap, (avail, seq, wi, pc))

    for sm in range(num_sms):
        if stream_hits[sm]:
            hierarchy.l1s[sm].hit_sectors += stream_hits[sm]

    if n_warps_run != n_warps:
        raise RuntimeError(
            "block scheduler lost warps: "
            f"ran {n_warps_run} of {n_warps}"
        )

    return RawKernelStats(
        name=name,
        makespan_cycles=max_finish,
        n_warps=n_warps,
        warps_per_sm=warps_per_sm,
        n_smsp=n_smsp,
        issued_insts=counts["issued"],
        alu_insts=counts["alu"],
        ld_global_insts=counts["ld_global"],
        ld_local_insts=counts["ld_local"],
        ld_shared_insts=counts["ld_shared"],
        st_insts=counts["st"],
        prefetch_insts=counts["prefetch"],
        warp_resident_cycles=warp_resident,
        stall_long_scoreboard=stall_long,
        stall_short_scoreboard=stall_short,
        stall_not_selected=stall_ns,
    )


# ----------------------------------------------------------------------
# test oracle: drive generator programs directly
# ----------------------------------------------------------------------
def run_reference_kernel(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    programs: Iterable[WarpProgram],
    *,
    warps_per_sm: int,
    warps_per_block: int = 8,
    name: str = "kernel",
) -> RawKernelStats:
    """The test oracle: execute generator warp programs directly.

    Same launch semantics and statistics as :func:`run_kernel` on
    ``compile_programs(programs)``, computed by driving one generator
    per warp instead of indexing a trace.
    """
    programs = list(programs)
    _check_launch(warps_per_sm, warps_per_block, len(programs))
    num_sms = gpu.num_sms
    smsps_per_sm = gpu.smsps_per_sm
    n_smsp = num_sms * smsps_per_sm
    lat_shared = gpu.lat_shared

    blocks = [
        programs[i:i + warps_per_block]
        for i in range(0, len(programs), warps_per_block)
    ]
    queues: list[deque] = [deque() for _ in range(num_sms)]
    for b, block in enumerate(blocks):
        queues[b % num_sms].append(block)
    resident_slots = max(1, warps_per_sm // warps_per_block)

    smsp_next_free = [0.0] * n_smsp
    smsp_issued = [0] * n_smsp
    sm_warp_counter = [0] * num_sms

    heap: list[tuple[float, int, _Warp]] = []
    seq = 0

    # counters
    n_alu = n_ldg = n_ldl = n_lds = n_st = n_pf = 0
    stall_long = stall_short = stall_ns = 0.0
    warp_resident = 0.0
    max_finish = 0.0
    n_warps_run = 0

    def start_block(sm: int, factories: list[WarpProgram], t: float) -> None:
        nonlocal seq, n_warps_run
        # block state: [warps remaining, latest finish, home SM]
        block_state = [len(factories), t, sm]
        for factory in factories:
            smsp = sm * smsps_per_sm + (sm_warp_counter[sm] % smsps_per_sm)
            sm_warp_counter[sm] += 1
            warp = _Warp(factory(), sm, smsp, t, block_state)
            n_warps_run += 1
            if warp.op is None:  # empty program: finishes immediately
                _retire(warp, t)
                continue
            seq += 1
            heapq.heappush(heap, (t, seq, warp))

    def _retire(warp: _Warp, finish: float) -> None:
        nonlocal warp_resident, max_finish
        warp_resident += finish - warp.start
        if finish > max_finish:
            max_finish = finish
        block_state = warp.block
        block_state[0] -= 1
        if finish > block_state[1]:
            block_state[1] = finish
        if block_state[0] == 0:
            home = block_state[2]
            if queues[home]:
                start_block(home, queues[home].popleft(), block_state[1])

    for sm in range(num_sms):
        for _ in range(resident_slots):
            if queues[sm]:
                start_block(sm, queues[sm].popleft(), 0.0)

    heappush, heappop = heapq.heappush, heapq.heappop
    load = hierarchy.load
    store = hierarchy.store
    pf_l1 = hierarchy.prefetch_into_l1
    pf_l2 = hierarchy.prefetch_pin_l2

    while heap:
        t, _, w = heappop(heap)
        op = w.op
        smsp = w.smsp
        nf = smsp_next_free[smsp]
        t_can = nf if nf > t else t
        if t_can > t:
            stall_ns += t_can - t

        kind = op[0]
        if kind == OP_ALU:
            n = op[1]
            # runtime burst coalescing: a dependency-free ALU op directly
            # following an ALU op joins the same burst (the warp holds
            # its issue port across the chain) — the same rule the trace
            # compiler applies at compile time
            nxt = next(w.gen, None)
            while nxt is not None and nxt[0] == OP_ALU and nxt[4] is None:
                n += nxt[1]
                nxt = next(w.gen, None)
            smsp_next_free[smsp] = t_can + n
            smsp_issued[smsp] += n
            n_alu += n
            w.avail = t_can + n
        else:
            if kind == OP_LD_GLOBAL:
                w.pending[op[3]] = load(w.sm, op[1], op[2], t_can)
                n_ldg += 1
            elif kind == OP_LD_LOCAL:
                w.pending[op[3]] = load(w.sm, op[1], op[2], t_can, local=True)
                n_ldl += 1
            elif kind == OP_LD_SHARED:
                tag = op[3]
                w.pending[tag] = t_can + lat_shared
                w.short_tags.add(tag)
                n_lds += 1
            elif kind == OP_ST_GLOBAL:
                store(w.sm, op[1], op[2], t_can)
                n_st += 1
            elif kind == OP_ST_SHARED:
                n_st += 1
            elif kind == OP_ST_LOCAL:
                store(w.sm, op[1], op[2], t_can, local=True)
                n_st += 1
            elif kind == OP_PREFETCH_L1:
                pf_l1(w.sm, op[1], op[2], t_can)
                n_pf += 1
            elif kind == OP_PREFETCH_L2:
                pf_l2(op[1], op[2], t_can)
                n_pf += 1
            else:
                raise ValueError(f"unknown micro-op kind {kind}")
            smsp_next_free[smsp] = t_can + 1
            smsp_issued[smsp] += 1
            w.avail = t_can + 1
            nxt = next(w.gen, None)

        if nxt is None:
            _retire(w, w.avail)
            continue

        # one-step scoreboard scheduling for the next op
        avail = w.avail
        nxt_t = avail
        dep = nxt[4]
        if dep is not None:
            dep_ready = w.pending.get(dep)
            if dep_ready is not None:
                del w.pending[dep]
                if dep_ready > avail:
                    if dep in w.short_tags:
                        stall_short += dep_ready - avail
                        w.short_tags.discard(dep)
                    else:
                        stall_long += dep_ready - avail
                    nxt_t = dep_ready
                else:
                    w.short_tags.discard(dep)
        w.op = nxt
        seq += 1
        heappush(heap, (nxt_t, seq, w))

    if n_warps_run != len(programs):
        raise RuntimeError(
            "block scheduler lost warps: "
            f"ran {n_warps_run} of {len(programs)}"
        )

    return RawKernelStats(
        name=name,
        makespan_cycles=max_finish,
        n_warps=len(programs),
        warps_per_sm=warps_per_sm,
        n_smsp=n_smsp,
        issued_insts=sum(smsp_issued),
        alu_insts=n_alu,
        ld_global_insts=n_ldg,
        ld_local_insts=n_ldl,
        ld_shared_insts=n_lds,
        st_insts=n_st,
        prefetch_insts=n_pf,
        warp_resident_cycles=warp_resident,
        stall_long_scoreboard=stall_long,
        stall_short_scoreboard=stall_short,
        stall_not_selected=stall_ns,
    )
