"""Compiled warp traces: flat-array lowering of warp programs.

The generator encoding in :mod:`repro.gpusim.isa` is convenient to
write but expensive to execute: every micro-op costs a generator frame
resume and a fresh 5-tuple.  A :class:`CompiledTrace` lowers a whole
kernel launch into five flat int columns (op kind / operand A /
operand B / scoreboard tag / dependency tag) plus a CSR-style
``warp_starts`` index, so the engine's inner loop indexes preallocated
arrays instead of driving Python generators.

Lowering is mechanical and loss-free; the one build-time optimization
is *ALU fusion*: an ``OP_ALU`` op directly following another ``OP_ALU``
in the same warp with no dependency is merged into its predecessor's
cycle count, exactly as the generator-driven oracle coalesces such a
burst at run time (see :mod:`repro.gpusim.engine`).  Every trace is
built through :class:`TraceBuilder` (or by structured builders that
emit the same fused columns), so the engine's launch path never sees a
fusable pair and needs no runtime coalescing.

``None`` tags/deps are stored as ``-1`` so every column stays a plain
int column; :func:`compile_programs` converts on the way in.

A trace also knows its :meth:`~CompiledTrace.fingerprint` — a content
hash over the packed columns — a stable identity for deduplication and
equivalence tests.  (The kernel-result memo in
:mod:`repro.gpusim.memo` keys on the *inputs* that produce a trace —
workload content, build, lowering constants — so cache hits never pay
for trace construction; see ``run_table_kernel``.)
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

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

WarpProgram = Callable[[], Iterator[tuple]]


class CompiledTrace:
    """One kernel launch, lowered to flat per-op columns.

    ``kind[i]``, ``a[i]``, ``b[i]``, ``tag[i]``, ``dep[i]`` describe
    micro-op ``i``; warp ``w`` owns ops ``warp_starts[w]`` (inclusive)
    through ``warp_starts[w + 1]`` (exclusive).  Tag/dep use ``-1`` for
    "none".
    """

    __slots__ = ("kind", "a", "b", "tag", "dep", "warp_starts",
                 "_fingerprint", "_exec")

    def __init__(
        self,
        kind: list[int],
        a: list[int],
        b: list[int],
        tag: list[int],
        dep: list[int],
        warp_starts: list[int],
    ) -> None:
        n = len(kind)
        if not (len(a) == len(b) == len(tag) == len(dep) == n):
            raise ValueError("trace columns must have equal length")
        if not warp_starts or warp_starts[0] != 0 or warp_starts[-1] != n:
            raise ValueError("warp_starts must span [0, n_ops]")
        self.kind = kind
        self.a = a
        self.b = b
        self.tag = tag
        self.dep = dep
        self.warp_starts = warp_starts
        self._fingerprint: str | None = None
        self._exec: tuple[list[tuple], dict[str, int]] | None = None

    # ------------------------------------------------------------------
    @property
    def n_warps(self) -> int:
        return len(self.warp_starts) - 1

    @property
    def n_ops(self) -> int:
        return len(self.kind)

    def fingerprint(self) -> str:
        """Content hash of the trace (stable across processes/runs)."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for column in (self.kind, self.a, self.b, self.tag, self.dep,
                           self.warp_starts):
                h.update(array("q", column).tobytes())
                h.update(b"|")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def exec_form(self) -> tuple[list[tuple], dict[str, int]]:
        """Execution form: one ``(kind, a, b, tag)`` tuple per op (the
        dep column is indexed separately), plus static counters.

        Every op issues exactly once regardless of scheduling, so the
        instruction-mix counters of :class:`RawKernelStats` are a pure
        function of the trace; precomputing them here (cached) lets the
        engine's hot loop track only time-dependent quantities.
        """
        if self._exec is None:
            kind = self.kind
            a = self.a
            ops = list(zip(kind, a, self.b, self.tag))
            if kind:
                kind_arr = np.asarray(kind, dtype=np.int64)
                n_alu = int(
                    np.asarray(a, dtype=np.int64)[kind_arr == OP_ALU].sum()
                )
            else:
                n_alu = 0
            counts = {
                "alu": n_alu,
                "ld_global": kind.count(OP_LD_GLOBAL),
                "ld_local": kind.count(OP_LD_LOCAL),
                "ld_shared": kind.count(OP_LD_SHARED),
                "st": (
                    kind.count(OP_ST_GLOBAL)
                    + kind.count(OP_ST_SHARED)
                    + kind.count(OP_ST_LOCAL)
                ),
                "prefetch": (
                    kind.count(OP_PREFETCH_L1) + kind.count(OP_PREFETCH_L2)
                ),
            }
            counts["issued"] = n_alu + (len(kind) - kind.count(OP_ALU))
            self._exec = (ops, counts)
        return self._exec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return (
            self.kind == other.kind and self.a == other.a
            and self.b == other.b and self.tag == other.tag
            and self.dep == other.dep
            and self.warp_starts == other.warp_starts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTrace({self.n_warps} warps, {self.n_ops} ops, "
            f"{self.fingerprint()[:12]})"
        )


class TraceBuilder:
    """Incremental builder for :class:`CompiledTrace`.

    Structured kernel builders append ops warp by warp; consecutive
    dependency-free ALU micro-ops within a warp are fused on the fly.
    """

    __slots__ = ("kind", "a", "b", "tag", "dep", "warp_starts")

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.tag: list[int] = []
        self.dep: list[int] = []
        self.warp_starts: list[int] = [0]

    def append(self, kind: int, a: int = 0, b: int = 0,
               tag: int = -1, dep: int = -1) -> None:
        """Append one micro-op to the current (last open) warp."""
        if kind not in OP_NAMES:
            raise ValueError(f"unknown micro-op kind {kind}")
        kinds = self.kind
        if (
            kind == OP_ALU
            and dep < 0
            and len(kinds) > self.warp_starts[-1]
            and kinds[-1] == OP_ALU
        ):
            self.a[-1] += a
            return
        kinds.append(kind)
        self.a.append(a)
        self.b.append(b)
        self.tag.append(tag)
        self.dep.append(dep)

    def append_op(self, op: tuple) -> None:
        """Append one ISA 5-tuple (``None`` tag/dep allowed)."""
        kind, a, b, tag, dep = op
        self.append(
            kind, a, b,
            -1 if tag is None else tag,
            -1 if dep is None else dep,
        )

    def end_warp(self) -> None:
        """Close the current warp (empty warps are legal)."""
        self.warp_starts.append(len(self.kind))

    def build(self) -> CompiledTrace:
        if self.warp_starts[-1] != len(self.kind):
            raise ValueError("unterminated warp: call end_warp() first")
        return CompiledTrace(
            self.kind, self.a, self.b, self.tag, self.dep, self.warp_starts
        )


def compile_programs(programs: Iterable[WarpProgram]) -> CompiledTrace:
    """Lower generator warp programs into one flat :class:`CompiledTrace`.

    Runs each generator exactly once, materializing its op stream into
    the builder (with ALU fusion).  This is how generator programs —
    the oracle's input — reach :func:`~repro.gpusim.engine.run_kernel`;
    structured builders (:mod:`repro.kernels`) skip the generators
    entirely.
    """
    builder = TraceBuilder()
    append_op = builder.append_op
    for factory in programs:
        for op in factory():
            append_op(op)
        builder.end_warp()
    return builder.build()
