"""The layers the traced run measures, and their per-layer metrics.

:func:`install` rebinds each layer's public functions to span-recording
wrappers; :func:`layer_metrics` folds the recorded spans (plus counts
read from the workload's own outputs) into the ``per_layer`` metrics
named in ``BENCHMARK.json``.  Spans inside ``src/`` are not part of
this benchmark: hierarchy time stays inside the engine span.
"""

from __future__ import annotations

import numpy as np

from spans import LayerTotals, Span, Tracer, fold_layers

#: per-layer metric -> unit, in report order
UNITS = {
    "datasets.trace_gen.calls": "count",
    "datasets.trace_gen.self_s": "s",
    "kernels.lower.self_s": "s",
    "kernels.lower.ops": "count",
    "kernels.hot_rows.self_s": "s",
    "gpusim.engine.calls": "count",
    "gpusim.engine.self_s": "s",
    "gpusim.engine.warp_insts": "count",
    "gpusim.engine.ns_per_inst": "ns",
    "gpusim.hierarchy.sectors": "count",
    "gpusim.hierarchy.dram_read_bytes": "B",
    "gpusim.memo.hits": "count",
    "gpusim.memo.misses": "count",
    "gpusim.memo.hit_ratio": "ratio",
    "gpusim.memo.key_self_s": "s",
    "gpusim.memo.hit_call_ms_p50": "ms",
    "core.embedding.self_s": "s",
    "fleet.calibrate.self_s": "s",
    "traffic.gen.self_s": "s",
    "traffic.arrivals": "count",
    "curve.evals": "count",
    "curve.evals_per_batch": "evals/batch",
    "curve.self_s": "s",
    "serving.loop.self_s": "s",
    "serving.batches": "count",
    "serving.ns_per_query": "ns",
    "router.self_s": "s",
    "router.batches": "count",
    "router.ns_per_query": "ns",
    "fold.calls": "count",
    "fold.self_s": "s",
    "telemetry.encode.self_s": "s",
    "telemetry.bytes": "B",
    "telemetry.decode.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

#: the benchmark's own root spans; their self time is unattributed
ROOT_PREFIX = "bench."
_NONE = LayerTotals()


def install(tracer: Tracer) -> None:
    """Trace every measured layer's entry points until ``tracer.restore``."""
    from repro.core import embedding, serving
    from repro.datasets import generator
    from repro.fleet import capacity, report, router
    from repro.gpusim import engine, memo
    from repro.kernels import registry
    from repro.memstore import policy
    from repro.telemetry import replay, sinks
    from repro.traffic import scenario

    patch = tracer.patch
    patch(generator, "generate_trace", "datasets.trace_gen")
    patch(registry, "build_trace", "kernels.lower",
          lambda r, a, k: {"ops": r.n_ops})
    patch(policy, "profile_hot_rows", "kernels.hot_rows")
    patch(engine, "run_kernel", "gpusim.engine",
          lambda r, a, k: {"warp_insts": r.issued_insts})
    patch(memo, "memo_key", "gpusim.memo.key")
    patch(memo.KernelMemo, "get", "gpusim.memo.get",
          lambda r, a, k: {"hit": r is not None})
    patch(memo.KernelMemo, "put", "gpusim.memo.put")
    patch(embedding, "run_table_kernel", "core.embedding")
    patch(capacity, "calibrated_latency_model", "fleet.calibrate")
    patch(scenario, "generate_arrivals", "traffic.gen",
          lambda r, a, k: {"arrivals": r.n_arrivals})
    patch(serving, "serve_stream", "serving.loop",
          lambda r, a, k: {"queries": r.n_queries})
    patch(router, "simulate_fleet_stream", "router",
          lambda r, a, k: {"queries": r.n_queries})
    patch(serving, "fold_stream_report", "fold",
          lambda r, a, k: {"batches": len(a[0].batches)})
    patch(report, "fold_fleet_report", "fold",
          lambda r, a, k: {"batches": sum(len(b) for b in a[0].replicas)})
    patch(sinks.RecorderSink, "emit", "telemetry.encode")
    patch(sinks.RecorderSink, "emit_block", "telemetry.encode")
    patch(replay, "load_runs", "telemetry.decode")


def layer_metrics(
    spans: list[Span],
    kernel_runs: list,
    counts: dict[str, int],
    overhead_s: float,
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics over one traced set-up plus one traced rep, and
    the reason for each metric the workload leaves unmeasured."""
    layers = fold_layers(spans)
    by_id = {s.id: s for s in spans}

    def calls(name: str) -> int:
        return layers.get(name, _NONE).calls

    def self_s(name: str) -> float:
        return layers.get(name, _NONE).self_s

    def attr(name: str, key: str) -> float:
        return layers.get(name, _NONE).attrs.get(key, 0)

    def under(parent: str, name: str, key: str) -> int:
        """Summed ``key`` of ``name`` spans directly under ``parent``."""
        return sum(
            s.attrs.get(key, 0) for s in spans
            if s.name == name and s.parent is not None
            and by_id[s.parent].name == parent
        )

    def per(value: float, count: float, scale: float = 1.0) -> float:
        return value / count * scale if count else 0.0

    hits = int(attr("gpusim.memo.get", "hit"))
    misses = calls("gpusim.memo.get") - hits
    hit_parents = {
        s.parent for s in spans if s.name == "gpusim.memo.get"
        and s.attrs.get("hit")
    }
    hit_call_ms = [
        (s.end - s.start) * 1e3 for s in spans
        if s.name == "core.embedding" and s.id in hit_parents
    ]
    serving_batches = under("serving.loop", "fold", "batches")
    router_batches = under("router", "fold", "batches")
    hier = [run.hierarchy for run in kernel_runs]
    warp_insts = attr("gpusim.engine", "warp_insts")

    metrics = {
        "datasets.trace_gen.calls": calls("datasets.trace_gen"),
        "datasets.trace_gen.self_s": self_s("datasets.trace_gen"),
        "kernels.lower.self_s": self_s("kernels.lower"),
        "kernels.lower.ops": attr("kernels.lower", "ops"),
        "kernels.hot_rows.self_s": self_s("kernels.hot_rows"),
        "gpusim.engine.calls": calls("gpusim.engine"),
        "gpusim.engine.self_s": self_s("gpusim.engine"),
        "gpusim.engine.warp_insts": warp_insts,
        "gpusim.engine.ns_per_inst": per(
            self_s("gpusim.engine"), warp_insts, 1e9),
        "gpusim.hierarchy.sectors": sum(
            h.l1_hit_sectors + h.l1_miss_sectors
            + h.l2_hit_sectors + h.l2_miss_sectors for h in hier),
        "gpusim.hierarchy.dram_read_bytes": sum(
            h.dram_read_bytes for h in hier),
        "gpusim.memo.hits": hits,
        "gpusim.memo.misses": misses,
        "gpusim.memo.hit_ratio": per(hits, hits + misses),
        "gpusim.memo.key_self_s": self_s("gpusim.memo.key"),
        "gpusim.memo.hit_call_ms_p50": (
            float(np.median(hit_call_ms)) if hit_call_ms else 0.0),
        "core.embedding.self_s": self_s("core.embedding"),
        "fleet.calibrate.self_s": self_s("fleet.calibrate"),
        "traffic.gen.self_s": self_s("traffic.gen"),
        "traffic.arrivals": attr("traffic.gen", "arrivals"),
        "curve.evals": calls("curve"),
        "curve.evals_per_batch": per(
            calls("curve"), serving_batches + router_batches),
        "curve.self_s": self_s("curve"),
        "serving.loop.self_s": self_s("serving.loop"),
        "serving.batches": serving_batches,
        "serving.ns_per_query": per(
            self_s("serving.loop"), attr("serving.loop", "queries"), 1e9),
        "router.self_s": self_s("router"),
        "router.batches": router_batches,
        "router.ns_per_query": per(
            self_s("router"), attr("router", "queries"), 1e9),
        "fold.calls": calls("fold"),
        "fold.self_s": self_s("fold"),
        "telemetry.encode.self_s": self_s("telemetry.encode"),
        "telemetry.bytes": counts.get("telemetry.bytes", 0),
        "telemetry.decode.self_s": self_s("telemetry.decode"),
        "trace.overhead_s": overhead_s,
        "trace.unattributed_s": sum(
            t.self_s for name, t in layers.items()
            if name.startswith(ROOT_PREFIX)),
    }

    # metric prefix -> the span whose absence leaves it unmeasured
    sources = {
        "datasets.": "datasets.trace_gen", "kernels.lower": "kernels.lower",
        "kernels.hot_rows": "kernels.hot_rows", "gpusim.engine": "gpusim.engine",
        "gpusim.memo.key": "gpusim.memo.key", "gpusim.memo.hit": "gpusim.memo.get",
        "gpusim.memo.misses": "gpusim.memo.get", "core.": "core.embedding",
        "fleet.": "fleet.calibrate", "traffic.": "traffic.gen",
        "curve.": "curve", "serving.": "serving.loop", "router.": "router",
        "fold.": "fold", "telemetry.encode": "telemetry.encode",
        "telemetry.bytes": "telemetry.encode",
        "telemetry.decode": "telemetry.decode",
    }
    reasons = {}
    for metric in UNITS:
        for prefix, span in sources.items():
            if metric.startswith(prefix) and not calls(span):
                reasons[metric] = f"no {span} calls in this workload"
    if not hier:
        for metric in ("gpusim.hierarchy.sectors",
                       "gpusim.hierarchy.dram_read_bytes"):
            reasons[metric] = "no cold kernel simulation in this workload"
    if not hit_call_ms and "gpusim.memo.hit_call_ms_p50" not in reasons:
        reasons["gpusim.memo.hit_call_ms_p50"] = (
            "no kernel call was answered from the memo")
    return {k: float(v) for k, v in metrics.items()}, reasons
