"""Ad-serving scenario: pick the cheapest configuration that meets an SLA.

The paper's motivation: ad ranking runs DLRM inference under a tail
latency budget; every scheme that lowers batch latency either raises
the feasible batch size (throughput) or cuts the number of GPUs needed.

This example sweeps batch sizes per scheme on the end-to-end pipeline
and reports, for a 100 ms SLA, the largest feasible batch and the
implied queries-per-second per GPU.

Run:  python examples/ad_serving_sla.py
"""

from repro import (
    BASE,
    OPTMT,
    PAPER_MODEL,
    RPF_L2P_OPTMT,
    SimScale,
    run_inference,
)
from repro.config.model import DLRMConfig
from repro.core.embedding import kernel_workload

SLA_MS = 100.0
SCALE = SimScale("sla", 4)
BATCHES = (512, 1024, 2048, 4096)


def batch_model(batch_size: int) -> DLRMConfig:
    return DLRMConfig(
        num_tables=PAPER_MODEL.num_tables,
        table=PAPER_MODEL.table,
        batch_size=batch_size,
        pooling_factor=PAPER_MODEL.pooling_factor,
        bottom_mlp_dims=PAPER_MODEL.bottom_mlp_dims,
        top_mlp_dims=PAPER_MODEL.top_mlp_dims,
        dense_features=PAPER_MODEL.dense_features,
    )


print(f"SLA: {SLA_MS:.0f} ms batch latency, dataset=med_hot "
      f"(production-like hotness)\n")
print(f"{'scheme':15s} " + "".join(f"  BS={b:<6d}" for b in BATCHES)
      + "  max QPS/GPU")
for scheme in (BASE, OPTMT, RPF_L2P_OPTMT):
    row = f"{scheme.name:15s} "
    best_qps = 0.0
    for batch in BATCHES:
        model = batch_model(batch)
        workload = kernel_workload(model=model, scale=SCALE)
        result = run_inference(
            "med_hot", scheme, model=model, workload=workload
        )
        latency = result.batch_latency_ms
        ok = latency <= SLA_MS
        row += f" {latency:7.1f}{'*' if ok else ' '} "
        if ok:
            best_qps = max(best_qps, 1000.0 / latency * batch)
    row += f" {best_qps:10.0f}"
    print(row)

print("\n(* = meets the SLA; latencies in ms. The combined scheme either "
      "serves larger batches\nwithin the SLA or the same batch with "
      "headroom — fewer GPUs for the same traffic.)")

# ---------------------------------------------------------------------
# Tail latency under a live Poisson query stream (serving simulator):
# calibrate a batch-latency curve per scheme, then find the max QPS one
# GPU sustains at a p99 SLA.
# ---------------------------------------------------------------------
from repro.core.serving import (  # noqa: E402  (example flow)
    LatencyCurve,
    max_sustainable_qps,
)

print(f"\nLive serving: max sustainable QPS per GPU at p99 <= "
      f"{SLA_MS:.0f} ms (Poisson arrivals):\n")
for scheme in (BASE, RPF_L2P_OPTMT):
    points = []
    for batch in BATCHES:
        model = batch_model(batch)
        workload = kernel_workload(model=model, scale=SCALE)
        result = run_inference(
            "med_hot", scheme, model=model, workload=workload
        )
        points.append(result.batch_latency_ms)
    latency_model = LatencyCurve.interpolated(BATCHES, points)
    qps, reports = max_sustainable_qps(
        latency_model, sla_ms=SLA_MS,
        qps_grid=(2000, 8000, 16000, 32000, 64000),
        scheme_name=scheme.name,
    )
    at_qps = next((r for r in reports if r.qps == qps), reports[0])
    print(f"  {scheme.name:15s} {qps:8.0f} QPS  "
          f"(p99 {at_qps.p99_ms:.1f} ms, mean batch "
          f"{at_qps.mean_batch_size:.0f}, GPU util "
          f"{at_qps.gpu_utilization:.0%})")
