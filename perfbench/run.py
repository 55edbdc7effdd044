"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload`` is ``kernel_sweep``, ``fleet_jsq``, ``serve_sla`` or
``all`` (each workload in turn, each in its own process).  The seed
derives the kernel-trace, arrival and router seeds.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` also makes one traced
set-up and one traced rep and reports the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable table, the machine fingerprint and the digest of the
simulated results.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kernel_sweep", "fleet_jsq", "serve_sla")

#: Variables that swap the engine, memo tier or harness slice under the
#: library; a stray one would change what the benchmark measures.
GUARDED_ENV = (
    "REPRO_GPUSIM_ENGINE",
    "REPRO_KERNEL_MEMO",
    "REPRO_KERNEL_MEMO_DIR",
    "REPRO_KERNEL_MEMO_CAP",
    "REPRO_KERNEL_MEMO_CAPACITY",
    "REPRO_HARNESS_SMS",
)

#: end-to-end metric -> unit, in report order
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_warp_insts_per_s": "1/s",
    "sim_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def _table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<34} {value:>16.6g}  {unit}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode or not lines:
            print(f"{name}: exited with code {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def _measure(workload, ledger, seconds: float) -> tuple[list, list, str]:
    """Set-up reps, one-off verification, then measured reps until the
    next rep would overrun ``seconds``; returns (setups, reps, digest)."""
    setups = []
    for _ in range(workload.setup_reps):
        ops = ledger.ops(1)
        setup = workload.setup()
        if setups:
            ledger.expect(setup.digest == setups[0].digest, ops,
                          "set-up differs between repeats")
            setup.data = {}  # only the first set-up's products are used
        setups.append(setup)
    workload.verify(setups[0], ledger)

    reps, digests = [], []
    start = perf_counter()
    attempts = 0
    while True:
        attempts += 1
        ops = ledger.ops(workload.ops_per_rep)
        try:
            rep = workload.rep(setups[0], None)
            digest = workload.check(setups[0], rep, ledger, ops)
        except Exception:  # counted as failed ops; the run goes on
            traceback.print_exc()
            ledger.expect(False, ops, "rep raised")
        else:
            ledger.expect(not digests or digest == digests[0], ops,
                          "simulated results differ between repeats")
            rep.outputs.clear()  # keep peak memory independent of reps
            reps.append(rep)
            digests.append(digest)
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / attempts) > seconds:
            break
    return setups, reps, digests[0] if digests else ""


def _traced(workload, ledger, setups, reps, digest: str, e2e: dict):
    """One traced set-up and one traced rep; returns per-layer metrics."""
    from layers import install, layer_metrics
    from spans import Tracer

    tracer = Tracer()
    install(tracer)
    ops = ledger.ops(1 + workload.ops_per_rep)
    try:
        with tracer.span("bench.setup"):
            setup = workload.setup()
        with tracer.span("bench.rep"):
            rep = workload.rep(setups[0], tracer)
    finally:
        tracer.restore()
    ledger.expect(setup.digest == setups[0].digest, ops[:1],
                  "traced set-up differs from the untraced one")
    traced_digest = workload.check(setups[0], rep, ledger, ops[1:])
    ledger.expect(traced_digest == digest, ops[1:],
                  "traced simulated results differ from the untraced ones")
    overhead = (setup.seconds + rep.wall_s) - (
        e2e["setup_s"] + e2e["wall_s"])
    return layer_metrics(
        tracer.spans, setup.kernel_runs + rep.kernel_runs, rep.counts,
        float(overhead),
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    stray = [name for name in GUARDED_ENV if name in os.environ]
    if stray:
        print(f"refusing to start: {', '.join(stray)} set in the "
              f"environment; unset it to benchmark the default engine "
              f"and an in-memory kernel memo", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"cannot find the library at {src}/repro; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy

    from workloads import WORKLOADS, Ledger, median

    workload = WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    setups, reps, digest = _measure(workload, ledger, args.seconds)
    if not reps:
        print(_result_line(False, ledger.attempted, ledger.failed, {}))
        return 1
    e2e, info = workload.end_to_end(setups, reps)
    e2e["setup_s"] = median(s.seconds for s in setups)
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    per_layer, reasons = None, {}
    if args.trace:
        per_layer, reasons = _traced(
            workload, ledger, setups, reps, digest, e2e)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "digest": digest,
        "setup_reps": len(setups),
        "reps": len(reps),
        "fingerprint": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
    }))
    e2e_rows = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    _table("end-to-end (untraced)", {
        **e2e_rows,
        **{name: (value, "1/s" if name.endswith("_per_s") else "s")
           for name, value in info.items()},
        "error_rate": (ledger.failed / ledger.attempted, "ratio"),
    })
    for reason in dict.fromkeys(ledger.reasons):
        print(f"FAILED: {reason}")
    if per_layer is not None:
        from layers import UNITS

        layer_rows = {name: (per_layer[name], unit)
                      for name, unit in UNITS.items()}
        _table("per-layer (one traced set-up + one traced rep)", layer_rows)
        for name, reason in reasons.items():
            print(f"  not measured: {name}: {reason}")
    metrics = layer_rows if per_layer is not None else e2e_rows
    print(_result_line(ledger.failed == 0, ledger.attempted, ledger.failed,
                       metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
