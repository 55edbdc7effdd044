"""The benchmark's workloads: set-up, one measured repetition, checks.

Each workload is a closed loop of one caller: every library call is
made when the previous one has returned.  Library entry points are
looked up through their modules at call time (``repro.serve_stream``,
``replay.load_runs``) so that the traced run's rebinding reaches them.

Every workload simulates through its own in-memory
:class:`RecordingMemo` with no disk tier, so the process default memo,
and the environment variables that configure it, are never consulted.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro
from repro.telemetry import replay
from repro.traffic import derive_seed

from spans import Tracer

#: Every lowering variant of the paper's kernel, in figure order.
SWEEP_VARIANTS = (
    "base", "OptMT", "RPF+OptMT", "LMPF+OptMT", "SMPF+OptMT",
    "L1DPF+OptMT", "L2P+OptMT", "RPF+L2P+OptMT",
)
#: The hotness presets of the speed-up figures: the working set ranges
#: from a few hot rows that fit the simulated L1 to a uniform draw that
#: overflows the L2.
SWEEP_PRESETS = ("high_hot", "med_hot", "low_hot", "random")
#: A one-SM A100 slice keeps one cold grid near ten host seconds.
SWEEP_SMS = 1

#: Scheme the serving curves are calibrated for (the fleet and scenario
#: experiments use it too).
SERVING_SCHEME = "RPF+L2P+OptMT"
MAX_BATCH = 2048
#: The flash crowd's base load as a share of saturation throughput: the
#: magnitude-8 spike peaks at 0.95 x capacity, as in the scenario
#: experiment.
FLASH_BASE_LOAD = 0.95 / 8.0
FLEET_GPUS = ((repro.A100_SXM4_80GB, 8), (repro.H100_NVL, 8))
#: Simulated seconds of flash crowd: about 65 k routed arrivals, a host
#: second or two per routing call.
FLEET_DURATION_S = 0.5
#: About 0.3 M single-GPU arrivals, a few tenths of a host second per
#: serve and replay.
SERVE_DURATION_S = 50.0
#: The calibrated curve is clamped below its first calibration point
#: (batch 512), so its batch-1 latency is a floor no batch beats.  The
#: scenario experiment's SLA, 0.8 x (timeout + spike-batch latency),
#: lands below that floor on this curve, where every query misses and
#: adaptive sizing degenerates; 1.5 x the floor keeps the SLA reachable
#: for queries that wait less than half a batch.
SLA_FLOOR_FACTOR = 1.5


class RecordingMemo(repro.KernelMemo):
    """In-memory kernel memo that also keeps every stored run in order,
    so the digest and the hierarchy counts cover every cold simulation."""

    def __init__(self) -> None:
        super().__init__()
        self.stored: list = []

    def put(self, key, run) -> None:
        self.stored.append(run)
        super().put(key, run)


def _kernel_run_record(run) -> dict[str, Any]:
    return {
        "stats": asdict(run.stats),
        "hierarchy": asdict(run.hierarchy),
        "pinned_lines": run.pinned_lines,
        "pin_coverage": run.pin_coverage,
        "pin_kernel_us": run.pin_kernel_us,
    }


def _plain(obj: Any) -> Any:
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(*parts: Any) -> str:
    """sha256 over simulated results; floats enter by exact repr."""
    text = json.dumps(parts, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Operations attempted, and the ones that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []

    def ops(self, n: int) -> range:
        start = self.attempted
        self.attempted += n
        return range(start, self.attempted)

    def expect(self, ok: bool, ops, reason: str) -> None:
        if not ok:
            self.failed_ops.update(ops)
            self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


@dataclass
class Setup:
    """One set-up's products plus what it measured."""

    seconds: float = 0.0
    kernel_runs: list = field(default_factory=list)
    #: host seconds and issued warp instructions of cold calibration
    calib_s: float = 0.0
    calib_insts: int = 0
    digest: str = ""
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class Rep:
    """One measured repetition: its timings and raw outputs."""

    wall_s: float
    #: end-to-end inputs: host seconds and simulated work of each phase
    timings: dict[str, Any]
    outputs: dict[str, Any]
    kernel_runs: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class Workload:
    """A workload's interface; see the subclasses for each one's story."""

    name = ""
    ops_per_rep = 1
    #: reps of set-up per run; the median is reported as ``setup_s``
    setup_reps = 5

    def __init__(self, seed: int) -> None:
        self.trace_seed = derive_seed(seed, "trace")
        self.arrival_seed = derive_seed(seed, "arrivals")
        self.router_seed = derive_seed(seed, "router")

    def setup(self) -> Setup:
        raise NotImplementedError

    def verify(self, setup: Setup, ledger: Ledger) -> None:
        """Checks made once, before the measured loop, off the clock."""

    def rep(self, setup: Setup, tracer: Tracer | None) -> Rep:
        raise NotImplementedError

    def check(self, setup: Setup, rep: Rep, ledger: Ledger,
              ops: range) -> str:
        """Output checks for one rep; returns the rep's digest."""
        raise NotImplementedError

    def end_to_end(self, setups: list[Setup],
                   reps: list[Rep]) -> tuple[dict, dict]:
        """(end-to-end metrics but ``setup_s`` and ``peak_rss_mb``,
        figures printed in the table only)."""
        raise NotImplementedError


def median(values) -> float:
    return float(np.median(list(values)))


def _calibrate(gpus, trace_seed: int) -> tuple[dict, Setup]:
    """Cold latency-curve calibration through a fresh memo."""
    memo = RecordingMemo()
    scheme = repro.Scheme.parse(SERVING_SCHEME)
    start = perf_counter()
    curves = {
        gpu.name: repro.calibrated_latency_model(
            gpu, scheme, seed=trace_seed, memo=memo,
        )
        for gpu in gpus
    }
    calib_s = perf_counter() - start
    return curves, Setup(
        kernel_runs=memo.stored,
        calib_s=calib_s,
        calib_insts=sum(run.stats.issued_insts for run in memo.stored),
    )


def _calibration_rate(setups: list[Setup]) -> float:
    """Issued warp instructions per host second of cold calibration."""
    return setups[0].calib_insts / median(s.calib_s for s in setups)


def _curve_points(curves: dict) -> dict:
    return {
        name: [curve(b) for b in (1, 512, 1024, MAX_BATCH)]
        for name, curve in curves.items()
    }


class KernelSweep(Workload):
    """Every lowering variant over the four hotness presets on a small
    A100 slice: once cold through a fresh memo, then once warm against
    the same memo, as a figure rerun does."""

    name = "kernel_sweep"
    ops_per_rep = 2 * len(SWEEP_VARIANTS) * len(SWEEP_PRESETS)
    #: set-up only resolves the slice and the grid, well under a
    #: millisecond, so it is repeated many times
    setup_reps = 200

    def setup(self) -> Setup:
        start = perf_counter()
        workload = repro.kernel_workload(
            repro.A100_SXM4_80GB,
            scale=repro.SimScale(name="sweep", num_sms=SWEEP_SMS),
        )
        grid = [
            (repro.Scheme.parse(variant), repro.HOTNESS_PRESETS[preset])
            for variant in SWEEP_VARIANTS
            for preset in SWEEP_PRESETS
        ]
        builds = [scheme.compile(workload.gpu) for scheme, _ in grid]
        return Setup(
            seconds=perf_counter() - start,
            digest=digest(asdict(workload), builds),
            data={"workload": workload, "grid": grid},
        )

    def rep(self, setup: Setup, tracer: Tracer | None) -> Rep:
        workload, grid = setup.data["workload"], setup.data["grid"]
        memo = RecordingMemo()
        run = repro.run_table_kernel  # rebound by the traced run

        def timed_pass():
            results, seconds = [], []
            for scheme, spec in grid:
                t = perf_counter()
                results.append(run(
                    workload, spec, scheme, seed=self.trace_seed, memo=memo))
                seconds.append(perf_counter() - t)
            return results, seconds

        start = perf_counter()
        cold, cold_s = timed_pass()
        cold_hits = memo.hits
        warm, warm_s = timed_pass()
        end = perf_counter()
        return Rep(
            wall_s=end - start,
            timings={
                # per launch, so that each launch's median can be taken
                # across reps
                "cold_s": cold_s,
                "warm_s": warm_s,
                "insts": sum(r.profile.issued_insts for r in cold),
                "queries": len(grid) * workload.batch_size,
            },
            outputs={
                "cold": cold, "warm": warm, "cold_hits": cold_hits,
                "warm_hits": memo.hits - cold_hits,
            },
            kernel_runs=memo.stored,
        )

    def check(self, setup: Setup, rep: Rep, ledger: Ledger,
              ops: range) -> str:
        out = rep.outputs
        n = len(out["cold"])
        cold_ops, warm_ops = ops[:n], ops[n:]
        ledger.expect(out["cold_hits"] == 0, cold_ops,
                      f"cold pass hit the memo {out['cold_hits']} times")
        ledger.expect(len(rep.kernel_runs) == n, cold_ops,
                      f"cold pass stored {len(rep.kernel_runs)} of {n} runs")
        ledger.expect(out["warm_hits"] == n, warm_ops,
                      f"warm pass hit the memo {out['warm_hits']} of {n}")
        for op, cold, warm in zip(warm_ops, out["cold"], out["warm"]):
            ledger.expect(warm == cold, [op],
                          f"warm result differs from cold for "
                          f"{cold.scheme.name}/{cold.dataset}")
        return digest(
            setup.digest,
            [asdict(r) for r in out["cold"]],
            [_kernel_run_record(r) for r in rep.kernel_runs],
        )

    def end_to_end(self, setups: list[Setup],
                   reps: list[Rep]) -> tuple[dict, dict]:
        # a whole cold pass is ten host seconds, too long to repeat
        # often: sum each launch's median time instead
        cold_s, warm_s = (
            float(np.median([r.timings[key] for r in reps], axis=0).sum())
            for key in ("cold_s", "warm_s")
        )
        insts, queries = reps[0].timings["insts"], reps[0].timings["queries"]
        return {
            "wall_s": cold_s + warm_s,
            "sim_warp_insts_per_s": insts / cold_s,
            "sim_queries_per_s": queries / cold_s,
        }, {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_queries_per_s": queries / warm_s,
        }


class FleetJsq(Workload):
    """A flash crowd routed by JSQ over 16 mixed A100/H100 replicas
    with size-or-timeout batching; curves calibrated in set-up; no sink
    attached to the measured calls."""

    name = "fleet_jsq"

    def setup(self) -> Setup:
        start = perf_counter()
        curves, setup = _calibrate(
            [gpu for gpu, _ in FLEET_GPUS], self.trace_seed)
        batching = repro.BatchingPolicy(max_batch=MAX_BATCH, timeout_ms=5.0)
        fleet = repro.FleetSpec.mixed(
            dict(FLEET_GPUS),
            scheme=repro.Scheme.parse(SERVING_SCHEME), batching=batching,
        )
        capacity_qps = sum(
            MAX_BATCH / (curves[r.gpu.name](MAX_BATCH) / 1e3)
            for r in fleet.replicas
        )
        spec = repro.scenario_profile(
            "flash", base_qps=FLASH_BASE_LOAD * capacity_qps,
            duration_s=FLEET_DURATION_S,
        )
        arrivals = repro.generate_arrivals(spec, seed=self.arrival_seed)
        setup.seconds = perf_counter() - start
        setup.data = {"curves": curves, "fleet": fleet, "arrivals": arrivals}
        setup.digest = digest(
            [_kernel_run_record(r) for r in setup.kernel_runs],
            _curve_points(curves), arrivals.fingerprint(),
        )
        return setup

    def _route(self, setup: Setup, curves: dict, sink=None):
        return repro.simulate_fleet_stream(
            setup.data["fleet"], curves, setup.data["arrivals"],
            policy="jsq", seed=self.router_seed, sink=sink,
        )

    def verify(self, setup: Setup, ledger: Ledger) -> None:
        """One recorded routing call: conservation and latency >= batch
        execution per query, read back from the recording."""
        (op,) = ledger.ops(1)
        buf = io.StringIO()
        with repro.RecorderSink(buf) as sink:
            report = self._route(setup, setup.data["curves"], sink)
        buf.seek(0)
        (run,) = replay.load_runs(buf)
        n = setup.data["arrivals"].n_arrivals
        routed = sum(int(b.sizes.sum()) for b in run.replicas)
        ledger.expect(routed == n == report.n_queries, [op],
                      f"routed {routed} of {n} arrivals "
                      f"(report says {report.n_queries})")
        ledger.expect(
            sum(r.n_queries for r in report.replica_reports) == n, [op],
            "per-replica query counts do not sum to the arrivals")
        for block in run.replicas:
            member_times, _ = block.members()
            done = np.repeat(block.done, block.sizes)
            # done - arrival rounds once; a member that arrived at the
            # batch start may read up to one ulp of `done` short
            latency = done - member_times
            floor = np.repeat(block.exec_s, block.sizes) - np.spacing(done)
            ledger.expect(bool(np.all(latency >= floor)), [op],
                          f"{block.replica}: a query finished before its "
                          f"batch executed")
        setup.data["verified"] = report

    def rep(self, setup: Setup, tracer: Tracer | None) -> Rep:
        curves = setup.data["curves"]
        if tracer is not None:
            curves = {k: tracer.wrap(c, "curve") for k, c in curves.items()}
        start = perf_counter()
        report = self._route(setup, curves)
        wall = perf_counter() - start
        return Rep(
            wall_s=wall,
            timings={"route_s": wall, "queries": report.n_queries},
            outputs={"report": report},
        )

    def check(self, setup: Setup, rep: Rep, ledger: Ledger,
              ops: range) -> str:
        report = rep.outputs["report"]
        ledger.expect(report == setup.data["verified"], ops,
                      "report differs from the verified routing call")
        return digest(setup.digest, asdict(report))

    def end_to_end(self, setups: list[Setup],
                   reps: list[Rep]) -> tuple[dict, dict]:
        route_s = median(r.timings["route_s"] for r in reps)
        return {
            "wall_s": route_s,
            "sim_warp_insts_per_s": _calibration_rate(setups),
            "sim_queries_per_s": reps[0].timings["queries"] / route_s,
        }, {}


class ServeSla(Workload):
    """One A100 serving a flash crowd with SLA-adaptive continuous
    batching, a recorder attached; the recording is then replayed."""

    name = "serve_sla"
    ops_per_rep = 2  # serve, replay

    def setup(self) -> Setup:
        start = perf_counter()
        gpu = repro.A100_SXM4_80GB
        curves, setup = _calibrate([gpu], self.trace_seed)
        curve = curves[gpu.name]
        capacity_qps = MAX_BATCH / (curve(MAX_BATCH) / 1e3)
        sla_ms = round(SLA_FLOOR_FACTOR * curve(1), 2)
        spec = repro.scenario_profile(
            "flash", base_qps=FLASH_BASE_LOAD * capacity_qps,
            duration_s=SERVE_DURATION_S,
        )
        arrivals = repro.generate_arrivals(spec, seed=self.arrival_seed)
        setup.seconds = perf_counter() - start
        setup.data = {
            "curve": curve, "arrivals": arrivals, "sla_ms": sla_ms,
            "policy": repro.ContinuousBatching(
                max_batch=MAX_BATCH, sla_ms=sla_ms),
        }
        setup.digest = digest(
            [_kernel_run_record(r) for r in setup.kernel_runs],
            _curve_points(curves), arrivals.fingerprint(), sla_ms,
        )
        return setup

    def rep(self, setup: Setup, tracer: Tracer | None) -> Rep:
        data = setup.data
        curve = data["curve"]
        if tracer is not None:
            curve = tracer.wrap(curve, "curve")
        buf = io.StringIO()
        start = perf_counter()
        with repro.RecorderSink(buf) as sink:
            report = repro.serve_stream(
                curve, data["arrivals"], policy=data["policy"],
                sla_ms=data["sla_ms"], scheme_name=SERVING_SCHEME, sink=sink,
            )
        served = perf_counter()
        buf.seek(0)
        runs = replay.load_runs(buf)
        replayed = [replay.replay_report(run) for run in runs]
        end = perf_counter()
        return Rep(
            wall_s=end - start,
            timings={
                "serve_s": served - start, "replay_s": end - served,
                "queries": report.n_queries,
            },
            outputs={"report": report, "runs": runs, "replayed": replayed},
            counts={"telemetry.bytes": len(buf.getvalue())},
        )

    def check(self, setup: Setup, rep: Rep, ledger: Ledger,
              ops: range) -> str:
        serve_op, replay_op = ops
        report, runs = rep.outputs["report"], rep.outputs["runs"]
        n = setup.data["arrivals"].n_arrivals
        ledger.expect(0.0 < report.sla_hit_pct < 100.0, [serve_op],
                      f"sla_hit_pct {report.sla_hit_pct} not inside (0, 100)")
        batched = sum(int(run.batches.sizes.sum()) for run in runs)
        ledger.expect(batched == n == report.n_queries, [serve_op],
                      f"batches hold {batched} of {n} arrivals")
        ledger.expect(rep.outputs["replayed"] == [report], [replay_op],
                      "replayed report differs from the live report")
        return digest(setup.digest, asdict(report))

    def end_to_end(self, setups: list[Setup],
                   reps: list[Rep]) -> tuple[dict, dict]:
        queries = reps[0].timings["queries"]
        return {
            "wall_s": median(r.wall_s for r in reps),
            "sim_warp_insts_per_s": _calibration_rate(setups),
            "sim_queries_per_s": queries / median(
                r.timings["serve_s"] for r in reps),
        }, {
            "replay_queries_per_s": queries / median(
                r.timings["replay_s"] for r in reps),
        }


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (KernelSweep, FleetJsq, ServeSla)
}
