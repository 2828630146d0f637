"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet-1k-serial --seed 1 --seconds 15 --trace 0

Prints each metric with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced and reports
the per-layer metrics.  Every run also writes a result file with its
provenance (and, when traced, its spans) under ``perfbench/results``.

The simulator is imported from ``src/`` next to this directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "device_sim_s_per_s": "sim-s/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "first_record_p50_s": "s",
}

#: Name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER_UNITS = {
    "scenarios.plan_s": "s",
    "scenarios.compile_s": "s",
    "scenarios.compile_us_per_member": "us",
    "sim.run_s": "s",
    "sim.events_per_s": "1/s",
    "sim.dispatched": "count",
    "runtime.payload_s": "s",
    "campaign.merge_s": "s",
    "campaign.checkpoint_s": "s",
    "campaign.checkpoint_calls": "count",
    "campaign.shard_overhead_s": "s",
    "campaign.shard_skew": "ratio",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "obs.span_episodes": "count",
    "service.submit_p50_s": "s",
    "service.report_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.exec_p50_s": "s",
    "service.records_per_job": "count",
    "trace_overhead": "ratio",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help="directory for the result file (default: perfbench/results)")
    return parser


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """Hash of the simulator's sources: the revision when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: Any, seed: int, trace: int) -> Dict[str, Any]:
    from perfbench.workloads import nproc

    return {
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "gc_threshold": list(gc.get_threshold()),
        "workload": workload.name,
        "backend": workload.backend,
        "workload_seed": seed,
        "trace": trace,
        "reference": workload.reference_origin,
        "started_at": time.time(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Any, setup_s: float) -> Dict[str, float]:
    ok = [job for job in phase.jobs if job.ok]
    latencies = [job.latency_s for job in ok]
    return {
        "setup_s": setup_s,
        "device_sim_s_per_s": percentile(phase.window_rates("work"), 50),
        "cells_per_s": percentile(phase.window_rates("cells"), 50),
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_p90_s": percentile(latencies, 90),
        "first_record_p50_s": percentile([job.first_record_s for job in ok], 50),
    }


def run(workload: Any, seconds: float, trace: int, out: Path) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the result record.

    Writes the record (and, when traced, the spans) to ``out``.
    """
    from perfbench.tracing import Tracer, layer_metrics

    seed = workload.seed
    stamp = f"{workload.name}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = workload.workdir
    spans: List[Dict[str, Any]] = []
    missing: List[str] = []
    try:
        rounds = workload.setup_rounds()
        start = time.perf_counter()
        workload.setup()
        warm_s = time.perf_counter() - start
        setup_s = statistics.median(rounds) + warm_s
        untraced = workload.measure(seconds)
        phases = [untraced]
        if trace:
            tracer = Tracer(workdir / "spool")
            with tracer.installed():
                traced = workload.measure(seconds, tracer)
            phases.append(traced)
            spans, missing = tracer.spans, tracer.missing_hooks
    finally:
        workload.close()
    if trace:
        metrics = layer_metrics(spans, tracer.gc)
        rate = end_to_end(untraced, setup_s)["device_sim_s_per_s"]
        traced_rate = end_to_end(traced, setup_s)["device_sim_s_per_s"]
        metrics["trace_overhead"] = traced_rate / rate if rate > 0 else 0.0
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(untraced, setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
    ops = [op for phase in phases for op in phase.ops]
    failed = [op for op in ops if not op.ok]
    record = {
        "provenance": provenance(workload, seed, trace),
        "seconds": seconds,
        "correct": bool(ops) and not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "errors": sorted({op.error for op in failed if op.error})[:10],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "setup": {"rounds_s": rounds, "warm_up_s": warm_s},
        "phases": [
            {
                "ops": len(phase.ops),
                "wall_s": phase.wall_s,
                "job_latency_s": [job.latency_s for job in phase.jobs],
                "first_record_s": [job.first_record_s for job in phase.jobs],
                "cells_per_s_windows": phase.window_rates("cells"),
            }
            for phase in phases
        ],
        "missing_hooks": missing,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stamp}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if trace:
        (out / f"{stamp}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    record = run(workload, args.seconds, args.trace, args.out)
    for name, metric in record["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
