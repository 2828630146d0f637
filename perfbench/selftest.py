"""Self-test of the benchmark at toy scale.

    python3 perfbench/selftest.py

Checks, on shrunken versions of all four workloads, that

1. every metric ``BENCHMARK.json`` names is reported, with its unit,
   for every workload, untraced and traced;
2. a deliberately wrong reference digest turns operations into failed
   ones (telemetry digest on a fleet, span digest on the library);
3. the traced and untraced runs produce identical digests.

Exits 0 when every check holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
TOY_SECONDS = 0.2


def toy_workloads(workdir: Path) -> Dict[str, Callable[[], Any]]:
    from perfbench.workloads import FleetSerial, FleetSharded, LibrarySweep, ServiceMixed

    return {
        "fleet-1k-serial": lambda: FleetSerial(SEED, workdir / "serial", members=40, duration=2.0),
        "fleet-1k-sharded": lambda: FleetSharded(SEED, workdir / "sharded", members=40, duration=2.0),
        "library-sweep": lambda: LibrarySweep(
            SEED, workdir / "library",
            scenarios=("printer-jam-drill", "recovery-ladder-drill"), seeds_per_scenario=1,
        ),
        "service-mixed": lambda: ServiceMixed(SEED, workdir / "service", min_jobs=6),
    }


def check_metrics(workdir: Path, failures: List[str]) -> None:
    from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS, run

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    if declared[0] != END_TO_END_UNITS or declared[1] != PER_LAYER_UNITS:
        failures.append("BENCHMARK.json metrics differ from the ones run.py reports")
    workload_names = [w["name"] for w in benchmark["workloads"]]
    toys = toy_workloads(workdir)
    if sorted(workload_names) != sorted(toys):
        failures.append(f"BENCHMARK.json workloads {workload_names} != {sorted(toys)}")
    for name, make in toys.items():
        for trace in (0, 1):
            record = run(make(), TOY_SECONDS, trace, workdir / "results")
            reported = {key: metric["unit"] for key, metric in record["metrics"].items()}
            if reported != declared[trace]:
                failures.append(f"{name} trace={trace}: reported {sorted(reported)}")
            if not record["correct"]:
                failures.append(f"{name} trace={trace}: not correct: {record['errors']}")
            print(f"ok   metrics  {name} trace={trace} ({record['attempted']} ops)")


def check_wrong_reference(workdir: Path, failures: List[str]) -> None:
    toys = toy_workloads(workdir)
    for name, slot in (("fleet-1k-serial", 0), ("library-sweep", 1)):
        workload = toys[name]()
        try:
            workload.setup()
            workload.expected = {
                key: [("0" * len(value) if index == slot else value)
                      for index, value in enumerate(digests)]
                for key, digests in workload.expected.items()
            }
            phase = workload.measure(TOY_SECONDS)
        finally:
            workload.close()
        failed = sum(1 for op in phase.ops if not op.ok)
        if not phase.ops or failed == 0:
            failures.append(f"{name}: wrong reference digest left failed_fraction at 0")
        else:
            print(f"ok   wrong-reference {name}: {failed}/{len(phase.ops)} failed")


def check_trace_digests(workdir: Path, failures: List[str]) -> None:
    from perfbench.tracing import Tracer

    toys = toy_workloads(workdir)
    for name in ("fleet-1k-sharded", "library-sweep"):
        workload = toys[name]()
        try:
            workload.setup()
            plain = workload.measure(TOY_SECONDS)
            tracer = Tracer(workload.workdir / "spool")
            with tracer.installed():
                traced = workload.measure(TOY_SECONDS, tracer)
        finally:
            workload.close()
        cells = len(workload.cells)
        untraced_digests = [op.digests for op in plain.ops[:cells]]
        traced_digests = [op.digests for op in traced.ops[:cells]]
        if untraced_digests != traced_digests or not tracer.spans:
            failures.append(f"{name}: traced digests differ from untraced ones")
        else:
            print(f"ok   trace-digests {name}: {cells} cells, {len(tracer.spans)} spans")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work"))
    failures: List[str] = []
    try:
        check_metrics(workdir, failures)
        check_wrong_reference(workdir, failures)
        check_trace_digests(workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
