"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of result files
written by ``perfbench/run.py --trace 0`` — typically the parent commit
and the change, run in alternating order with the same seeds and
``--seconds``.  For every workload and end-to-end metric it prints each
side's median and quartiles and one verdict:

* ``better``  — the change wins at least nine in ten seed-paired runs
  (ties count for neither) and the medians differ by more than the
  parent's own quartile spread; or, where the spread is wider than the
  bound, every run of the change beats every run of the parent;
* ``unresolved`` — a side's quartile spread, as a share of its median,
  is wider than the metric's bound;
* ``worse``   — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Exits 1 when any
metric is worse or the change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_results(source: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced result records by workload, oldest first."""
    paths = [source] if source.is_file() else sorted(source.glob("*.json"))
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        meta = record.get("provenance", {})
        if meta.get("trace"):
            continue
        by_workload.setdefault(meta["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda record: record["provenance"]["started_at"])
    return by_workload


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Pairs of runs on the same seed; by run order when no seed matches."""
    new_by_seed = {record["provenance"]["workload_seed"]: record for record in new}
    pairs = [
        (record, new_by_seed[record["provenance"]["workload_seed"]])
        for record in base
        if record["provenance"]["workload_seed"] in new_by_seed
    ]
    return pairs or list(zip(base, new))


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    better: str,
    bound: float,
) -> Tuple[str, int]:
    """The verdict for one metric and the number of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    wins = sum(1 for old, now in pairs if sign * (now - old) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (n_med - b_med) > b_q3 - b_q1
    ):
        return "better", wins
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (n_q3 - n_q1) / abs(n_med) if n_med else 0.0,
    )
    if spread > bound:
        if all(sign * (now - old) > 0 for now in new for old in base):
            return "better", wins
        return "unresolved", wins
    if b_med and sign * (n_med - b_med) / abs(b_med) < -bound:
        return "worse", wins
    return "within bound", wins


def compare(base_dir: Path, new_dir: Path, benchmark: Dict[str, Any]) -> int:
    base_sets, new_sets = load_results(base_dir), load_results(new_dir)
    status = 0
    header = f"{'workload':18s} {'metric':20s} {'unit':8s} {'base median [q1, q3] n':36s} {'new median [q1, q3] n':36s} {'change':>8s} {'wins':>6s}  verdict"
    print(header)
    print("-" * len(header))
    for workload in benchmark["workloads"]:
        name = workload["name"]
        base, new = base_sets.get(name, []), new_sets.get(name, [])
        if not base or not new:
            print(f"{name:18s} (no results on {'both sides' if not base and not new else 'one side'})")
            continue
        pairs = pair(base, new)
        for metric in benchmark["end_to_end"]:
            key = metric["name"]

            def values(records: List[Dict[str, Any]]) -> List[float]:
                return [record["metrics"][key]["value"] for record in records if key in record["metrics"]]

            b_vals, n_vals = values(base), values(new)
            if not b_vals or not n_vals:
                continue
            paired = [
                (old["metrics"][key]["value"], now["metrics"][key]["value"])
                for old, now in pairs
                if key in old["metrics"] and key in now["metrics"]
            ]
            outcome, wins = verdict(b_vals, n_vals, paired, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            b_q1, b_med, b_q3 = quartiles(b_vals)
            n_q1, n_med, n_q3 = quartiles(n_vals)
            change = (n_med - b_med) / abs(b_med) * 100 if b_med else 0.0
            print(
                f"{name:18s} {key:20s} {metric['unit']:8s} "
                f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] {len(b_vals)}':36s} "
                f"{f'{n_med:.4g} [{n_q1:.4g}, {n_q3:.4g}] {len(n_vals)}':36s} "
                f"{change:+7.1f}% {f'{wins}/{len(paired)}':>6s}  {outcome}"
            )
        b_failed = sum(record["failed"] for record in base)
        n_failed = sum(record["failed"] for record in new)
        if n_failed > b_failed:
            print(f"{name:18s} failed operations: base {b_failed}, new {n_failed} — no gain counts")
            status = 1
    hosts = {
        (record["provenance"]["host"], record["provenance"]["nproc"])
        for sets in (base_sets, new_sets)
        for records in sets.values()
        for record in records
    }
    if len(hosts) > 1:
        print(f"warning: results come from more than one host/CPU count: {sorted(hosts)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/compare.py", description="compare two benchmark result sets")
    parser.add_argument("base", type=Path, help="parent commit's result directory or file")
    parser.add_argument("new", type=Path, help="change's result directory or file")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    return compare(args.base, args.new, benchmark)


if __name__ == "__main__":
    sys.exit(main())
