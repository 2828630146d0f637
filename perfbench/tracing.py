"""Wall-clock spans around the calls into each ``repro`` layer.

The traced run wraps public functions of the simulator from outside —
module attributes and class methods are swapped for timing wrappers
while :meth:`Tracer.installed` is active and restored afterwards — so
the simulator's own code is never edited.  Spans are kept in memory and
written out once, when the run ends.

Shard workers are forked from the traced process and inherit the
wrappers; the ``execute_plan`` wrapper spools each worker's spans and
GC counters to a file that the parent collects after every cell, so a
sharded cell's compile, kernel run and payload time is attributed the
same way as a serial one's.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span names that root one operation (a cell, or one service job).
ROOT_SPANS = ("cell", "service.job")


class GcTracker:
    """Collections and pause time, fed by :data:`gc.callbacks`."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started: Optional[float] = None

    def __call__(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def snapshot(self) -> Tuple[int, float]:
        return self.collections, self.pause_s


class Tracer:
    """In-memory span store plus the hooks that feed it."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.gc = GcTracker()
        self.missing_hooks: List[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[int] = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict takes extra attributes.

        ``cell`` opens a new operation; nested spans inherit it.
        """
        stack = self._stack()
        if cell is None:
            cell = getattr(self._local, "cell", None)
        else:
            self._local.cell = cell
        record = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "parent": stack[-1] if stack else None,
            "cell": cell,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(record)

    # -- worker spool ---------------------------------------------------
    def _spool(self, mark: int, gc_mark: Tuple[int, float]) -> None:
        """Write a forked worker's new spans where the parent finds them."""
        collections, pause = self.gc.snapshot()
        data = {
            "spans": self.spans[mark:],
            "gc": [collections - gc_mark[0], pause - gc_mark[1]],
        }
        del self.spans[mark:]
        path = self.spool_dir / f"{os.getpid()}-{next(self._ids)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        tmp.rename(path)

    def collect_workers(self) -> None:
        """Fold spooled worker spans and GC counters into this tracer."""
        for path in sorted(self.spool_dir.glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            with self._lock:
                self.spans.extend(data["spans"])
            self.gc.collections += data["gc"][0]
            self.gc.pause_s += data["gc"][1]

    # -- hooks ----------------------------------------------------------
    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Dict[str, Any], Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        return traced

    def _wrap_execute_plan(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(plan: Any) -> Any:
            mark = len(tracer.spans)
            gc_mark = tracer.gc.snapshot()
            with tracer.span("campaign.execute_plan", shard=plan.shard_id):
                result = fn(plan)
            if os.getpid() != tracer.pid:
                tracer._spool(mark, gc_mark)
            return result

        return traced

    def _hooks(self) -> List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]]:
        from repro.campaign import backends, core
        from repro.obs.spans import SpanRecorder
        from repro.runtime.fleet import MonitorFleet
        from repro.runtime.telemetry import FleetTelemetry
        from repro.scenarios.compile import CompiledScenario

        def compiled_members(span: Dict[str, Any], args: Tuple[Any, ...], _result: Any) -> None:
            span["attrs"]["members"] = len(args[0].fleet)

        def dispatched(span: Dict[str, Any], _args: Tuple[Any, ...], result: Any) -> None:
            span["attrs"]["dispatched"] = result.dispatched

        def plain(name: str, after: Any = None) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            return lambda fn: self._wrap(fn, name, after)

        return [
            (core, "build_plan", plain("scenarios.plan")),
            (core, "partition_plan", plain("scenarios.plan")),
            (core, "merge_shard_results", plain("campaign.merge")),
            (backends, "execute_plan", self._wrap_execute_plan),
            (CompiledScenario, "__init__", plain("scenarios.compile", compiled_members)),
            (CompiledScenario, "run_segmented", plain("sim.run", dispatched)),
            (FleetTelemetry, "summary", plain("runtime.payload")),
            (MonitorFleet, "trace_digest", plain("runtime.payload")),
            (SpanRecorder, "mergeable", plain("runtime.payload")),
        ]

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the timing wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, make in self._hooks():
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing_hooks.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            gc.callbacks.append(self.gc)
            yield self
        finally:
            if self.gc in gc.callbacks:
                gc.callbacks.remove(self.gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class TimedCheckpoint:
    """A checkpoint stand-in that times every call ``execute_cell``
    makes on it and forwards to the real
    :class:`~repro.campaign.checkpoint.CampaignCheckpoint`."""

    CALLS = ("begin_cell", "completed_shards", "record_shard", "finish_cell")

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        for name in self.CALLS:
            setattr(self, name, tracer._wrap(getattr(inner, name), "campaign.checkpoint"))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: List[Dict[str, Any]], gc_tracker: GcTracker) -> Dict[str, float]:
    """Per-layer figures of one traced phase, per operation.

    Times are self times summed over the phase and divided by the
    number of operations (cells or service jobs) it completed, so a
    faster program that fits more operations into the same run does
    not read as a slower layer.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    roots = [span for name in ROOT_SPANS for span in by_name[name]]
    ops = max(1, len(roots))

    def self_s(name: str) -> float:
        return sum(selfs[span["id"]] for span in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(span["attrs"].get(key, 0) for span in by_name[name])

    def durations(name: str) -> List[float]:
        return [span["end"] - span["start"] for span in by_name[name]]

    members = attr_sum("scenarios.compile", "members")
    run_s = self_s("sim.run")
    dispatched = attr_sum("sim.run", "dispatched")

    shards_by_cell: Dict[Any, List[float]] = defaultdict(list)
    for span in by_name["campaign.execute_plan"]:
        shards_by_cell[span["cell"]].append(span["end"] - span["start"])
    overheads, skews = [], []
    for root in by_name["cell"]:
        shard_walls = shards_by_cell.get(root["cell"])
        if shard_walls:
            overheads.append(root["end"] - root["start"] - max(shard_walls))
            skews.append(max(shard_walls) / max(min(shard_walls), 1e-9))

    status = by_name["service.status"]
    return {
        "scenarios.plan_s": self_s("scenarios.plan") / ops,
        "scenarios.compile_s": self_s("scenarios.compile") / ops,
        "scenarios.compile_us_per_member": (
            self_s("scenarios.compile") / members * 1e6 if members else 0.0
        ),
        "sim.run_s": run_s / ops,
        "sim.events_per_s": dispatched / run_s if run_s > 0 else 0.0,
        "sim.dispatched": dispatched / ops,
        "runtime.payload_s": self_s("runtime.payload") / ops,
        "campaign.merge_s": self_s("campaign.merge") / ops,
        "campaign.checkpoint_s": self_s("campaign.checkpoint") / ops,
        "campaign.checkpoint_calls": len(by_name["campaign.checkpoint"]) / ops,
        "campaign.shard_overhead_s": sum(overheads) / ops,
        "campaign.shard_skew": _median(skews),
        "gc.collections": gc_tracker.collections / ops,
        "gc.pause_s": gc_tracker.pause_s / ops,
        "obs.span_episodes": sum(root["attrs"].get("episodes", 0) for root in roots) / ops,
        "service.submit_p50_s": _median(durations("service.submit")),
        "service.report_p50_s": _median(durations("service.report")),
        "service.queue_wait_p50_s": _median(
            [span["attrs"]["queue_wait_s"] for span in status if "queue_wait_s" in span["attrs"]]
        ),
        "service.exec_p50_s": _median(
            [span["attrs"]["exec_s"] for span in status if "exec_s" in span["attrs"]]
        ),
        "service.records_per_job": attr_sum("service.stream", "records") / ops,
    }
