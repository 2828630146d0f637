#!/usr/bin/env python
"""Benchmark smoke runner: execute every bench in quick mode and record
the runtime performance trajectory in ``BENCH_runtime.json``.

Usage::

    python benchmarks/run_all.py              # throughput probes + all benches
    python benchmarks/run_all.py --quick      # down-scaled workloads (CI smoke)
    python benchmarks/run_all.py --no-benches # throughput probes only (fast)
    python benchmarks/run_all.py --out /tmp/bench.json

``--quick`` exports ``REPRO_BENCH_QUICK=1`` to every bench process; each
bench routes its dominant size knob through ``conftest.qscale`` so the
whole suite smoke-runs in a fraction of the full-mode time (full mode is
what ``BENCH_runtime.json`` trajectories are compared on).

Every bench_e*.py runs once under ``pytest --benchmark-disable`` (the
simulations are deterministic, so a single round is a faithful
measurement) and the file is timed.  Independently of the benches, four
throughput probes measure the runtime itself:

* ``kernel``     — bare dispatch loop, no SUO (events/sec);
* ``single_suo`` — one TV driven through the E13 workload (events/sec);
* ``fleet``      — a 100-SUO fleet scenario (events/sec), plus a
  byte-identical-trace determinism check;
* ``scenarios``  — a 1000-SUO streaming-telemetry scenario (the E15
  workload), recording its trace and telemetry digests, the end-to-end
  ``device_sim_s_per_s`` (members × simulated seconds per wall second
  of the whole cell, compile included) and ``compile_us_per_member``
  next to the kernel-only ``events_per_sec``;
* ``sharded``    — the same scenario through the campaign API, serial vs
  ``ProcessShardBackend``: records the wall-clock speedup and **fails
  the run if the serial and sharded telemetry digests diverge** (the CI
  shard-determinism gate; quick mode shrinks to 2 shards);
* ``detection``  — the detection/recovery library scenarios
  (player-seek-stress, printer-burst, recovery-ladder-drill,
  overnight-soak) serial and 2-shard: **fails the run if any detection
  rate is zero, a recovery wave records no finite time-to-recover, or
  the serial and sharded detection stats diverge** (the CI detection
  gate);
* ``diagnosis``  — the diagnosis-guided recovery drills
  (player-decoder-drill, printer-jam-drill, recovery-ladder-drill)
  serial and 2-shard: **fails the run on zero localization accuracy,
  a non-finite time-to-recover, or serial-vs-sharded divergence of the
  diagnosis telemetry** (the CI diagnosis gate);
* ``fuzz``       — a bounded :mod:`repro.fuzz` campaign run twice
  (candidates/sec): **fails the run if the two runs' determinism
  witnesses differ or a grammar-sampled candidate crashes the campaign
  surface** (the CI fuzz gate; candidates/sec joins the perf floor).

Exit status is computed by :func:`evaluate_report` over the JSON report:
any failed bench, a diverged digest, a zeroed detection rate, a
kernel-throughput regression below the seed baseline, or a fleet/
scenario probe more than 30% below the recorded ``PERF_FLOOR`` exits
nonzero (the floor is skipped in ``--quick`` mode on 1-CPU hosts, where
wall-clock throughput measures the container rather than the runtime).
Every gate a run skips is listed explicitly — ``skipped: <reason>``
lines on stdout and a ``skipped_gates`` block in the report — so a CI
log never reads as a pass for a check that did not run.

``BENCH_runtime.json`` carries the numbers plus the seed-kernel baseline
measured before the runtime refactor, so future PRs can see the
trajectory at a glance, and a ``provenance`` block (CPU count, host,
Python version, GC thresholds, git rev) naming what they were measured
on.  Independently, every run is appended to the
run-history store (``BENCH_history.sqlite`` by default, ``--history`` to
point elsewhere, ``--no-history`` to opt out): :mod:`repro.obs.history`
keeps the full report per run, and :func:`evaluate_report` then also
applies the :mod:`repro.obs.trend` rules against the prior window — a
rolling perf floor over the last runs' median and a detection-rate
drift bound — catching slow slides no single-snapshot gate can see.
Inspect or trend the store with ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import math
import os
import platform
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.trend import evaluate_trends, perf_skip_reason  # noqa: E402

#: Default run-history store (append-only SQLite; see repro.obs.history).
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.sqlite")

#: Prior runs consulted by the trend rules.
TREND_WINDOW = 5

#: Seed-kernel numbers measured on the same container immediately before
#: the runtime refactor (PR 1), for trajectory comparison.
SEED_BASELINE = {
    "kernel_events_per_sec": 370_000,
    "single_suo_events_per_sec": 115_000,
    "note": "seed kernel (pre-EventBus), same host, best of 3",
}

#: Throughput floor for the fleet and scenario probes, recorded after the
#: dispatch hot-path overhaul (compiled bus tables, event freelists,
#: telemetry burst folding).  ``evaluate_report`` fails the run when a
#: probe drops more than ``max_regression`` below these full-mode
#: numbers.  Quick-mode runs on 1-CPU hosts skip the floor, same as the
#: bench_e16 speedup guard: there the wall-clock numbers measure the
#: container, not the runtime.  ``hosts`` says where each row was
#: recorded.
PERF_FLOOR = {
    "fleet_events_per_sec": 122_000,
    "scenarios_events_per_sec": 137_000,
    "fuzz_candidates_per_sec": 2.0,
    "scenarios_device_sim_s_per_s": 12_000,
    "max_regression": 0.30,
    "note": "full-mode probes after the dispatch overhaul, same host, best of 3; "
            "fuzz floor recorded with the PR 8 probe config (8 candidates)",
    "hosts": {
        "fleet_events_per_sec": "1-CPU reference container (dispatch overhaul)",
        "scenarios_events_per_sec": "1-CPU reference container (dispatch overhaul)",
        "fuzz_candidates_per_sec": "1-CPU reference container (8-candidate fuzz probe)",
        "scenarios_device_sim_s_per_s": (
            "2-CPU container, Python 3.11, shared-statechart fleet build: "
            "probe runs measured 10.5k-17.2k (busy vs quiet host), the "
            "earlier per-member chart build 6.7k-8.4k; see provenance in "
            "BENCH_runtime.json"
        ),
    },
}

TV_WORKLOAD = [
    "power", "ch_up", "vol_up", "ttx", "ttx", "menu", "back",
    "dual", "swap", "epg", "epg", "mute", "mute", "power",
] * 5


def probe_kernel(events: int = 200_000) -> float:
    """Bare kernel dispatch throughput (events/sec), best of 3."""
    from repro.sim import Kernel

    best = 0.0
    for _ in range(3):
        kernel = Kernel()

        def reschedule() -> None:
            kernel.schedule(1.0, reschedule)

        for i in range(100):
            kernel.schedule(float(i % 7) * 0.1, reschedule)
        start = time.perf_counter()
        kernel.run(max_events=events)
        best = max(best, events / (time.perf_counter() - start))
    return best


def probe_single_suo() -> float:
    """One TV through the E13 workload (events/sec), best of 3."""
    from repro.tv import TVSet

    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        tv = TVSet(seed=55)
        for key in TV_WORKLOAD:
            tv.press(key)
            tv.run(3.0)
        tv.run(5.0)
        best = max(best, tv.kernel.dispatched_count / (time.perf_counter() - start))
    return best


#: Campaign seed of the fleet probe (and of profile_dispatch.py).
FLEET_SEED = 14


def fleet_probe_spec(members: int = 100, duration: float = 60.0):
    """The fleet probe's workload: random users on every TV and a
    volume-overshoot fault in a fifth of them a third of the way in."""
    from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

    return ScenarioSpec(
        name="probe-fleet",
        description="run_all probe: fleet campaign",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=4.0),),
        phases=(FaultPhase("volume_overshoot", at=duration / 3, fraction=0.2),),
    )


def probe_fleet(members: int = 100, duration: float = 60.0) -> dict:
    """100-SUO campaign throughput + determinism witness.

    ``events_per_sec`` covers the kernel-run slice of the cell, the span
    ``PERF_FLOOR`` records.
    """
    from repro.campaign import run_cell_detailed

    spec = fleet_probe_spec(members, duration)
    first = run_cell_detailed(spec, FLEET_SEED).fleet_report
    second = run_cell_detailed(spec, FLEET_SEED).fleet_report
    return {
        "members": members,
        "sim_duration": duration,
        "dispatched": first.dispatched,
        "events_per_sec": round(first.events_per_sec),
        "deterministic": first.trace_digest == second.trace_digest,
        "trace_digest": first.trace_digest,
    }


def probe_scenarios(members: int = 1000, duration: float = 20.0) -> dict:
    """One 1000-SUO streaming scenario campaign (the E15 workload)."""
    from repro.campaign import run_cell_detailed
    from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

    spec = ScenarioSpec(
        name="probe-thousand-suo",
        description="run_all probe: streaming-telemetry scale point",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )
    cell = run_cell_detailed(spec, 15)
    report, fleet_report = cell.report, cell.fleet_report
    return {
        "members": report.members,
        "sim_duration": duration,
        "dispatched": report.dispatched,
        "events_per_sec": round(fleet_report.events_per_sec),
        "wall_seconds": round(report.wall_seconds, 3),
        "device_sim_s_per_s": round(
            report.members * duration / report.wall_seconds
        ),
        "compile_us_per_member": round(
            cell.compiled.compile_seconds / report.members * 1e6
        ),
        "streaming": not fleet_report.retained_trace,
        "suo_events": report.telemetry_summary["events_total"],
        "telemetry_digest": report.telemetry_digest,
        "trace_digest": report.shard_trace_digests[0],
    }


def provenance() -> dict:
    """What the numbers were measured on (never part of a digest)."""
    def git(*args: str):
        try:
            return subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "gc_threshold": list(gc.get_threshold()),
        "git_rev": git("rev-parse", "HEAD"),
        # Uncommitted changes to tracked files: the rev alone does not
        # name the measured code.
        "git_dirty": None if status is None else bool(status),
    }


def probe_sharded(quick: bool = False) -> dict:
    """Serial vs sharded execution of the E15-scale scenario.

    Full mode: 1000 SUOs, 4 shards.  Quick mode: 300 SUOs, 2 shards —
    the CI smoke that gates shard determinism.  ``digests_match`` is the
    gate: the merged counter/tally telemetry of the sharded run must be
    byte-identical to the serial run's.
    """
    from repro.campaign import ProcessShardBackend, run_cell
    from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

    members = 300 if quick else 1000
    duration = 10.0 if quick else 20.0
    shards = 2 if quick else 4
    spec = ScenarioSpec(
        name="probe-sharded",
        description="run_all probe: sharded vs serial execution",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )
    # Sharded first: fork from a lean parent (a prior serial run would
    # leave a big heap whose pages the workers' refcount writes unshare).
    sharded = run_cell(spec, 16, backend=ProcessShardBackend(shards=shards))
    serial = run_cell(spec, 16)
    speedup = (
        serial.wall_seconds / sharded.wall_seconds
        if sharded.wall_seconds > 0 else 0.0
    )
    return {
        "members": members,
        "sim_duration": duration,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "sharded_wall_seconds": round(sharded.wall_seconds, 3),
        "speedup": round(speedup, 3),
        "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
        "telemetry_digest": serial.telemetry_digest,
        "shard_trace_digests": sharded.shard_trace_digests,
    }


#: The library scenarios whose detection/recovery rates CI gates on.
#: ``overnight-soak`` joined in PR 5: the TV's timed volume self-check
#: must keep sparse sleeper sessions detecting injected volume faults.
DETECTION_SCENARIOS = (
    "player-seek-stress", "printer-burst", "recovery-ladder-drill",
    "overnight-soak",
)


#: Memo of probe campaign cells: (scenario, seed, shards-or-None) ->
#: CampaignReport.  ``recovery-ladder-drill`` sits in both the detection
#: and the diagnosis probe; the runs are deterministic, so recomputing
#: the identical cell would only burn CI wall-clock.
_PROBE_CELLS: dict = {}


def _probe_cell(name: str, seed: int, shards=None):
    from repro.campaign import ProcessShardBackend, run_cell
    from repro.scenarios import get_scenario

    key = (name, seed, shards)
    if key not in _PROBE_CELLS:
        backend = (
            None if shards is None else ProcessShardBackend(shards=shards)
        )
        _PROBE_CELLS[key] = run_cell(name, seed, backend=backend)
    return _PROBE_CELLS[key]


def probe_detection(seed: int = 7) -> dict:
    """Detection-depth probe (the PR 4 gate): the detection and
    recovery scenarios, each serial and 2-shard.

    Gated facts per scenario: faults were injected, the detection rate
    is nonzero, nobody false-alarmed, the recovery drill recorded a
    finite time-to-recover for every wave, and the sharded run agrees
    with the serial run on the telemetry digest AND the detection
    accounting (faulty/detected/false-alarm sets).
    """
    result = {}
    for name in DETECTION_SCENARIOS:
        # Sharded first: fork from the leanest parent heap available.
        sharded = _probe_cell(name, seed, shards=2)
        serial = _probe_cell(name, seed)
        recovery = serial.telemetry_summary.get("recovery", {})
        result[name] = {
            "members": serial.members,
            "seed": seed,
            "faulty": len(serial.faulty),
            "detected": len(serial.detected),
            "detection_rate": round(serial.detection_rate, 4),
            "false_alarms": len(serial.false_alarms),
            "recovered": recovery.get("recovered", 0),
            "ttr_waves": recovery.get("waves", {}),
            "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
            "detection_invariant": (
                sharded.faulty == serial.faulty
                and sharded.detected == serial.detected
                and sharded.false_alarms == serial.false_alarms
            ),
        }
    return result


#: The drills whose diagnosis-guided recovery CI gates on (PR 5).
DIAGNOSIS_SCENARIOS = (
    "player-decoder-drill", "printer-jam-drill", "recovery-ladder-drill",
)


def probe_diagnosis(seed: int = 7) -> dict:
    """Diagnosis-guided recovery probe (the PR 5 gate).

    Each drill runs serial and 2-shard.  Gated facts per drill:
    episodes reached the rebind rung with an SFL ranking recorded, the
    localization accuracy (true faulty component ranked first) is
    nonzero, every recorded time-to-recover is finite and positive, and
    the sharded run agrees with the serial run on the telemetry digest
    AND the shard-invariant diagnosis block.
    """
    from repro.runtime.telemetry import mergeable_summary

    result = {}
    for name in DIAGNOSIS_SCENARIOS:
        sharded = _probe_cell(name, seed, shards=2)
        serial = _probe_cell(name, seed)
        diagnosis = serial.telemetry_summary.get("diagnosis", {})
        rebinds = diagnosis.get("rebinds", {})
        ranks = diagnosis.get("rank_of_true", {})
        ranked = sum(ranks.values())
        ttr = diagnosis.get("ttr", {})
        result[name] = {
            "members": serial.members,
            "seed": seed,
            "episodes_ranked": ranked,
            "rank_first": ranks.get("1", 0),
            "localization_accuracy": (
                round(ranks.get("1", 0) / ranked, 4) if ranked else 0.0
            ),
            "targeted_rebinds": rebinds.get("targeted", 0),
            "full_rebinds": rebinds.get("full", 0),
            "targeted_rebind_rate": diagnosis.get("targeted_rebind_rate", 0.0),
            "recovered": serial.telemetry_summary.get("recovery", {}).get(
                "recovered", 0
            ),
            "ttr": {
                mode: {
                    key: ttr.get(mode, {}).get(key, 0.0)
                    for key in ("count", "min", "max")
                }
                for mode in ("targeted", "full")
            },
            "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
            "diagnosis_invariant": (
                mergeable_summary(sharded.telemetry_summary).get("diagnosis")
                == mergeable_summary(serial.telemetry_summary).get("diagnosis")
            ),
        }
    return result


def probe_fuzz(quick: bool = False) -> dict:
    """Bounded fuzz campaign probe (the PR 8 gate).

    Runs the same small grammar-sampled candidate budget twice with a
    fresh in-memory corpus each time and compares the determinism
    witnesses: byte-identical candidates, admissions, findings, and
    coverage, or the gate fails.  Also records candidates/sec for the
    perf-floor trajectory.  Divergence checking stays off here — the
    sharded probes own that gate, and the fuzz probe's job is the fuzz
    loop itself.
    """
    from repro.fuzz import Corpus, FuzzConfig, Fuzzer

    config = FuzzConfig(
        seed=7,
        candidates=4 if quick else 8,
        campaign_seed=0,
        check_divergence=False,
        shrink_attempts=60,
    )
    first = Fuzzer(config, corpus=Corpus()).run()
    second = Fuzzer(config, corpus=Corpus()).run()
    crashes = [
        finding.as_dict() for finding in first.findings
        if finding.original.verdict.kind == "crash"
    ]
    return {
        "seed": config.seed,
        "candidates": config.candidates,
        "evaluated": first.evaluated,
        "stopped_by": first.stopped_by,
        "admitted": len(first.admitted),
        "findings": len(first.findings),
        "crash_findings": crashes,
        "coverage_keys": first.coverage_keys,
        "coverage_by_layer": first.coverage_by_layer,
        "wall_seconds": round(first.wall_seconds, 3),
        "candidates_per_sec": round(first.candidates_per_sec, 3),
        "deterministic": (
            first.determinism_witness() == second.determinism_witness()
        ),
    }


def probe_resume(quick: bool = False) -> dict:
    """Checkpoint/resume determinism probe (the PR 9 gate).

    Interrupt a checkpointed campaign cell for real — a worker-fault
    injector kills one shard's worker and the backend is allowed no
    retry, so the cell dies with exactly one shard durable — then
    resume it with a healthy backend against the same store and compare
    the merged telemetry AND span digests against an uninterrupted
    serial run of the same cell.  Inline executors only: deterministic,
    no processes, so the gate applies identically on a 1-CPU container
    (no skip guard needed, unlike the wall-clock speedup gates).
    """
    import tempfile
    from dataclasses import replace as dc_replace

    from repro.campaign import (
        CampaignCheckpoint,
        ExecutorBackend,
        InlineExecutor,
        ShardExhaustedError,
        WorkerFaultInjector,
        run_cell,
    )
    from repro.scenarios import get_scenario

    name = "recovery-ladder-drill"
    seed, shards, kill_shard = 7, 3, 1
    spec = dc_replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, seed)
    result = {
        "scenario": name,
        "seed": seed,
        "shards": shards,
        "killed_shard": kill_shard,
        "interrupt_observed": False,
        "shards_durable_at_interrupt": 0,
        "lost_shards": shards,
        "telemetry_match": False,
        "span_match": False,
    }
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "resume_probe.sqlite")
        # Phase 1: the interrupted sitting.  Shard 0 lands durably;
        # shard `kill_shard` loses its (only allowed) worker and the
        # campaign dies mid-cell.
        faulty_backend = ExecutorBackend(
            InlineExecutor(WorkerFaultInjector(kill_shards=(kill_shard,))),
            shards=shards, max_attempts=1,
        )
        with CampaignCheckpoint(db) as checkpoint:
            try:
                run_cell(
                    spec, seed, backend=faulty_backend,
                    checkpoint=checkpoint, campaign_id="resume-probe",
                )
            except ShardExhaustedError:
                result["interrupt_observed"] = True
            status = checkpoint.status("resume-probe")
            result["shards_durable_at_interrupt"] = (
                status["cells"][0]["completed_shards"] if status["cells"]
                else 0
            )
        # Phase 2: resume with a healthy backend against the same store.
        healthy = ExecutorBackend(InlineExecutor(), shards=shards)
        with CampaignCheckpoint(db) as checkpoint:
            resumed = run_cell(
                spec, seed, backend=healthy,
                checkpoint=checkpoint, campaign_id="resume-probe",
            )
            status = checkpoint.status("resume-probe")
        cell_status = status["cells"][0] if status["cells"] else {}
        result["lost_shards"] = shards - cell_status.get("completed_shards", 0)
        result["telemetry_match"] = (
            resumed.telemetry_digest == serial.telemetry_digest
        )
        result["span_match"] = resumed.span_digest == serial.span_digest
        result["telemetry_digest"] = serial.telemetry_digest
        result["span_digest"] = serial.span_digest
    return result


def probe_service(quick: bool = False) -> dict:
    """Campaign-service determinism probe (the PR 10 gate).

    Boot the real HTTP service on an ephemeral port against a temp
    history store, submit ``recovery-ladder-drill`` over the wire,
    consume the chunked NDJSON stream to its terminal record, and
    compare both digests against a serial ``run_cell`` of the same
    spec × seed.  In-process threads only — deterministic and identical
    on a 1-CPU container, like the resume probe.
    """
    import tempfile
    import threading
    from dataclasses import replace as dc_replace

    from repro.campaign import run_cell
    from repro.scenarios import get_scenario
    from repro.service import CampaignServer, ServiceClient

    name = "recovery-ladder-drill"
    seed, segments = 7, 4
    spec = dc_replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, seed)
    result = {
        "scenario": name,
        "seed": seed,
        "segments": segments,
        "state": "unsubmitted",
        "telemetry_records": 0,
        "stream_ordered": False,
        "telemetry_match": False,
        "span_match": False,
        "history_recorded": False,
        "telemetry_digest": serial.telemetry_digest,
        "span_digest": serial.span_digest,
    }
    with tempfile.TemporaryDirectory() as tmp:
        server = CampaignServer(
            host="127.0.0.1", port=0,
            db_path=os.path.join(tmp, "service_probe.sqlite"),
            workers=1, segments=segments,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(*server.address)
            start = time.perf_counter()
            job = client.submit(
                [json.loads(spec.canonical_json())], seeds=[seed],
            )
            records = list(client.stream(job["job_id"]))
            result["wall_seconds"] = round(time.perf_counter() - start, 3)
            kinds = [record["type"] for record in records]
            end = records[-1] if records else {}
            result["state"] = end.get("state", "no-end-record")
            result["telemetry_records"] = kinds.count("telemetry")
            result["stream_ordered"] = (
                bool(kinds) and kinds[0] == "job" and kinds[-1] == "end"
            )
            result["telemetry_match"] = (
                end.get("telemetry_digest") == serial.telemetry_digest
            )
            result["span_match"] = (
                end.get("span_digest") == serial.span_digest
            )
            result["history_recorded"] = bool(client.history(limit=5))
        finally:
            server.shutdown()
            server.server_close()
    return result


def run_benches(quick: bool = False) -> dict:
    """Each bench_e*.py once; returns per-file status."""
    results = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    else:
        # A stale exported REPRO_BENCH_QUICK must not silently down-scale
        # a run recorded as full mode.
        env.pop("REPRO_BENCH_QUICK", None)
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_e*.py"))):
        name = os.path.basename(path)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", path, "-q", "--benchmark-disable",
             "-p", "no:cacheprovider"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = round(time.perf_counter() - start, 2)
        results[name] = {
            "ok": proc.returncode == 0,
            "seconds": seconds,
        }
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"  {name:<28} {status:>4}  {seconds:7.2f}s", flush=True)
        if proc.returncode != 0:
            tail = "\n".join(proc.stdout.splitlines()[-15:])
            print(tail)
    return results


def skipped_gates(report: dict) -> list:
    """Every gate this report did NOT apply, with its reason.

    Pure over the JSON report (same discipline as
    :func:`evaluate_report`).  A skipped gate is not a failure, but it
    must never be silent: the runner prints one ``skipped: <reason>``
    line per entry and embeds the list in the report, so a green CI log
    on a small host is readable as "passed N gates, skipped these two"
    rather than as a full pass.
    """
    skipped = []
    reason = perf_skip_reason(report)
    if report.get("perf_floor") and reason is not None:
        skipped.append({
            "gate": "perf-floor",
            "reason": f"fleet/scenarios throughput floor not applied: {reason}",
        })
    sharded = report.get("sharded", {})
    cpus = sharded.get("cpu_count") or 0
    shards = sharded.get("shards") or 0
    if shards and cpus < shards:
        skipped.append({
            "gate": "bench_e16-speedup",
            "reason": (
                f"sharded wall-clock speedup >= 2x not asserted: "
                f"{cpus} CPUs cannot physically deliver it at "
                f"{shards} shards (bench_e16 applies the same guard)"
            ),
        })
    return skipped


def evaluate_report(report: dict, priors: list = None) -> list:
    """Every gate the given run_all report violates (empty = pass).

    Pure over the JSON report, so CI steps and unit tests apply exactly
    the rules the smoke run enforces — and so ANY failed bench (not just
    the sharded probe) makes the run exit nonzero.

    ``priors`` (newest-first run_all reports from the history store)
    additionally arms the :mod:`repro.obs.trend` rules: the rolling
    perf floor and the detection-rate drift bound.
    """
    failures = []
    for name, bench in sorted(report.get("benches", {}).items()):
        if not bench.get("ok"):
            failures.append(f"bench {name} failed")
    sharded = report.get("sharded", {})
    if sharded and not sharded.get("digests_match"):
        failures.append(
            "serial and sharded telemetry digests diverged "
            "(shard determinism gate)"
        )
    detection = report.get("detection", {})
    for name in DETECTION_SCENARIOS:
        # A drill silently dropped from the probe must not read as a
        # pass: the loop below only sees cells that are present.
        if name not in detection:
            failures.append(f"{name} missing from the detection probe")
    for name, cell in sorted(detection.items()):
        if cell.get("faulty", 0) == 0:
            failures.append(f"{name}: no faults were injected")
        elif cell.get("detection_rate", 0.0) <= 0.0:
            failures.append(f"{name}: detection rate is zero")
        if cell.get("false_alarms", 0):
            failures.append(f"{name}: false alarms on clean members")
        if not cell.get("digests_match"):
            failures.append(
                f"{name}: serial vs sharded telemetry digests diverged"
            )
        if not cell.get("detection_invariant"):
            failures.append(
                f"{name}: serial vs sharded detection stats diverged"
            )
        for wave, entry in sorted(cell.get("ttr_waves", {}).items()):
            values = [
                entry.get("min", 0.0), entry.get("max", 0.0),
                entry.get("mean", 0.0),
            ]
            if entry.get("count", 0) <= 0 or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in values
            ):
                failures.append(
                    f"{name} wave {wave}: time-to-recover not finite"
                )
    drill = detection.get("recovery-ladder-drill")
    if drill is not None:
        if drill.get("recovered", 0) <= 0:
            failures.append("recovery-ladder-drill: no completed recoveries")
        if not drill.get("ttr_waves"):
            failures.append(
                "recovery-ladder-drill: no per-wave time-to-recover recorded"
            )
    diagnosis = report.get("diagnosis", {})
    for name in DIAGNOSIS_SCENARIOS:
        if name not in diagnosis:
            failures.append(f"{name} missing from the diagnosis probe")
    for name, cell in sorted(diagnosis.items()):
        if cell.get("episodes_ranked", 0) <= 0:
            failures.append(f"{name}: no localization episodes recorded")
        elif cell.get("localization_accuracy", 0.0) <= 0.0:
            failures.append(f"{name}: localization accuracy is zero")
        if cell.get("recovered", 0) <= 0:
            failures.append(f"{name}: no completed recoveries")
        if not cell.get("digests_match"):
            failures.append(
                f"{name}: serial vs sharded telemetry digests diverged"
            )
        if not cell.get("diagnosis_invariant"):
            failures.append(
                f"{name}: serial vs sharded diagnosis stats diverged"
            )
        for mode, stats in sorted(cell.get("ttr", {}).items()):
            if stats.get("count", 0) <= 0:
                continue
            values = [stats.get("min", 0.0), stats.get("max", 0.0)]
            if not all(
                isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0
                for v in values
            ):
                failures.append(
                    f"{name}: {mode} time-to-recover not finite"
                )
    fuzz = report.get("fuzz")
    if fuzz is None:
        failures.append("fuzz probe missing from the report")
    else:
        if fuzz.get("evaluated", 0) <= 0:
            failures.append("fuzz probe evaluated no candidates")
        if not fuzz.get("deterministic"):
            failures.append(
                "two identical fuzz runs produced different witnesses "
                "(fuzz determinism gate)"
            )
        for crash in fuzz.get("crash_findings", []):
            failures.append(
                "fuzz probe hit a crash verdict on a grammar-sampled "
                f"candidate: {crash.get('detail', '?')}"
            )
    resume = report.get("resume")
    if resume is None:
        failures.append("resume probe missing from the report")
    else:
        if not resume.get("interrupt_observed"):
            failures.append(
                "resume probe never observed its injected interruption "
                "(the gate proved nothing)"
            )
        if resume.get("shards_durable_at_interrupt", 0) <= 0:
            failures.append(
                "resume probe checkpointed no shards before the "
                "interruption"
            )
        if resume.get("lost_shards", 1) > 0:
            failures.append(
                f"resume left {resume.get('lost_shards')} shard(s) "
                "unexecuted (checkpoint resume gate)"
            )
        if not resume.get("telemetry_match"):
            failures.append(
                "resumed campaign telemetry digest diverged from the "
                "uninterrupted run (checkpoint resume gate)"
            )
        if not resume.get("span_match"):
            failures.append(
                "resumed campaign span digest diverged from the "
                "uninterrupted run (checkpoint resume gate)"
            )
    service = report.get("service")
    if service is None:
        failures.append("service probe missing from the report")
    else:
        if service.get("state") != "complete":
            failures.append(
                "service probe job did not complete "
                f"(state: {service.get('state')})"
            )
        if not service.get("stream_ordered"):
            failures.append(
                "service stream was not job-first/end-last ordered"
            )
        if service.get("telemetry_records", 0) <= 0:
            failures.append(
                "service stream carried no live telemetry records"
            )
        if not service.get("telemetry_match"):
            failures.append(
                "campaign submitted over HTTP produced a telemetry digest "
                "diverging from the serial run (service determinism gate)"
            )
        if not service.get("span_match"):
            failures.append(
                "campaign submitted over HTTP produced a span digest "
                "diverging from the serial run (service determinism gate)"
            )
        if not service.get("history_recorded"):
            failures.append(
                "service did not append the finished campaign to the "
                "run-history store"
            )
    baseline = report.get("seed_baseline", SEED_BASELINE).get(
        "kernel_events_per_sec", 0
    )
    if round(report.get("kernel_events_per_sec", 0)) < baseline:
        failures.append("kernel throughput regressed below the seed baseline")
    floor = report.get("perf_floor", {})
    if not floor:
        failures.append("perf_floor missing from the report")
    elif perf_skip_reason(report) is None:
        max_regression = floor.get("max_regression", 0.30)
        allowed = 1.0 - max_regression
        for probe, key, metric, unit in (
            ("fleet", "fleet_events_per_sec", "events_per_sec", "events/sec"),
            ("scenarios", "scenarios_events_per_sec", "events_per_sec",
             "events/sec"),
            ("scenarios", "scenarios_device_sim_s_per_s",
             "device_sim_s_per_s", "device-sim-s/s"),
            ("fuzz", "fuzz_candidates_per_sec", "candidates_per_sec",
             "candidates/sec"),
        ):
            if probe == "fuzz" and report.get("mode") == "quick":
                # The fuzz floor was recorded at the full-mode candidate
                # budget; quick mode runs a different (smaller) workload.
                continue
            recorded = floor.get(key, 0)
            measured = report.get(probe, {}).get(metric, 0)
            if recorded and measured < recorded * allowed:
                failures.append(
                    f"{probe} throughput {measured:,} {unit} is more "
                    f"than {max_regression:.0%} below the recorded floor "
                    f"of {recorded:,} (perf floor gate)"
                )
    if priors:
        failures.extend(
            evaluate_trends(report, priors, window=TREND_WINDOW)
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-benches", action="store_true",
        help="skip the bench_e*.py smoke pass; only run throughput probes",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="down-scale every bench (REPRO_BENCH_QUICK=1): CI smoke mode",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_runtime.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY,
        help="append the run to this SQLite run-history store "
             "(see repro.obs.history)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not record the run (also disables the trend rules, "
             "which need the prior-run window)",
    )
    parser.add_argument(
        "--label", default=None,
        help="free-form label stored with the run (e.g. the CI run id)",
    )
    args = parser.parse_args()
    default_out = parser.get_default("out")
    if args.quick and os.path.abspath(args.out) == os.path.abspath(default_out):
        parser.error(
            "--quick requires an explicit --out: quick-mode timings must "
            "not overwrite the tracked full-mode trajectory in "
            "BENCH_runtime.json"
        )

    print("probing kernel dispatch throughput ...", flush=True)
    kernel_eps = probe_kernel()
    print(f"  kernel: {kernel_eps:,.0f} events/sec")
    print("probing single-SUO throughput ...", flush=True)
    single_eps = probe_single_suo()
    print(f"  single-SUO TV: {single_eps:,.0f} events/sec")
    print("probing 100-SUO fleet campaign ...", flush=True)
    fleet = probe_fleet()
    print(
        f"  fleet: {fleet['events_per_sec']:,} events/sec over "
        f"{fleet['members']} SUOs, deterministic={fleet['deterministic']}"
    )
    # The sharded probe runs before the big serial scenario probe: its
    # workers fork from a still-lean parent, so the recorded speedup
    # measures the backend rather than copy-on-write page duplication.
    print("probing sharded vs serial campaign execution ...", flush=True)
    sharded = probe_sharded(quick=args.quick)
    print(
        f"  sharded: {sharded['members']} SUOs on {sharded['shards']} shards "
        f"({sharded['cpu_count']} cores): {sharded['speedup']}x speedup, "
        f"digests_match={sharded['digests_match']}"
    )
    print("probing detection/recovery scenarios (serial vs 2-shard) ...", flush=True)
    detection = probe_detection()
    for name, cell in detection.items():
        print(
            f"  {name}: detected {cell['detected']}/{cell['faulty']} "
            f"(rate {cell['detection_rate']}), "
            f"false_alarms={cell['false_alarms']}, "
            f"recovered={cell['recovered']}, "
            f"digests_match={cell['digests_match']}, "
            f"detection_invariant={cell['detection_invariant']}"
        )
    print("probing diagnosis-guided recovery drills (serial vs 2-shard) ...", flush=True)
    diagnosis = probe_diagnosis()
    for name, cell in diagnosis.items():
        print(
            f"  {name}: accuracy {cell['localization_accuracy']} "
            f"({cell['rank_first']}/{cell['episodes_ranked']} ranked first), "
            f"targeted={cell['targeted_rebinds']}, full={cell['full_rebinds']}, "
            f"digests_match={cell['digests_match']}, "
            f"diagnosis_invariant={cell['diagnosis_invariant']}"
        )
    print("probing bounded fuzz campaign (twice, for determinism) ...", flush=True)
    fuzz = probe_fuzz(quick=args.quick)
    print(
        f"  fuzz: {fuzz['evaluated']} candidates at "
        f"{fuzz['candidates_per_sec']} candidates/sec, "
        f"{fuzz['findings']} findings, {fuzz['coverage_keys']} coverage keys, "
        f"deterministic={fuzz['deterministic']}"
    )
    print("probing checkpoint interrupt/resume determinism ...", flush=True)
    resume = probe_resume(quick=args.quick)
    print(
        f"  resume: {resume['scenario']} x{resume['shards']} shards, "
        f"killed shard {resume['killed_shard']}, "
        f"{resume['shards_durable_at_interrupt']} durable at interrupt, "
        f"telemetry_match={resume['telemetry_match']}, "
        f"span_match={resume['span_match']}, "
        f"lost_shards={resume['lost_shards']}"
    )
    print("probing the campaign service over HTTP ...", flush=True)
    service = probe_service(quick=args.quick)
    print(
        f"  service: {service['scenario']} seed {service['seed']} -> "
        f"{service['state']}, {service['telemetry_records']} telemetry "
        f"records, telemetry_match={service['telemetry_match']}, "
        f"span_match={service['span_match']}, "
        f"history_recorded={service['history_recorded']}"
    )
    print("probing 1000-SUO streaming scenario ...", flush=True)
    scenarios = probe_scenarios()
    print(
        f"  scenario: {scenarios['events_per_sec']:,} events/sec over "
        f"{scenarios['members']} SUOs, streaming={scenarios['streaming']}; "
        f"end to end {scenarios['device_sim_s_per_s']:,} device-sim-s/s, "
        f"compile {scenarios['compile_us_per_member']:,} us/member"
    )

    benches = {}
    if not args.no_benches:
        mode = "quick" if args.quick else "full"
        print(f"running benches ({mode} mode) ...", flush=True)
        benches = run_benches(quick=args.quick)

    report = {
        "mode": "quick" if args.quick else "full",
        "provenance": provenance(),
        "kernel_events_per_sec": round(kernel_eps),
        "single_suo_events_per_sec": round(single_eps),
        "fleet": fleet,
        "scenarios": scenarios,
        "sharded": sharded,
        "detection": detection,
        "diagnosis": diagnosis,
        "fuzz": fuzz,
        "resume": resume,
        "service": service,
        "seed_baseline": SEED_BASELINE,
        "perf_floor": PERF_FLOOR,
        "benches": benches,
    }
    report["skipped_gates"] = skipped_gates(report)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    # The trend window is the history as it stood BEFORE this run; the
    # run itself is recorded unconditionally (failed runs are history
    # too — a later fix should show up as recovery, not as a gap).
    priors = []
    if not args.no_history:
        from repro.obs.history import RunHistory

        with RunHistory(args.history) as history:
            priors = history.run_reports(limit=TREND_WINDOW)
            run_id = history.record_run(report, label=args.label)
        print(
            f"recorded run {run_id} in {args.history} "
            f"({len(priors)} prior run{'s' if len(priors) != 1 else ''} "
            "in the trend window)"
        )

    for entry in report["skipped_gates"]:
        print(f"skipped: {entry['gate']}: {entry['reason']}")
    failures = evaluate_report(report, priors=priors)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
