"""Tests for the benchmark runner's CI gates and shard autotuning.

``benchmarks/run_all.py`` computes its exit status from
``evaluate_report`` over the JSON report; these tests pin the gate rules
without executing any probe: any failed bench exits nonzero (not just
the sharded probe), zeroed detection rates fail, serial-vs-shard
divergence fails, and the drill must record finite per-wave TTR.
"""

import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from run_all import evaluate_report, skipped_gates  # noqa: E402

from repro.campaign import (  # noqa: E402
    ExecutorBackend,
    InlineExecutor,
    ProcessShardBackend,
    resolve_shards,
)
from repro.scenarios import ScenarioSpec  # noqa: E402


def passing_report():
    return {
        "mode": "full",
        "kernel_events_per_sec": 1_000_000,
        "seed_baseline": {"kernel_events_per_sec": 370_000},
        "perf_floor": {
            "fleet_events_per_sec": 120_000,
            "scenarios_events_per_sec": 130_000,
            "max_regression": 0.30,
        },
        "fleet": {"events_per_sec": 120_000},
        "scenarios": {
            "events_per_sec": 130_000,
            "device_sim_s_per_s": 10_000,
            "compile_us_per_member": 300,
        },
        "sharded": {"digests_match": True},
        "detection": {
            "player-seek-stress": {
                "faulty": 4, "detected": 2, "detection_rate": 0.5,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
            "printer-burst": {
                "faulty": 2, "detected": 2, "detection_rate": 1.0,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
            "recovery-ladder-drill": {
                "faulty": 7, "detected": 7, "detection_rate": 1.0,
                "false_alarms": 0, "recovered": 9,
                "ttr_waves": {
                    "0": {"count": 2, "min": 9.0, "max": 12.0, "mean": 10.5},
                    "1": {"count": 3, "min": 8.0, "max": 20.0, "mean": 13.0},
                },
                "digests_match": True, "detection_invariant": True,
            },
            "overnight-soak": {
                "faulty": 3, "detected": 2, "detection_rate": 0.6667,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
        },
        "diagnosis": {
            "printer-jam-drill": {
                "episodes_ranked": 3, "rank_first": 3,
                "localization_accuracy": 1.0,
                "targeted_rebinds": 3, "full_rebinds": 0,
                "recovered": 3,
                "ttr": {
                    "targeted": {"count": 3, "min": 24.0, "max": 31.0},
                    "full": {"count": 0, "min": 0.0, "max": 0.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
            "player-decoder-drill": {
                "episodes_ranked": 3, "rank_first": 3,
                "localization_accuracy": 1.0,
                "targeted_rebinds": 3, "full_rebinds": 0,
                "recovered": 3,
                "ttr": {
                    "targeted": {"count": 3, "min": 20.0, "max": 31.0},
                    "full": {"count": 0, "min": 0.0, "max": 0.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
            "recovery-ladder-drill": {
                "episodes_ranked": 10, "rank_first": 9,
                "localization_accuracy": 0.9,
                "targeted_rebinds": 9, "full_rebinds": 1,
                "recovered": 10,
                "ttr": {
                    "targeted": {"count": 9, "min": 9.0, "max": 40.0},
                    "full": {"count": 1, "min": 14.0, "max": 14.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
        },
        "fuzz": {
            "seed": 7, "candidates": 8, "evaluated": 8,
            "stopped_by": "candidates", "admitted": 6, "findings": 2,
            "crash_findings": [], "coverage_keys": 40,
            "candidates_per_sec": 2.5, "deterministic": True,
        },
        "resume": {
            "scenario": "recovery-ladder-drill", "seed": 7, "shards": 3,
            "killed_shard": 1, "interrupt_observed": True,
            "shards_durable_at_interrupt": 2, "lost_shards": 0,
            "telemetry_match": True, "span_match": True,
        },
        "service": {
            "scenario": "recovery-ladder-drill", "seed": 7, "segments": 4,
            "state": "complete", "telemetry_records": 4,
            "stream_ordered": True, "telemetry_match": True,
            "span_match": True, "history_recorded": True,
        },
        "benches": {
            "bench_e14_fleet.py": {"ok": True, "seconds": 1.0},
            "bench_e16_sharded.py": {"ok": True, "seconds": 2.0},
        },
    }


def test_clean_report_passes():
    assert evaluate_report(passing_report()) == []


def test_any_failed_bench_fails_not_just_the_sharded_probe():
    report = passing_report()
    report["benches"]["bench_e14_fleet.py"]["ok"] = False
    failures = evaluate_report(report)
    assert any("bench_e14_fleet.py" in failure for failure in failures)


def test_zero_detection_rate_fails():
    report = passing_report()
    report["detection"]["printer-burst"]["detected"] = 0
    report["detection"]["printer-burst"]["detection_rate"] = 0.0
    failures = evaluate_report(report)
    assert any("printer-burst" in f and "zero" in f for f in failures)


def test_serial_vs_sharded_divergence_fails():
    report = passing_report()
    report["detection"]["player-seek-stress"]["detection_invariant"] = False
    assert any("diverged" in f for f in evaluate_report(report))
    report = passing_report()
    report["detection"]["player-seek-stress"]["digests_match"] = False
    assert any("digests" in f for f in evaluate_report(report))
    report = passing_report()
    report["sharded"]["digests_match"] = False
    assert any("shard determinism" in f for f in evaluate_report(report))


def test_drill_must_record_finite_per_wave_ttr():
    report = passing_report()
    report["detection"]["recovery-ladder-drill"]["recovered"] = 0
    report["detection"]["recovery-ladder-drill"]["ttr_waves"] = {}
    failures = evaluate_report(report)
    assert any("no completed recoveries" in f for f in failures)
    assert any("no per-wave" in f for f in failures)

    report = passing_report()
    report["detection"]["recovery-ladder-drill"]["ttr_waves"]["1"]["mean"] = float("inf")
    assert any("not finite" in f for f in evaluate_report(report))


def test_every_detection_cell_must_record_finite_per_wave_ttr():
    report = passing_report()
    report["detection"]["printer-burst"]["ttr_waves"] = {
        "0": {"count": 1, "min": 5.0, "max": float("inf"), "mean": 5.0},
    }
    failures = evaluate_report(report)
    assert "printer-burst wave 0: time-to-recover not finite" in failures


def test_false_alarms_fail_the_gate():
    report = passing_report()
    report["detection"]["player-seek-stress"]["false_alarms"] = 2
    assert any("false alarms" in f for f in evaluate_report(report))


def test_kernel_regression_fails():
    report = passing_report()
    report["kernel_events_per_sec"] = 100
    assert any("regressed" in f for f in evaluate_report(report))


# ----------------------------------------------------------------------
# the perf floor gate (PR 6)
# ----------------------------------------------------------------------
def floored_report(mode="full", cpu_count=4):
    report = passing_report()
    report["mode"] = mode
    report["sharded"]["cpu_count"] = cpu_count
    return report


def test_perf_floor_passes_at_and_above_the_recorded_numbers():
    assert evaluate_report(floored_report()) == []
    report = floored_report()
    report["fleet"]["events_per_sec"] = 95_000  # -21%: inside the margin
    assert evaluate_report(report) == []


def test_perf_floor_fails_on_injected_2x_slowdown():
    report = floored_report()
    report["fleet"]["events_per_sec"] = 60_000  # half the recorded floor
    failures = evaluate_report(report)
    assert any("fleet" in f and "perf floor" in f for f in failures)

    report = floored_report()
    report["scenarios"]["events_per_sec"] = 65_000
    failures = evaluate_report(report)
    assert any("scenarios" in f and "perf floor" in f for f in failures)


def test_perf_floor_skipped_in_quick_mode_on_one_cpu_host():
    report = floored_report(mode="quick", cpu_count=1)
    report["fleet"]["events_per_sec"] = 60_000
    assert evaluate_report(report) == []
    # ... but quick mode on a multi-core host still enforces it,
    report = floored_report(mode="quick", cpu_count=4)
    report["fleet"]["events_per_sec"] = 60_000
    assert evaluate_report(report) != []
    # ... and a full-mode run enforces it even on one CPU.
    report = floored_report(mode="full", cpu_count=1)
    report["fleet"]["events_per_sec"] = 60_000
    assert evaluate_report(report) != []


def test_report_without_a_perf_floor_block_fails():
    report = passing_report()
    del report["perf_floor"]
    assert "perf_floor missing from the report" in evaluate_report(report)


# ----------------------------------------------------------------------
# the exit status is evaluate_report's verdict
# ----------------------------------------------------------------------
def stub_probes(monkeypatch, report):
    """Replace every run_all probe with a canned slice of ``report``."""
    import run_all

    fleet = dict(report["fleet"], members=100, deterministic=True)
    scenarios = dict(report["scenarios"], members=1000, streaming=True)
    sharded = dict(
        report["sharded"], members=300, shards=2, cpu_count=4, speedup=2.0
    )
    probes = {
        "probe_kernel": report["kernel_events_per_sec"],
        "probe_single_suo": 200_000.0,
        "probe_fleet": fleet,
        "probe_sharded": sharded,
        "probe_detection": report["detection"],
        "probe_diagnosis": report["diagnosis"],
        "probe_fuzz": report["fuzz"],
        "probe_resume": report["resume"],
        "probe_service": report["service"],
        "probe_scenarios": scenarios,
    }
    for name, value in probes.items():
        monkeypatch.setattr(
            run_all, name, lambda *_args, _value=value, **_kw: _value
        )


def test_main_exits_one_exactly_when_evaluate_report_fails(
    monkeypatch, tmp_path
):
    import run_all

    stub_probes(monkeypatch, passing_report())
    out = str(tmp_path / "bench.json")
    argv = ["run_all.py", "--no-benches", "--no-history", "--out", out]
    monkeypatch.setattr(sys, "argv", argv)
    assert run_all.main() == 0
    monkeypatch.setattr(
        run_all, "evaluate_report",
        lambda _report, priors=None: ["injected gate failure"],
    )
    assert run_all.main() == 1


# ----------------------------------------------------------------------
# the diagnosis gate (PR 5)
# ----------------------------------------------------------------------
def test_zero_localization_accuracy_fails():
    report = passing_report()
    cell = report["diagnosis"]["player-decoder-drill"]
    cell["rank_first"] = 0
    cell["localization_accuracy"] = 0.0
    failures = evaluate_report(report)
    assert any("player-decoder-drill" in f and "accuracy" in f for f in failures)


def test_missing_localization_episodes_fail():
    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["episodes_ranked"] = 0
    failures = evaluate_report(report)
    assert any("no localization episodes" in f for f in failures)


def test_diagnosis_divergence_fails():
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["diagnosis_invariant"] = False
    assert any(
        "diagnosis stats diverged" in f for f in evaluate_report(report)
    )
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["digests_match"] = False
    assert any("digests diverged" in f for f in evaluate_report(report))


def test_diagnosis_ttr_must_be_finite_and_positive():
    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["ttr"]["targeted"]["max"] = float("inf")
    assert any("not finite" in f for f in evaluate_report(report))

    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["ttr"]["full"]["min"] = 0.0  # count > 0 but zero TTR: bogus
    assert any("not finite" in f for f in evaluate_report(report))


def test_diagnosis_requires_completed_recoveries():
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["recovered"] = 0
    assert any(
        "player-decoder-drill" in f and "no completed recoveries" in f
        for f in evaluate_report(report)
    )


def test_overnight_soak_zero_detection_fails():
    report = passing_report()
    report["detection"]["overnight-soak"]["detected"] = 0
    report["detection"]["overnight-soak"]["detection_rate"] = 0.0
    failures = evaluate_report(report)
    assert any("overnight-soak" in f and "zero" in f for f in failures)


def test_dropped_probe_scenarios_fail_not_pass():
    """A drill silently missing from a probe must read as a failure —
    an empty loop over absent cells must not look like a clean gate."""
    report = passing_report()
    del report["diagnosis"]["printer-jam-drill"]
    failures = evaluate_report(report)
    assert any("printer-jam-drill" in f and "missing" in f for f in failures)

    report = passing_report()
    report["diagnosis"] = {}
    assert len([f for f in evaluate_report(report) if "missing" in f]) == 3

    report = passing_report()
    del report["detection"]["overnight-soak"]
    failures = evaluate_report(report)
    assert any("overnight-soak" in f and "missing" in f for f in failures)


# ----------------------------------------------------------------------
# the fuzz gate (PR 8)
# ----------------------------------------------------------------------
def test_missing_fuzz_probe_fails():
    report = passing_report()
    del report["fuzz"]
    assert any("fuzz probe missing" in f for f in evaluate_report(report))


def test_fuzz_nondeterminism_fails():
    report = passing_report()
    report["fuzz"]["deterministic"] = False
    assert any(
        "fuzz determinism gate" in f for f in evaluate_report(report)
    )


def test_fuzz_crash_findings_fail():
    report = passing_report()
    report["fuzz"]["crash_findings"] = [
        {"detail": "ValueError: boom", "spec_hash": "abc"},
    ]
    failures = evaluate_report(report)
    assert any("crash verdict" in f and "boom" in f for f in failures)


def test_fuzz_zero_candidates_fails():
    report = passing_report()
    report["fuzz"]["evaluated"] = 0
    assert any("no candidates" in f for f in evaluate_report(report))


def test_fuzz_throughput_joins_the_perf_floor():
    report = floored_report()
    report["perf_floor"]["fuzz_candidates_per_sec"] = 2.0
    report["fuzz"]["candidates_per_sec"] = 1.8  # -10%: inside the margin
    assert evaluate_report(report) == []
    report["fuzz"]["candidates_per_sec"] = 0.9  # -55%: below the floor
    failures = evaluate_report(report)
    assert any("fuzz" in f and "perf floor" in f for f in failures)
    # quick mode runs a smaller candidate budget than the floor was
    # recorded at, so the fuzz floor (and only it) is not applied
    report["mode"] = "quick"
    report["sharded"]["cpu_count"] = 4
    assert not any("fuzz" in f for f in evaluate_report(report))


def test_scenarios_end_to_end_throughput_joins_the_perf_floor():
    report = floored_report()
    report["perf_floor"]["scenarios_device_sim_s_per_s"] = 10_000
    report["scenarios"]["device_sim_s_per_s"] = 8_000  # -20%: inside
    assert evaluate_report(report) == []
    report["scenarios"]["device_sim_s_per_s"] = 5_000  # -50%: below
    failures = evaluate_report(report)
    assert any(
        "scenarios" in f and "device-sim-s/s" in f and "perf floor" in f
        for f in failures
    )
    # the kernel-only row still gates on its own
    assert not any("events/sec" in f for f in failures)


def test_every_perf_floor_row_names_its_recording_host():
    from run_all import PERF_FLOOR

    rows = {
        key for key, value in PERF_FLOOR.items()
        if isinstance(value, (int, float)) and key != "max_regression"
    }
    assert "scenarios_device_sim_s_per_s" in rows
    assert rows == set(PERF_FLOOR["hosts"])


def test_provenance_names_the_measuring_host():
    from run_all import provenance

    block = provenance()
    assert block["cpu_count"] == os.cpu_count()
    assert len(block["gc_threshold"]) == 3
    for key in ("host", "python", "git_rev", "git_dirty"):
        assert key in block


# ----------------------------------------------------------------------
# the checkpoint/resume gate (PR 9)
# ----------------------------------------------------------------------
def test_missing_resume_probe_fails():
    report = passing_report()
    del report["resume"]
    assert any("resume probe missing" in f for f in evaluate_report(report))


def test_resume_telemetry_divergence_fails():
    report = passing_report()
    report["resume"]["telemetry_match"] = False
    failures = evaluate_report(report)
    assert any(
        "telemetry digest diverged" in f and "resume" in f.lower()
        for f in failures
    )


def test_resume_span_divergence_fails():
    report = passing_report()
    report["resume"]["span_match"] = False
    failures = evaluate_report(report)
    assert any("span digest diverged" in f for f in failures)


def test_lost_shards_fail_the_resume_gate():
    report = passing_report()
    report["resume"]["lost_shards"] = 1
    failures = evaluate_report(report)
    assert any("unexecuted" in f for f in failures)


def test_resume_probe_must_actually_interrupt():
    # A probe whose injected kill never fired (or that checkpointed
    # nothing before dying) proved nothing and must read as a failure.
    report = passing_report()
    report["resume"]["interrupt_observed"] = False
    assert any("interruption" in f for f in evaluate_report(report))
    report = passing_report()
    report["resume"]["shards_durable_at_interrupt"] = 0
    assert any("checkpointed no shards" in f for f in evaluate_report(report))


# ----------------------------------------------------------------------
# the campaign-service gate (PR 10)
# ----------------------------------------------------------------------
def test_missing_service_probe_fails():
    report = passing_report()
    del report["service"]
    assert any("service probe missing" in f for f in evaluate_report(report))


def test_service_digest_divergence_fails():
    report = passing_report()
    report["service"]["telemetry_match"] = False
    failures = evaluate_report(report)
    assert any(
        "HTTP" in f and "telemetry digest" in f for f in failures
    )
    report = passing_report()
    report["service"]["span_match"] = False
    assert any(
        "HTTP" in f and "span digest" in f for f in evaluate_report(report)
    )


def test_service_job_must_complete_with_live_telemetry():
    report = passing_report()
    report["service"]["state"] = "failed"
    assert any("did not complete" in f for f in evaluate_report(report))
    report = passing_report()
    report["service"]["telemetry_records"] = 0
    assert any(
        "no live telemetry" in f for f in evaluate_report(report)
    )
    report = passing_report()
    report["service"]["stream_ordered"] = False
    assert any("ordered" in f for f in evaluate_report(report))


def test_service_must_append_to_history():
    report = passing_report()
    report["service"]["history_recorded"] = False
    assert any(
        "run-history store" in f for f in evaluate_report(report)
    )


# ----------------------------------------------------------------------
# skipped gates are visible, not silent (PR 7)
# ----------------------------------------------------------------------
def test_no_gates_skipped_on_a_capable_host():
    assert skipped_gates(floored_report(mode="full", cpu_count=4)) == []
    assert skipped_gates(floored_report(mode="quick", cpu_count=4)) == []


def test_perf_floor_skip_is_reported_with_its_reason():
    report = floored_report(mode="quick", cpu_count=1)
    skipped = skipped_gates(report)
    gates = [entry["gate"] for entry in skipped]
    assert "perf-floor" in gates
    entry = next(e for e in skipped if e["gate"] == "perf-floor")
    assert "quick mode" in entry["reason"]
    # the skip list and the gate rules agree: the floor is not applied
    report["fleet"]["events_per_sec"] = 1
    assert not any("perf floor" in f for f in evaluate_report(report))


def test_bench_e16_speedup_skip_tracks_cpu_vs_shards():
    report = floored_report(cpu_count=1)
    report["sharded"]["shards"] = 2
    skipped = skipped_gates(report)
    entry = next(e for e in skipped if e["gate"] == "bench_e16-speedup")
    assert "1 CPUs" in entry["reason"]
    # enough cores: the speedup gate applies, nothing skipped
    report = floored_report(cpu_count=8)
    report["sharded"]["shards"] = 4
    assert skipped_gates(report) == []


# ----------------------------------------------------------------------
# trend rules ride through evaluate_report (PR 7)
# ----------------------------------------------------------------------
def trended_report(fleet_eps=150_000):
    report = floored_report()
    report["fleet"]["events_per_sec"] = fleet_eps
    return report


def test_trend_rules_engage_only_with_priors():
    current = trended_report(fleet_eps=95_000)  # above the absolute floor
    assert evaluate_report(current) == []
    assert evaluate_report(current, priors=[]) == []
    priors = [trended_report(fleet_eps=200_000) for _ in range(3)]
    failures = evaluate_report(current, priors=priors)
    assert any("trend perf floor" in f for f in failures)


def test_detection_drift_fails_through_evaluate_report():
    current = trended_report()
    current["detection"]["recovery-ladder-drill"]["detection_rate"] = 0.5
    priors = [trended_report() for _ in range(3)]
    failures = evaluate_report(current, priors=priors)
    assert any("detection drift" in f for f in failures)


# ----------------------------------------------------------------------
# span forests survive sharding (PR 7: the causal-trace invariant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["recovery-ladder-drill", "targeted-rebind-storm"]
)
def test_span_forest_digest_is_shard_invariant(name):
    from dataclasses import replace

    from repro.campaign import run_cell
    from repro.scenarios import get_scenario

    spec = replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, 7)
    sharded = run_cell(
        spec, 7, backend=ExecutorBackend(InlineExecutor(), shards=2)
    )
    assert serial.spans["completed"] > 0
    assert sharded.span_digest == serial.span_digest
    assert sharded.spans["completed"] == serial.spans["completed"]
    assert sharded.spans["digests"] == serial.spans["digests"]
    # the drills fit the reservoir, so even the sample lists agree
    assert sharded.spans["samples"] == serial.spans["samples"]
    # and the spans block is as reproducible as the telemetry digest
    again = run_cell(spec, 7)
    assert again.spans == serial.spans


# ----------------------------------------------------------------------
# shard-count autotuning (ROADMAP follow-up)
# ----------------------------------------------------------------------
def test_resolve_shards_scales_with_members_and_caps_at_cpus():
    assert resolve_shards(10, cpu_count=8) == 1    # too small to split
    assert resolve_shards(100, cpu_count=8) == 4   # 25 members per shard
    assert resolve_shards(1000, cpu_count=8) == 8  # capped by the host
    assert resolve_shards(1000, cpu_count=1) == 1  # 1-CPU container
    assert resolve_shards(0, cpu_count=4) == 1


def test_backend_autotunes_when_shards_is_none():
    backend = ProcessShardBackend(shards=None)
    assert backend.name == "process-shard[auto]"
    spec = ScenarioSpec("auto", "d", duration=10.0, tvs=120)
    expected = resolve_shards(120)
    assert backend.resolve(spec) == expected
    with pytest.raises(ValueError, match="autotune"):
        ProcessShardBackend(shards=0)


def test_autotuned_run_matches_serial_digest():
    from repro.campaign import run_cell
    from repro.scenarios import UserProfile

    spec = ScenarioSpec(
        "auto-cell", "d", duration=20.0, tvs=6,
        profiles=(UserProfile("p", mean_gap=3.0, keys=("power", "vol_up")),),
    )
    auto = run_cell(
        spec, 5, backend=ExecutorBackend(InlineExecutor(), shards=None)
    )
    serial = run_cell(spec, 5)
    assert auto.telemetry_digest == serial.telemetry_digest
    assert auto.shards == resolve_shards(spec.members)
