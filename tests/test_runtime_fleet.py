"""Tests for the MonitorFleet layer.

The fleet engine multiplexes many monitored SUOs on one kernel and one
bus; the properties that matter are isolation (per-SUO topic namespaces),
determinism (same seed → byte-identical fleet trace), and that campaigns
over a fleet — declared as scenarios, compiled onto a MonitorFleet —
actually detect injected faults without false alarms.
"""

import pytest

from repro.campaign import run_cell_detailed
from repro.runtime import MonitorFleet, build_fleet_report
from repro.runtime.fleet import derive_member_seed
from repro.scenarios import CompiledScenario, FaultPhase, ScenarioSpec, UserProfile


def fleet_spec(
    tvs, duration, players=0, fault_fraction=0.0, keys=None, mean_gap=4.0,
    retain_trace=None,
):
    """Random users on every TV; with ``fault_fraction`` a
    volume-overshoot fault a third of the way in."""
    phases = ()
    if fault_fraction:
        phases = (FaultPhase(
            "volume_overshoot", at=duration / 3.0, fraction=fault_fraction,
        ),)
    return ScenarioSpec(
        name="fleet-test",
        description="test fixture",
        duration=duration,
        tvs=tvs,
        players=players,
        profiles=(UserProfile(
            "users", mean_gap=mean_gap,
            keys=tuple(keys) if keys else None,
        ),),
        phases=phases,
        retain_trace=retain_trace,
    )


def test_members_share_one_kernel_and_bus():
    fleet = MonitorFleet(seed=1)
    a = fleet.add_tv()
    b = fleet.add_tv()
    p = fleet.add_player()
    assert a.suo.kernel is fleet.kernel
    assert b.suo.kernel is fleet.kernel
    assert p.suo.kernel is fleet.kernel
    assert a.suo.bus is fleet.bus
    assert len(fleet) == 3


def test_member_seeds_are_stable_and_distinct():
    assert derive_member_seed(5, "tv-0") == derive_member_seed(5, "tv-0")
    assert derive_member_seed(5, "tv-0") != derive_member_seed(5, "tv-1")
    assert derive_member_seed(5, "tv-0") != derive_member_seed(6, "tv-0")


def test_duplicate_suo_id_rejected():
    fleet = MonitorFleet(seed=1)
    fleet.add_tv(suo_id="x")
    try:
        fleet.add_tv(suo_id="x")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("duplicate suo_id accepted")


def test_topic_isolation_between_members():
    """Pressing a key on one TV reaches only that TV's monitor."""
    fleet = MonitorFleet(seed=3)
    a = fleet.add_tv()
    b = fleet.add_tv()
    a.suo.press("power")
    fleet.run(10.0)
    assert a.suo.powered
    assert not b.suo.powered
    # the monitor executors saw different input streams
    assert a.monitor.executor.steps != b.monitor.executor.steps
    # and the fleet recorder attributed traffic to the right member
    assert a.inputs == 1
    assert b.inputs == 0


def test_fleet_trace_is_deterministic_across_runs():
    """Same seed → byte-identical merged fleet trace (two fresh runs)."""

    def digest():
        spec = fleet_spec(5, 40.0, players=1, fault_fraction=0.4)
        report = run_cell_detailed(spec, 11).fleet_report
        return report.trace_digest, report.dispatched

    first, second = digest(), digest()
    assert first == second
    assert first[1] > 0


def test_different_seed_changes_the_trace():
    def digest(seed):
        cell = run_cell_detailed(fleet_spec(3, 30.0), seed)
        return cell.compiled.fleet.trace_digest()

    assert digest(1) != digest(2)


def test_campaign_detects_injected_faults_without_false_alarms():
    spec = fleet_spec(
        12, 120.0,
        fault_fraction=0.5,
        # volume-heavy sessions make the overshoot fault observable
        keys=["power", "vol_up", "vol_down", "ch_up", "mute", "menu", "back"],
    )
    report = run_cell_detailed(spec, 42).fleet_report
    assert report.members == 12
    assert report.faulty, "campaign should afflict someone at 50%"
    assert report.detected, "at least one injected fault must be caught"
    assert report.false_alarms == []
    assert 0.0 < report.detection_rate <= 1.0
    assert report.events_per_sec > 0


def test_fleet_scales_to_one_hundred_suos():
    """The acceptance workload: 100 SUOs, one kernel, deterministic."""
    cell = run_cell_detailed(fleet_spec(100, 20.0), 9)
    fleet, report = cell.compiled.fleet, cell.fleet_report
    assert report.members == 100
    assert report.dispatched > 10_000
    powered = sum(1 for m in fleet.members.values() if m.suo.powered)
    assert powered > 50  # random users zap some off; most stay on


# ----------------------------------------------------------------------
# report-ratio guards (zero-fault / zero-member campaigns)
# ----------------------------------------------------------------------
def _report(members=0, faulty=(), detected=(), false_alarms=()):
    from repro.runtime import FleetReport

    return FleetReport(
        members=members,
        duration=1.0,
        dispatched=0,
        wall_seconds=0.0,
        events_per_sec=0.0,
        errors_by_suo={},
        faulty=list(faulty),
        detected=list(detected),
        false_alarms=list(false_alarms),
        trace_digest="",
        trace_records=0,
    )


def test_detection_rate_guards_zero_fault_campaigns():
    assert _report(members=5).detection_rate == 1.0
    assert _report(members=5, faulty=["a", "b"], detected=["a"]).detection_rate == 0.5


def test_false_alarm_rate_guards_degenerate_fleets():
    # empty fleet and all-faulty fleet: nobody *could* false-alarm
    assert _report(members=0).false_alarm_rate == 0.0
    assert _report(members=2, faulty=["a", "b"]).false_alarm_rate == 0.0
    assert _report(
        members=4, faulty=["a", "b"], false_alarms=["c"]
    ).false_alarm_rate == 0.5


def test_wall_clock_zero_does_not_divide():
    assert _report(members=1).events_per_sec == 0.0


# ----------------------------------------------------------------------
# campaign edge cases
# ----------------------------------------------------------------------
def test_runner_on_an_empty_fleet():
    """An empty fleet runs and reports guarded zeros; the declarative
    layer refuses the empty mix outright."""
    fleet = MonitorFleet(seed=1)
    report = build_fleet_report(fleet, 10.0, fleet.run(10.0), 0.0, [])
    with pytest.raises(ValueError, match="empty device mix"):
        ScenarioSpec("empty", "d", duration=10.0).validate()
    assert report.members == 0
    assert report.dispatched == 0
    assert report.faulty == []
    assert report.detection_rate == 1.0
    assert report.false_alarm_rate == 0.0
    assert report.telemetry_summary["events_total"] == 0


def test_runner_faults_into_every_member():
    spec = fleet_spec(
        6, 120.0,
        fault_fraction=1.0,
        keys=["power", "vol_up", "vol_down", "mute", "ch_up"],
    )
    report = run_cell_detailed(spec, 8).fleet_report
    assert len(report.faulty) == 6  # fraction 1.0 afflicts everyone
    assert report.false_alarms == []
    assert report.false_alarm_rate == 0.0  # no clean member exists
    assert report.detected, "an all-faulty campaign must detect someone"


def test_repeated_run_extends_the_campaign_instead_of_restarting():
    compiled = CompiledScenario(fleet_spec(8, 30.0, mean_gap=5.0), seed=21)
    fleet = compiled.fleet
    first = compiled.run()
    powered = sum(1 for m in fleet.members.values() if m.suo.powered)
    assert powered > 0
    second = compiled.run()
    # setup ran once: every TV has exactly one driver and the clock moved on
    assert all(m.driver is not None for m in fleet.members.values() if m.kind == "tv")
    assert fleet.kernel.now == pytest.approx(60.0)
    # reports are cumulative: the second covers both segments
    assert second.duration == pytest.approx(60.0)
    assert second.trace_records >= first.trace_records
    assert second.dispatched >= first.dispatched > 0


def test_streaming_mode_matches_retained_digest_with_no_records():
    def campaign(retain):
        compiled = CompiledScenario(
            fleet_spec(4, 30.0, retain_trace=retain), seed=13
        )
        report = compiled.run()
        return compiled.fleet, report

    retained_fleet, retained = campaign(True)
    streaming_fleet, streaming = campaign(False)
    assert retained.trace_digest == streaming.trace_digest
    assert retained.trace_records == streaming.trace_records
    assert len(retained_fleet.trace.records) == retained.trace_records
    assert streaming_fleet.trace.records == []  # bounded memory
    assert streaming.retained_trace is False
    assert retained.telemetry_digest == streaming.telemetry_digest


def test_false_alarm_denominator_counts_monitored_clean_members():
    """Unmonitored members can be fault-injected too; the false-alarm
    pool is the monitored AND fault-free population, not monitored minus
    total faulty."""
    fleet = MonitorFleet(seed=30)
    fleet.add_tvs(3, monitor=True)
    fleet.add_tvs(2, monitor=False)
    # mark both unmonitored TVs faulty by hand
    for member in fleet.members.values():
        if member.monitor is None:
            member.faulty = True
    faulty = [m for m in fleet.members.values() if m.faulty]
    report = build_fleet_report(fleet, 1.0, 0, 0.0, faulty)
    assert report.monitored_clean == 3  # the three monitored, clean TVs
    assert report.false_alarm_rate == 0.0
