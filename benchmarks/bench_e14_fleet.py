"""E14 — beyond the paper: fleet-scale awareness on one kernel.

The paper's framework watches one TV.  The production north star is a
service monitoring *populations* of devices, so this bench drives the
MonitorFleet engine: 100 independent TVs with their awareness monitors
multiplexed on a single kernel and a single runtime bus, seeded random
users on every set, and a fault-injection campaign across a deterministic
subset.

Claims checked:

* the fleet runs at six-figure dispatch throughput (events/sec);
* injected faults are detected with zero false alarms (the Sect. 4.3
  comparator discipline survives multiplexing);
* the run is deterministic — same fleet seed, byte-identical trace.

The campaign is a :class:`~repro.scenarios.ScenarioSpec` run serially
through :func:`repro.campaign.run_cell_detailed`, which keeps the live
fleet for the one-kernel check; bench_e16 shards the same kind of cell.
"""


from repro.campaign import run_cell_detailed
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

from conftest import print_table, qscale, run_once

FLEET_SEED = 14
FLEET_SIZE = qscale(100, 30)
DURATION = qscale(60.0, 30.0)
VOLUME_HEAVY_KEYS = [
    "power", "vol_up", "vol_down", "vol_up", "ch_up", "ch_down",
    "mute", "menu", "back", "ttx", "epg",
]


SPEC = ScenarioSpec(
    name="e14-fleet",
    description="E14: fleet fault-injection campaign on one kernel",
    duration=DURATION,
    tvs=FLEET_SIZE,
    profiles=(UserProfile("volume-heavy", keys=tuple(VOLUME_HEAVY_KEYS)),),
    phases=(FaultPhase("volume_overshoot", at=DURATION / 3, fraction=0.2),),
)


def _campaign():
    cell = run_cell_detailed(SPEC, FLEET_SEED)
    return cell.compiled.fleet, cell.fleet_report


def test_e14_fleet_campaign(benchmark):
    fleet, report = run_once(benchmark, _campaign)
    print_table(
        "E14: 100-SUO fleet fault-injection campaign (one kernel, one bus)",
        ["members", "sim time", "events", "events/sec", "faulty", "detected",
         "false alarms"],
        [[
            report.members,
            f"{report.duration:.0f}",
            report.dispatched,
            f"{report.events_per_sec:.0f}",
            len(report.faulty),
            len(report.detected),
            len(report.false_alarms),
        ]],
    )
    assert report.members == FLEET_SIZE
    assert report.dispatched > qscale(10_000, 1_000)
    assert report.faulty, "20% injection over 100 TVs must afflict someone"
    assert report.detected, "the monitors must catch injected faults"
    assert report.false_alarms == [], "fault-free members must stay silent"
    # one shared kernel serves the whole fleet
    assert all(
        member.suo.kernel is fleet.kernel for member in fleet.members.values()
    )


def test_e14_fleet_determinism(benchmark):
    """Same fleet seed → byte-identical merged trace, twice over."""

    def both():
        first = _campaign()[1]
        second = _campaign()[1]
        return first, second

    first, second = run_once(benchmark, both)
    assert first.trace_digest == second.trace_digest
    assert first.dispatched == second.dispatched
    assert first.errors_by_suo == second.errors_by_suo
