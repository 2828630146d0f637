"""Tests for the unified campaign API (repro.campaign).

The contract under test is the PR 3 acceptance bar: a campaign cell
executed by ``ProcessShardBackend`` produces *identical* merged
counter/tally telemetry to the same cell under ``SerialBackend`` (the
``telemetry_digest`` witness), per-shard trace digests reproduce across
reruns, and the Campaign plan is a row-major scenario × seed grid.
"""

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignReport,
    ExecutorBackend,
    InlineExecutor,
    ProcessShardBackend,
    run_cell,
    format_campaign_table,
)
from repro.runtime.telemetry import mergeable_summary
from repro.scenarios import FaultPhase, SCENARIOS, ScenarioSpec, UserProfile, build_plan, partition_plan

SMALL = ScenarioSpec(
    name="campaign-small",
    description="test fixture",
    duration=30.0,
    tvs=5,
    profiles=(UserProfile("p", mean_gap=2.0, keys=("power", "vol_up", "mute")),),
    phases=(FaultPhase("volume_overshoot", at=10.0, fraction=0.5),),
)


# ----------------------------------------------------------------------
# plans and partitioning
# ----------------------------------------------------------------------
def test_plan_partition_preserves_identities_and_targets():
    spec = ScenarioSpec(
        "mix", "d", duration=20.0, tvs=5, players=3, printers=2,
        phases=(FaultPhase("volume_overshoot", at=5.0, fraction=1.0),),
    )
    plan = build_plan(spec, seed=9)
    shards = partition_plan(plan, 3)
    assert len(shards) == 3
    # every member lands on exactly one shard, identity intact
    scattered = [m for shard in shards for m in shard.members]
    assert sorted(m.suo_id for m in scattered) == sorted(
        m.suo_id for m in plan.members
    )
    assert {m.suo_id: m.kind_index for m in scattered} == {
        m.suo_id: m.kind_index for m in plan.members
    }
    assert {m.suo_id: m.profile for m in scattered} == {
        m.suo_id: m.profile for m in plan.members
    }
    # phase targets are partitioned, not re-drawn
    merged_targets = sorted(
        suo for shard in shards for suo in shard.phase_targets[0]
    )
    assert merged_targets == sorted(plan.phase_targets[0])
    # shard specs cover the shard's slice exactly
    for shard in shards:
        assert shard.spec.tvs == len(shard.members_of("tv"))
        assert shard.spec.players == len(shard.members_of("player"))
        assert shard.spec.printers == len(shard.members_of("printer"))


def test_partition_drops_empty_shards_and_rejects_nesting():
    plan = build_plan(SMALL, seed=1)
    shards = partition_plan(plan, 50)  # far more shards than members
    assert 0 < len(shards) <= SMALL.members
    with pytest.raises(ValueError, match="re-partition"):
        partition_plan(shards[0], 2)
    with pytest.raises(ValueError, match="shards"):
        partition_plan(plan, 0)


# ----------------------------------------------------------------------
# Campaign plan / grid semantics
# ----------------------------------------------------------------------
def test_campaign_grid_is_row_major_and_resolves_names():
    campaign = Campaign(["zapping-storm", SMALL], seeds=[1, 2], scale=0.25)
    cells = [(spec.name, seed) for spec, seed in campaign.cells]
    assert cells == [
        ("zapping-storm", 1), ("zapping-storm", 2),
        ("campaign-small", 1), ("campaign-small", 2),
    ]
    # scale applies to device mixes
    assert campaign.cells[0][0].tvs == SCENARIOS["zapping-storm"].scaled(0.25).tvs


def test_run_cell_does_not_rescale_resolved_grid_cells():
    campaign = Campaign("zapping-storm", seeds=[1], scale=2.0)
    spec, seed = campaign.cells[0]
    report = campaign.run_cell(spec, seed)
    assert report.members == spec.members  # scaled once, not twice
    # a fresh name still picks up the campaign scale
    by_name = campaign.run_cell("zapping-storm", seed)
    assert by_name.members == spec.members


def test_campaign_rejects_empty_plans():
    with pytest.raises(ValueError):
        Campaign([], seeds=[1])
    with pytest.raises(ValueError):
        Campaign(SMALL, seeds=[])
    with pytest.raises(ValueError):
        Campaign(SMALL, scale=0)


def test_serial_backend_report_shape():
    report = Campaign(SMALL).run_cell(SMALL, seed=3)
    assert isinstance(report, CampaignReport)
    assert report.backend == "serial"
    assert report.shards == 1
    assert report.members == SMALL.members
    assert len(report.shard_trace_digests) == 1
    assert report.dispatched > 0
    assert report.telemetry_summary["events_total"] > 0
    assert report.telemetry_digest
    assert report.faulty, "the fault phase must afflict someone"
    assert 0.0 <= report.detection_rate <= 1.0
    table = format_campaign_table([report])
    assert "campaign-small" in table and "telemetry digest" in table


def test_campaign_report_to_json_round_trips():
    report = Campaign(SMALL).run_cell(SMALL, seed=3)
    data = json.loads(report.to_json())
    assert data["scenario"] == "campaign-small"
    assert data["seed"] == 3
    assert data["telemetry_digest"] == report.telemetry_digest
    assert data["detection_rate"] == report.detection_rate
    assert data["telemetry_summary"]["events_total"] == \
        report.telemetry_summary["events_total"]


# ----------------------------------------------------------------------
# sharded execution: the acceptance bar
# ----------------------------------------------------------------------
def test_sharded_matches_serial_on_fixture():
    serial = run_cell(SMALL, 5)
    for shards in (2, 3):
        sharded = run_cell(SMALL, 5, backend=ProcessShardBackend(shards=shards))
        assert sharded.shards == shards
        assert sharded.members == serial.members
        assert sharded.telemetry_digest == serial.telemetry_digest
        assert mergeable_summary(sharded.telemetry_summary) == \
            mergeable_summary(serial.telemetry_summary)
        assert sharded.faulty == serial.faulty
        assert sharded.detected == serial.detected
        assert sharded.false_alarms == serial.false_alarms
        assert sharded.errors_by_suo == serial.errors_by_suo
        # kernel dispatch counts differ by a handful of per-shard
        # scheduling events (each shard fires its own phase events); the
        # SUO-event telemetry above is the placement invariant.
        assert abs(sharded.dispatched - serial.dispatched) < 10 * shards


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_library_scenario_shards_match_serial(name):
    """Acceptance: for every library scenario at the quick scale,
    ProcessShardBackend(shards=2) and SerialBackend produce identical
    merged counter/tally telemetry."""
    campaign = Campaign([name], scale=0.25)
    serial = campaign.run_cell(name, seed=7)
    sharded = campaign.run_cell(
        name, seed=7, backend=ProcessShardBackend(shards=2)
    )
    assert sharded.telemetry_digest == serial.telemetry_digest
    assert mergeable_summary(sharded.telemetry_summary) == \
        mergeable_summary(serial.telemetry_summary)
    assert sharded.faulty == serial.faulty
    assert sharded.detected == serial.detected
    assert sharded.false_alarms == serial.false_alarms


def test_shard_trace_digests_reproduce_across_reruns():
    backend = ProcessShardBackend(shards=2)
    first = run_cell(SMALL, 5, backend=backend)
    second = run_cell(SMALL, 5, backend=backend)
    assert first.shard_trace_digests == second.shard_trace_digests
    assert len(first.shard_trace_digests) == 2
    assert first.telemetry_digest == second.telemetry_digest
    # distinct shards record distinct event streams
    assert len(set(first.shard_trace_digests)) == 2


def test_inline_sharding_equals_process_sharding():
    inline = run_cell(
        SMALL, 5, backend=ExecutorBackend(InlineExecutor(), shards=2)
    )
    process = run_cell(SMALL, 5, backend=ProcessShardBackend(shards=2))
    assert inline.telemetry_digest == process.telemetry_digest
    assert inline.shard_trace_digests == process.shard_trace_digests
    assert inline.dispatched == process.dispatched


def test_single_shard_request_runs_in_process():
    report = run_cell(SMALL, 5, backend=ProcessShardBackend(shards=1))
    serial = run_cell(SMALL, 5)
    assert report.shards == 1
    assert report.telemetry_digest == serial.telemetry_digest
    assert report.shard_trace_digests == serial.shard_trace_digests
