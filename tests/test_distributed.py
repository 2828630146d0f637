"""Tests for distributed execution, shard checkpointing, and resume.

The PR 9 acceptance bar: a campaign interrupted by worker loss and
resumed from its shard checkpoint produces a ``telemetry_digest`` AND
``span_digest`` byte-identical to an uninterrupted serial run — with
the interruption injected deterministically (``WorkerFaultInjector``),
detected for real (pipe EOF from an ``os._exit``-killed process, a
dropped socket), and retried within a bound.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    ExecutorBackend,
    InlineExecutor,
    ProcessShardBackend,
    ProcessWorkerExecutor,
    ShardExhaustedError,
    ShardResult,
    ShardWorkerServer,
    SocketWorkerExecutor,
    WorkerFaultInjector,
    WorkerLostError,
    execute_plan,
    resolve_shards,
    resume_campaign,
    run_cell,
)
from repro.scenarios import build_plan, get_scenario, partition_plan
from repro.scenarios.plan import ScenarioPlan


def small_spec(record_spans=False):
    spec = get_scenario("zapping-storm").scaled(0.25)
    return replace(spec, record_spans=record_spans) if record_spans else spec


# ----------------------------------------------------------------------
# the fault injector is a pure function
# ----------------------------------------------------------------------
def test_fault_injector_is_deterministic_and_bounded():
    injector = WorkerFaultInjector(kill_shards=(1, 3), kills=2)
    assert injector.should_kill(1, 0)
    assert injector.should_kill(1, 1)
    assert not injector.should_kill(1, 2)  # retries eventually succeed
    assert injector.should_kill(3, 0)
    assert not injector.should_kill(0, 0)
    assert not injector.should_kill(2, 5)


# ----------------------------------------------------------------------
# retry and exhaustion
# ----------------------------------------------------------------------
def test_inline_kill_retries_and_records_attempt_provenance():
    backend = ExecutorBackend(
        InlineExecutor(WorkerFaultInjector(kill_shards=(0,), kills=2)),
        shards=1, max_attempts=3,
    )
    plan = build_plan(small_spec(), 5)
    result = backend.submit(plan)
    assert result.attempt == 2  # two losses, third attempt landed it
    assert result.payload["shard_id"] == 0


def test_exhausted_shard_raises_instead_of_merging_partial():
    backend = ExecutorBackend(
        InlineExecutor(WorkerFaultInjector(kill_shards=(0,), kills=99)),
        shards=2, max_attempts=2,
    )
    with pytest.raises(ShardExhaustedError, match="shard 0"):
        run_cell(small_spec(), 5, backend=backend)


def test_distributed_inline_matches_serial_digest():
    serial = run_cell(small_spec(), 5)
    backend = ExecutorBackend(
        InlineExecutor(WorkerFaultInjector(kill_shards=(1,))), shards=3,
    )
    report = run_cell(small_spec(), 5, backend=backend)
    assert report.telemetry_digest == serial.telemetry_digest
    assert report.shards == 3


# ----------------------------------------------------------------------
# real worker processes: heartbeat, EOF detection, os._exit kills
# ----------------------------------------------------------------------
def test_process_worker_survives_a_real_kill():
    serial = run_cell(small_spec(), 5)
    backend = ExecutorBackend(
        ProcessWorkerExecutor(WorkerFaultInjector(kill_shards=(0,))),
        shards=2,
    )
    report = run_cell(small_spec(), 5, backend=backend)
    assert report.telemetry_digest == serial.telemetry_digest


def test_process_worker_loss_is_a_worker_lost_error():
    executor = ProcessWorkerExecutor(
        WorkerFaultInjector(kill_shards=(0,), kills=99)
    )
    plan = build_plan(small_spec(), 5)
    with pytest.raises(WorkerLostError, match="died"):
        executor.run_attempt(plan, 0)


def test_dead_shard_worker_does_not_hang_a_sharded_cell(tmp_path):
    """Shard 1's worker process dies on its first attempt: the preset
    process backend detects the loss, retries the shard on a fresh
    worker, and the cell lands with the serial digests."""
    spec = small_spec(record_spans=True)
    serial = run_cell(spec, 5)
    backend = ProcessShardBackend(shards=2)
    backend.executor = ProcessWorkerExecutor(
        fault_injector=WorkerFaultInjector((1,))
    )
    db = str(tmp_path / "checkpoint.sqlite")
    with CampaignCheckpoint(db) as checkpoint:
        report = run_cell(
            spec, 5, backend=backend,
            checkpoint=checkpoint, campaign_id="dead-worker",
        )
        cell = checkpoint.cells("dead-worker")[0]
        rows = checkpoint.history.campaign_shard_rows(cell["id"])
    assert report.telemetry_digest == serial.telemetry_digest
    assert report.span_digest == serial.span_digest
    by_shard = {row["shard_id"]: row for row in rows}
    assert by_shard[1]["attempt"] == 1
    assert by_shard[0]["attempt"] == 0


def test_heartbeat_timeout_must_exceed_interval():
    from repro.campaign.backends import HEARTBEAT_INTERVAL, HEARTBEAT_TIMEOUT

    assert HEARTBEAT_TIMEOUT > HEARTBEAT_INTERVAL > 0


# ----------------------------------------------------------------------
# wire forms round-trip exactly
# ----------------------------------------------------------------------
def test_shard_plan_json_round_trip_including_partitions():
    spec = replace(get_scenario("recovery-ladder-drill"), record_spans=True)
    plan = build_plan(spec, 7)
    assert ScenarioPlan.from_json(plan.to_json()) == plan
    for shard in partition_plan(plan, 3):
        restored = ScenarioPlan.from_json(
            json.loads(json.dumps(shard.to_json()))
        )
        assert restored == shard
        # the restored plan executes byte-identically
        assert execute_plan(restored)["trace_digest"] == \
            execute_plan(shard)["trace_digest"]


def test_shard_result_json_round_trip():
    plan = partition_plan(build_plan(small_spec(), 5), 2)[1]
    result = ShardResult(
        shard_id=1, payload=execute_plan(plan), attempt=2, worker="w-9",
    )
    restored = ShardResult.from_json(json.loads(
        json.dumps(result.to_json(), sort_keys=True)
    ))
    assert restored.shard_id == 1
    assert restored.attempt == 2
    assert restored.worker == "w-9"
    assert restored.payload == result.payload


# ----------------------------------------------------------------------
# socket workers
# ----------------------------------------------------------------------
def test_socket_workers_match_serial_and_survive_a_dropped_connection():
    serial = run_cell(small_spec(), 5)
    # worker 0 drops shard 0's first attempt on the floor; the retry
    # rotates to the healthy worker (shard reassignment).
    flaky = ShardWorkerServer(
        fault_injector=WorkerFaultInjector(kill_shards=(0,))
    )
    healthy = ShardWorkerServer()
    flaky.serve_in_background()
    healthy.serve_in_background()
    try:
        backend = ExecutorBackend(
            SocketWorkerExecutor([flaky.address, healthy.address]),
            shards=2,
        )
        report = run_cell(small_spec(), 5, backend=backend)
    finally:
        flaky.close()
        healthy.close()
    assert report.telemetry_digest == serial.telemetry_digest


def test_unreachable_socket_worker_is_a_worker_lost_error():
    # bind-then-close guarantees a dead port
    server = ShardWorkerServer()
    address = server.address
    server.close()
    executor = SocketWorkerExecutor([address], timeout=2.0)
    plan = build_plan(small_spec(), 5)
    with pytest.raises(WorkerLostError, match="unreachable"):
        executor.run_attempt(plan, 0)


# ----------------------------------------------------------------------
# checkpointing and resume: the tentpole guarantee
# ----------------------------------------------------------------------
class CountingExecutor(InlineExecutor):
    """InlineExecutor that counts which shards actually executed."""

    def __init__(self, fault_injector=None):
        super().__init__(fault_injector)
        self.executed = []

    def run_attempt(self, plan, attempt):
        result = super().run_attempt(plan, attempt)
        self.executed.append(plan.shard_id)
        return result


@pytest.mark.parametrize(
    "name", ["recovery-ladder-drill", "targeted-rebind-storm"]
)
def test_interrupt_then_resume_is_digest_identical_to_serial(name, tmp_path):
    """Kill one shard's worker mid-campaign, resume from the shard
    checkpoint, and both determinism witnesses — telemetry digest and
    span-forest digest — must equal an uninterrupted serial run's."""
    spec = replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, 7)
    db = str(tmp_path / "checkpoint.sqlite")
    shards = 3

    # Sitting 1: shard 1's worker dies with no retry allowed; the cell
    # raises, but every other shard is already durable.
    broken = ExecutorBackend(
        InlineExecutor(WorkerFaultInjector(kill_shards=(1,))),
        shards=shards, max_attempts=1,
    )
    with CampaignCheckpoint(db) as checkpoint:
        with pytest.raises(ShardExhaustedError):
            run_cell(
                spec, 7, backend=broken,
                checkpoint=checkpoint, campaign_id="drill",
            )
        durable = checkpoint.status("drill")["cells"][0]["completed_shards"]
    assert durable == shards - 1

    # Sitting 2: resume re-executes ONLY the lost shard.
    counting = CountingExecutor()
    healthy = ExecutorBackend(counting, shards=shards)
    with CampaignCheckpoint(db) as checkpoint:
        reports = resume_campaign("drill", checkpoint, backend=healthy)
    assert counting.executed == [1]
    assert len(reports) == 1
    resumed = reports[0]
    assert resumed.telemetry_digest == serial.telemetry_digest
    assert resumed.span_digest == serial.span_digest
    assert resumed.shards == shards

    # A third sitting merges purely from the store — still identical.
    with CampaignCheckpoint(db) as checkpoint:
        again = resume_campaign("drill", checkpoint)
        status = checkpoint.status("drill")
    assert again[0].telemetry_digest == serial.telemetry_digest
    assert again[0].span_digest == serial.span_digest
    assert status["complete"]
    assert status["cells"][0]["telemetry_digest"] == serial.telemetry_digest


def test_resume_reuses_recorded_shard_resolution(tmp_path):
    """The partition recorded at begin_cell wins on resume: a resuming
    backend with a different shard policy must not re-partition."""
    db = str(tmp_path / "checkpoint.sqlite")
    spec = small_spec()
    with CampaignCheckpoint(db) as checkpoint:
        with pytest.raises(ShardExhaustedError):
            run_cell(
                spec, 5,
                backend=ExecutorBackend(
                    InlineExecutor(WorkerFaultInjector(kill_shards=(2,))),
                    shards=3, max_attempts=1,
                ),
                checkpoint=checkpoint, campaign_id="c",
            )
    # resume with a backend that would resolve to 5 shards
    with CampaignCheckpoint(db) as checkpoint:
        reports = resume_campaign(
            "c", checkpoint,
            backend=ExecutorBackend(InlineExecutor(), shards=5),
        )
        cell = checkpoint.status("c")["cells"][0]
    assert reports[0].shards == 3
    assert cell["resolved_shards"] == 3
    assert reports[0].telemetry_digest == run_cell(spec, 5).telemetry_digest


def test_autotune_decision_is_recorded_in_the_checkpoint_row(tmp_path):
    spec = get_scenario("zapping-storm")  # 120 members at full scale
    db = str(tmp_path / "checkpoint.sqlite")
    backend = ExecutorBackend(InlineExecutor(), shards=None)
    with CampaignCheckpoint(db) as checkpoint:
        run_cell(
            spec, 5, backend=backend,
            checkpoint=checkpoint, campaign_id="auto",
        )
        cell = checkpoint.status("auto")["cells"][0]
    assert cell["requested_shards"] == "auto"
    assert cell["resolved_shards"] == resolve_shards(spec.members)
    assert cell["completed_shards"] == cell["resolved_shards"]


def test_retried_shard_appends_attempts_never_overwrites(tmp_path):
    db = str(tmp_path / "checkpoint.sqlite")
    backend = ExecutorBackend(
        InlineExecutor(WorkerFaultInjector(kill_shards=(0,), kills=1)),
        shards=2, max_attempts=2,
    )
    with CampaignCheckpoint(db) as checkpoint:
        run_cell(
            small_spec(), 5, backend=backend,
            checkpoint=checkpoint, campaign_id="c",
        )
        cell = checkpoint.cells("c")[0]
        rows = checkpoint.history.campaign_shard_rows(cell["id"])
    by_shard = {row["shard_id"]: row for row in rows}
    assert by_shard[0]["attempt"] == 1  # the retry, not the kill
    assert by_shard[1]["attempt"] == 0


def test_checkpointed_rerun_skips_every_durable_shard(tmp_path):
    """Re-running a completed campaign cell executes nothing."""
    db = str(tmp_path / "checkpoint.sqlite")
    first = CountingExecutor()
    with CampaignCheckpoint(db) as checkpoint:
        run_cell(
            small_spec(), 5, backend=ExecutorBackend(first, shards=2),
            checkpoint=checkpoint, campaign_id="c",
        )
    assert sorted(first.executed) == [0, 1]
    second = CountingExecutor()
    with CampaignCheckpoint(db) as checkpoint:
        report = run_cell(
            small_spec(), 5, backend=ExecutorBackend(second, shards=2),
            checkpoint=checkpoint, campaign_id="c",
        )
    assert second.executed == []
    assert report.telemetry_digest == run_cell(small_spec(), 5).telemetry_digest


def test_resume_unknown_campaign_raises_key_error(tmp_path):
    db = str(tmp_path / "checkpoint.sqlite")
    with CampaignCheckpoint(db) as checkpoint:
        with pytest.raises(KeyError, match="nope"):
            resume_campaign("nope", checkpoint)
