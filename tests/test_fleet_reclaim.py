"""Fleet teardown: a finished cell is freed by one cyclic collection,
a closed scenario stays inspectable, and forked shard workers freeze
the heap they inherit instead of traversing it."""

import gc
import multiprocessing
import weakref

import pytest

from repro.campaign import backends, execute_cell, run_cell_detailed
from repro.campaign.backends import ProcessWorkerExecutor
from repro.fuzz.coverage import model_coverage
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile
from repro.scenarios.compile import CompiledScenario
from repro.scenarios.plan import build_plan


def fleet_spec(tvs=200, duration=5.0, name="reclaim"):
    return ScenarioSpec(
        name=name,
        description="test fixture: monitored TVs, one fault wave",
        duration=duration,
        tvs=tvs,
        profiles=(UserProfile("zapper", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )


def test_consecutive_cells_are_freed_by_one_collection(monkeypatch):
    """Without teardown a finished fleet survives its first collection
    (suspended generators in its cycles are finalized, nothing is
    freed) and only the second one frees it."""
    fleets = []
    original = CompiledScenario.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        fleets.append(weakref.ref(self.fleet))

    monkeypatch.setattr(CompiledScenario, "__init__", init)
    spec = fleet_spec()
    gc.collect()
    baseline = len(gc.get_objects())
    for seed in range(5):
        execute_cell(spec, seed)
        gc.collect()
        assert fleets[-1]() is None, f"cell {seed}: fleet survived a collection"
        assert gc.collect() == 0, f"cell {seed}: a second collection freed more"
    assert len(fleets) == 5
    assert abs(len(gc.get_objects()) - baseline) <= 0.05 * baseline


def test_closed_scenario_stays_inspectable_but_cannot_run():
    compiled = CompiledScenario(fleet_spec(tvs=6, duration=4.0), seed=2)
    report = compiled.run()
    assert compiled.fleet.kernel.processes
    compiled.close()
    compiled.close()  # idempotent
    assert not compiled.fleet.kernel.processes
    assert compiled.report is report
    assert len(compiled.fleet) == 6
    assert model_coverage(compiled)
    with pytest.raises(RuntimeError, match="closed"):
        compiled.run()
    with pytest.raises(RuntimeError, match="closed"):
        compiled.run_segmented(2)


def test_detailed_cells_do_not_share_fire_counts():
    """Every TV monitor runs over one shared chart; its fire counts live
    on the machine, so a cell's coverage cannot leak into the next."""

    def counts(cell):
        return {
            suo_id: {t.name: n for t, n in
                     member.monitor.executor.machine.fire_counts.items()}
            for suo_id, member in cell.compiled.fleet.members.items()
        }

    spec = fleet_spec(tvs=12, duration=20.0)
    first = run_cell_detailed(spec, 4)
    other = run_cell_detailed(fleet_spec(tvs=12, duration=20.0, name="other"), 9)
    again = run_cell_detailed(spec, 4)
    assert model_coverage(first.compiled) == model_coverage(again.compiled)
    assert counts(first) == counts(again)
    assert counts(other) != counts(first)
    assert again.report.telemetry_digest == first.report.telemetry_digest


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched execute_plan reaches the worker only by fork",
)
def test_process_worker_freezes_its_inherited_heap(monkeypatch):
    original = backends.execute_plan

    def reporting(plan, *args, **kwargs):
        payload = original(plan, *args, **kwargs)
        payload["gc_freeze_count"] = gc.get_freeze_count()
        return payload

    monkeypatch.setattr(backends, "execute_plan", reporting)
    plan = build_plan(fleet_spec(tvs=4, duration=2.0), 1)
    result = ProcessWorkerExecutor().run_attempt(plan, 0)
    assert result.payload["gc_freeze_count"] > 0
    assert gc.get_freeze_count() == 0
    # In-process execution never freezes the (shared) interpreter heap.
    inline = backends.InlineExecutor().run_attempt(plan, 0)
    assert inline.payload["gc_freeze_count"] == 0
    assert inline.payload["trace_digest"] == result.payload["trace_digest"]
