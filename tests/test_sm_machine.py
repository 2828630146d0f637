"""Tests for state machine semantics: hierarchy, RTC, timers, snapshots."""

import pytest

from repro.statemachine import MachineBuilder, MachineError


def simple_tv():
    b = MachineBuilder("tv")
    b.state("off", on_entry=lambda m: m.emit("screen", "dark"))
    b.state("on", initial="viewing", on_entry=lambda m: m.emit("screen", "video"))
    b.state("viewing", parent="on")
    b.state("menu", parent="on", on_entry=lambda m: m.emit("screen", "menu"))
    b.initial("off")
    b.transition("off", "on", event="power")
    b.transition("on", "off", event="power")
    b.transition("viewing", "menu", event="menu")
    b.transition("menu", "viewing", event="back")
    b.transition("menu", "viewing", after=5.0)
    return b.build()


class TestBasicDispatch:
    def test_initial_configuration(self):
        machine = simple_tv()
        assert machine.configuration().endswith("off")

    def test_initial_entry_actions_fire(self):
        machine = simple_tv()
        assert machine.outputs[0].value == "dark"

    def test_event_moves_to_target(self):
        machine = simple_tv()
        assert machine.inject("power") is True
        assert machine.configuration() == "tv_root.on.viewing"

    def test_unknown_event_ignored(self):
        machine = simple_tv()
        assert machine.inject("nonsense") is False
        assert machine.configuration().endswith("off")

    def test_compound_state_descends_to_initial(self):
        machine = simple_tv()
        machine.inject("power")
        assert machine.configuration().endswith("viewing")

    def test_transition_on_ancestor_fires_from_nested_leaf(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        # "power" is declared on the compound "on"; active leaf is menu.
        machine.inject("power")
        assert machine.configuration().endswith("off")

    def test_events_in_past_rejected(self):
        machine = simple_tv()
        machine.advance(10.0)
        with pytest.raises(MachineError):
            machine.inject("power", time=5.0)


class TestTimers:
    def test_timeout_fires_after_delay(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.advance(machine.time + 4.9)
        assert machine.configuration().endswith("menu")
        machine.advance(machine.time + 0.2)
        assert machine.configuration().endswith("viewing")

    def test_timer_disarmed_on_exit(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.inject("back")  # leave menu before timeout
        fired = machine.advance(machine.time + 10.0)
        assert fired == 0

    def test_timer_rearmed_on_reentry(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.advance(machine.time + 3.0)
        machine.inject("back")
        machine.inject("menu")  # re-enter: timer restarts from now
        machine.advance(machine.time + 3.0)
        assert machine.configuration().endswith("menu")
        machine.advance(machine.time + 2.5)
        assert machine.configuration().endswith("viewing")

    def test_next_timeout_reported(self):
        machine = simple_tv()
        machine.inject("power")
        assert machine.next_timeout() is None
        machine.inject("menu")
        assert machine.next_timeout() == pytest.approx(machine.time + 5.0)

    def test_advance_backwards_rejected(self):
        machine = simple_tv()
        machine.advance(5.0)
        with pytest.raises(MachineError):
            machine.advance(1.0)


class TestGuardsAndActions:
    def test_guard_blocks_transition(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", event="go", guard=lambda m, e: m.get("armed"))
        machine = b.var("armed", False).build()
        machine.inject("go")
        assert machine.configuration().endswith("a")
        machine.set("armed", True)
        machine.inject("go")
        assert machine.configuration().endswith("b")

    def test_action_receives_event_params(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        b.transition(
            "a",
            None,
            event="set",
            action=lambda m, e: m.set("value", e.param("value")),
            internal=True,
        )
        machine = b.build()
        machine.inject("set", value=7)
        assert machine.get("value") == 7

    def test_internal_transition_keeps_state_and_timers(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", after=10.0)
        b.transition("a", None, event="poke", action=lambda m, e: None, internal=True)
        machine = b.build()
        machine.advance(6.0)
        machine.inject("poke")  # must NOT re-arm the 10s timer
        machine.advance(10.5)
        assert machine.configuration().endswith("b")

    def test_completion_transition_chains(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go")
        b.transition("b", "c", guard=lambda m, e: True)  # completion
        machine = b.build()
        machine.inject("go")
        assert machine.configuration().endswith("c")

    def test_completion_livelock_detected(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", guard=lambda m, e: True)
        b.transition("b", "a", guard=lambda m, e: True)
        with pytest.raises(MachineError):
            b.build()  # initialize() runs completions

    def test_raise_event_processed_after_step(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go", action=lambda m, e: m.raise_event("chain"))
        b.transition("b", "c", event="chain")
        machine = b.build()
        machine.inject("go")
        assert machine.configuration().endswith("c")


class TestNondeterminism:
    def build_ambiguous(self, strict=False):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go")
        b.transition("a", "c", event="go")
        machine = b.build()
        machine.strict = strict
        return machine

    def test_nondeterminism_logged(self):
        machine = self.build_ambiguous()
        machine.inject("go")
        assert len(machine.nondeterminism_log) == 1
        state, event, names = machine.nondeterminism_log[0]
        assert event == "go"
        assert len(names) == 2

    def test_first_declared_wins_by_default(self):
        machine = self.build_ambiguous()
        machine.inject("go")
        assert machine.configuration().endswith("b")

    def test_strict_mode_raises(self):
        machine = self.build_ambiguous(strict=True)
        with pytest.raises(MachineError):
            machine.inject("go")


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        snapshot = machine.snapshot()
        machine.inject("back")
        machine.restore(snapshot)
        assert machine.configuration().endswith("menu")

    def test_restored_timers_still_fire(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        snapshot = machine.snapshot()
        machine.inject("back")
        machine.restore(snapshot)
        machine.advance(machine.time + 5.5)
        assert machine.configuration().endswith("viewing")

    def test_vars_deep_copied(self):
        machine = simple_tv()
        machine.set("nested", {"a": 1})
        snapshot = machine.snapshot()
        machine.get("nested")["a"] = 2
        machine.restore(snapshot)
        assert machine.get("nested") == {"a": 1}


class TestOutputs:
    def test_emit_notifies_listeners(self):
        machine = simple_tv()
        seen = []
        machine.on_output(seen.append)
        machine.inject("power")
        assert [o.value for o in seen] == ["video"]

    def test_outputs_carry_time(self):
        machine = simple_tv()
        machine.advance(3.0)
        machine.inject("power")
        assert machine.outputs[-1].time == 3.0


class TestDeepcopy:
    def test_deepcopied_tv_spec_model_behaves_like_the_original(self):
        """``copy.deepcopy`` remaps the transition table along with the
        states, so the copy keeps every enabled transition and answers
        the same key presses with the same observable trajectory."""
        import copy

        from repro.tv.control_model import build_tv_model

        original = build_tv_model()
        clone = copy.deepcopy(original)
        assert clone.transitions_from(clone.active)
        assert [t.name for t in clone.all_transitions()] == [
            t.name for t in original.all_transitions()
        ]
        keys = ["power", "vol_up", "vol_up", "menu", "back", "ch_up",
                "ttx", "ttx", "mute", "epg", "epg", "power"]
        trajectories = {id(original): [], id(clone): []}
        for step, key in enumerate(keys):
            for machine in (original, clone):
                machine.advance(float(step))
                fired = machine.inject(key)
                trajectories[id(machine)].append(
                    (fired, machine.configuration(), dict(machine.vars))
                )
        assert trajectories[id(clone)] == trajectories[id(original)]
        assert clone.outputs == original.outputs
        assert all(fired for fired, _config, _vars in trajectories[id(clone)][:3])


class TestSharedChart:
    """Spec models share one frozen chart; each machine keeps its own
    run state (vars, configuration, fire counts)."""

    def test_tv_models_share_one_chart_with_independent_state(self):
        from repro.tv.control_model import build_tv_model

        first = build_tv_model(channel_count=7)
        second = build_tv_model(channel_count=7)
        assert first.chart is second.chart
        assert build_tv_model(channel_count=8).chart is not first.chart
        for key in ("power", "vol_up", "vol_up", "mute"):
            first.inject(key)
        second.inject("power")
        assert first.get("volume") == 40 and first.get("mute") is True
        assert second.get("volume") == 30 and second.get("mute") is False
        fired = {t.name: n for t, n in first.fire_counts.items()}
        assert sum(fired.values()) == 4
        assert sum(second.fire_counts.values()) == 1
        assert set(second.fire_counts) < set(first.fire_counts)

    def test_declaring_after_build_raises(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        b.transition("a", "a", event="loop")
        machine = b.build()
        with pytest.raises(MachineError, match="built"):
            b.transition("a", "a", event="again")
        with pytest.raises(MachineError, match="built"):
            b.var("x", 1)
        with pytest.raises(MachineError, match="built"):
            b.state("b")
        loop = machine.all_transitions()[0]
        with pytest.raises(MachineError, match="built"):
            machine.chart.add_transition(loop)
        with pytest.raises(AttributeError, match="built statechart"):
            loop.action = None
        assert len(machine.all_transitions()) == 1

    def test_shared_chart_rejects_edits(self):
        from repro.printer import build_printer_model

        machine = build_printer_model()
        with pytest.raises(MachineError):
            machine.chart.declare_var("jobs", 99)
        assert build_printer_model().get("jobs") == 0

    def test_mutable_initial_var_rejected(self):
        b = MachineBuilder("m")
        with pytest.raises(MachineError, match="immutable"):
            b.var("queue", [])

    def test_deepcopy_shares_the_chart_and_copies_the_run_state(self):
        import copy

        from repro.tv.control_model import build_tv_model

        original = build_tv_model()
        original.inject("power")
        clone = copy.deepcopy(original)
        assert clone.chart is original.chart
        assert clone.fire_counts == original.fire_counts
        assert clone.fire_counts is not original.fire_counts
        assert clone.inject("vol_up")
        assert clone.get("volume") == 35 and original.get("volume") == 30
        assert sum(clone.fire_counts.values()) == 2
        assert sum(original.fire_counts.values()) == 1

    def test_concurrent_first_builds_share_the_winning_chart(self):
        import sys
        import threading

        from repro.tv.control_model import build_tv_model, tv_model_chart

        key = (13, frozenset({2}), 1, 30)
        tv_model_chart.charts.pop(key, None)
        barrier = threading.Barrier(8)
        machines = []

        def build():
            barrier.wait(timeout=10)
            machines.append(build_tv_model(13, frozenset({2})))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(machines) == 8
        assert len({id(m.chart) for m in machines}) == 1
        assert machines[0].chart is tv_model_chart.charts[key]
