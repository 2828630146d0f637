"""The executable timed state machine.

:class:`Machine` implements run-to-completion semantics over the state
tree of :mod:`repro.statemachine.states`:

* ``dispatch(event)`` finds the innermost enabled transition along the
  active path, executes exit actions up to the least common ancestor, the
  transition action, then entry actions down to the target leaf;
* completion (eventless) transitions fire until quiescence;
* ``after`` timeouts are armed on state entry and fired by ``advance``;
* ``emit(name, value)`` publishes an *output* — the observable signal the
  awareness Comparator matches against SUO outputs (Fig. 2).

The machine is the reproduction's Stateflow: the paper generates C code
from Stateflow models and runs it in the Model Executor; we execute the
model object directly, which has the same observable behaviour.

Structure and state are split.  A machine runs over a frozen
:class:`~repro.statemachine.chart.Statechart` (states, transitions,
initial variables) that any number of machines share, and keeps only
its own run state: variables, active state, time, timers, event queue,
outputs, nondeterminism log, step count and per-transition
:attr:`Machine.fire_counts`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .chart import MachineError, Statechart
from .events import Event, EventQueue
from .states import State, least_common_ancestor
from .transitions import TIMEOUT_EVENT, Transition


@dataclass(frozen=True, slots=True)
class Output:
    """One emitted observable: at ``time``, ``name`` took ``value``."""

    time: float
    name: str
    value: Any


@dataclass(slots=True)
class _Timer:
    deadline: float
    transition: Transition
    armed_in: State


class Machine:
    """A single-region hierarchical timed state machine."""

    MAX_COMPLETION_CHAIN = 64

    def __init__(self, chart: Statechart) -> None:
        self.chart = chart
        self.name = chart.name
        self.root = chart.root
        self.vars: Dict[str, Any] = dict(chart.initial_vars)
        self.time = 0.0
        self.active: Optional[State] = None
        self.outputs: List[Output] = []
        #: How often each transition fired on this machine (absent: 0).
        self.fire_counts: Dict[Transition, int] = {}
        self._transitions = chart.transitions
        self._timers: List[_Timer] = []
        self._queue = EventQueue()
        self._output_listeners: List[Callable[[Output], None]] = []
        self.step_count = 0
        #: Nondeterministic choices observed (state, event, transitions);
        #: the model checker reads this to flag modeling errors.
        self.nondeterminism_log: List[Tuple[str, str, List[str]]] = []
        #: When True, nondeterminism raises instead of picking first-declared.
        self.strict = False

    # ------------------------------------------------------------------
    # structure (read-only: it belongs to the shared chart)
    # ------------------------------------------------------------------
    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        return self._transitions.get(state, ())

    def all_transitions(self) -> List[Transition]:
        return self.chart.all_transitions()

    def on_output(self, listener: Callable[[Output], None]) -> None:
        self._output_listeners.append(listener)

    # ------------------------------------------------------------------
    # variables and outputs (used from guards/actions)
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self.vars[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        return self.vars.get(key, default)

    def emit(self, name: str, value: Any) -> Output:
        output = Output(self.time, name, value)
        self.outputs.append(output)
        for listener in self._output_listeners:
            listener(output)
        return output

    def raise_event(self, name: str, **params: Any) -> None:
        """Queue an internal event processed after the current step."""
        self._queue.push(Event(name, params, self.time))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self, time: float = 0.0) -> None:
        """Enter the initial configuration."""
        self.time = time
        self._timers.clear()
        self._queue.clear()
        target = self.root.descend_to_leaf()
        self._enter_path(target.path(), None)
        self.active = target
        self._run_completions()
        self._drain_queue()

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def dispatch(self, event: Event) -> bool:
        """Deliver one event; returns True if any transition fired."""
        if self.active is None:
            raise MachineError(f"machine {self.name} not initialized")
        if event.time < self.time:
            raise MachineError(
                f"event {event.name} at {event.time} is in the past (now {self.time})"
            )
        self.advance(event.time)
        fired = self._dispatch_now(event)
        self._run_completions()
        self._drain_queue()
        self.step_count += 1
        return fired

    def inject(self, name: str, time: Optional[float] = None, **params: Any) -> bool:
        """Convenience: dispatch a fresh event at ``time`` (default: now)."""
        event_time = self.time if time is None else time
        return self.dispatch(Event(name, params, event_time))

    def _dispatch_now(self, event: Event) -> bool:
        candidates = self._enabled_transitions(event)
        if not candidates:
            return False
        state, enabled = candidates
        if len(enabled) > 1:
            names = [t.name for t in enabled]
            self.nondeterminism_log.append((state.full_name(), event.name, names))
            if self.strict:
                raise MachineError(
                    f"nondeterministic choice in {state.full_name()} on "
                    f"{event.name}: {names}"
                )
        self._fire(enabled[0], event)
        return True

    def _enabled_transitions(
        self, event: Event
    ) -> Optional[Tuple[State, List[Transition]]]:
        """Innermost active state with at least one enabled transition."""
        node: Optional[State] = self.active
        while node is not None:
            enabled = []
            for transition in self.transitions_from(node):
                if not transition.triggered_by(event):
                    continue
                if transition.event is None and transition.after is None:
                    # completion transitions are handled in _run_completions
                    continue
                if transition.guard_passes(self, event):
                    enabled.append(transition)
            if enabled:
                return node, enabled
            node = node.parent
        return None

    def _fire(self, transition: Transition, event: Event) -> None:
        counts = self.fire_counts
        counts[transition] = counts.get(transition, 0) + 1
        if transition.internal or transition.target is None:
            if transition.action is not None:
                transition.action(self, event)
            return
        source_state = transition.source
        target_leaf = transition.target.descend_to_leaf()
        lca = least_common_ancestor(source_state, transition.target)
        if lca is None:
            raise MachineError(
                f"transition {transition.name} crosses disjoint state trees"
            )
        # Self-transitions and transitions to an ancestor exit/re-enter.
        if lca is transition.target or lca is source_state:
            lca = lca.parent if lca.parent is not None else lca
        self._exit_to(lca)
        if transition.action is not None:
            transition.action(self, event)
        self._enter_from(lca, target_leaf, event)
        self.active = target_leaf

    def _exit_to(self, ancestor: State) -> None:
        """Run exit actions from the active leaf up to (excluding) ancestor."""
        node: Optional[State] = self.active
        while node is not None and node is not ancestor:
            self._disarm_timers(node)
            if node.on_exit is not None:
                node.on_exit(self)
            node = node.parent

    def _enter_from(self, ancestor: State, leaf: State, event: Optional[Event]) -> None:
        """Run entry actions from below ancestor down to leaf."""
        path: List[State] = []
        for state in leaf.path():
            if state is ancestor:
                path = []
                continue
            path.append(state)
        self._enter_path(path, event)

    def _enter_path(self, path: List[State], event: Optional[Event]) -> None:
        for state in path:
            if state.on_entry is not None:
                state.on_entry(self)
            self._arm_timers(state)

    # ------------------------------------------------------------------
    # completion transitions and internal events
    # ------------------------------------------------------------------
    def _run_completions(self) -> None:
        for _ in range(self.MAX_COMPLETION_CHAIN):
            fired = self._fire_one_completion()
            if not fired:
                return
        raise MachineError(
            f"machine {self.name}: completion transitions did not quiesce "
            f"within {self.MAX_COMPLETION_CHAIN} steps (livelock in model)"
        )

    def _fire_one_completion(self) -> bool:
        probe = Event("__completion__", {}, self.time)
        node: Optional[State] = self.active
        while node is not None:
            enabled = []
            for transition in self.transitions_from(node):
                if transition.event is not None or transition.after is not None:
                    continue
                if transition.guard_passes(self, probe):
                    enabled.append(transition)
            if enabled:
                if len(enabled) > 1:
                    self.nondeterminism_log.append(
                        (node.full_name(), "(completion)", [t.name for t in enabled])
                    )
                    if self.strict:
                        raise MachineError(
                            f"nondeterministic completion in {node.full_name()}"
                        )
                self._fire(enabled[0], probe)
                return True
            node = node.parent
        return False

    def _drain_queue(self) -> None:
        for _ in range(self.MAX_COMPLETION_CHAIN):
            event = self._queue.pop()
            if event is None:
                return
            self._dispatch_now(event)
            self._run_completions()
        raise MachineError(f"machine {self.name}: internal event storm")

    # ------------------------------------------------------------------
    # time and timers
    # ------------------------------------------------------------------
    def advance(self, to_time: float) -> int:
        """Advance model time, firing due timeouts in deadline order."""
        if to_time < self.time:
            raise MachineError("cannot advance backwards")
        fired = 0
        # Fast path: timed comparator sampling calls this every tick and
        # almost never finds a due timer — don't build a list to learn that.
        while True:
            timer = None
            for candidate in self._timers:  # re-read: _fire may disarm/re-arm
                if candidate.deadline <= to_time and (
                    timer is None or candidate.deadline < timer.deadline
                ):
                    timer = candidate
            if timer is None:
                break
            self.time = timer.deadline
            self._timers.remove(timer)
            event = Event(
                TIMEOUT_EVENT, {"transition": timer.transition}, self.time
            )
            if timer.transition.guard_passes(self, event):
                self._fire(timer.transition, event)
                self._run_completions()
                self._drain_queue()
                fired += 1
        self.time = to_time
        return fired

    def _arm_timers(self, state: State) -> None:
        for transition in self.transitions_from(state):
            if transition.after is not None:
                self._timers.append(
                    _Timer(self.time + transition.after, transition, state)
                )

    def _disarm_timers(self, state: State) -> None:
        self._timers = [t for t in self._timers if t.armed_in is not state]

    def next_timeout(self) -> Optional[float]:
        if not self._timers:
            return None
        return min(t.deadline for t in self._timers)

    # ------------------------------------------------------------------
    # snapshots (model checking, checkpointing)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serializable machine state (for exploration and checkpoints)."""
        return {
            "active": self.active.full_name() if self.active else None,
            "vars": copy.deepcopy(self.vars),
            "time": self.time,
            "timers": [
                (t.deadline, t.transition.name, t.armed_in.full_name())
                for t in self._timers
            ],
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Restore a snapshot taken from this same machine structure."""
        self.vars = copy.deepcopy(snapshot["vars"])
        self.time = snapshot["time"]
        active_name = snapshot["active"]
        self.active = self.chart.find_state(active_name) if active_name else None
        self._timers = []
        by_name = {t.name: t for t in self.all_transitions()}
        for deadline, tname, sname in snapshot["timers"]:
            transition = by_name[tname]
            self._timers.append(
                _Timer(deadline, transition, self.chart.find_state(sname))
            )

    def reseed(
        self,
        leaf: str,
        time: float,
        vars: Optional[Dict[str, Any]] = None,
        timer_deadlines: Optional[Dict[str, float]] = None,
    ) -> None:
        """Force the configuration to ``leaf`` at ``time`` without running
        entry/exit actions — the monitor re-sync handshake.

        A restarted awareness monitor has missed inputs, so its model is
        stale; re-seeding adopts the SUO's *observed* state instead of
        replaying the missed history.  ``leaf`` is a bare state name (or a
        dotted full name); ``vars`` updates model variables in place; and
        every ``after`` transition armed in the adopted configuration is
        (re)armed at ``time + after`` unless ``timer_deadlines`` pins the
        deadline for that state by name (used when the SUO exposes the
        true expiry of a transient, e.g. an on-screen volume bar).
        """
        chart = self.chart
        state = chart.find_state(leaf) if "." in leaf else chart.find_leaf(leaf)
        if time < self.time:
            raise MachineError("cannot reseed backwards in time")
        if vars:
            self.vars.update(vars)
        self.time = time
        self._queue.clear()
        self._timers = []
        self.active = state.descend_to_leaf()
        deadlines = timer_deadlines or {}
        for node in self.active.path():
            for transition in self.transitions_from(node):
                if transition.after is None:
                    continue
                deadline = deadlines.get(node.name, self.time + transition.after)
                self._timers.append(_Timer(deadline, transition, node))

    def configuration(self) -> str:
        """Readable active-state path (observable internal state)."""
        if self.active is None:
            return "(uninitialized)"
        return self.active.full_name()
