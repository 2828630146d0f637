"""Fluent construction of state machines.

The paper's observation (Sect. 4.2) is that industrial spec models are
hard to obtain and easy to get wrong; a compact, declarative construction
API lowers both costs.  :class:`MachineBuilder` builds the state tree and
transitions in one readable block::

    b = MachineBuilder("tv")
    b.state("off")
    on = b.state("on", initial="viewing")
    b.state("viewing", parent=on)
    b.state("menu", parent=on)
    b.initial("off")
    b.transition("off", "on", event="key_power")
    b.transition("on", "off", event="key_power")
    b.transition("viewing", "menu", event="key_menu")
    machine = b.build()

``build()`` freezes the builder's :class:`~repro.statemachine.chart.
Statechart` and returns a machine over it; ``build_chart()`` returns
the frozen chart itself, for callers that run many machines over one
structure (see :func:`~repro.statemachine.chart.shared_chart`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .chart import Statechart
from .machine import Machine
from .states import State
from .transitions import GuardFn, Transition, TransitionActionFn


class MachineBuilder:
    """Accumulates states/transitions into a :class:`Statechart`, then
    freezes it and builds a :class:`Machine` over it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.root = State(f"{name}_root")
        self._states: Dict[str, State] = {self.root.name: self.root}
        self._pending_initial: Dict[str, str] = {}
        self.chart = Statechart(name, self.root)

    # ------------------------------------------------------------------
    def state(
        self,
        name: str,
        parent: Optional[str] = None,
        initial: Optional[str] = None,
        on_entry: Optional[Callable[[Machine], None]] = None,
        on_exit: Optional[Callable[[Machine], None]] = None,
    ) -> State:
        """Declare a state (child of ``parent`` or of the root)."""
        self.chart.require_open(f"declare state {name!r}")
        if name in self._states:
            raise ValueError(f"duplicate state name {name!r}")
        parent_state = self.root if parent is None else self._states[name_or_raise(self._states, parent)]
        state = State(name, parent_state, on_entry=on_entry, on_exit=on_exit)
        self._states[name] = state
        if initial is not None:
            self._pending_initial[name] = initial
        return state

    def initial(self, name: str) -> None:
        """Set the machine's top-level initial state."""
        self._pending_initial[self.root.name] = name

    def transition(
        self,
        source: str,
        target: Optional[str],
        event: Optional[str] = None,
        guard: Optional[GuardFn] = None,
        action: Optional[TransitionActionFn] = None,
        after: Optional[float] = None,
        name: str = "",
        internal: bool = False,
    ) -> Transition:
        """Declare a transition between named states."""
        source_state = self._states[name_or_raise(self._states, source)]
        target_state = None
        if target is not None:
            target_state = self._states[name_or_raise(self._states, target)]
        transition = Transition(
            source_state,
            target_state,
            event=event,
            guard=guard,
            action=action,
            after=after,
            name=name,
            internal=internal,
        )
        return self.chart.add_transition(transition)

    def var(self, key: str, value) -> "MachineBuilder":
        """Declare an initial machine variable (an immutable value)."""
        self.chart.declare_var(key, value)
        return self

    # ------------------------------------------------------------------
    def build_chart(self) -> Statechart:
        """Resolve initial-state links and return the frozen chart."""
        if self.chart.frozen:
            raise RuntimeError("build() called twice")
        for parent_name, child_name in self._pending_initial.items():
            parent = self._states[parent_name]
            child = self._states[name_or_raise(self._states, child_name)]
            parent.set_initial(child)
        for state in self._states.values():
            if not state.is_leaf and state.initial is None:
                raise ValueError(
                    f"compound state {state.name!r} has no initial child"
                )
        return self.chart.freeze()

    def build(self, initialize: bool = True, time: float = 0.0) -> Machine:
        """Freeze the chart and return a machine over it."""
        machine = Machine(self.build_chart())
        if initialize:
            machine.initialize(time)
        return machine

    def get_state(self, name: str) -> State:
        return self._states[name]


def name_or_raise(states: Dict[str, State], name: str) -> str:
    if name not in states:
        raise ValueError(f"unknown state {name!r}; declare it with .state() first")
    return name
