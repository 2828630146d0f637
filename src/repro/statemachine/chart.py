"""The immutable structure of a state machine, shared by its machines.

A :class:`Statechart` holds what every copy of one spec model has in
common: the state tree, the transition table and the initial variables.
A :class:`~repro.statemachine.machine.Machine` runs over a chart and
keeps only its own state (variables, active state, time, timers, event
queue, outputs, fire counts).  The paper's Model Executor runs one copy
of the user-view spec model next to every TV (Sect. 4.2); building the
chart once per device kind makes each further copy cost a handful of
objects instead of a hundred transitions.

A chart is filled by :class:`~repro.statemachine.builder.MachineBuilder`
and frozen by its ``build``: after that, declaring a state, a
transition or a variable raises :class:`MachineError`, and assigning
to a transition raises ``AttributeError``.
Every bucket of the transition table keeps its declaration order, which
is the order a machine tries transitions in, so every machine over a
chart fires exactly what a privately built one would.

:func:`shared_chart` caches one frozen chart per argument tuple of a
chart-building function; the spec-model builders (TV, media player,
printer) go through it.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Mapping, Tuple, TypeVar

from .states import State
from .transitions import Transition


class MachineError(Exception):
    """Raised on malformed machines or semantic violations."""


#: Charts :func:`shared_chart` keeps per building function; argument
#: tuples beyond this many are built per call and not cached, so an
#: unbounded stream of distinct arguments cannot grow the heap.
SHARED_CHART_LIMIT = 64


class Statechart:
    """State tree, transition table and initial variables of one model."""

    def __init__(self, name: str, root: State) -> None:
        self.name = name
        self.root = root
        #: Source state -> its transitions in declaration order.  Keyed
        #: by the State object itself (identity-hashed).
        self.transitions: Dict[State, Tuple[Transition, ...]] = {}
        self._vars: Dict[str, Any] = {}
        self.frozen = False

    # ------------------------------------------------------------------
    # declaration (until frozen)
    # ------------------------------------------------------------------
    def require_open(self, what: str) -> None:
        """Raise unless the chart is still being declared."""
        if self.frozen:
            raise MachineError(
                f"statechart {self.name!r} is built and shared; cannot {what}"
            )

    def add_transition(self, transition: Transition) -> Transition:
        self.require_open(f"add transition {transition.name!r}")
        bucket = self.transitions.get(transition.source, ())
        self.transitions[transition.source] = bucket + (transition,)
        return transition

    def declare_var(self, key: str, value: Any) -> None:
        """Declare an initial variable.  Every machine over the chart
        starts from the same value object, so it must be immutable
        (hashable): a list would be shared by the whole fleet."""
        self.require_open(f"declare var {key!r}")
        try:
            hash(value)
        except TypeError:
            raise MachineError(
                f"initial value of var {key!r} must be immutable (hashable); "
                f"got {type(value).__name__}"
            ) from None
        self._vars[key] = value

    def freeze(self) -> "Statechart":
        self.frozen = True
        for transition in self.all_transitions():
            transition.frozen = True
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def initial_vars(self) -> Mapping[str, Any]:
        return self._vars

    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        return self.transitions.get(state, ())

    def all_transitions(self) -> List[Transition]:
        result: List[Transition] = []
        for bucket in self.transitions.values():
            result.extend(bucket)
        return result

    def find_leaf(self, name: str) -> State:
        """Locate a state by bare name anywhere in the tree."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.name == name:
                return node
            stack.extend(node.children.values())
        raise MachineError(f"unknown state {name!r}")

    def find_state(self, full_name: str) -> State:
        parts = full_name.split(".")
        node = self.root
        if parts[0] != node.name:
            raise MachineError(f"unknown state {full_name}")
        for part in parts[1:]:
            node = node.children[part]
        return node

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Statechart":
        # Shared structure: a deep-copied machine runs over the same chart.
        return self


ChartFn = TypeVar("ChartFn", bound=Callable[..., Statechart])


def shared_chart(build: ChartFn) -> ChartFn:
    """Cache one frozen chart per positional argument tuple of ``build``.

    Safe under concurrent callers without a lock: two threads that miss
    at once both build (equal) charts, ``dict.setdefault`` keeps the
    first stored, and both return that one.
    """
    charts: Dict[Tuple[Any, ...], Statechart] = {}

    @functools.wraps(build)
    def chart(*args: Any) -> Statechart:
        found = charts.get(args)
        if found is None:
            found = build(*args)
            if len(charts) < SHARED_CHART_LIMIT:
                found = charts.setdefault(args, found)
        return found

    chart.charts = charts  # type: ignore[attr-defined]
    return chart  # type: ignore[return-value]
