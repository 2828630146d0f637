"""Executable timed hierarchical state machines (the Stateflow analogue)."""

from .builder import MachineBuilder
from .chart import Statechart, shared_chart
from .events import Event, EventQueue
from .machine import Machine, MachineError, Output
from .states import State, least_common_ancestor
from .transitions import TIMEOUT_EVENT, Transition

__all__ = [
    "Event",
    "EventQueue",
    "Machine",
    "MachineBuilder",
    "MachineError",
    "Output",
    "State",
    "Statechart",
    "TIMEOUT_EVENT",
    "Transition",
    "least_common_ancestor",
    "shared_chart",
]

from .check import CheckReport, ModelChecker, Violation
from .testgen import CoverageReport, Scenario, TestGenerator

__all__ += [
    "CheckReport",
    "ModelChecker",
    "Scenario",
    "CoverageReport",
    "TestGenerator",
    "Violation",
]
