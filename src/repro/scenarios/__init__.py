"""Scenario engine: declarative, reproducible fleet workloads.

The subsystem every workload PR plugs into:

* :mod:`repro.scenarios.spec`    — :class:`ScenarioSpec` /
  :class:`UserProfile` / :class:`FaultPhase`, the declarative layer;
* :mod:`repro.scenarios.compile` — :class:`CompiledScenario`, lowering a
  spec onto a :class:`~repro.runtime.fleet.MonitorFleet`;
* :mod:`repro.scenarios.library` — ≥10 named scenarios
  (``zapping-storm`` … ``recovery-ladder-drill``) in a registry.

Scenario × seed grids run through :mod:`repro.campaign`::

    from repro.campaign import Campaign, run_cell

    report = run_cell("zapping-storm", seed=7)
    print(report.telemetry_summary["events_total"], report.telemetry_digest)
    reports = Campaign(["zapping-storm", "alert-flood"], seeds=[1, 2]).run()
"""

from .compile import CompiledScenario, FAULT_ACTIONS
from .exercise import (
    EXERCISE_GAP,
    EXERCISE_KEYS,
    exercise_profile,
    tv_exercise_script,
    uncovered_by_exercise,
)
from .recovery import MemberRecovery
from .plan import (
    PlannedMember,
    ScenarioPlan,
    build_plan,
    derive_shard_seed,
    partition_plan,
)
from .library import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .spec import (
    KNOWN_FAULTS,
    LOAD_FAULTS,
    FaultPhase,
    ScenarioSpec,
    UserProfile,
    spec_hash,
)

__all__ = [
    "CompiledScenario",
    "EXERCISE_GAP",
    "EXERCISE_KEYS",
    "FAULT_ACTIONS",
    "FaultPhase",
    "KNOWN_FAULTS",
    "LOAD_FAULTS",
    "MemberRecovery",
    "PlannedMember",
    "SCENARIOS",
    "ScenarioPlan",
    "ScenarioSpec",
    "UserProfile",
    "build_plan",
    "derive_shard_seed",
    "exercise_profile",
    "get_scenario",
    "partition_plan",
    "register_scenario",
    "scenario_names",
    "spec_hash",
    "tv_exercise_script",
    "uncovered_by_exercise",
]
