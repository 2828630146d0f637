"""Model-coverage exercise workloads: scripts that expose latent faults.

The fuzz campaigns (PR 8) surfaced a systematic detection gap: every
``missed_detection`` finding was a *latent* fault — ``volume_overshoot``
on a TV whose profile never touches the volume keys, ``mute_noop`` with
no mute press, a silently jammed feeder in a printer nobody sends jobs
to.  Passive awareness compares observed behaviour against the spec
model, so a fault that only corrupts an interaction path is invisible
until that path runs.  Random :class:`~repro.scenarios.spec.UserProfile`
workloads (Markov walks over a key subset) can starve whole key classes
for an entire scenario horizon.

The fix is the paper's own loop closed the other way: derive the
workload *from the specification model*.  :func:`tv_exercise_script`
searches the TV control model (breadth-first over machine snapshots) for
a shortest deterministic key sequence that fires **every key-triggered
spec transition reachable from the remote alphabet** — the same
transition universe the :class:`~repro.statemachine.testgen.TestGenerator`
exposes through its coverage API.  A profile built from that script
(:func:`exercise_profile`) is guaranteed to exercise volume, mute,
teletext, menu/EPG, and dual-screen paths, so any fault squatting on
them must diverge from the model while the monitor watches.

The library's ``fuzz-*`` repro scenarios pin shrunk fuzzer findings with
this profile: same fault, same horizon, but the workload now reaches the
faulty path and detection succeeds (see ``tests/test_fuzz_repros.py``).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import FrozenSet, Tuple

from ..statemachine.machine import Machine
from ..tv.control_model import build_tv_model
from .spec import UserProfile

#: Remote keys the exercise walk may press.  Mirrors the fuzz grammar's
#: TV vocabulary minus digits (their model event carries a parameter and
#: channel surfing is already covered by ch_up/ch_down) and minus keys
#: the broadcaster owns (``alert_broadcast`` is not a remote key).
EXERCISE_KEYS: Tuple[str, ...] = (
    "power", "ch_up", "ch_down", "vol_up", "vol_down", "mute",
    "ttx", "menu", "back", "dual", "swap", "epg", "ok", "sleep",
)

#: Press cadence the script is synthesized for.  Chosen below the
#: teletext acquire time (1.6) so a press can still land in
#: ``ttx_searching``, and below the overlay timeouts (2.0) so volbar /
#: banner transitions stay reachable from their own states.
EXERCISE_GAP = 1.5

#: Search bounds.  The guard-pruned configuration space of the control
#: model is tiny (leaf state x dual x lock flag), so these are generous.
_MAX_DEPTH = 6
_MAX_NODES = 4000


def _signature(machine: Machine, time: float, gap: float) -> Tuple[str, bool, bool, bool]:
    """Guard-relevant configuration: only ``dual`` and ``lock_enabled``
    feed transition guards, so richer vars (volume, channel, pip) would
    just bloat the visited set without changing what is enabled.  The
    timer flag keeps "wait" moves alive: a no-op press leaves the
    configuration alone but may carry the machine across a timed
    transition (teletext acquire), which changes what the next press can
    fire."""
    timeout = machine.next_timeout()
    return (
        machine.configuration(),
        bool(machine.get("dual")),
        bool(machine.get("lock_enabled")),
        timeout is not None and timeout <= time + gap,
    )


def _unfired_key_transitions(machine: Machine) -> set:
    """Names of key-triggered transitions ``machine`` has not fired."""
    return {
        t.name
        for t in machine.all_transitions()
        if t not in machine.fire_counts and t.event in EXERCISE_KEYS
    }


def _search_step(
    committed: Machine,
    scratch: Machine,
    now: float,
    gap: float,
) -> Tuple[str, ...]:
    """Shortest key sequence (at ``gap`` cadence) firing any transition
    the committed trajectory has not fired yet; empty when none is
    reachable."""
    pending = _unfired_key_transitions(committed)
    if not pending:
        return ()
    scratch.restore(committed.snapshot())
    queue = deque([(scratch.snapshot(), now, ())])
    seen = {_signature(scratch, now, gap)}
    nodes = 0
    while queue and nodes < _MAX_NODES:
        snapshot, time, keys = queue.popleft()
        for key in EXERCISE_KEYS:
            scratch.restore(snapshot)
            before = dict(scratch.fire_counts)
            scratch.advance(time + gap)
            scratch.inject(key)
            nodes += 1
            fired = {
                t.name
                for t, count in scratch.fire_counts.items()
                if count > before.get(t, 0)
            }
            if fired & pending:
                return keys + (key,)
            signature = _signature(scratch, time + gap, gap)
            if signature in seen or len(keys) + 1 >= _MAX_DEPTH:
                continue
            seen.add(signature)
            queue.append((scratch.snapshot(), time + gap, keys + (key,)))
    return ()


@lru_cache(maxsize=8)
def tv_exercise_script(
    channel_count: int = 3, gap: float = EXERCISE_GAP
) -> Tuple[str, ...]:
    """Deterministic remote-key script covering every key-triggered TV
    spec transition reachable from :data:`EXERCISE_KEYS`.

    Pure function of its arguments: the search is breadth-first with a
    fixed key order, so the same script comes back on every call (the
    fuzz determinism gate depends on that).  Build cost is a few tens of
    milliseconds; the result is cached.
    """
    committed = build_tv_model(channel_count=channel_count)
    committed.initialize()
    scratch = build_tv_model(channel_count=channel_count)
    scratch.initialize()
    script: list = []
    now = 0.0
    while True:
        step = _search_step(committed, scratch, now, gap)
        if not step:
            break
        for key in step:
            now += gap
            committed.advance(now)
            committed.inject(key)
            script.append(key)
    return tuple(script)


def uncovered_by_exercise(
    channel_count: int = 3, gap: float = EXERCISE_GAP
) -> FrozenSet[str]:
    """Key-triggered spec transitions the exercise script cannot reach.

    Structurally unreachable classes only: transitions out of ``alert``
    (entering it needs the broadcaster's ``alert_broadcast``, not a
    remote key) and the ``*-locked`` variants (no channels are locked in
    the default model).  Pinned by tests so a model change that silently
    shrinks exercise coverage fails loudly.
    """
    machine = build_tv_model(channel_count=channel_count)
    machine.initialize()
    now = 0.0
    for key in tv_exercise_script(channel_count=channel_count, gap=gap):
        now += gap
        machine.advance(now)
        machine.inject(key)
    return frozenset(_unfired_key_transitions(machine))


def exercise_profile(
    name: str = "exerciser",
    channel_count: int = 3,
    gap: float = EXERCISE_GAP,
    weight: float = 1.0,
) -> UserProfile:
    """A scripted profile that replays the exercise walk at the cadence
    it was synthesized for."""
    return UserProfile(
        name,
        weight=weight,
        mean_gap=gap,
        script=tv_exercise_script(channel_count=channel_count, gap=gap),
    )
