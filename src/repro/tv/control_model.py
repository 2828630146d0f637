"""The TV's *specification model*: desired behaviour from the user's view.

Sect. 4.2: "we have developed a high-level model of a TV from the
viewpoint of the user.  It captures the relation between user input, via
the remote control, and output, via images on the screen and sound."

This module builds that model as an executable timed state machine.  The
awareness framework's Model Executor (Fig. 2) feeds it the observed key
presses; :func:`expected_screen` / :func:`expected_sound` compute the
observables the Comparator matches against the real TV's outputs.

The model is deliberately *partial* (Sect. 3): it covers the control
behaviour — power, channels, volume, overlays, dual screen, child lock —
and abstracts from streaming internals and long-horizon timers (sleep
countdown).  Timing it does model: transient-overlay dismissal and the
teletext searching→shown latency, because both are user-visible within
the comparator's window.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

from ..statemachine.builder import MachineBuilder
from ..statemachine.chart import Statechart, shared_chart
from ..statemachine.machine import Machine

VOLUME_STEP = 5
VOLUME_BAR_TIMEOUT = 2.0
INFO_BANNER_TIMEOUT = 2.0
TTX_ACQUIRE_TIME = 1.6
SLEEP_STEPS = [0, 15, 30, 60, 90, 0]

#: States from which a channel change is accepted (menu blocks, alert keeps
#: its overlay but still changes channel — mirroring the implementation).
_CHANNEL_SOURCES = ("viewing", "volbar", "banner", "epg", "ttx_searching", "ttx_shown")
_VOLUME_BAR_SOURCES = ("viewing", "volbar", "banner")
_TTX_STATES = ("ttx_searching", "ttx_shown")


def _target_channel(machine: Machine, event) -> int:
    """Resolve the channel a key press aims at."""
    count = machine.get("channel_count")
    current = machine.get("channel")
    name = event.name
    if name == "ch_up":
        target = current + 1
        return 1 if target > count else target
    if name == "ch_down":
        target = current - 1
        return count if target < 1 else target
    if name == "digit":
        digit = event.param("n", 0)
        return digit if digit >= 1 else 10
    raise ValueError(f"not a channel event: {name}")


def _is_locked(machine: Machine, event) -> bool:
    target = _target_channel(machine, event)
    return machine.get("lock_enabled") and target in machine.get("locked")


def _set_channel(machine: Machine, event) -> None:
    machine.set("channel", _target_channel(machine, event))


def _adjust_volume(machine: Machine, event) -> None:
    delta = VOLUME_STEP if event.name == "vol_up" else -VOLUME_STEP
    machine.set("volume", max(0, min(100, machine.get("volume") + delta)))


def _toggle_mute(machine: Machine, event) -> None:
    machine.set("mute", not machine.get("mute"))


def _toggle_dual(machine: Machine, event) -> None:
    if machine.get("dual"):
        machine.set("dual", False)
        machine.set("pip", 0)
    else:
        count = machine.get("channel_count")
        pip = machine.get("channel") + 1
        if pip > count:
            pip = 1
        machine.set("dual", True)
        machine.set("pip", pip)


def _swap(machine: Machine, event) -> None:
    main = machine.get("channel")
    machine.set("channel", machine.get("pip"))
    machine.set("pip", main)


def _exit_dual(machine: Machine, event) -> None:
    machine.set("dual", False)
    machine.set("pip", 0)


def _cycle_sleep(machine: Machine, event) -> None:
    current = machine.get("sleep")
    try:
        index = SLEEP_STEPS.index(current)
    except ValueError:
        index = 0
    machine.set("sleep", SLEEP_STEPS[(index + 1) % len(SLEEP_STEPS)])


def _toggle_lock(machine: Machine, event) -> None:
    machine.set("lock_enabled", not machine.get("lock_enabled"))


def build_tv_model(
    channel_count: int = 99,
    locked_channels: Optional[FrozenSet[int]] = None,
    initial_channel: int = 1,
    initial_volume: int = 30,
) -> Machine:
    """Construct and initialize the TV specification model: a fresh
    machine over the one shared chart for these arguments."""
    machine = Machine(
        tv_model_chart(
            channel_count,
            frozenset(locked_channels or frozenset()),
            initial_channel,
            initial_volume,
        )
    )
    machine.initialize()
    return machine


@shared_chart
def tv_model_chart(
    channel_count: int,
    locked_channels: FrozenSet[int],
    initial_channel: int,
    initial_volume: int,
) -> Statechart:
    """The TV specification model's statechart (built once per
    argument tuple, shared by every TV monitor)."""
    return tv_model_builder(
        channel_count, locked_channels, initial_channel, initial_volume
    ).build_chart()


def tv_model_builder(
    channel_count: int = 99,
    locked_channels: FrozenSet[int] = frozenset(),
    initial_channel: int = 1,
    initial_volume: int = 30,
) -> MachineBuilder:
    """The TV specification model declared but not yet built — a
    private chart a caller may still edit (the model-quality bench
    seeds historical modelling mistakes into it)."""
    b = MachineBuilder("tv_spec")
    b.var("channel", initial_channel)
    b.var("channel_count", channel_count)
    b.var("volume", initial_volume)
    b.var("mute", False)
    b.var("dual", False)
    b.var("pip", 0)
    b.var("lock_enabled", False)
    b.var("locked", locked_channels)
    b.var("sleep", 0)

    b.state("standby")
    b.state("on", initial="viewing")
    for name in (
        "viewing",
        "volbar",
        "banner",
        "menu",
        "epg",
        "alert",
    ):
        b.state(name, parent="on")
    b.state("ttx", parent="on", initial="ttx_searching")
    b.state("ttx_searching", parent="ttx")
    b.state("ttx_shown", parent="ttx")
    b.initial("standby")

    # power ------------------------------------------------------------
    b.transition("standby", "on", event="power")
    b.transition("on", "standby", event="power", action=_exit_dual)

    # global (anywhere on): mute, alert broadcast ----------------------
    b.transition("on", None, event="mute", action=_toggle_mute, internal=True)
    b.transition("on", "alert", event="alert_broadcast")

    # channel changes ----------------------------------------------------
    for src in _CHANNEL_SOURCES:
        for ev in ("ch_up", "ch_down", "digit"):
            b.transition(
                src,
                "viewing",
                event=ev,
                guard=lambda m, e: not _is_locked(m, e),
                action=_set_channel,
                name=f"{src}-{ev}-ok",
            )
            b.transition(
                src,
                "banner",
                event=ev,
                guard=_is_locked,
                name=f"{src}-{ev}-locked",
            )
    # channel change while alert showing: channel changes, alert stays.
    for ev in ("ch_up", "ch_down", "digit"):
        b.transition(
            "alert",
            None,
            event=ev,
            guard=lambda m, e: not _is_locked(m, e),
            action=_set_channel,
            internal=True,
            name=f"alert-{ev}",
        )

    # volume -------------------------------------------------------------
    for src in _VOLUME_BAR_SOURCES:
        for ev in ("vol_up", "vol_down"):
            b.transition(src, "volbar", event=ev, action=_adjust_volume)
    # Volume also works under overlays that outrank the volume bar: the
    # implementation blocks volume only in the menu, so teletext, the
    # programme guide, *and an active alert* adjust it without showing
    # the bar (alert was a model omission — found by the alert-flood
    # scenario: expected sound stayed put while the set got louder).
    for src in _TTX_STATES + ("epg", "alert"):
        for ev in ("vol_up", "vol_down"):
            b.transition(src, None, event=ev, action=_adjust_volume, internal=True)
    b.transition("volbar", "viewing", after=VOLUME_BAR_TIMEOUT)
    b.transition("banner", "viewing", after=INFO_BANNER_TIMEOUT)

    # teletext -----------------------------------------------------------
    # epg is a ttx source too: the TV opens teletext over the programme
    # guide, mirroring menu→ttx and the reverse ttx→epg transition (the
    # seed model omitted it — found by the lockstep fuzz property with
    # the key sequence power, epg, ttx).
    for src in _VOLUME_BAR_SOURCES + ("menu", "epg"):
        b.transition(src, "ttx", event="ttx", action=_exit_dual)
    for src in _TTX_STATES:
        b.transition(src, "viewing", event="ttx")
        b.transition(src, "menu", event="menu")
        b.transition(src, "epg", event="epg")
        b.transition(src, "viewing", event="back")
    b.transition("ttx_searching", "ttx_shown", after=TTX_ACQUIRE_TIME)

    # menu / epg ----------------------------------------------------------
    for src in _VOLUME_BAR_SOURCES:
        b.transition(src, "menu", event="menu")
        b.transition(src, "epg", event="epg")
    b.transition("menu", "viewing", event="menu")
    b.transition("menu", "viewing", event="back")
    b.transition("epg", "viewing", event="epg")
    b.transition("epg", "viewing", event="back")
    # menu opens over the programme guide (the reverse is blocked: the
    # menu suppresses epg) — seed model omission found by the lockstep
    # fuzz property (power, epg, menu).
    b.transition("epg", "menu", event="menu")
    b.transition("volbar", "viewing", event="back")
    b.transition("banner", "viewing", event="back")

    # dual screen ----------------------------------------------------------
    for src in _VOLUME_BAR_SOURCES:
        b.transition(src, None, event="dual", action=_toggle_dual, internal=True)
        b.transition(
            src,
            None,
            event="swap",
            guard=lambda m, e: m.get("dual"),
            action=_swap,
            internal=True,
        )

    # swap has no overlay precondition in the implementation: as long as
    # dual screen is active it exchanges main and PiP, even under the
    # menu/epg/alert overlays (seed model omission; lockstep fuzz found
    # power, dual, menu, swap).
    for src in ("menu", "epg", "alert"):
        b.transition(
            src,
            None,
            event="swap",
            guard=lambda m, e: m.get("dual"),
            action=_swap,
            internal=True,
        )

    # sleep / lock ----------------------------------------------------------
    for src in _VOLUME_BAR_SOURCES:
        b.transition(src, "banner", event="sleep", action=_cycle_sleep)
        b.transition(src, "banner", event="lock", action=_toggle_lock)
    for src in _TTX_STATES + ("menu", "epg", "alert"):
        b.transition(src, None, event="sleep", action=_cycle_sleep, internal=True)
        b.transition(src, None, event="lock", action=_toggle_lock, internal=True)

    # alert dismissal -------------------------------------------------------
    b.transition("alert", "viewing", event="ok")

    return b


# ----------------------------------------------------------------------
# expected observables
# ----------------------------------------------------------------------
_OVERLAY_BY_STATE = {
    "viewing": "none",
    "volbar": "volume_bar",
    "banner": "info_banner",
    "menu": "menu",
    "epg": "epg",
    "alert": "alert",
    "ttx_searching": "ttx",
    "ttx_shown": "ttx",
}


def expected_screen(machine: Machine) -> Dict[str, Any]:
    """The screen descriptor the model predicts right now."""
    active = machine.active
    leaf = active.name if active is not None else "(uninitialized)"
    if leaf == "standby":
        return {"power": False, "content": "dark", "overlay": "none"}
    overlay = _OVERLAY_BY_STATE.get(leaf, "none")
    descriptor: Dict[str, Any] = {
        "power": True,
        "content": "dual" if machine.get("dual") else "video",
        "overlay": overlay,
        "channel": machine.get("channel"),
    }
    if machine.get("dual"):
        descriptor["pip_channel"] = machine.get("pip")
    if overlay == "ttx":
        descriptor["ttx_status"] = (
            "shown" if leaf == "ttx_shown" else "searching"
        )
        descriptor["ttx_page"] = 100
    return descriptor


def expected_sound(machine: Machine) -> int:
    """The sound level the model predicts right now."""
    active = machine.active
    leaf = active.name if active is not None else "(uninitialized)"
    if leaf == "standby" or machine.get("mute"):
        return 0
    return machine.get("volume")


#: Events the model understands; used by checker/testgen alphabets.
MODEL_EVENTS = (
    "power",
    "ch_up",
    "ch_down",
    "digit",
    "vol_up",
    "vol_down",
    "mute",
    "ttx",
    "menu",
    "back",
    "dual",
    "swap",
    "sleep",
    "epg",
    "ok",
    "lock",
    "alert_broadcast",
)


def key_to_event_name(key: str) -> tuple:
    """Map a remote key name to (model event name, params)."""
    if key.startswith("digit"):
        return "digit", {"n": int(key[5:])}
    return key, {}
