"""A media player SUO: the reproduction's MPlayer analogue.

Sect. 5: "the framework is used for awareness experiments with the open
source media player MPlayer, investigating both correctness and
performance issues."  This module provides an equivalent second System
Under Observation: a demux → decode → render pipeline driven by player
commands, with injectable correctness faults (a stall after a corrupt
packet) and performance faults (decoder slowdown), plus a small
specification model of the player's control behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from ..sim.kernel import Kernel
from ..sim.process import Delay, Interrupted, Process
from ..sim.resources import Store
from ..statemachine.builder import MachineBuilder
from ..statemachine.chart import Statechart, shared_chart
from ..statemachine.machine import Machine


@dataclass(frozen=True)
class Packet:
    """One demuxed media packet."""

    index: int
    pts: float
    corrupt: bool = False


class MediaSource:
    """A synthetic media file: packets at a fixed rate, some corrupt."""

    def __init__(
        self,
        packet_count: int = 500,
        packet_interval: float = 0.4,
        corrupt_indices: Optional[List[int]] = None,
    ) -> None:
        self.packet_count = packet_count
        self.packet_interval = packet_interval
        self.corrupt_indices = set(corrupt_indices or [])

    def packet(self, index: int) -> Packet:
        return Packet(
            index=index,
            pts=index * self.packet_interval,
            corrupt=index in self.corrupt_indices,
        )


class MediaPlayer:
    """The player: command API, pipeline processes, observables.

    Observables published on ``suo.<suo_id>.output`` (PR 4 deepened the
    set — state alone was too coarse for the awareness monitor to see a
    wedged pipeline):

    * ``state``    — control state after every command;
    * ``position`` — presented position: every rendered frame, plus
      seek/stop jumps (so the observable never goes stale while the
      renderer is legitimately quiet);
    * ``frame``    — rendered frames only (progress evidence — a seek
      echo moves ``position`` but is not proof the pipeline works);
    * ``buffer``   — demuxed-packet buffer fill level on every change.
    """

    DECODE_TIME = 0.25
    RENDER_TIME = 0.05
    BUFFER_CAPACITY = 8

    def __init__(
        self, kernel: Kernel, source: MediaSource, suo_id: str = "player"
    ) -> None:
        self.kernel = kernel
        self.source = source
        self.suo_id = suo_id
        self._publish_output = kernel.bus.publisher(f"suo.{suo_id}.output")
        self._publish_command = kernel.bus.publisher(f"suo.{suo_id}.input")
        self.state = "stopped"
        self.position = 0.0
        self.frames_rendered = 0
        self.decode_slowdown = 1.0
        #: Correctness fault: when True, a corrupt packet wedges the
        #: decoder (it neither produces output nor skips the packet).
        self.stall_on_corrupt = False
        self.stalled = False
        self.output_hooks: List[Callable[[str, Any], None]] = []
        self._demux_index = 0
        self._packets: Optional[Store] = None
        self._frames: Optional[Store] = None
        self._processes: List[Process] = []
        self._last_buffer_level = 0
        #: Discontinuity sequence number: bumped on every seek so stages
        #: can discard in-flight data from before the jump (a real
        #: demuxer tags packets the same way; without it one stale frame
        #: rendered after a seek publishes a pre-seek position).
        self._generation = 0

    # ------------------------------------------------------------------
    # command API (the player's input events)
    # ------------------------------------------------------------------
    def command(self, name: str, **params: Any) -> None:
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            raise ValueError(f"unknown player command {name!r}")
        self._publish_command((name, params))
        handler(**params)
        self._publish("state", self.state)

    def _cmd_play(self) -> None:
        if self.state == "playing":
            return
        if self.state == "stopped":
            self._demux_index = int(self.position / self.source.packet_interval)
            self._start_pipeline()
        self.state = "playing"

    def _cmd_pause(self) -> None:
        if self.state == "playing":
            self.state = "paused"

    def _cmd_stop(self) -> None:
        self.state = "stopped"
        self.position = 0.0
        self._stop_pipeline()
        # Position changes are observable whatever causes them: without
        # this, a monitor's last-seen position goes stale exactly when
        # no frames render, and a healthy stop reads as a divergence.
        self._publish("position", 0.0)

    def _cmd_seek(self, position: float = 0.0) -> None:
        self.position = max(0.0, position)
        self._demux_index = int(self.position / self.source.packet_interval)
        if self._packets is not None:
            self._packets.clear()
        if self._frames is not None:
            self._frames.clear()
        self.stalled = False
        self._generation += 1
        # A demuxer that ran off the end of the source has exited; a
        # seek back into the media must revive it or the pipeline
        # starves forever (found by the position observable, PR 4).
        if self._packets is not None and self._demux_index < self.source.packet_count:
            demux = next(
                (p for p in self._processes if p.name == "mp.demux"), None
            )
            if demux is None or not demux.alive:
                self._processes = [p for p in self._processes if p.alive]
                self._processes.append(
                    Process(self.kernel, self._demux(), name="mp.demux")
                )
        self._publish_buffer()
        # The seek target is the new presented position — report it even
        # while paused/stopped, when no frame will render to carry it.
        self._publish("position", round(self.position, 3))

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def _start_pipeline(self) -> None:
        self._packets = Store(self.kernel, self.BUFFER_CAPACITY, "packets")
        self._frames = Store(self.kernel, self.BUFFER_CAPACITY, "frames")
        self._processes = [
            Process(self.kernel, self._demux(), name="mp.demux"),
            Process(self.kernel, self._decode(), name="mp.decode"),
            Process(self.kernel, self._render(), name="mp.render"),
        ]

    def _stop_pipeline(self) -> None:
        for process in self._processes:
            if process.alive:
                process.kill("player stop")
        self._processes = []
        self._packets = None
        self._frames = None
        self.stalled = False
        self._publish_buffer()

    def _demux(self) -> Generator[Any, Any, None]:
        try:
            while self._demux_index < self.source.packet_count:
                if self.state != "playing":
                    yield Delay(0.1)
                    continue
                packet = self.source.packet(self._demux_index)
                assert self._packets is not None
                if self._packets.put((self._generation, packet)):
                    self._demux_index += 1
                    self._publish_buffer()
                    yield Delay(self.source.packet_interval * 0.5)
                else:
                    yield Delay(0.05)  # buffer full, retry
        except Interrupted:
            return

    def _decode(self) -> Generator[Any, Any, None]:
        try:
            while True:
                assert self._packets is not None
                generation, packet = yield self._packets.get()
                self._publish_buffer()
                if generation != self._generation:
                    continue  # pre-seek packet: discard at the discontinuity
                if packet.corrupt:
                    if self.stall_on_corrupt:
                        # The injected wedge: decoder spins forever.
                        self.stalled = True
                        while True:
                            yield Delay(1.0)
                    # Nominal behaviour: conceal the error and continue.
                    continue
                yield Delay(self.DECODE_TIME * self.decode_slowdown)
                assert self._frames is not None
                self._frames.put((generation, packet))
        except Interrupted:
            return

    def _render(self) -> Generator[Any, Any, None]:
        try:
            while True:
                assert self._frames is not None
                generation, frame = yield self._frames.get()
                if generation != self._generation:
                    continue  # decoded before a seek: never present it
                if self.state != "playing":
                    yield Delay(0.1)
                    continue
                yield Delay(self.RENDER_TIME)
                if generation != self._generation:
                    continue  # the seek landed while this frame was on the glass
                self.frames_rendered += 1
                self.position = frame.pts
                self._publish("position", round(self.position, 3))
                # Rendered frames are *progress evidence*; position
                # changes alone (a seek echo) are not — a monitor must
                # be able to tell "the pipeline produced a frame" from
                # "the target moved".
                self._publish("frame", round(self.position, 3))
        except Interrupted:
            return

    # ------------------------------------------------------------------
    # recovery surface
    # ------------------------------------------------------------------
    def restart_pipeline(self) -> None:
        """Targeted recovery: tear down and rebuild the demux → decode →
        render pipeline at the current position.

        A decoder wedged by ``stall_on_corrupt`` cannot be revived in
        place (the stall loop never exits), so the rebind rung replaces
        the pipeline processes outright; the control state and presented
        position survive the swap.  A no-op while stopped — there is no
        pipeline to rebuild."""
        if self.state == "stopped":
            return
        self._stop_pipeline()
        self._demux_index = min(
            int(self.position / self.source.packet_interval),
            self.source.packet_count,
        )
        self._generation += 1
        self._start_pipeline()

    # ------------------------------------------------------------------
    def _publish(self, name: str, value: Any) -> None:
        for hook in self.output_hooks:
            hook(name, value)
        self._publish_output((name, value))

    def buffer_level(self) -> int:
        """Demuxed packets buffered and awaiting decode (0 when the
        pipeline is down)."""
        return len(self._packets) if self._packets is not None else 0

    def _publish_buffer(self) -> None:
        level = self.buffer_level()
        if level != self._last_buffer_level:
            self._last_buffer_level = level
            self._publish("buffer", level)

    def throughput(self, window: float = 10.0) -> float:
        """Frames per time unit over the whole run (coarse)."""
        if self.kernel.now <= 0:
            return 0.0
        return self.frames_rendered / self.kernel.now


#: Spec constants for the depth observables (PR 4).  The model predicts
#: *nominal pipeline pace*: while playing, a rendered frame lands at most
#: every NOMINAL_FRAME_TIME (plus concealment), and playback position
#: keeps advancing.  A wedged decoder (stall_on_corrupt) violates the
#: progress expectation; a slowed decoder (decode_slowdown) violates the
#: pace expectation — both invisible to the coarse ``state`` observable.
NOMINAL_FRAME_TIME = MediaPlayer.DECODE_TIME
#: Longest frame-to-frame gap the spec tolerates (concealment of a short
#: corrupt run, seek pipeline restart) before pace counts as degraded.
PACE_LIMIT = NOMINAL_FRAME_TIME * 2.4
#: While playing, a frame must land within this window or progress has
#: stalled (covers seek restarts and post-resume buffer refill).
PROGRESS_SLACK = 4.0


def _player_mark_progress(machine: Machine, event) -> None:
    last = machine.get("last_progress")
    if last is not None:
        machine.set("last_gap", event.time - last)
    machine.set("last_progress", event.time)
    machine.set("pending_since", None)
    machine.set("position", float(event.param("position", machine.get("position"))))


def _player_reset_progress(machine: Machine, event) -> None:
    """A (re)start of playback re-arms the pace expectation and arms the
    progress deadline — but never *extends* an unmet one: a pipeline
    that was already asked to produce a frame and hasn't must not have
    its deadline pushed out by further seeks, or a wedged decoder under
    seek-stress (one restart per seek, each inside the slack window)
    would never be caught."""
    machine.set("last_progress", event.time)
    machine.set("last_gap", 0.0)
    if machine.get("pending_since") is None:
        machine.set("pending_since", event.time)


def _player_on_seek(machine: Machine, event) -> None:
    machine.set("position", max(0.0, float(event.param("position", 0.0))))
    _player_reset_progress(machine, event)


def _player_on_stop(machine: Machine, event) -> None:
    machine.set("position", 0.0)
    machine.set("last_progress", event.time)
    machine.set("last_gap", 0.0)
    machine.set("pending_since", None)


def build_player_model(media_duration: Optional[float] = None) -> Machine:
    """Specification model of the player's control behaviour *and* its
    nominal pipeline performance (position / progress / pace vars).

    ``media_duration`` bounds the progress expectation: once playback
    reaches the end of the media, the pipeline legitimately goes quiet
    even though the control state still reads ``playing``.  Each call
    returns a fresh machine over the one shared chart per duration.
    """
    machine = Machine(player_model_chart(media_duration))
    machine.initialize()
    return machine


@shared_chart
def player_model_chart(media_duration: Optional[float]) -> Statechart:
    """The player specification model's statechart."""
    b = MachineBuilder("player_spec")
    b.var("position", 0.0)
    b.var("last_progress", None)
    b.var("last_gap", 0.0)
    b.var("pending_since", None)
    b.var("media_duration", media_duration)
    b.state("stopped")
    b.state("playing")
    b.state("paused")
    b.initial("stopped")
    b.transition("stopped", "playing", event="play", action=_player_reset_progress)
    b.transition("playing", "paused", event="pause")
    b.transition("paused", "playing", event="play", action=_player_reset_progress)
    b.transition("playing", "stopped", event="stop", action=_player_on_stop)
    b.transition("paused", "stopped", event="stop", action=_player_on_stop)
    b.transition("playing", None, event="seek", internal=True, action=_player_on_seek)
    b.transition("paused", None, event="seek", internal=True, action=_player_on_seek)
    b.transition("stopped", None, event="seek", internal=True, action=_player_on_seek)
    b.transition(
        "playing", None, event="progress", internal=True, action=_player_mark_progress
    )
    return b.build_chart()


def expected_player_state(machine: Machine) -> str:
    """The control state the model predicts."""
    return machine.configuration().split(".")[-1]


def expected_player_position(machine: Machine) -> float:
    """The playback position the model last confirmed (a consistency
    observable: the SUO's reported position must track it)."""
    return machine.get("position")


def expected_player_progressing(machine: Machine) -> bool:
    """While playing, a frame must render within PROGRESS_SLACK.

    The SUO-side belief is constantly ``True`` (the player *thinks* it is
    playing); a wedged decoder stops satisfying the progress deadline so
    this verdict flips to ``False`` and the divergence is the detected
    error — the stall class of fault that the bare ``state`` observable
    never sees.  The deadline is the *oldest unmet* restart
    (``pending_since``), so seeks during a stall cannot keep pushing it
    out; between frames in steady playback it falls back to the last
    rendered frame.
    """
    if expected_player_state(machine) != "playing":
        return True
    duration = machine.get("media_duration")
    if duration is not None and machine.get("position") >= duration - 1.0:
        return True  # end of media: the quiet pipeline is nominal
    pending = machine.get("pending_since")
    if pending is not None:
        return machine.time - pending <= PROGRESS_SLACK
    last = machine.get("last_progress")
    if last is None:
        return True
    return machine.time - last <= PROGRESS_SLACK


def expected_player_pace(machine: Machine) -> bool:
    """Frame-to-frame gaps must stay within the nominal pipeline pace.

    A slowed decoder stretches every gap past PACE_LIMIT while progress
    continues — degraded throughput that ``progressing`` alone cannot
    distinguish from health.
    """
    if expected_player_state(machine) != "playing":
        return True
    return machine.get("last_gap") <= PACE_LIMIT
