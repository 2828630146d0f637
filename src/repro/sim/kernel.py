"""Discrete-event simulation kernel.

Everything in the reproduction that needs a notion of time — the simulated
SoC platform, the TV software, the awareness framework's sampling clock —
runs on top of this kernel.  It is a classic event-wheel design:

* a priority queue ordered by ``(time, priority, sequence)``;
* a simulated clock that only advances when events are dispatched;
* generator-based processes (see :mod:`repro.sim.process`) that suspend by
  yielding *wait requests* and are resumed by the kernel.

The kernel is deliberately deterministic: ties in time are broken first by
an explicit integer priority and then by insertion order, so a given seed
always produces the same trace.  The paper's experiments (e.g. comparator
tuning in Sect. 4.3) depend on reproducible interleavings of SUO events and
monitor observations.

Scale refactor (fleet engine): the kernel publishes on a
:class:`~repro.runtime.bus.EventBus` instead of private hook lists, heap
entries are plain ``(time, priority, seq, Event)`` tuples so ordering is
resolved by C tuple comparison instead of Python ``__lt__`` calls, the run
loop drains same-timestamp events in batches, and cancelled events —
which lazy deletion used to keep in the heap forever — are compacted away
once they dominate the queue, so long fault-injection campaigns run in
bounded memory.

Dispatch hot-path overhaul: :class:`Event` is a ``__slots__`` class (no
per-event ``__dict__``), and *transient* events — the periodic
reschedule chains that dominate fleet campaigns (process wake-ups,
comparator sampling ticks, render refreshes) — are recycled through a
bounded freelist instead of being allocated fresh every period.  A
caller that passes ``transient=True`` promises not to retain the
returned handle past the event's dispatch or cancellation; in exchange
the kernel reuses the object, which removes the single biggest
allocation churn in a fleet tick.

Teardown: the kernel keeps a registry of its live processes (a process
joins on construction and leaves when it finishes).
:meth:`Kernel.close_processes` closes every suspended generator, so a
finished simulation is freed by a single cyclic collection instead of
surviving the first one while the collector runs the generators'
finalizers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime.bus import EventBus
from ..runtime.registry import ServiceRegistry

#: Bus topic carrying every dispatched :class:`Event`.
DISPATCH_TOPIC = "kernel.dispatch"

#: Minimum lazy-deletion debt before compaction is even considered.
COMPACT_MIN_DEBT = 64

#: Upper bound on recycled Event objects kept per kernel.
FREELIST_CAP = 512


class SimulationError(Exception):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` which is exactly the
    dispatch order (the heap itself orders raw tuples, so this comparison
    is for callers only).  ``cancelled`` events stay in the heap but are
    skipped when popped (lazy deletion), which keeps cancellation O(1);
    the owning kernel tracks the cancellation *debt* and compacts the
    heap when cancelled entries dominate it, so the queue cannot grow
    without bound.

    ``transient`` events are recycled into the kernel's freelist once
    they leave the heap (dispatched or cancelled-and-popped).  Holding a
    transient handle past that point and calling :meth:`cancel` on it is
    undefined — the object may already represent a different scheduled
    event.  Cancelling a *pending* transient event is always safe.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "name", "cancelled",
        "owner", "transient",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
        cancelled: bool = False,
        owner: Optional["Kernel"] = None,
        transient: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        self.owner = owner
        self.transient = transient

    # Ordering mirrors the old dataclass(order=True) with compare=False
    # on everything but (time, priority, seq).
    def _key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    __hash__ = None  # type: ignore[assignment]  # match the old dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, name={self.name!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the kernel skips it at dispatch time."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


#: One priority-queue slot: ``(time, priority, seq, event)``.
QueueEntry = Tuple[float, int, int, "Event"]


class Kernel:
    """The simulation executive.

    Typical use::

        kernel = Kernel()
        kernel.schedule(5.0, lambda: print("five"))
        kernel.run(until=10.0)

    Observation goes through the kernel's :attr:`bus`: every dispatch is
    published on :data:`DISPATCH_TOPIC` (the simulation-level analogue of
    the on-chip trace infrastructure the paper mentions in Sect. 4.1), and
    any subsystem may publish/subscribe its own topics.  Publishing on a
    silent topic is a single dict lookup, so an unobserved simulation pays
    ~nothing.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self._queue: List[QueueEntry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.dispatched_count = 0
        #: The shared runtime event bus (dispatch trace, SUO observables,
        #: fleet campaign telemetry all ride on it).
        self.bus = bus or EventBus()
        #: Typed per-simulation service registry (see
        #: :class:`~repro.runtime.registry.ServiceRegistry`); still usable
        #: as a plain mapping for backwards compatibility.
        self.registry = ServiceRegistry(self.bus)
        #: Count of cancelled events still sitting in the heap.
        self._cancelled_debt = 0
        self.compactions = 0
        #: Recycled transient Event objects (bounded).
        self._free: List[Event] = []
        #: Live processes on this kernel, in start order (insertion-
        #: ordered dict used as a set; see repro.sim.process).
        self.processes: Dict[Any, None] = {}

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``priority`` breaks ties at equal times; lower runs first.  Returns
        the :class:`Event`, which may be cancelled.  ``transient=True``
        opts into freelist reuse (see :class:`Event`): hot periodic
        chains should pass it, callers that retain the handle past
        dispatch must not.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Body of schedule_at, inlined: this is called once per periodic
        # event in a campaign, and the extra frame is measurable.
        time = self._now + delay
        seq = next(self._seq)
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.name = name
            event.cancelled = False
            event.owner = self
            event.transient = transient
        else:
            event = Event(time, priority, seq, callback, name, False, self, transient)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time.

        This is the scheduling primitive (:meth:`schedule` delegates
        here).  The event fires at exactly ``time`` — it is *not*
        re-derived from a relative delay, because ``now + (time - now)``
        need not round-trip in floating point and can land an ulp early,
        reordering callers (like
        :class:`~repro.awareness.channel.MessageChannel`) that rely on
        monotone absolute deadlines.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (at={time}, now={self._now})"
            )
        seq = next(self._seq)
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.name = name
            event.cancelled = False
            event.owner = self
            event.transient = transient
        else:
            event = Event(time, priority, seq, callback, name, False, self, transient)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def _recycle(self, event: Event) -> None:
        """Return a transient event that left the heap to the freelist."""
        event.owner = None
        event.callback = _NOOP  # drop closure references promptly
        free = self._free
        if len(free) < FREELIST_CAP:
            free.append(event)

    def add_dispatch_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook called just before every event dispatch.

        Compatibility shim over ``bus.subscribe(DISPATCH_TOPIC, ...)``;
        new code should subscribe to the bus directly.
        """
        self.bus.subscribe(DISPATCH_TOPIC, lambda _topic, event, _h=hook: _h(event))

    # ------------------------------------------------------------------
    # cancellation debt / heap compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled_debt += 1
        if (
            self._cancelled_debt >= COMPACT_MIN_DEBT
            and self._cancelled_debt * 2 >= len(self._queue)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled events from the heap; returns how many were shed.

        In-place (slice assignment) so run loops holding a reference to
        the queue keep seeing the live heap.
        """
        queue = self._queue
        before = len(queue)
        kept: List[QueueEntry] = []
        for entry in queue:
            event = entry[3]
            if event.cancelled:
                if event.transient:
                    self._recycle(event)
            else:
                kept.append(entry)
        queue[:] = kept
        heapq.heapify(queue)
        self._cancelled_debt = 0
        self.compactions += 1
        return before - len(queue)

    @property
    def cancelled_debt(self) -> int:
        """Cancelled events currently occupying heap slots."""
        return self._cancelled_debt

    def queue_size(self) -> int:
        """Raw heap size, cancelled entries included (memory proxy)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.  Returns False if queue empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[3]
            if event.cancelled:
                self._cancelled_debt -= 1
                if event.transient:
                    self._recycle(event)
                else:
                    event.owner = None
                continue
            if event.time < self._now:
                raise SimulationError("event queue corrupted: time moved backwards")
            self._now = event.time
            hooks = self.bus.snapshot(DISPATCH_TOPIC)
            for hook in hooks:
                hook(DISPATCH_TOPIC, event)
            self.dispatched_count += 1
            callback = event.callback
            if event.transient and not hooks:
                self._recycle(event)
            else:
                event.owner = None
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events dispatched by this call.  When
        ``until`` is given the clock is advanced to exactly ``until`` even
        if the last event fired earlier, so callers can interleave
        ``run(until=...)`` segments and still observe a monotone clock.

        The loop drains each distinct timestamp as one *batch*: the clock
        is written once per timestamp and the dispatch-trace subscriber
        snapshot is fetched once per timestamp.  Dispatch order is
        identical to one-at-a-time stepping — events scheduled by a batch
        member at the same timestamp merge into the batch in heap order.

        Transient events are recycled right after their callback is
        looked up, but only while no dispatch hook is attached — a hook
        may legitimately inspect (though not retain) the Event object it
        receives, so observation disables reuse rather than risking a
        recycled object changing under an observer.
        """
        dispatched = 0
        if max_events is not None and max_events <= 0:
            return 0
        limit = max_events if max_events is not None else -1
        queue = self._queue
        pop = heapq.heappop
        bus = self.bus
        recycle = self._recycle
        hooks_version = -1
        hooks: tuple = ()
        self._running = True
        try:
            while queue:
                head = queue[0]
                batch_time = head[0]
                if head[3].cancelled:
                    event = pop(queue)[3]
                    self._cancelled_debt -= 1
                    if event.transient:
                        recycle(event)
                    else:
                        event.owner = None
                    continue
                if until is not None and batch_time > until:
                    break
                if batch_time < self._now:
                    raise SimulationError(
                        "event queue corrupted: time moved backwards"
                    )
                self._now = batch_time
                if bus.version != hooks_version:
                    hooks_version = bus.version
                    hooks = bus.snapshot(DISPATCH_TOPIC)
                while True:
                    event = pop(queue)[3]
                    if event.cancelled:
                        self._cancelled_debt -= 1
                        if event.transient:
                            recycle(event)
                        else:
                            event.owner = None
                    else:
                        callback = event.callback
                        if hooks:
                            for hook in hooks:
                                hook(DISPATCH_TOPIC, event)
                            event.owner = None
                        elif event.transient:
                            recycle(event)
                        else:
                            event.owner = None
                        self.dispatched_count += 1
                        callback()
                        dispatched += 1
                        if dispatched == limit:
                            return dispatched
                    if not queue or queue[0][0] != batch_time:
                        break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return dispatched

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        O(1) in the common case: compaction keeps cancelled entries from
        accumulating, and any cancelled head stripped here is paid for
        exactly once (amortized constant).
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            event = heapq.heappop(queue)[3]
            self._cancelled_debt -= 1
            if event.transient:
                self._recycle(event)
            else:
                event.owner = None
        if not queue:
            return None
        return queue[0][0]

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._queue) - self._cancelled_debt

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close_processes(self) -> None:
        """End every live process without resuming it.

        All of them are marked dead before any generator is closed, so
        the ``finally`` blocks that closing runs (a task releasing its
        core, say) cannot wake another process of this simulation.  Call
        it only once the simulation's results have been read.
        """
        processes, self.processes = self.processes, {}
        for process in processes:
            process.alive = False
        for process in processes:
            process.generator.close()


def _NOOP() -> None:  # recycled events point here until reassigned
    return None
