"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  The generator yields *wait
requests* and the kernel resumes it when the request is satisfied:

* ``yield Delay(t)``           — sleep for ``t`` simulated time units;
* ``yield WaitSignal(sig)``    — block until the signal fires;
* ``yield Acquire(resource)``  — block until the resource grants a unit
                                 (see :mod:`repro.sim.resources`);
* ``yield proc``               — block until another process terminates.

This mirrors how the paper's SUO software is structured: concurrently
executing components (tuner driver, teletext acquirer, OSD renderer) that
block on messages and timers.  Processes can be interrupted — the recovery
manager in :mod:`repro.recovery` kills and restarts *recoverable units* by
interrupting their processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from .kernel import Kernel, SimulationError


class Interrupted(Exception):
    """Thrown into a process generator when it is killed or interrupted."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(slots=True)
class Delay:
    """Wait request: resume after ``duration`` simulated time units."""

    duration: float


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(value)`` wakes every waiter, passing ``value`` as the result of
    their ``yield``.  Signals are the kernel-level primitive under message
    channels and interrupt lines.
    """

    __slots__ = ("name", "_waiters", "fire_count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    def fire(self, value: Any = None) -> int:
        """Wake all waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._resume(value)
        self.fire_count += 1
        return len(waiters)

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def _remove_waiter(self, process: "Process") -> None:
        if process in self._waiters:
            self._waiters.remove(process)


@dataclass(slots=True)
class WaitSignal:
    """Wait request: resume when ``signal`` fires."""

    signal: Signal


class Process:
    """A simulated thread of control driven by the kernel.

    The process starts automatically on construction (scheduled at the
    current time).  ``alive`` is False once the generator returns, raises,
    or is killed.  ``result`` holds the generator's return value.

    Delay wake-ups are the single most common event in a fleet campaign
    (every periodic task body sleeps between jobs), so the process keeps
    one reusable wake callback and its timer events are *transient*
    (kernel freelist reuse): :meth:`_resume` drops ``_pending_event``
    before touching the generator, and :meth:`interrupt` only cancels
    still-pending timers, so no reference outlives the dispatch.
    """

    __slots__ = (
        "kernel", "name", "generator", "alive", "result", "exception",
        "_on_exit", "_exit_watchers", "_pending_event", "_waiting_signal",
        "_wake", "_wake_name",
    )

    def __init__(
        self,
        kernel: Kernel,
        generator: Generator[Any, Any, Any],
        name: str = "process",
        on_exit: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.generator = generator
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._on_exit = on_exit
        self._exit_watchers: List[Process] = []
        self._pending_event = None
        self._waiting_signal: Optional[Signal] = None
        self._wake: Callable[[], None] = lambda: self._resume(None)
        self._wake_name = f"wake:{name}"
        kernel.processes[self] = None
        kernel.schedule(0.0, self._wake, name=f"start:{name}", transient=True)

    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_signal = None
        try:
            request = self.generator.send(value)
        except StopIteration as stop:
            self._finish(result=getattr(stop, "value", None))
            return
        except Interrupted as interrupt:
            self._finish(exception=interrupt)
            return
        except Exception as exc:  # simulated software fault escaping a unit
            self._finish(exception=exc)
            return
        self._handle_request(request)

    def _handle_request(self, request: Any) -> None:
        if isinstance(request, Delay):
            self._pending_event = self.kernel.schedule(
                request.duration, self._wake, name=self._wake_name,
                transient=True,
            )
            return
        if isinstance(request, WaitSignal):
            self._waiting_signal = request.signal
            request.signal._add_waiter(self)
            return
        if isinstance(request, Process):
            if not request.alive:
                self.kernel.schedule(0.0, lambda: self._resume(request.result))
            else:
                request._exit_watchers.append(self)
            return
        # Acquire requests are handled by the resource itself (duck-typed so
        # sim.resources does not import this module circularly).
        handler = getattr(request, "_submit", None)
        if handler is not None:
            handler(self)
            return
        raise SimulationError(f"process {self.name} yielded unsupported request {request!r}")

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        self.alive = False
        self.kernel.processes.pop(self, None)
        self.result = result
        self.exception = exception
        watchers, self._exit_watchers = self._exit_watchers, []
        for watcher in watchers:
            watcher._resume(result)
        if self._on_exit is not None:
            self._on_exit(self)

    # ------------------------------------------------------------------
    def interrupt(self, reason: str = "") -> None:
        """Throw :class:`Interrupted` into the process at its wait point.

        Used by the recovery manager to kill recoverable units.  A process
        that is mid-dispatch cannot be interrupted synchronously; the
        interrupt lands at its next suspension, matching the paper's
        observation that recovery actions operate at unit boundaries.
        """
        if not self.alive:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_signal is not None:
            self._waiting_signal._remove_waiter(self)
            self._waiting_signal = None
        try:
            request = self.generator.throw(Interrupted(reason))
        except StopIteration as stop:
            self._finish(result=getattr(stop, "value", None))
            return
        except Interrupted as interrupt:
            self._finish(exception=interrupt)
            return
        except Exception as exc:
            self._finish(exception=exc)
            return
        self._handle_request(request)

    def kill(self, reason: str = "killed") -> None:
        """Terminate the process unconditionally (recovery 'kill' action)."""
        if not self.alive:
            return
        self.interrupt(reason)
        if self.alive:
            # The generator swallowed the interrupt and kept running; close
            # it hard.  This models a non-cooperative unit.
            self.generator.close()
            self._finish(exception=Interrupted(reason))
