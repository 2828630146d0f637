"""The campaign backend: one orchestration path over one executor seam.

Every campaign cell runs the same way.
:func:`repro.campaign.core.execute_cell` plans, partitions, skips
checkpointed shards, hands the rest to an :class:`ExecutorBackend`, and
merges.  The backend owns exactly two things:

* **bounded retry** — :meth:`ExecutorBackend.submit` re-runs a shard
  whose worker was lost (:class:`WorkerLostError`) up to
  ``max_attempts`` times, each attempt on a fresh worker, and raises
  :class:`ShardExhaustedError` only when every attempt died;
* **concurrent dispatch** — :meth:`ExecutorBackend.submit_all` runs the
  pending shards on up to ``parallelism`` driver threads and streams
  each result home (to the checkpoint) as it lands.

*Where* a shard attempt runs is the job of a :class:`ShardExecutor`,
the one seam every execution mode plugs into:

:class:`InlineExecutor`
    In the driver process.  Injected kills surface as
    :class:`WorkerLostError`, so retry and checkpoint logic run without
    process machinery.
:class:`ProcessWorkerExecutor`
    One OS process per attempt.  The worker heartbeats over a pipe; a
    dead pipe (the process died) or a silent one (it hung) is a lost
    worker, never a lost campaign.
:class:`~repro.campaign.distributed.SocketWorkerExecutor`
    Remote workers over TCP (:mod:`repro.campaign.distributed`).
:class:`~repro.service.jobs.StreamingExecutor`
    The campaign service's inline executor that narrates segments.

:class:`SerialBackend` and :class:`ProcessShardBackend` are presets of
the one backend: an inline executor on one shard, and process workers
on ``shards`` shards.

The sharded contract (verified by ``tests/test_campaign.py`` and gated
in CI) holds for every executor:

* merged counter/tally telemetry is **identical** to the serial run's —
  per-member behaviour keys to ``(campaign seed, suo_id)`` so placement
  cannot perturb it;
* per-shard trace digests are reproducible across reruns;
* shard-local randomness (reservoir sampling) keys to
  ``derive_shard_seed(seed, shard_id)``;
* a shard's payload is a pure function of its plan, so which attempt
  finally lands it cannot perturb the merged digests.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..runtime.fleet import FleetReport
from ..scenarios.compile import CompiledScenario
from ..scenarios.plan import ScenarioPlan, derive_shard_seed
from ..scenarios.spec import ScenarioSpec
from .report import CampaignReport

__all__ = [
    "ExecutorBackend",
    "InlineExecutor",
    "ProcessShardBackend",
    "ProcessWorkerExecutor",
    "SerialBackend",
    "ShardExecutor",
    "ShardExhaustedError",
    "ShardResult",
    "WorkerFaultInjector",
    "WorkerLostError",
    "derive_shard_seed",
    "execute_plan",
    "resolve_shards",
]

#: Fewest members worth a dedicated worker process: below this the
#: fork/merge overhead of another shard outweighs its share of the
#: simulation (measured on bench_e16 scale points).
MIN_MEMBERS_PER_SHARD = 25

#: Seconds between a process worker's heartbeats while it simulates.
HEARTBEAT_INTERVAL = 0.05

#: Seconds of pipe silence after which a process worker counts as hung.
HEARTBEAT_TIMEOUT = 30.0

#: Exit code an injected kill dies with (distinguishable from crashes
#: in worker logs; the parent treats any silent death the same way).
KILL_EXIT_CODE = 87


def resolve_shards(members: int, cpu_count: Optional[int] = None) -> int:
    """Pick a shard count from the host and the plan size (ROADMAP
    "shard-count autotuning").

    One shard per ``MIN_MEMBERS_PER_SHARD`` members, capped at the CPU
    count — a 1-CPU container degrades to a single shard and a
    thousand-SUO cell on a big host fans out to every core.  An
    autotuning backend (``shards=None``) resolves through here, and the
    resolved count is what a
    :class:`~repro.campaign.checkpoint.CampaignCheckpoint` records — so
    an autotune decision is visible in the checkpoint row instead of
    vanishing with the process that made it.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    by_size = max(1, members // MIN_MEMBERS_PER_SHARD)
    return max(1, min(cpus, by_size))


# ----------------------------------------------------------------------
# the unit of work and the unit of result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardResult:
    """One executed shard: the durable, mergeable unit of a campaign.

    ``payload`` is the JSON-safe dict :func:`execute_plan` produces
    (mergeable summary, span block, digests, detection accounting);
    ``attempt`` and ``worker`` record how the shard got executed — the
    fault-tolerance provenance a checkpoint row keeps.  The payload is
    exactly what :func:`~repro.campaign.report.merge_shard_results`
    folds, so a result loaded back from a checkpoint merges bit-for-bit
    like a fresh one.
    """

    shard_id: int
    payload: Dict[str, Any] = field(repr=False)
    attempt: int = 0
    worker: str = "local"

    def to_json(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "worker": self.worker,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ShardResult":
        return cls(
            shard_id=int(data["shard_id"]),
            payload=data["payload"],
            attempt=int(data.get("attempt", 0)),
            worker=str(data.get("worker", "local")),
        )


def _shard_payload(
    compiled: CompiledScenario, fleet_report: FleetReport
) -> Dict[str, Any]:
    """Everything a worker sends home: JSON-friendly, mergeable."""
    fleet = compiled.fleet
    return {
        "shard_id": compiled.plan.shard_id,
        "members": len(fleet),
        "duration": fleet_report.duration,
        "dispatched": fleet_report.dispatched,
        "wall_seconds": fleet_report.wall_seconds,
        "trace_digest": fleet.trace_digest(),
        "trace_records": fleet.record_count(),
        # per_suo + samples make the summary mergeable (see telemetry).
        "summary": fleet.telemetry.summary(per_suo=True, samples=True),
        "faulty": fleet_report.faulty,
        "detected": fleet_report.detected,
        "false_alarms": fleet_report.false_alarms,
        "monitored_clean": fleet_report.monitored_clean or 0,
        "errors_by_suo": fleet_report.errors_by_suo,
        "profile_mix": {
            name: len(group)
            for name, group in compiled.profile_groups.items()
        },
        # Causal-span block (None unless the spec set record_spans):
        # counters + digest triples merge exactly; see merge_span_blocks.
        "spans": (
            compiled.span_recorder.mergeable()
            if compiled.span_recorder is not None else None
        ),
    }


def execute_plan(
    plan: ScenarioPlan,
    segments: int = 1,
    on_segment: Optional[Callable[[CompiledScenario, int, float], None]] = None,
) -> Dict[str, Any]:
    """Compile and run one plan (a full cell or one shard of it).

    The primitive every executor bottoms out in.  Module-level so
    :mod:`multiprocessing` can ship it to workers by reference, and so
    a socket worker on another host runs the byte-identical code path.

    ``segments`` slices the run into that many kernel runs; the payload
    is byte-identical for any segment count (see
    :meth:`CompiledScenario.run_segmented`).  ``on_segment`` fires
    between slices with live telemetry flushed — where the campaign
    service samples snapshots for its NDJSON stream and checks for
    cancellation — and after the last one, which is where an in-process
    caller can keep the live compiled scenario.  Once the payload is
    built the scenario is closed (:meth:`CompiledScenario.close`): a
    kept scenario stays inspectable but cannot run again.
    """
    compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
    try:
        fleet_report = compiled.run_segmented(segments, on_segment=on_segment)
        return _shard_payload(compiled, fleet_report)
    finally:
        compiled.close()


# ----------------------------------------------------------------------
# worker loss
# ----------------------------------------------------------------------
class WorkerLostError(RuntimeError):
    """One shard attempt's worker died or went silent; retryable."""


class ShardExhaustedError(RuntimeError):
    """Every allowed attempt for one shard lost its worker."""


@dataclass(frozen=True)
class WorkerFaultInjector:
    """Deterministic worker killer for fault-tolerance tests.

    Kills the worker of every shard in ``kill_shards`` on its first
    ``kills`` attempts (attempts count from 0), then lets retries
    succeed.  A pure function of ``(shard_id, attempt)`` — no clocks,
    no randomness — so a CI failure replays exactly.  Picklable, so it
    rides into worker processes.
    """

    kill_shards: Tuple[int, ...] = ()
    kills: int = 1

    def should_kill(self, shard_id: int, attempt: int) -> bool:
        return shard_id in self.kill_shards and attempt < self.kills


# ----------------------------------------------------------------------
# the executor seam
# ----------------------------------------------------------------------
class ShardExecutor(Protocol):
    """Runs one shard-plan attempt somewhere; raises
    :class:`WorkerLostError` when that somewhere dies.

    An executor that forks may also offer ``launch(plan, attempt)``,
    which starts the attempt on the calling thread and returns a
    zero-argument waiter for its :class:`ShardResult` (see
    :class:`ProcessWorkerExecutor`).
    """

    name: str

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult: ...


class InlineExecutor:
    """Run shard attempts in the driver process.

    Injected kills raise :class:`WorkerLostError`, so retry, attempt
    provenance, and checkpoint behaviour are all exercised without
    process machinery — including on 1-CPU containers.
    """

    name = "inline"

    def __init__(self, fault_injector: Optional[WorkerFaultInjector] = None):
        self.fault_injector = fault_injector

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        if (
            self.fault_injector is not None
            and self.fault_injector.should_kill(plan.shard_id, attempt)
        ):
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: injected loss"
            )
        return ShardResult(
            shard_id=plan.shard_id, payload=execute_plan(plan),
            attempt=attempt, worker=self.name,
        )


def _process_worker_main(
    conn,
    plan: ScenarioPlan,
    attempt: int,
    injector: Optional[WorkerFaultInjector],
) -> None:
    """Worker-process body: heartbeat from a side thread, simulate the
    shard, send the payload home.  Module-level so every start method
    can ship it by reference.

    A forked worker lives for one shard, so the heap it inherits is
    never garbage: freezing it first keeps every cyclic collection in
    the worker from traversing the parent's objects again."""
    gc.freeze()
    stop = threading.Event()
    send_lock = threading.Lock()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            with send_lock:
                try:
                    conn.send(("heartbeat", plan.shard_id))
                except OSError:
                    return

    threading.Thread(target=beat, daemon=True).start()
    if injector is not None and injector.should_kill(plan.shard_id, attempt):
        # A real kill: no cleanup, no goodbye — the parent must notice
        # from the pipe going dead, exactly like a crashed host.
        os._exit(KILL_EXIT_CODE)
    payload = execute_plan(plan)
    stop.set()
    with send_lock:
        conn.send(("result", payload))
    conn.close()


def _worker_context():
    """``fork`` where available — workers inherit the loaded
    interpreter — else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return multiprocessing.get_context()


class ProcessWorkerExecutor:
    """One worker process per shard attempt, loss detected via pipe.

    The worker heartbeats every :data:`HEARTBEAT_INTERVAL` seconds while
    the shard simulates; the parent raises :class:`WorkerLostError` on
    pipe EOF (the process died — e.g. an injected ``os._exit``) or when
    nothing arrives within :data:`HEARTBEAT_TIMEOUT` (the process hung).
    A retry is automatically a reassignment: the next attempt gets a
    brand-new process.

    :meth:`launch` forks the worker on the calling thread and returns a
    waiter; :class:`ExecutorBackend` launches first attempts from the
    driver thread, so workers inherit the thread that runs the cell.
    """

    name = "process"

    def __init__(
        self, fault_injector: Optional[WorkerFaultInjector] = None
    ) -> None:
        self.fault_injector = fault_injector

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        return self.launch(plan, attempt)()

    def launch(
        self, plan: ScenarioPlan, attempt: int
    ) -> Callable[[], ShardResult]:
        """Start the attempt's worker now; the waiter blocks for it."""
        ctx = _worker_context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_process_worker_main,
            args=(send_conn, plan, attempt, self.fault_injector),
            daemon=True,
        )
        proc.start()
        send_conn.close()

        def wait() -> ShardResult:
            try:
                while True:
                    if not recv_conn.poll(HEARTBEAT_TIMEOUT):
                        raise WorkerLostError(
                            f"shard {plan.shard_id} attempt {attempt}: no "
                            f"heartbeat for {HEARTBEAT_TIMEOUT:.1f}s "
                            f"(pid {proc.pid})"
                        )
                    try:
                        kind, value = recv_conn.recv()
                    except (EOFError, OSError):
                        raise WorkerLostError(
                            f"shard {plan.shard_id} attempt {attempt}: "
                            f"worker pid {proc.pid} died "
                            f"(exit {proc.exitcode})"
                        )
                    if kind == "result":
                        return ShardResult(
                            shard_id=plan.shard_id, payload=value,
                            attempt=attempt, worker=f"process:{proc.pid}",
                        )
            finally:
                recv_conn.close()
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)

        return wait


#: Callback invoked with each completed :class:`ShardResult` as it
#: lands (checkpoint writes hook in here).
ResultSink = Callable[[ShardResult], None]


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
class ExecutorBackend:
    """Campaign execution over a shard executor, with bounded retry and
    concurrent dispatch.

    ``shards=None`` autotunes via :func:`resolve_shards` (the decision
    lands in the checkpoint row).  ``max_attempts`` bounds how many
    workers one shard may consume before the cell fails loudly with
    :class:`ShardExhaustedError` — a lost worker is retryable, a shard
    that kills every worker it touches is a bug to surface, not mask.
    ``parallelism`` caps the driver threads dispatching shards
    (default: one per shard, at most one per CPU and at least two).
    """

    def __init__(
        self,
        executor: ShardExecutor,
        shards: Optional[int] = 2,
        max_attempts: int = 3,
        parallelism: Optional[int] = None,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1 (or None to autotune)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if parallelism is not None and parallelism < 1:
            raise ValueError("parallelism must be >= 1 (or None)")
        self.executor = executor
        self.shards = shards
        self.max_attempts = max_attempts
        self.parallelism = parallelism

    @property
    def name(self) -> str:
        label = "auto" if self.shards is None else str(self.shards)
        return f"{self.executor.name}[{label}]"

    def resolve(self, spec: ScenarioSpec) -> int:
        """The shard count this backend will use for one cell."""
        if self.shards is not None:
            return self.shards
        return resolve_shards(spec.members)

    def submit(
        self,
        plan: ScenarioPlan,
        launched: Optional[Callable[[], ShardResult]] = None,
    ) -> ShardResult:
        """Run one shard plan, retrying lost workers.  ``launched`` is
        the waiter of a first attempt already started (see
        :meth:`submit_all`)."""
        last: Optional[WorkerLostError] = None
        for attempt in range(self.max_attempts):
            try:
                if attempt == 0 and launched is not None:
                    return launched()
                return self.executor.run_attempt(plan, attempt)
            except WorkerLostError as exc:
                last = exc
        raise ShardExhaustedError(
            f"shard {plan.shard_id}: lost {self.max_attempts} worker(s); "
            f"last: {last}"
        ) from last

    def submit_all(
        self,
        plans: Sequence[ScenarioPlan],
        on_result: Optional[ResultSink] = None,
    ) -> List[ShardResult]:
        """Run a batch of shard plans; results come back in shard order
        and stream into ``on_result`` as they land."""
        if len(plans) <= 1 or self.parallelism == 1:
            results = []
            for plan in plans:
                result = self.submit(plan)
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        workers = self.parallelism or min(
            len(plans), max(2, os.cpu_count() or 2)
        )
        # An executor that forks (``launch``) starts the first attempt of
        # every shard that gets a dispatch thread right away, here on the
        # driver thread: a fork copies only the forking thread, and the
        # driver is the one whose state the worker should inherit.
        launch = getattr(self.executor, "launch", None)
        launched = [
            launch(plan, 0) if launch is not None and index < workers
            else None
            for index, plan in enumerate(plans)
        ]
        results = []
        first_error: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self.submit, plan, waiter)
                for plan, waiter in zip(plans, launched)
            ]
            # as_completed streams shards home as they land; on_result
            # (the checkpoint write) runs here on the driver thread, so
            # the SQLite connection never crosses threads.  An exhausted
            # shard must not discard its siblings: every completed shard
            # is still delivered (and so checkpointed) before the first
            # error propagates — that durability is exactly what makes
            # the subsequent resume cheap.
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    if first_error is None:
                        first_error = exc
                    continue
                if on_result is not None:
                    on_result(result)
                results.append(result)
        if first_error is not None:
            raise first_error
        results.sort(key=lambda result: result.shard_id)
        return results

    def run_cell(
        self,
        spec: ScenarioSpec,
        seed: int,
        checkpoint: Optional[Any] = None,
        campaign_id: Optional[str] = None,
    ) -> CampaignReport:
        """Run one (scenario, seed) cell through this backend."""
        from .core import execute_cell

        return execute_cell(
            spec, seed, backend=self,
            checkpoint=checkpoint, campaign_id=campaign_id,
        )


class SerialBackend(ExecutorBackend):
    """The single-kernel preset: one shard, run in-process.

    Routes its one shard through the same merge as every other backend,
    so serial and sharded reports are structurally identical and their
    ``telemetry_digest`` fields are directly comparable.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(InlineExecutor(), shards=1)


class ProcessShardBackend(ExecutorBackend):
    """The partitioned preset: one kernel + fleet per worker process.

    The cell's plan is built once from the campaign seed, partitioned
    round-robin per device kind, and each shard simulates its members in
    its own :class:`ProcessWorkerExecutor` process.  A worker that dies
    is detected and its shard retried on a fresh process.

    ``shards=None`` autotunes per cell: :func:`resolve_shards` picks the
    count from ``os.cpu_count()`` and the scenario's member count, and
    (when a checkpoint is attached) the decision is recorded in the
    cell's checkpoint row.
    """

    def __init__(self, shards: Optional[int] = 2) -> None:
        super().__init__(ProcessWorkerExecutor(), shards=shards)

    @property
    def name(self) -> str:
        label = "auto" if self.shards is None else str(self.shards)
        return f"process-shard[{label}]"
