"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, sets itself up
(reference digests, warm-up, server boot) outside the timed region, and
then runs operations in a closed loop for a given number of seconds.
An operation is one campaign cell (one service job for
``service-mixed``); it counts as failed when it raises, ends in a state
other than ``complete``, or yields a ``telemetry_digest`` or
``span_digest`` other than the serial reference for the same
(spec, seed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign import (
    CampaignCheckpoint,
    ProcessShardBackend,
    SerialBackend,
    execute_cell,
)
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.spec import spec_hash
from repro.service.client import ServiceClient

from .tracing import TimedCheckpoint, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed whose reference digests ship in ``reference_digests.json``.
DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")

#: Fresh-interpreter set-up rounds per run; ``setup_s`` takes their median.
SETUP_ROUNDS = 3

#: Hard cap on one timed phase, so a stalled program cannot hold a run
#: past the benchmark's own time limit.
MAX_PHASE_SECONDS = 75.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_key(spec: ScenarioSpec, seed: int) -> str:
    return f"{spec.name}:{spec_hash(spec)[:16]}:{seed}"


def serial_digests(spec: ScenarioSpec, seed: int) -> List[str]:
    """The serial reference for one (spec, seed) cell."""
    report = execute_cell(spec, seed)
    return [report.telemetry_digest, report.span_digest]


def shipped_references() -> Dict[str, List[str]]:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["cells"]


@dataclasses.dataclass
class Op:
    """One checked operation: a campaign cell or a service job."""

    ok: bool
    digests: Tuple[str, str] = ("", "")
    error: str = ""
    #: Simulated device-seconds: members x simulated duration.
    work: float = 0.0


@dataclasses.dataclass
class Job:
    """What a user submits and waits for: a campaign over some of a
    batch workload's cells (the one cell on the fleets, every library
    scenario at one seed on the library sweep), or one service job."""

    ops: List[Op]
    latency_s: float
    #: Submission to the first result a user could see.
    first_record_s: float
    #: perf_counter() when the job ended.
    done_at: float

    @property
    def ok(self) -> bool:
        return all(op.ok for op in self.ops)

    @property
    def work(self) -> float:
        return sum(op.work for op in self.ops if op.ok)

    @property
    def cells(self) -> int:
        return sum(1 for op in self.ops if op.ok)


@dataclasses.dataclass
class Phase:
    """The jobs of one timed loop."""

    jobs: List[Job]
    started_at: float
    wall_s: float
    #: Consecutive jobs per throughput window (see ``window_rates``).
    window: int = 1

    @property
    def ops(self) -> List[Op]:
        return [op for job in self.jobs for op in job.ops]

    def window_rates(self, measure: str) -> List[float]:
        """``measure`` (``work`` or ``cells``) per second in consecutive
        windows of ``window`` jobs, in completion order.  The median of
        these is the phase's throughput: a short stall of the host
        moves one window, not the result."""
        jobs = sorted(self.jobs, key=lambda job: job.done_at)
        rates, begin = [], self.started_at
        for index in range(0, len(jobs) - self.window + 1, self.window):
            block = jobs[index:index + self.window]
            end = block[-1].done_at
            if end > begin:
                rates.append(sum(getattr(job, measure) for job in block) / (end - begin))
            begin = end
        return rates


@contextlib.contextmanager
def _span(tracer: Optional[Tracer], name: str, **kwargs: Any) -> Iterator[Dict[str, Any]]:
    if tracer is None:
        yield {"attrs": {}}
    else:
        with tracer.span(name, **kwargs) as span:
            yield span


def _time_command(argv: Sequence[str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        argv, env=subprocess_env(), check=True, timeout=60,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class _FirstResult:
    """Backend mixin stamping when the first shard result reaches
    ``execute_cell`` — the batch analogue of a stream's first record."""

    first_result_at: Optional[float] = None

    def submit_all(self, plans: Any, on_result: Any = None) -> Any:
        def landed(result: Any) -> None:
            if self.first_result_at is None:
                self.first_result_at = time.perf_counter()
            if on_result is not None:
                on_result(result)

        return super().submit_all(plans, on_result=landed)


class _StampedSerial(_FirstResult, SerialBackend):
    pass


class _StampedSharded(_FirstResult, ProcessShardBackend):
    pass


# ----------------------------------------------------------------------
class Workload:
    """Set-up, timed loop and checks shared by every workload."""

    name = "workload"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cells = self.build_cells()
        self.expected: Dict[str, List[str]] = {}
        #: Which reference the checks used: "shipped" or "recomputed".
        self.reference_origin = ""

    # -- inputs ---------------------------------------------------------
    def build_cells(self) -> List[Tuple[ScenarioSpec, int]]:
        raise NotImplementedError

    @property
    def backend(self) -> str:
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------
    def setup_rounds(self) -> List[float]:
        """Fresh-interpreter set-up times (imports of every layer used)."""
        argv = [sys.executable, "-c", "import repro.campaign, repro.scenarios"]
        return [_time_command(argv) for _ in range(SETUP_ROUNDS)]

    def setup(self) -> None:
        """Untimed: serial reference run of every cell, then warm-up.

        The serial run always happens, so set-up costs the same on
        every seed.  It is the reference for any seed but the default,
        whose digests ship with the benchmark and pin the simulator's
        output across commits.
        """
        computed = {
            reference_key(spec, seed): serial_digests(spec, seed)
            for spec, seed in self.cells
        }
        shipped = shipped_references() if self.seed == DEFAULT_SEED else {}
        if computed.keys() <= shipped.keys():
            self.expected = {key: shipped[key] for key in computed}
            self.reference_origin = "shipped"
        else:
            self.expected = computed
            self.reference_origin = "recomputed"
        self.warm_up()

    def warm_up(self) -> None:
        """Extra untimed work after the reference run."""

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- checks ---------------------------------------------------------
    def check(self, spec: ScenarioSpec, seed: int, digests: Tuple[str, str]) -> bool:
        expected = self.expected.get(reference_key(spec, seed))
        return expected is not None and list(digests) == list(expected)

    # -- the timed loop -------------------------------------------------
    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        raise NotImplementedError


class _CellWorkload(Workload):
    """Batch workloads: jobs (campaigns over groups of ``cells``) in
    turn until time is up, and at least one pass over every group."""

    checkpointed = False

    def make_backend(self) -> _FirstResult:
        return _StampedSerial()

    def job_groups(self) -> List[List[Tuple[ScenarioSpec, int]]]:
        """The cells of each job; by default one job runs them all."""
        return [self.cells]

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        backend = self.make_backend()
        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        checkpoint = None
        if self.checkpointed:
            checkpoint = CampaignCheckpoint(os.path.join(store, "history.sqlite"))
        seam = checkpoint
        if checkpoint is not None and tracer is not None:
            seam = TimedCheckpoint(checkpoint, tracer)
        groups = self.job_groups()
        jobs: List[Job] = []
        cells = 0
        start = time.perf_counter()
        try:
            while len(jobs) < len(groups) or time.perf_counter() - start < seconds:
                # A fresh campaign id per job: the checkpoint must not
                # let a job skip cells an earlier job completed.
                campaign_id = f"{self.name}-job-{len(jobs)}"
                begin = time.perf_counter()
                first: Optional[float] = None
                ops = []
                for spec, seed in groups[len(jobs) % len(groups)]:
                    ops.append(self._cell_op(
                        spec, seed, backend, seam, campaign_id, tracer, cells,
                    ))
                    cells += 1
                    first = first or backend.first_result_at
                end = time.perf_counter()
                jobs.append(Job(ops, end - begin, (first or end) - begin, end))
                if end - start > MAX_PHASE_SECONDS:
                    break
            wall = time.perf_counter() - start
        finally:
            if checkpoint is not None:
                checkpoint.close()
            shutil.rmtree(store, ignore_errors=True)
        return Phase(jobs=jobs, started_at=start, wall_s=wall)

    def _cell_op(
        self,
        spec: ScenarioSpec,
        seed: int,
        backend: _FirstResult,
        checkpoint: Any,
        campaign_id: str,
        tracer: Optional[Tracer],
        index: int,
    ) -> Op:
        backend.first_result_at = None
        try:
            with _span(tracer, "cell", cell=index) as root:
                report = execute_cell(
                    spec, seed, backend=backend,
                    checkpoint=checkpoint, campaign_id=campaign_id,
                )
                spans = report.spans
                root["attrs"]["episodes"] = spans.get("completed", 0) + spans.get("open", 0)
        except Exception as exc:  # a failed operation, not a failed run
            return Op(False, error=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.collect_workers()
        digests = (report.telemetry_digest, report.span_digest)
        return Op(self.check(spec, seed, digests), digests,
                  work=spec.members * spec.duration)


def fleet_spec(members: int = 1000, duration: float = 10.0) -> ScenarioSpec:
    """The probe/E15 spec: light traffic and one mid-run fault wave."""
    return ScenarioSpec(
        name="bench-fleet-1k",
        description="benchmark: fleet of monitored TVs, one fault wave",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )


class FleetSerial(_CellWorkload):
    name = "fleet-1k-serial"

    def __init__(self, seed: int, workdir: Path, members: int = 1000,
                 duration: float = 10.0) -> None:
        self.members = members
        self.duration = duration
        super().__init__(seed, workdir)

    def build_cells(self) -> List[Tuple[ScenarioSpec, int]]:
        return [(fleet_spec(self.members, self.duration), self.seed)]

    @property
    def backend(self) -> str:
        return SerialBackend.name


class FleetSharded(FleetSerial):
    name = "fleet-1k-sharded"

    def make_backend(self) -> _FirstResult:
        return _StampedSharded(shards=nproc())

    @property
    def backend(self) -> str:
        return ProcessShardBackend(shards=nproc()).name

    def warm_up(self) -> None:
        spec, seed = self.cells[0]
        execute_cell(spec, seed, backend=self.make_backend())


class LibrarySweep(_CellWorkload):
    name = "library-sweep"
    checkpointed = True

    def __init__(self, seed: int, workdir: Path,
                 scenarios: Optional[Sequence[str]] = None,
                 seeds_per_scenario: int = 3) -> None:
        self.scenarios = list(scenarios) if scenarios else scenario_names()
        self.seeds_per_scenario = seeds_per_scenario
        super().__init__(seed, workdir)

    def build_cells(self) -> List[Tuple[ScenarioSpec, int]]:
        return [
            (dataclasses.replace(get_scenario(name), record_spans=True), seed)
            for seed in self.seeds()
            for name in self.scenarios
        ]

    def seeds(self) -> List[int]:
        return [
            self.seed * self.seeds_per_scenario + k
            for k in range(self.seeds_per_scenario)
        ]

    def job_groups(self) -> List[List[Tuple[ScenarioSpec, int]]]:
        """One campaign over the whole library per seed: three jobs a
        pass, so throughput and first-record time are medians of
        several samples even when a run fits one pass."""
        return [
            [(spec, seed) for spec, seed in self.cells if seed == chosen]
            for chosen in self.seeds()
        ]

    @property
    def backend(self) -> str:
        return f"{SerialBackend.name}+checkpoint"


# ----------------------------------------------------------------------
class ServiceMixed(Workload):
    """A closed loop of one-cell jobs against ``python -m repro.service``."""

    name = "service-mixed"
    SCENARIOS = (
        "recovery-ladder-drill", "printer-jam-drill", "alert-flood", "monitor-churn",
    )
    SEEDS_PER_SCENARIO = 2
    SHARDS = 2
    BOOT_TIMEOUT = 30.0
    #: Jobs per throughput window: two clients run jobs concurrently,
    #: so single jobs do not tile the timeline the way passes do.
    WINDOW = 10

    def __init__(self, seed: int, workdir: Path, min_jobs: int = 100) -> None:
        #: Jobs a timed phase runs at least, so the 90th latency
        #: percentile has ten samples beyond it.
        self.min_jobs = min_jobs
        self.threads = nproc()
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        super().__init__(seed, workdir)

    def build_cells(self) -> List[Tuple[ScenarioSpec, int]]:
        # Scenario varies fastest, so consecutive jobs cycle the four.
        return [
            (get_scenario(name), self.seed * self.SEEDS_PER_SCENARIO + k)
            for k in range(self.SEEDS_PER_SCENARIO)
            for name in self.SCENARIOS
        ]

    @property
    def backend(self) -> str:
        return f"service[workers={self.threads},shards={self.SHARDS}]"

    # -- server lifetime ------------------------------------------------
    def _boot(self) -> float:
        """Start a server on a fresh store; seconds until it answers."""
        self._stop()
        home = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        port_file = home / "port"
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--port", "0",
                "--port-file", str(port_file), "--db", str(home / "history.sqlite"),
                "--workers", str(self.threads),
            ],
            env=subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = start + self.BOOT_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited with {self.process.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("service did not answer in time")
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                self.client = ServiceClient("127.0.0.1", int(text), timeout=30.0)
                try:
                    self.client.health()
                    return time.perf_counter() - start
                except OSError:
                    pass
            time.sleep(0.005)

    def _stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)

    def setup_rounds(self) -> List[float]:
        """Server boots (fresh interpreter, imports, listen); the last
        one stays up for the timed loop."""
        return [self._boot() for _ in range(SETUP_ROUNDS)]

    def warm_up(self) -> None:
        for index in range(len(self.SCENARIOS)):
            self._job_op(index, None)

    def close(self) -> None:
        self._stop()
        super().close()

    # -- the timed loop -------------------------------------------------
    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        jobs: List[Job] = []
        lock = threading.Lock()
        issued = [0]
        start = time.perf_counter()

        def claim() -> Optional[int]:
            with lock:
                elapsed = time.perf_counter() - start
                if elapsed > MAX_PHASE_SECONDS or (
                    elapsed >= seconds and issued[0] >= self.min_jobs
                ):
                    return None
                issued[0] += 1
                return issued[0] - 1

        def client_loop() -> None:
            while True:
                index = claim()
                if index is None:
                    return
                job = self._job_op(index, tracer)
                with lock:
                    jobs.append(job)

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{n}")
            for n in range(self.threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Phase(
            jobs=jobs, started_at=start, wall_s=time.perf_counter() - start,
            window=self.WINDOW,
        )

    def _job_op(self, index: int, tracer: Optional[Tracer]) -> Job:
        spec, seed = self.cells[index % len(self.cells)]
        client = self.client
        start = time.perf_counter()
        first: Optional[float] = None
        end: Dict[str, Any] = {}
        try:
            with _span(tracer, "service.job", cell=index):
                with _span(tracer, "service.submit"):
                    job_id = client.submit(
                        [spec.name], seeds=[seed], shards=self.SHARDS
                    )["job_id"]
                with _span(tracer, "service.stream") as stream:
                    records = 0
                    for record in client.stream(job_id):
                        records += 1
                        if first is None and record.get("type") == "telemetry":
                            first = time.perf_counter()
                        if record.get("type") == "end":
                            end = record
                    stream["attrs"]["records"] = records
                done = time.perf_counter()
                with _span(tracer, "service.status") as status_span:
                    status = client.status(job_id)
                    if status.get("started_at") and status.get("finished_at"):
                        status_span["attrs"]["queue_wait_s"] = (
                            status["started_at"] - status["created_at"]
                        )
                        status_span["attrs"]["exec_s"] = (
                            status["finished_at"] - status["started_at"]
                        )
                with _span(tracer, "service.report"):
                    report = client.report(job_id)
        except Exception as exc:  # a failed operation, not a failed run
            done = time.perf_counter()
            failed = Op(False, error=f"{type(exc).__name__}: {exc}")
            return Job([failed], done - start, done - start, done)
        digests = (end.get("telemetry_digest", ""), end.get("span_digest", ""))
        reports = report.get("reports") or [{}]
        ok = (
            end.get("state") == "complete"
            and status.get("state") == "complete"
            and reports[0].get("telemetry_digest") == digests[0]
            and self.check(spec, seed, digests)
        )
        op = Op(
            ok, digests,
            error="" if ok else f"job {job_id} ended {end.get('state')!r}",
            work=spec.members * spec.duration,
        )
        return Job([op], done - start, (first or done) - start, done)


WORKLOADS = {
    cls.name: cls for cls in (FleetSerial, FleetSharded, LibrarySweep, ServiceMixed)
}
