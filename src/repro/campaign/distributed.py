"""Remote shard workers: shard plans dispatched over TCP.

The socket pair plugs into the one campaign backend
(:class:`~repro.campaign.backends.ExecutorBackend`) like every other
shard executor, so a remote run gets the same bounded retry, attempt
provenance, and checkpointing as a local one:

:class:`ShardWorkerServer`
    A worker — ``python -m repro.campaign worker`` — that accepts a plan
    in its wire form (:meth:`~repro.scenarios.plan.ScenarioPlan.to_json`)
    and answers with the shard payload, so a worker on another host
    executes the byte-identical placement decisions.
:class:`SocketWorkerExecutor`
    Dispatches attempts to a pool of such workers; an unreachable worker
    or a dropped connection is a :class:`~repro.campaign.backends.
    WorkerLostError`, and the retry rotates to the next worker.

Combined with a :class:`~repro.campaign.checkpoint.CampaignCheckpoint`
(every completed shard durable as it lands) this is the ROADMAP
"beyond one box" story: kill the driver mid-campaign, ``resume`` on
any box, get the digest an uninterrupted run would have produced.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import List, Optional, Sequence, Tuple, Union

from ..scenarios.plan import ScenarioPlan
from . import backends
from .backends import ShardResult, WorkerFaultInjector, WorkerLostError

__all__ = [
    "ShardWorkerServer",
    "SocketWorkerExecutor",
]


# ----------------------------------------------------------------------
# socket executor (remote workers)
# ----------------------------------------------------------------------
class ShardWorkerServer:
    """A remote shard worker: accepts plan JSON, returns payload JSON.

    Protocol is one newline-delimited JSON request per connection —
    ``{"plan": <plan.to_json()>, "attempt": n}`` — answered with
    ``{"ok": true, "payload": ..., "worker": ...}`` (or ``"ok": false``
    plus an error).  ``port=0`` binds an ephemeral port; read
    :attr:`address` after construction.  A fault injector makes the
    server drop matching connections without replying — the remote
    analogue of a worker dying mid-shard.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_injector: Optional[WorkerFaultInjector] = None,
    ) -> None:
        self.fault_injector = fault_injector
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(0.2)
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        name = self._sock.getsockname()
        return (name[0], name[1])

    def serve(self, max_requests: Optional[int] = None) -> int:
        """Serve until closed (or ``max_requests`` answered)."""
        served = 0
        while not self._closed and (
            max_requests is None or served < max_requests
        ):
            try:
                conn, _peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                served += self._handle(conn)
        return served

    def serve_in_background(
        self, max_requests: Optional[int] = None
    ) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve, kwargs={"max_requests": max_requests},
            daemon=True,
        )
        thread.start()
        return thread

    def _handle(self, conn: socket.socket) -> int:
        stream = conn.makefile("rwb")
        line = stream.readline()
        if not line:
            return 0
        request = json.loads(line.decode("utf-8"))
        plan = ScenarioPlan.from_json(request["plan"])
        attempt = int(request.get("attempt", 0))
        if (
            self.fault_injector is not None
            and self.fault_injector.should_kill(plan.shard_id, attempt)
        ):
            # Drop the connection unanswered: to the client this is
            # indistinguishable from the worker host dying mid-shard.
            return 1
        try:
            response = {
                "ok": True,
                "payload": backends.execute_plan(plan),
                "worker": f"socket:{os.getpid()}",
            }
        except Exception as exc:  # report, don't kill the server
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        stream.write((json.dumps(response) + "\n").encode("utf-8"))
        stream.flush()
        return 1

    def close(self) -> None:
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ShardWorkerServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


Address = Tuple[str, int]


class SocketWorkerExecutor:
    """Dispatch shard attempts to :class:`ShardWorkerServer` workers.

    ``addresses`` is one ``(host, port)`` or a pool of them; attempts
    rotate through the pool by ``shard_id + attempt``, so a retry after
    a loss lands on a *different* worker when more than one exists —
    shard reassignment, deterministically.
    """

    name = "socket"

    def __init__(
        self,
        addresses: Union[Address, Sequence[Address]],
        timeout: float = 60.0,
    ) -> None:
        if (
            isinstance(addresses, tuple)
            and len(addresses) == 2
            and isinstance(addresses[0], str)
        ):
            addresses = [addresses]
        self.addresses: List[Address] = [
            (str(host), int(port)) for host, port in addresses
        ]
        if not self.addresses:
            raise ValueError("need at least one worker address")
        self.timeout = timeout

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        host, port = self.addresses[
            (plan.shard_id + attempt) % len(self.addresses)
        ]
        where = f"{host}:{port}"
        try:
            with socket.create_connection(
                (host, port), timeout=self.timeout
            ) as conn:
                stream = conn.makefile("rwb")
                request = {"plan": plan.to_json(), "attempt": attempt}
                stream.write((json.dumps(request) + "\n").encode("utf-8"))
                stream.flush()
                line = stream.readline()
        except OSError as exc:
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                f"unreachable ({exc})"
            )
        if not line:
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                "closed the connection mid-shard"
            )
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                f"failed: {response.get('error', 'unknown error')}"
            )
        return ShardResult(
            shard_id=plan.shard_id,
            payload=response["payload"],
            attempt=attempt,
            worker=response.get("worker", f"socket:{where}"),
        )
