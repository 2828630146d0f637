"""Campaign layer: one public API over every way to run a campaign.

The paper's industry-as-laboratory premise (Sect. 3) is that runtime
awareness must hold up under production-scale workloads.  This package
is the API seam that makes scale pluggable:

* :mod:`repro.campaign.core`        — :class:`Campaign` (the scenario ×
  seed plan) and :func:`execute_cell`, THE orchestration path every
  cell flows through (plus :func:`run_cell` / :func:`run_cell_detailed`,
  the one-off surfaces);
* :mod:`repro.campaign.backends`    — :class:`ExecutorBackend`, the one
  backend (bounded retry, concurrent dispatch) over the shard-executor
  seam: :class:`InlineExecutor` (in-process) and
  :class:`ProcessWorkerExecutor` (one heartbeating worker process per
  shard attempt, loss detected and retried), plus the
  :class:`SerialBackend` and :class:`ProcessShardBackend` presets and
  :func:`execute_plan`, the primitive every executor runs;
* :mod:`repro.campaign.distributed` — :class:`SocketWorkerExecutor` and
  :class:`ShardWorkerServer`, shard workers on other hosts;
* :mod:`repro.campaign.checkpoint`  — shard-durable progress in the
  :mod:`repro.obs.history` store and :func:`resume_campaign`;
* :mod:`repro.campaign.report`      — :class:`CampaignReport`, the
  merged result schema with the backend-invariant
  ``telemetry_digest``.

``python -m repro.campaign`` is the CLI (run / resume / status / list /
worker); see docs/CAMPAIGNS.md and docs/DISTRIBUTED.md.
"""

from .backends import (
    ExecutorBackend,
    InlineExecutor,
    ProcessShardBackend,
    ProcessWorkerExecutor,
    SerialBackend,
    ShardExhaustedError,
    ShardResult,
    WorkerFaultInjector,
    WorkerLostError,
    derive_shard_seed,
    execute_plan,
    resolve_shards,
)
from .checkpoint import (
    CampaignCheckpoint,
    CellHandle,
    new_campaign_id,
    resume_campaign,
)
from .core import (
    Campaign,
    CellExecution,
    ScenarioLike,
    execute_cell,
    run_cell,
    run_cell_detailed,
)
from .distributed import ShardWorkerServer, SocketWorkerExecutor
from .report import (
    CAMPAIGN_TABLE_HEADER,
    CampaignReport,
    format_campaign_table,
    merge_shard_results,
)

__all__ = [
    "CAMPAIGN_TABLE_HEADER",
    "Campaign",
    "CampaignCheckpoint",
    "CampaignReport",
    "CellExecution",
    "CellHandle",
    "ExecutorBackend",
    "InlineExecutor",
    "ProcessShardBackend",
    "ProcessWorkerExecutor",
    "ScenarioLike",
    "SerialBackend",
    "ShardExhaustedError",
    "ShardResult",
    "ShardWorkerServer",
    "SocketWorkerExecutor",
    "WorkerFaultInjector",
    "WorkerLostError",
    "derive_shard_seed",
    "execute_cell",
    "execute_plan",
    "format_campaign_table",
    "merge_shard_results",
    "new_campaign_id",
    "resolve_shards",
    "resume_campaign",
    "run_cell",
    "run_cell_detailed",
]
