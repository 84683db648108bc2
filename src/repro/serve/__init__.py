"""Sign-off-as-a-service: a fault-tolerant async serving layer.

The batch reproduction answers "rerun the experiment"; this package
answers "keep the timing state warm and serve queries against it" —
the deployment shape a sign-off engine actually has inside a physical
design flow (docs/SERVING.md):

* :mod:`repro.serve.jobs` — typed jobs (``whatif``/``signoff``/
  ``refine``/``train``), priorities, tickets;
* :mod:`repro.serve.state` — per-design warm state and the last-known
  answers behind graceful degradation;
* :mod:`repro.serve.admission` — bounded-queue admission control with
  ``retry_after`` hints;
* :mod:`repro.serve.service` — the supervised asyncio worker fleet:
  retries, quarantine, deadlines, checkpoint durability; every handler
  runs in the event loop's process on one warm cache;
* :mod:`repro.serve.batcher` — query fusion: concurrent whatif/signoff
  jobs per design coalesce into one scenario-batched dispatch;
* :mod:`repro.serve.chaos` — deterministic worker kills, queue delays
  and checkpoint corruption for the chaos tests;
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.cli` — seeded traffic
  and the ``python -m repro serve`` smoke driver.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.batcher import BatchConfig, QueryBatcher
from repro.serve.chaos import (
    ChaosMonkey,
    CorruptCheckpoint,
    DelayDispatch,
    KillWorker,
    WorkerKilled,
)
from repro.serve.jobs import (
    DEFAULT_PRIORITY,
    JOB_KINDS,
    Job,
    JobResult,
    JobTicket,
)
from repro.serve.loadgen import LoadReport, TrafficConfig, make_jobs, run_load
from repro.serve.service import (
    JobContext,
    ServiceStats,
    SignoffService,
    virtual_asleep,
)
from repro.serve.state import DesignWorkspace, WarmStateCache

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BatchConfig",
    "ChaosMonkey",
    "CorruptCheckpoint",
    "DEFAULT_PRIORITY",
    "DelayDispatch",
    "DesignWorkspace",
    "JOB_KINDS",
    "Job",
    "JobContext",
    "JobResult",
    "JobTicket",
    "KillWorker",
    "LoadReport",
    "QueryBatcher",
    "ServiceStats",
    "SignoffService",
    "TrafficConfig",
    "WarmStateCache",
    "WorkerKilled",
    "make_jobs",
    "run_load",
    "virtual_asleep",
]
