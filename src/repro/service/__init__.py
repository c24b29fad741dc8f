"""Sweep-as-a-service: the long-running face of the sweep executor.

``repro serve`` wraps the cached, crash-contained
:class:`~repro.harness.executor.SweepExecutor` in a stdlib-only
asyncio HTTP server with the properties a shared deployment needs:
admission control with load shedding (429 + ``Retry-After``),
per-tenant fair-share scheduling, request deadlines with explicit
partial responses, in-flight dedup plus a hot LRU over the disk
cache, and a SIGTERM drain that checkpoints to the sweep journal for bit-identical
``--resume``. See ``docs/SERVICE.md``.
"""

from .admission import (AdmissionController, AdmissionLimits,
                        AdmissionRejected)
from .hotcache import HotCache, HotCacheStats
from .lifecycle import drain, resume_pending, serve
from .scheduler import FairShareScheduler, SpecJob
from .server import (PENDING_STATUS, RESUME_TENANT, SERVICE_JOURNAL,
                     BadRequest, ReproService, ServiceConfig)

__all__ = [
    "AdmissionController", "AdmissionLimits", "AdmissionRejected",
    "BadRequest", "FairShareScheduler", "HotCache",
    "HotCacheStats", "PENDING_STATUS", "RESUME_TENANT", "ReproService",
    "SERVICE_JOURNAL", "ServiceConfig", "SpecJob", "drain",
    "resume_pending", "serve",
]
