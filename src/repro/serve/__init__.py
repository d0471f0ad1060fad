"""``repro serve`` — a multi-tenant simulation service over ``repro.api``.

One process serves every figure of the paper's evaluation over
HTTP/JSON (stdlib only — ``asyncio`` + hand-rolled HTTP/1.1, no third
party dependencies).  Incoming requests are validated against the
``repro.api`` façade's command surface, canonicalised into a request
key, **coalesced** (concurrent identical requests share a single
computation) and queued into a bounded worker pool that executes them
through one shared :class:`~repro.engine.core.ExperimentEngine` — so
N tenants asking for the same figure pay for it once, and everything
they don't share still flows through the two-tier result store
(memory LRU → disk, ``docs/engine.md``).

``GET /healthz`` answers liveness; ``GET /statsz`` surfaces the serve
counters (requests/coalesced/simulations/errors) next to both stores'
per-tier telemetry — the same counters the engine folds into its JSONL
run summaries.  See ``docs/serve.md`` for the wire protocol.
"""

from .http import ReproServer, ServerThread, ShutdownLeak
from .service import (
    COMMANDS,
    DeadlineExceeded,
    RequestError,
    ServeCounters,
    Shed,
    SimulationService,
    TenantCounters,
    request_key,
)

__all__ = [
    "COMMANDS",
    "DeadlineExceeded",
    "ReproServer",
    "RequestError",
    "ServeCounters",
    "ServerThread",
    "Shed",
    "ShutdownLeak",
    "SimulationService",
    "TenantCounters",
    "request_key",
]
