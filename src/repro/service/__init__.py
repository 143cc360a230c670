"""Simulation-as-a-service: a resident daemon over the warm result store.

Every ``repro`` CLI entry point is a one-shot process that pays pool
spawn and store load per invocation.  This package turns the repro into
a long-lived server instead:

* :class:`~repro.service.server.SimulationService` — asyncio daemon
  holding one persistent :class:`~repro.orchestrator.store.ResultStore`
  and one pre-warmed orchestrator pool, with single-flight dedup of
  concurrent identical points, cross-client batching, streamed progress,
  cancellation and bounded-queue backpressure;
* :class:`~repro.service.gateway.GatewayService` — the sharded-fabric
  gateway (``repro gateway``): consistent-hash routing of sweep points
  across N daemons, merged byte-identical result streams, shard health
  checks with requeue-on-death;
* :mod:`~repro.service.endpoint` — the endpoint core both roles share:
  listener lifecycle, connection loop, op table, logging and framing;
* :mod:`~repro.service.hashing` — the consistent-hash ring the gateway
  routes on;
* :mod:`~repro.service.protocol` — the JSON-lines wire protocol;
* :class:`~repro.service.client.ServiceClient` — blocking client used by
  ``repro submit`` / ``repro jobs`` (a gateway and a lone daemon are
  indistinguishable to it);
* :mod:`~repro.service.jobs` — job lifecycle records;
* :mod:`~repro.service.tracing` — trace/span ids propagated through
  every fabric hop (protocol v6) and stamped into request logs;
* :mod:`~repro.service.metrics` — rate meters and log-bucketed latency
  histograms behind the ``metrics`` op;
* :mod:`~repro.service.promexport` — Prometheus text-format rendering
  of the metrics snapshot, served by ``--prom-port``.

Quickstart::

    $ python -m repro serve --port 8642 &
    $ python -m repro submit --workloads 'cg/*' --configs Flexagon,CELLO
    $ python -m repro submit --workloads 'cg/*' --configs Flexagon,CELLO
      # warm resubmit: "simulations: 0"
    $ python -m repro jobs --shutdown

See ``docs/service.md`` for the full protocol and operations guide.
"""

from .client import (
    JobFailed,
    Overloaded,
    PointResult,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    SweepOutcome,
)
from .gateway import GatewayService, ShardState, parse_shard_addrs
from .hashing import DEFAULT_REPLICAS, EmptyRing, HashRing, stable_hash
from .jobs import Job, JobRegistry, JobState, workload_family
from .metrics import DEFAULT_BUCKETS, Histogram, HistogramFamily, RateMeter
from .promexport import PROM_CONTENT_TYPE, PromExporter, render_prometheus
from .protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ERROR_OVERLOADED,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    default_port,
)
from .reqlog import RequestLog
from .scheduling import FairQueue, classify_priority
from .server import SimulationService
from .tracing import SpanContext, attach_trace, parse_trace_fields

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_REPLICAS",
    "ERROR_OVERLOADED",
    "EmptyRing",
    "FairQueue",
    "GatewayService",
    "HashRing",
    "Histogram",
    "HistogramFamily",
    "Job",
    "JobFailed",
    "JobRegistry",
    "JobState",
    "MAX_LINE_BYTES",
    "Overloaded",
    "PROM_CONTENT_TYPE",
    "PROTOCOL_VERSION",
    "PointResult",
    "PromExporter",
    "ProtocolError",
    "RateMeter",
    "RequestLog",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ShardState",
    "SimulationService",
    "SpanContext",
    "SweepOutcome",
    "attach_trace",
    "classify_priority",
    "default_port",
    "parse_shard_addrs",
    "parse_trace_fields",
    "render_prometheus",
    "stable_hash",
    "workload_family",
]
