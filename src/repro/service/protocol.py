"""Wire protocol of the simulation service: JSON lines over local TCP.

Every message — request or response — is one JSON object encoded on one
UTF-8 line (``\\n``-terminated, at most :data:`MAX_LINE_BYTES` bytes).
Requests carry an ``"op"`` field; responses carry a ``"type"`` field.

Request ops
-----------

========== =============================================================
op          meaning
========== =============================================================
ping        liveness + protocol version (single ``pong`` response)
simulate    one (workload, config) point — sugar for a 1-point sweep
sweep       a (workloads × configs × sram × bandwidth) grid
points      an explicit list of sweep points (the gateway's fan-out
            unit: a consistent-hash partition of a grid is not itself
            a grid, so shards receive point lists)
tune        a co-design autotuning run (:func:`repro.tuner.tune`)
predict     analytic traffic prediction of one point (single response;
            never touches the pool or the queue — :mod:`repro.analytic`)
topology    fabric introspection: role (gateway/shard), shard table and
            health on a gateway, worker/store view on a shard
jobs        snapshot of the server's job table (single response)
stats       server / store / pool counters (single response)
metrics     live observability counters (protocol v5): queue depth and
            per-client lanes, dedup split (warm hits vs coalesced),
            windowed sims/s / points/s / analytic-evals/s rates, store
            hit rate; per-shard health and requeues on a gateway
cancel      stop a running sweep job by id (single response)
shutdown    acknowledge, then stop the server (single response)
========== =============================================================

Submission ops optionally carry a ``client`` id (tenant tag for fair
scheduling and request logs) and a ``priority`` (``interactive`` or
``bulk``); both are omitted from the wire when unset, so a default
submission stays byte-identical to protocol v4.  An overloaded server
answers a submission with a typed ``error`` carrying
``code="overloaded"`` and a ``retry_after_s`` backoff hint.

Protocol v6 adds two more optional submission fields, ``trace_id`` and
``span_id`` (see :mod:`repro.service.tracing`): the sender's span,
propagated client → gateway → shard so request-log records across the
fabric share one trace.  Like every optional tag before them they are
omitted when unset — untraced v5 traffic stays byte-identical on the
wire — and a traced ``accepted``/``done`` response echoes ``trace_id``
so clients can surface it.

Submission ops (``simulate``/``sweep``/``tune``) stream several
responses on the same connection: ``accepted`` → ``result`` per point
(sweeps) or ``tune-result`` (tunes) → ``done``; a failed job ends with
``error`` and a cancelled one with ``cancelled`` instead.  Every other
op gets exactly one response.  Responses to a submission never
interleave with other clients' — each connection only sees its own jobs.

The module is deliberately dependency-light: converting wire requests
into :class:`~repro.orchestrator.spec.SweepSpec` lives here so the
server and tests share one validation path, but no asyncio/socket code
does.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.configs import MAIN_CONFIGS, unknown_config_error
from ..hw.config import GB, MIB
from ..orchestrator.spec import SweepPoint, SweepSpec

#: Bump on any wire-visible change (ops, field names, framing).
#: v2 added the ``predict`` op; v3 the ``fidelity`` field on ``tune``
#: (v2 daemons silently ignore unknown fields, so clients must check the
#: ping version before relying on it); v4 the ``points`` and
#: ``topology`` ops plus the ``requeued`` field on sweep ``done``
#: messages — the sharded-fabric surface (a gateway requires shards of
#: its own protocol version); v5 the ``metrics`` op, optional
#: ``client``/``priority`` submission fields, and typed ``overloaded``
#: errors (``code`` + ``retry_after_s`` on ``error`` responses); v6
#: optional ``trace_id``/``span_id`` submission fields (distributed
#: tracing, forwarded by a gateway on every hop),
#: the ``latency`` histogram block on ``metrics`` responses, and
#: ``trace_id`` echoed on traced ``accepted``/``done`` messages.
PROTOCOL_VERSION = 6

#: ``code`` value of a typed load-shedding error (protocol v5).
ERROR_OVERLOADED = "overloaded"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Hard per-line bound (requests and responses); a line this long is a
#: protocol violation, not a big job — grids expand server-side.
MAX_LINE_BYTES = 1 << 20

#: Ops that stream multiple responses (job submissions).
SUBMIT_OPS = ("simulate", "sweep", "points", "tune")
#: Ops answered by exactly one response line.
QUERY_OPS = ("ping", "predict", "topology", "jobs", "stats", "metrics",
             "cancel", "shutdown")
KNOWN_OPS = SUBMIT_OPS + QUERY_OPS


class ProtocolError(ValueError):
    """A malformed or invalid wire message (bad frame, unknown op, bad
    field types, unknown config name, empty grid...)."""


def default_port() -> int:
    """``$REPRO_SERVICE_PORT`` when set, else :data:`DEFAULT_PORT`."""
    env = os.environ.get("REPRO_SERVICE_PORT")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_PORT


# -- framing -------------------------------------------------------------------


def encode_message(msg: Mapping[str, object]) -> bytes:
    """One message → one JSON line (the only frame the protocol has)."""
    payload = json.dumps(dict(msg), separators=(",", ":")) + "\n"
    data = payload.encode("utf-8")
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(f"message of {len(data)} bytes exceeds "
                            f"MAX_LINE_BYTES={MAX_LINE_BYTES}")
    return data


def decode_message(line: "bytes | str") -> Dict[str, object]:
    """One line → one message dict; raises :class:`ProtocolError` on a
    non-JSON or non-object line."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("line exceeds MAX_LINE_BYTES")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not UTF-8: {exc}") from exc
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("message must be a JSON object")
    return msg


def parse_request(line: "bytes | str") -> Dict[str, object]:
    """Decode a client line and check it names a known op."""
    msg = decode_message(line)
    op = msg.get("op")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; known: {', '.join(KNOWN_OPS)}")
    return msg


# -- request builders (client side) --------------------------------------------


def _submit_meta(req: Dict[str, object], client: Optional[str],
                 priority: Optional[str]) -> Dict[str, object]:
    """Attach the v5 tenant tags, wire-omitted when unset so a default
    submission stays byte-identical to what a v4 client sends."""
    if client is not None:
        req["client"] = str(client)
    if priority is not None:
        req["priority"] = str(priority)
    return req


def sweep_request(workloads: Sequence[str],
                  configs: Optional[Sequence[str]] = None,
                  sram_mb: Sequence[float] = (),
                  bandwidth_gb: Sequence[float] = (),
                  cache_granularity: Optional[int] = None,
                  client: Optional[str] = None,
                  priority: Optional[str] = None,
                  ) -> Dict[str, object]:
    req: Dict[str, object] = {"op": "sweep", "workloads": list(workloads)}
    if configs is not None:
        req["configs"] = list(configs)
    if sram_mb:
        req["sram_mb"] = [float(m) for m in sram_mb]
    if bandwidth_gb:
        req["bandwidth_gb"] = [float(g) for g in bandwidth_gb]
    if cache_granularity is not None:
        req["cache_granularity"] = int(cache_granularity)
    return _submit_meta(req, client, priority)


def tune_request(workload: str,
                 strategy: str = "grid",
                 budget: int = 32,
                 seed: int = 0,
                 objectives: Optional[Sequence[str]] = None,
                 sram_mb: Sequence[float] = (4.0,),
                 entries: Sequence[int] = (64,),
                 include_baselines: bool = False,
                 fidelity: str = "exact",
                 client: Optional[str] = None,
                 ) -> Dict[str, object]:
    req: Dict[str, object] = {
        "op": "tune",
        "workload": workload,
        "strategy": strategy,
        "budget": int(budget),
        "seed": int(seed),
        "sram_mb": [float(m) for m in sram_mb],
        "entries": [int(e) for e in entries],
        "include_baselines": bool(include_baselines),
    }
    if fidelity != "exact":
        # Only non-default fidelities go on the wire: an "exact" request
        # stays byte-identical to what a v2 client would send.
        req["fidelity"] = str(fidelity)
    if objectives is not None:
        req["objectives"] = list(objectives)
    return _submit_meta(req, client, None)


def points_request(points: Sequence[SweepPoint],
                   client: Optional[str] = None,
                   priority: Optional[str] = None) -> Dict[str, object]:
    """An explicit-point submission (protocol v4; the gateway's fan-out
    unit — shards receive the consistent-hash partition of a grid as a
    point list, in the exact per-shard stream order).  The gateway
    forwards the tenant's ``client``/``priority`` tags so shard-side
    fair scheduling sees the originating tenant, not the gateway."""
    req: Dict[str, object] = {"op": "points",
                              "points": [p.to_wire() for p in points]}
    return _submit_meta(req, client, priority)


def predict_request(workload: str, config: str,
                    sram_mb: float = 4.0,
                    bandwidth_gb: Optional[float] = None,
                    entries: Optional[int] = None) -> Dict[str, object]:
    req: Dict[str, object] = {
        "op": "predict",
        "workload": workload,
        "config": config,
        "sram_mb": float(sram_mb),
    }
    if bandwidth_gb is not None:
        req["bandwidth_gb"] = float(bandwidth_gb)
    if entries is not None:
        req["entries"] = int(entries)
    return req


# -- request validation (server side, shared with tests) -----------------------


def _str_list(req: Mapping[str, object], field: str,
              default: Sequence[str] = ()) -> List[str]:
    raw = req.get(field, list(default))
    if isinstance(raw, str):
        raw = [raw]
    if (not isinstance(raw, list)
            or any(not isinstance(x, str) for x in raw)):
        raise ProtocolError(f"{field!r} must be a string or list of strings")
    return [x for x in raw if x.strip()]


def _num_list(req: Mapping[str, object], field: str) -> List[float]:
    raw = req.get(field, [])
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw]
    if (not isinstance(raw, list)
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in raw)):
        raise ProtocolError(f"{field!r} must be a number or list of numbers")
    return [float(x) for x in raw]


def _int_field(req: Mapping[str, object], field: str, default: int) -> int:
    raw = req.get(field, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError(f"{field!r} must be an integer")
    return raw


def parse_submit_fields(req: Mapping[str, object]
                        ) -> "Tuple[Optional[str], Optional[str]]":
    """Validate the optional v5 tenant tags on a submission request;
    returns ``(client, priority)`` with ``None`` for absent fields.

    Older clients never send either field, so absence must stay cheap
    and error-free; presence with a wrong type or an unknown priority is
    a protocol error like any other malformed field.
    """
    client = req.get("client")
    if client is not None:
        if not isinstance(client, str) or not client.strip():
            raise ProtocolError("'client' must be a non-empty string")
        if len(client) > 128:
            raise ProtocolError("'client' must be at most 128 characters")
        client = client.strip()
    priority = req.get("priority")
    if priority is not None and priority not in (
            "interactive", "bulk"):
        raise ProtocolError(
            f"'priority' must be one of interactive/bulk, got {priority!r}")
    return client, priority


def parse_tune_fields(req: Mapping[str, object]) -> Dict[str, object]:
    """Type-validate a ``tune`` request's fields (same helpers the sweep
    path uses, so malformed wire types fail as clean protocol errors).

    Returns plain validated values; workload resolvability and strategy /
    objective names are checked by the server against their registries.
    """
    workload = req.get("workload")
    if not isinstance(workload, str) or not workload.strip():
        raise ProtocolError("'workload' must be a workload name")
    strategy = req.get("strategy", "grid")
    if not isinstance(strategy, str):
        raise ProtocolError("'strategy' must be a string")
    objectives = req.get("objectives")
    sram_mb = _num_list(req, "sram_mb") or [4.0]
    entries = _num_list(req, "entries") or [64.0]
    if any(e < 1 or int(e) != e for e in entries):
        raise ProtocolError("'entries' must be positive integers")
    fidelity = req.get("fidelity", "exact")
    if fidelity not in ("exact", "analytic", "hybrid"):
        raise ProtocolError(
            f"'fidelity' must be one of exact/analytic/hybrid, "
            f"got {fidelity!r}")
    return {
        "workload": workload,
        "strategy": strategy,
        "budget": _int_field(req, "budget", 32),
        "seed": _int_field(req, "seed", 0),
        "objectives": (_str_list(req, "objectives")
                       if objectives is not None else None),
        "sram_mb": sram_mb,
        "entries": [int(e) for e in entries],
        "include_baselines": bool(req.get("include_baselines", False)),
        "fidelity": str(fidelity),
    }


def parse_predict_fields(req: Mapping[str, object]) -> Dict[str, object]:
    """Type-validate a ``predict`` request's fields.

    Config names are validated here (static registry); workload
    resolvability and analytic-model support are the server's errors.
    """
    workload = req.get("workload")
    if not isinstance(workload, str) or not workload.strip():
        raise ProtocolError("'workload' must be a workload name")
    config = req.get("config")
    if not isinstance(config, str) or not config.strip():
        raise ProtocolError("'config' must be a configuration name")
    config_error = unknown_config_error([config])
    if config_error is not None:
        raise ProtocolError(config_error)
    sram = req.get("sram_mb", 4.0)
    if isinstance(sram, bool) or not isinstance(sram, (int, float)) or sram <= 0:
        raise ProtocolError("'sram_mb' must be a positive number")
    bandwidth = req.get("bandwidth_gb")
    if bandwidth is not None and (
            isinstance(bandwidth, bool)
            or not isinstance(bandwidth, (int, float)) or bandwidth <= 0):
        raise ProtocolError("'bandwidth_gb' must be a positive number")
    entries = req.get("entries")
    if entries is not None and (isinstance(entries, bool)
                                or not isinstance(entries, int)
                                or entries < 1):
        raise ProtocolError("'entries' must be a positive integer")
    return {
        "workload": workload,
        "config": config,
        "sram_bytes": int(float(sram) * MIB),
        "bandwidth_bytes_per_s": (None if bandwidth is None
                                  else float(bandwidth) * GB),
        "entries": entries,
    }


def request_to_points(req: Mapping[str, object]) -> "Tuple[SweepPoint, ...]":
    """Validate a ``points`` request into concrete :class:`SweepPoint`\\ s.

    Point order is preserved — the server streams results back in this
    order, which is what lets a gateway map shard-local result indexes
    back to its merged global stream.
    """
    raw = req.get("points")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "'points' must be a non-empty list of point objects")
    points = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ProtocolError(f"points[{i}] must be an object")
        try:
            points.append(SweepPoint.from_wire(entry))
        except ValueError as exc:
            raise ProtocolError(f"points[{i}]: {exc}") from exc
    config_error = unknown_config_error(sorted({p.config for p in points}))
    if config_error is not None:
        raise ProtocolError(config_error)
    return tuple(points)


def request_to_spec(req: Mapping[str, object]) -> SweepSpec:
    """Validate a ``simulate``/``sweep`` request into a :class:`SweepSpec`.

    Workload *names* are not resolved here (that needs the registry and
    produces a better server-side error listing); config names are,
    since :data:`~repro.baselines.configs` is cheap and static.
    """
    op = req.get("op")
    if op == "simulate":
        workload = req.get("workload")
        config = req.get("config")
        if not isinstance(workload, str) or not workload.strip():
            raise ProtocolError("'workload' must be a workload name")
        if not isinstance(config, str) or not config.strip():
            raise ProtocolError("'config' must be a configuration name")
        workloads, configs = [workload], [config]
    else:
        workloads = _str_list(req, "workloads")
        configs = _str_list(req, "configs", default=MAIN_CONFIGS)
        if not workloads:
            raise ProtocolError("'workloads' must name at least one workload")
        if not configs:
            raise ProtocolError("'configs' must name at least one config")
    config_error = unknown_config_error(configs)
    if config_error is not None:
        raise ProtocolError(config_error)
    granularity = req.get("cache_granularity")
    if granularity is not None and (isinstance(granularity, bool)
                                    or not isinstance(granularity, int)
                                    or granularity < 1):
        raise ProtocolError("'cache_granularity' must be a positive integer")
    try:
        return SweepSpec(
            workloads=tuple(workloads),
            configs=tuple(configs),
            sram_bytes=tuple(int(m * MIB)
                             for m in _num_list(req, "sram_mb")),
            bandwidths=tuple(g * GB for g in _num_list(req, "bandwidth_gb")),
            cache_granularity=granularity,
        )
    except ValueError as exc:
        raise ProtocolError(f"invalid sweep grid: {exc}") from exc
