"""Prometheus text-exposition exporter for the service metrics.

Two consumers, one renderer: ``repro serve/gateway --prom-port N``
starts :class:`PromExporter` — a stdlib :mod:`http.server` thread
answering ``GET /metrics`` — and ``repro metrics --prom`` prints the
same rendering once over the wire protocol, for scrape-less use (piping
into ``promtool check metrics``, ad-hoc diffing, airgapped boxes).

:func:`render_prometheus` maps the ``metrics`` op response of either
role (shard or gateway, built by
:meth:`~repro.service.endpoint.Endpoint._metrics_msg`) to text format 0.0.4:
every sample preceded by ``# HELP``/``# TYPE``, counters suffixed
``_total``, histograms emitted as cumulative ``_bucket{le=...}`` series
plus ``_sum``/``_count``, per-shard health as labelled gauges.  The
inventory is documented in docs/service.md §Tracing and Prometheus.

The exporter renders from a snapshot *callable* so the HTTP thread
never touches event-loop state directly — the services hand it a
``run_coroutine_threadsafe`` bridge onto their own loop.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import Histogram

#: Content type of the Prometheus text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: object) -> str:
    """A sample value: integers stay integral, floats use the shortest
    round-tripping form (what ``repr`` gives on Python 3)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


class _TextBuilder:
    """Accumulates one exposition document, enforcing the one-TYPE-per-
    family discipline the format (and ``promtool``) requires."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, mtype: str, help_text: str,
               samples: Sequence[Tuple[Mapping[str, str], object]],
               suffix: str = "") -> None:
        if not samples:
            return
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            self.sample(name + suffix, labels, value)

    def sample(self, series: str, labels: Mapping[str, str],
               value: object) -> None:
        if labels:
            body = ",".join(f'{k}="{_escape(str(v))}"'
                            for k, v in labels.items())
            self._lines.append(f"{series}{{{body}}} {_fmt(value)}")
        else:
            self._lines.append(f"{series} {_fmt(value)}")

    def histogram(self, name: str, help_text: str,
                  series: Sequence[Tuple[Mapping[str, str], Histogram]],
                  ) -> None:
        """Emit one histogram family: cumulative ``_bucket`` counts per
        ``le`` bound (ending at ``+Inf``), then ``_sum`` and ``_count``."""
        if not series:
            return
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} histogram")
        for labels, hist in series:
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                self.sample(name + "_bucket",
                            {**labels, "le": _fmt(bound)}, cumulative)
            self.sample(name + "_bucket", {**labels, "le": "+Inf"},
                        hist.count)
            self.sample(name + "_sum", labels, hist.sum)
            self.sample(name + "_count", labels, hist.count)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _histogram_series(snapshot: Mapping[str, object]
                      ) -> List[Tuple[Dict[str, str], Histogram]]:
    """Decode a :class:`~repro.service.metrics.HistogramFamily` wire
    snapshot into (labels, histogram) pairs for the exposition."""
    label_names = [str(n) for n in snapshot.get("labels", ())]  # type: ignore[arg-type]
    out: List[Tuple[Dict[str, str], Histogram]] = []
    series: Mapping[str, Mapping[str, object]] = \
        snapshot.get("series", {})  # type: ignore[assignment]
    for key, data in series.items():
        values = key.split("|")
        if len(values) != len(label_names):
            continue  # malformed entry; skip rather than lie
        out.append((dict(zip(label_names, values)),
                    Histogram.from_snapshot(data)))
    return out


def render_prometheus(msg: Mapping[str, object]) -> str:
    """Render a ``metrics`` op response (either role) as exposition text."""
    role = str(msg.get("role", "shard"))
    b = _TextBuilder()
    b.family("repro_role_info", "gauge",
             "Static identity of the scraped endpoint.",
             [({"role": role, "server": str(msg.get("server", ""))}, 1)])
    b.family("repro_protocol_version", "gauge",
             "Wire protocol version this endpoint speaks.",
             [({}, int(msg.get("protocol", 0)))])  # type: ignore[arg-type]
    b.family("repro_uptime_seconds", "gauge",
             "Seconds since this endpoint started serving.",
             [({}, float(msg.get("uptime_s", 0.0)))])  # type: ignore[arg-type]
    b.family("repro_points_streamed_total", "counter",
             "Sweep points streamed back to clients.",
             [({}, int(msg.get("points_streamed", 0)))])  # type: ignore[arg-type]

    jobs: Mapping[str, object] = msg.get("jobs", {})  # type: ignore[assignment]
    b.family("repro_jobs", "gauge",
             "Jobs in the registry by lifecycle state.",
             [({"state": state}, int(count))  # type: ignore[arg-type]
              for state, count in sorted(jobs.items())])

    rates: Mapping[str, object] = msg.get("rates", {})  # type: ignore[assignment]
    rate_help = {
        "sims_per_s": "Simulations per second over the sliding window.",
        "points_per_s": "Points streamed per second over the sliding "
                        "window.",
        "analytic_evals_per_s": "Analytic model evaluations per second "
                                "over the sliding window.",
    }
    for key, help_text in rate_help.items():
        if key in rates:
            b.family(f"repro_{key.replace('_per_s', '')}_per_second",
                     "gauge", help_text,
                     [({}, float(rates[key]))])  # type: ignore[arg-type]
    if "window_s" in rates:
        b.family("repro_rate_window_seconds", "gauge",
                 "Sliding window the per-second rates average over.",
                 [({}, float(rates["window_s"]))])  # type: ignore[arg-type]

    if role == "shard":
        b.family("repro_simulations_total", "counter",
                 "Simulations executed since process start.",
                 [({}, int(msg.get("simulations", 0)))])  # type: ignore[arg-type]
        b.family("repro_warm_hits_total", "counter",
                 "Distinct traffic keys answered from the warm store.",
                 [({}, int(msg.get("hits_total", 0)))])  # type: ignore[arg-type]
        b.family("repro_coalesced_total", "counter",
                 "Distinct traffic keys coalesced onto in-flight "
                 "simulations.",
                 [({}, int(msg.get("coalesced_total", 0)))])  # type: ignore[arg-type]
        b.family("repro_shed_total", "counter",
                 "Submissions refused with a typed overloaded error.",
                 [({}, int(msg.get("shed_total", 0)))])  # type: ignore[arg-type]
        b.family("repro_queue_depth", "gauge",
                 "Points waiting in the fair queue.",
                 [({}, int(msg.get("queue_depth", 0)))])  # type: ignore[arg-type]
        b.family("repro_queue_max_pending", "gauge",
                 "Bounded queue capacity (--max-pending).",
                 [({}, int(msg.get("max_pending", 0)))])  # type: ignore[arg-type]
        b.family("repro_in_flight", "gauge",
                 "Traffic keys with a simulation queued or running.",
                 [({}, int(msg.get("in_flight", 0)))])  # type: ignore[arg-type]
        lanes: Mapping[str, object] = \
            msg.get("queue_clients", {})  # type: ignore[assignment]
        b.family("repro_queue_client_depth", "gauge",
                 "Queued points per tenant lane.",
                 [({"client": client}, int(depth))  # type: ignore[arg-type]
                  for client, depth in sorted(lanes.items())])
        store: Optional[Mapping[str, object]] = \
            msg.get("store")  # type: ignore[assignment]
        if store:
            b.family("repro_store_entries", "gauge",
                     "Records resident in the persistent result store.",
                     [({}, int(store.get("entries", 0)))])  # type: ignore[arg-type]
            b.family("repro_store_hits_total", "counter",
                     "Store lookups answered from disk.",
                     [({}, int(store.get("hits", 0)))])  # type: ignore[arg-type]
            b.family("repro_store_misses_total", "counter",
                     "Store lookups that missed.",
                     [({}, int(store.get("misses", 0)))])  # type: ignore[arg-type]
            b.family("repro_store_hit_rate", "gauge",
                     "hits / (hits + misses) since process start.",
                     [({}, float(store.get("hit_rate", 0.0)))])  # type: ignore[arg-type]
            b.family("repro_store_corrupt_lines_total", "counter",
                     "Corrupt store lines skipped on reload.",
                     [({}, int(store.get("corrupt", 0)))])  # type: ignore[arg-type]
    else:  # gateway
        b.family("repro_requeued_points_total", "counter",
                 "Points re-hashed off dead shards onto survivors.",
                 [({}, int(msg.get("requeued_total", 0)))])  # type: ignore[arg-type]
        b.family("repro_shards_healthy", "gauge",
                 "Shards currently passing health checks.",
                 [({}, int(msg.get("shards_healthy", 0)))])  # type: ignore[arg-type]
        b.family("repro_shards_total", "gauge",
                 "Shards configured behind this gateway.",
                 [({}, int(msg.get("shards_total", 0)))])  # type: ignore[arg-type]
        shards: Sequence[Mapping[str, object]] = \
            msg.get("shards", ())  # type: ignore[assignment]
        b.family("repro_shard_healthy", "gauge",
                 "Per-shard health (1 healthy, 0 down).",
                 [({"shard": str(s.get("id"))}, bool(s.get("healthy")))
                  for s in shards])
        b.family("repro_shard_deaths_total", "counter",
                 "Times each shard failed mid-job or went unreachable.",
                 [({"shard": str(s.get("id"))}, int(s.get("deaths", 0)))  # type: ignore[arg-type]
                  for s in shards])
        b.family("repro_shard_requeued_total", "counter",
                 "Points re-hashed off each shard across its deaths.",
                 [({"shard": str(s.get("id"))}, int(s.get("requeued", 0)))  # type: ignore[arg-type]
                  for s in shards])

    latency: Mapping[str, object] = \
        msg.get("latency", {})  # type: ignore[assignment]
    b.histogram("repro_request_duration_seconds",
                "Request duration by op, workload family and priority.",
                _histogram_series(latency))
    phases: Mapping[str, object] = \
        msg.get("phases", {})  # type: ignore[assignment]
    b.histogram("repro_phase_duration_seconds",
                "Per-point engine phase timings (--phase-profile).",
                _histogram_series(phases))
    return b.render()


class PromExporter:
    """Serves ``GET /metrics`` from a daemon thread.

    ``snapshot_fn`` must be thread-safe: it is invoked on HTTP handler
    threads.  The services pass a bridge that hops onto their event
    loop, so handler threads never read loop-owned state directly.
    """

    def __init__(self, snapshot_fn: Callable[[], Mapping[str, object]],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._snapshot_fn = snapshot_fn
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        snapshot_fn = self._snapshot_fn

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?")[0] not in ("/metrics", "/"):
                    self.send_error(404, "scrape /metrics")
                    return
                try:
                    body = render_prometheus(snapshot_fn()).encode("utf-8")
                except Exception as exc:  # snapshot raced a shutdown
                    self.send_error(503, f"metrics unavailable: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", PROM_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes are not operator-facing log events

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="prom-exporter", daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
