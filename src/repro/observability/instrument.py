"""Wiring the metrics registry and tracer into the serving stack.

Four pieces, deliberately kept out of :mod:`repro.http.app` so the REST
kernel stays observability-agnostic:

- :class:`ObservabilityMiddleware` — outermost middleware: opens the
  ``http.request`` span (joining an incoming ``X-Trace`` or starting a
  fresh trace) and maintains the request counter / latency histogram /
  in-flight gauge.  Deferred long-polls are handled precisely: the
  in-flight gauge drops when the connection parks, and the latency
  sample lands when the deferred response actually renders.
- :func:`mount_metrics` — the ``GET /metrics`` resource.
- :class:`RestHost` — the publishing base the container, the WMS and the
  gateway inherit: app, registry binding, TCP serving, the three pieces
  above, and the collectors every host has (trace buffer, TCP server).
- :func:`instrument_container` / :func:`instrument_wms` /
  :func:`instrument_gateway` — scrape-time collectors over the state only
  that host has (pool stats and job stores; workflows and runs; replica
  set, breakers, retry budget). Journal counters come from the host's
  state spine, and each registered plane contributes its own.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any

from repro.http.app import DeferredResponse, RestApp
from repro.http.eventloop import RestServer
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import (
    TRACE_HEADER,
    SpanContext,
    Tracer,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    reset_span_context,
    set_span_context,
)

__all__ = [
    "METRICS_CONTENT_TYPE",
    "ObservabilityMiddleware",
    "RestHost",
    "mount_metrics",
    "instrument_container",
    "instrument_gateway",
    "instrument_wms",
]

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObservabilityMiddleware:
    """Per-request metrics and trace-context activation.

    The request thread does the bare minimum: derive the trace position,
    flip the in-flight gauge, time the handler, and append one compact
    tuple to a bounded deque.  Turning those tuples into counter
    increments, histogram samples and tracer records happens lazily —
    when the registry is scraped or the tracer is read — so the submit
    hot path never pays aggregation locks (measured: deferral keeps the
    plane inside its <3% TCP submit-overhead budget; eager aggregation
    was 4x over).  A deque overflow silently drops the *oldest* pending
    samples; with the default headroom that only happens if nothing
    scrapes this process for tens of thousands of requests.
    """

    #: Pending raw samples held between scrapes.
    PENDING_LIMIT = 65536

    def __init__(self, metrics: "MetricsRegistry | None" = None,
                 tracer: "Tracer | None" = None):
        self.tracer = tracer
        self._pending: deque = deque(maxlen=self.PENDING_LIMIT)
        if metrics is not None:
            self.requests = metrics.counter(
                "mc_http_requests_total",
                "HTTP requests handled, by method and response status.",
                labels=("method", "status"),
            )
            self.latency = metrics.histogram(
                "mc_http_request_seconds",
                "Request handling latency in seconds, by method.",
                labels=("method",),
            )
            self.in_flight = metrics.gauge(
                "mc_http_requests_in_flight",
                "Requests currently in a handler (parked long-polls excluded).",
            )
            metrics.on_scrape(self._flush_pending)
        else:
            self.requests = self.latency = self.in_flight = None
        if tracer is not None:
            tracer.on_read(self._flush_pending)

    def _flush_pending(self) -> None:
        """Drain buffered samples into the families and the tracer."""
        pending = self._pending
        requests, latency, tracer = self.requests, self.latency, self.tracer
        while True:
            try:
                method, status, elapsed, path, trace_id, span_id, parent_id, start_wall = (
                    pending.popleft()
                )
            except IndexError:
                return
            if requests is not None:
                requests.labels(method, status).inc()
                latency.labels(method).observe(elapsed)
            if tracer is not None and trace_id is not None:
                tracer.record({
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "name": "http.request",
                    "start": start_wall,
                    "duration": elapsed,
                    "labels": {"method": method, "path": path},
                    "link": "child",
                    "component": tracer.name,
                })

    def _resumed_render(self, render, method: str, path: str, trace, start_wall: float,
                        start: float):
        def resumed() -> Response:
            response = render()
            self._pending.append((
                method, response.status, time.perf_counter() - start, path,
                trace[0], trace[1], trace[2], start_wall,
            ))
            return response

        return resumed

    def __call__(self, request: Request, call_next) -> Response:
        tracer = self.tracer
        token = None
        trace_id = span_id = parent_id = None
        if tracer is not None:
            parsed = parse_trace_header(request.headers.get(TRACE_HEADER))
            if parsed is not None:
                trace_id, parent_id = parsed
            else:
                trace_id = new_trace_id()
            request.context.setdefault("trace_id", trace_id)
            span_id = new_span_id()
            # the handler's ambient position: child spans and outbound
            # X-Trace headers parent under this request's span
            token = set_span_context(SpanContext(tracer, trace_id, span_id))
        method = request.method
        path = request.path
        in_flight = self.in_flight
        if in_flight is not None:
            in_flight.inc()
        pending = self._pending
        start_wall = time.time()
        start = time.perf_counter()
        try:
            response = call_next(request)
            pending.append((
                method, response.status, time.perf_counter() - start, path,
                trace_id, span_id, parent_id, start_wall,
            ))
            return response
        except DeferredResponse as deferred:
            # the connection parks: the latency sample lands when the
            # deferred render runs, off this thread
            deferred.render = self._resumed_render(
                deferred.render, method, path,
                (trace_id, span_id, parent_id), start_wall, start,
            )
            raise
        except HttpError as error:
            pending.append((
                method, error.status, time.perf_counter() - start, path,
                trace_id, span_id, parent_id, start_wall,
            ))
            raise
        except BaseException:
            # the app kernel converts anything unexpected into a 500
            pending.append((
                method, 500, time.perf_counter() - start, path,
                trace_id, span_id, parent_id, start_wall,
            ))
            raise
        finally:
            if in_flight is not None:
                in_flight.dec()
            if token is not None:
                reset_span_context(token)


def mount_metrics(app: RestApp, registry: MetricsRegistry) -> None:
    """Serve ``registry`` as ``GET /metrics`` in exposition format."""

    def metrics_handler(request: Request) -> Response:
        return Response.text(registry.render(), content_type=METRICS_CONTENT_TYPE)

    app.route("GET", "/metrics", metrics_handler)


class RestHost:
    """What every published component (container, WMS, gateway) is: a
    name, a transport registry, one :class:`RestApp` bound in process as
    ``local://<name>`` and optionally served over TCP, with the
    observability plane (metrics registry, tracer, request middleware,
    ``GET /metrics``) on unless switched off."""

    def __init__(self, name: str, registry: "TransportRegistry | None", observability: bool):
        self.name = name
        self.registry = registry or TransportRegistry()
        self.app = RestApp(name)
        # observability is on by default (a production host is blind
        # without it); the kill switch exists for overhead benchmarks and
        # minimal embeddings
        self.metrics: "MetricsRegistry | None" = None
        self.tracer: "Tracer | None" = None
        self._server: "RestServer | None" = None
        if observability:
            self.metrics = MetricsRegistry(name)
            self.tracer = Tracer(name)
            self.app.add_middleware(ObservabilityMiddleware(self.metrics, self.tracer))
            mount_metrics(self.app, self.metrics)
            _instrument_host(self)
        self.local_base = self.registry.bind_local(name, self.app)

    @property
    def base_uri(self) -> str:
        """The advertised URI prefix (http when served, local otherwise)."""
        return self._server.base_url if self._server is not None else self.local_base

    def service_uri(self, name: str) -> str:
        return f"{self.base_uri}/services/{name}"

    def serve(self, host: str = "127.0.0.1", port: int = 0, **server_options: object) -> RestServer:
        """Expose the app over TCP; returns the running server. Extra
        keyword arguments (``idle_timeout``, ``max_body_bytes``,
        ``handler_threads``, …) are forwarded to :class:`RestServer`."""
        if self._server is not None:
            raise RuntimeError(f"{self.name} is already serving")
        self._server = RestServer(self.app, host=host, port=port, **server_options).start()
        return self._server

    def _unpublish(self) -> None:
        """Stop serving over TCP and drop the in-process binding."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        self.registry.unbind_local(self.name)


def _instrument_host(host: RestHost) -> None:
    """The collectors every host has: trace buffer and TCP server."""
    metrics, tracer = host.metrics, host.tracer
    metrics.collector(
        "mc_trace_spans_recorded_total", "Trace spans accepted into the buffer.",
        "counter", lambda: tracer.spans_recorded)
    metrics.collector(
        "mc_trace_spans_dropped_total", "Trace spans dropped by buffer bounds.",
        "counter", lambda: tracer.spans_dropped)
    metrics.collector(
        "mc_trace_spans_buffered", "Trace spans currently buffered.",
        "gauge", lambda: tracer.buffered_spans)

    def server_stat(attribute):
        # reads 0 until (and after) the host serves over TCP
        return lambda: getattr(host._server, attribute, 0) or 0

    metrics.collector("mc_server_connections_accepted_total",
                      "TCP connections accepted by the server.",
                      "counter", server_stat("connections_accepted"))
    metrics.collector("mc_server_connections_timed_out_total",
                      "Idle TCP connections reaped by the keep-alive timeout.",
                      "counter", server_stat("connections_timed_out"))
    metrics.collector("mc_server_open_connections",
                      "TCP connections currently open.",
                      "gauge", server_stat("open_connections"))
    metrics.collector("mc_server_timer_entries",
                      "Entries scheduled on the event-loop timer wheel.",
                      "gauge", server_stat("timer_entries"))


def _jobs_by_state(stores) -> list[tuple[tuple[str], int]]:
    tally: dict[str, int] = {}
    for store in stores:
        for job in store.jobs.list():
            state = job.state.value
            tally[state] = tally.get(state, 0) + 1
    return [((state,), count) for state, count in sorted(tally.items())]


def instrument_container(container: Any) -> None:
    """Register scrape-time collectors over a ServiceContainer's own state
    (its registered planes contribute theirs through the state spine)."""
    metrics: MetricsRegistry = container.metrics
    manager = container.job_manager

    metrics.collector(
        "mc_pool_queued", "Handler-pool tasks waiting for a thread.",
        "gauge", lambda: manager.stats.queued)
    metrics.collector(
        "mc_pool_running", "Handler-pool tasks currently executing.",
        "gauge", lambda: manager.stats.running)
    metrics.collector(
        "mc_pool_completed_total", "Handler-pool tasks finished successfully.",
        "counter", lambda: manager.stats.completed)
    metrics.collector(
        "mc_pool_failed_total", "Handler-pool tasks that raised.",
        "counter", lambda: manager.stats.failed)
    metrics.collector(
        "mc_services_deployed", "Services currently deployed in this container.",
        "gauge", lambda: len(container.services))
    metrics.collector(
        "mc_jobs", "Jobs held by deployed services, by lifecycle state.",
        "gauge", lambda: _jobs_by_state(container.services), labels=("state",))


def instrument_wms(wms: Any) -> None:
    """Register scrape-time collectors over a WorkflowManagementService."""
    metrics: MetricsRegistry = wms.metrics
    metrics.collector(
        "mc_workflows_deployed", "Workflows currently deployed as composite services.",
        "gauge", lambda: len(wms.workflows))
    metrics.collector(
        "mc_jobs", "Workflow runs held by composite services, by lifecycle state.",
        "gauge", lambda: _jobs_by_state(wms.composites()), labels=("state",))


def instrument_gateway(gateway: Any) -> None:
    """Register scrape-time collectors over a ServiceGateway's state."""
    # imported here: repro.gateway imports this module
    from repro.gateway.breaker import BreakerState

    metrics: MetricsRegistry = gateway.metrics
    breaker_codes = {
        BreakerState.CLOSED.value: 0,
        BreakerState.OPEN.value: 1,
        BreakerState.HALF_OPEN.value: 2,
    }

    def replicas_by_state():
        tally: dict[str, int] = {}
        for entry in gateway.replicas.snapshot():
            state = entry["state"]
            tally[state] = tally.get(state, 0) + 1
        return [((state,), count) for state, count in sorted(tally.items())]

    def replica_in_flight():
        return [((entry["id"],), entry["in_flight"])
                for entry in gateway.replicas.snapshot()]

    def breaker_states():
        return [
            ((entry["id"],), breaker_codes[entry["breaker"]])
            for entry in gateway.replicas.snapshot()
        ]

    def cache_outcomes():
        return [((outcome,), count)
                for outcome, count in sorted(gateway.cache_stats.items())]

    def data_home_outcomes():
        return [((outcome,), count)
                for outcome, count in sorted(gateway.data_home_stats.items())]

    metrics.collector(
        "mc_gateway_replicas", "Replicas behind this gateway, by health state.",
        "gauge", replicas_by_state, labels=("state",))
    metrics.collector(
        "mc_gateway_replica_in_flight", "Requests in flight to each replica.",
        "gauge", replica_in_flight, labels=("replica",))
    def replica_draining():
        return [((entry["id"],), 1 if entry.get("draining") else 0)
                for entry in gateway.replicas.snapshot()]

    metrics.collector(
        "mc_gateway_breaker_state",
        "Per-replica circuit breaker state (0=closed, 1=open, 2=half-open).",
        "gauge", breaker_states, labels=("replica",))
    metrics.collector(
        "mc_gateway_replica_draining",
        "Whether each replica is draining for retirement (1=draining).",
        "gauge", replica_draining, labels=("replica",))
    metrics.collector(
        "mc_gateway_handoff_entries",
        "Retired-replica redirects the gateway still resolves.",
        "gauge", lambda: len(getattr(gateway, "handoffs", ())))
    metrics.collector(
        "mc_gateway_retry_budget", "Retry-budget tokens available.",
        "gauge", lambda: gateway.retry_budget.balance)
    metrics.collector(
        "mc_gateway_idempotency_entries", "Cached idempotent submit responses.",
        "gauge", lambda: len(gateway.idempotency))
    metrics.collector(
        "mc_gateway_cache_outcomes_total",
        "Replica result-cache outcomes observed on forwarded submits.",
        "counter", cache_outcomes, labels=("outcome",))
    metrics.collector(
        "mc_gateway_data_home_total",
        "Submits referencing gateway-advertised blobs: taken by the replica "
        "holding the bytes (home) or by another, which stages them (fallback).",
        "counter", data_home_outcomes, labels=("outcome",))
