"""Timing shims around the platform's public callables, and span arithmetic.

The traced run wraps the callables listed in :func:`install` *before* the
stack is built, keeps one tuple per call in memory and folds them into
per-layer numbers when the run ends. Nothing in ``src/`` is edited: a shim
is an attribute swap that :func:`install`'s return value undoes.

A span's **self time** is its duration minus the part of that interval its
child spans cover (overlapping children are not counted twice). Children
are found two ways: by the thread-local stack of open spans, and — for a
request one app forwards to another in this process — by adopting the
downstream app's root spans under the forwarding span that carries the
same ``X-Request-Id`` and encloses them in time.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Iterable, NamedTuple

from benchmarks.perf.workloads import SUBMIT_RID_SUFFIX

RID_HEADER = "X-Request-Id"


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 = none
    rid: "str | None"  # X-Request-Id (or trace id) the work belongs to
    size: int  # bytes moved, where the call moves bytes


#: Root spans of one HTTP request inside an app server, in wire order.
REQUEST_ROOTS = ("http.parse", "http.handler_wait", "http.app", "http.serialize")
#: Spans that forward a request to another app and can adopt its roots.
FORWARDS = ("gateway.forward", "workflow.request", "transport.request")


class Tracer:
    """In-memory span sink with a thread-local stack of open spans."""

    def __init__(self) -> None:
        #: Plain tuples in :class:`Span` field order (cheaper to build on the
        #: hot path than the named form, which :func:`summarize` applies).
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(router) -> span name for that app's handler time.
        self.handler_names: dict[int, str] = {}
        #: job id -> when it was enqueued / offered, for the queue-wait spans.
        self.enqueued: dict[str, int] = {}
        self.offered: dict[str, int] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def record(self, name: str, start: int, end: int, rid: "str | None" = None, size: int = 0) -> None:
        """A span with no thread-local position (a wait between threads)."""
        self.spans.append((next(self._ids), name, start, end, 0, rid, size))

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[[tuple, list], str]",
        rid: "Callable[[tuple, Any], str | None] | None" = None,
        size: "Callable[[tuple, Any], int] | None" = None,
    ) -> Callable:
        """``fn`` timed as one span per call.

        ``name`` may be computed from ``(args, open-span stack)``; ``rid``
        and ``size`` from ``(args, result)``. Without ``rid`` the span takes
        the platform's ambient request id.
        """
        from repro.runtime.context import current_request_id

        spans, ids, stack_of = self.spans, self._ids, self._stack
        fixed_name = name if isinstance(name, str) else None

        def shim(*args, **kwargs):
            stack = stack_of()
            span_name = fixed_name or name(args, stack)
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, span_name))
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((
                    span_id, span_name, start, end, parent,
                    rid(args, result) if rid else current_request_id(),
                    size(args, result) if size else 0,
                ))

        shim.__wrapped__ = fn
        return shim

    def wrap_iterator(self, fn: Callable, name: str) -> Callable:
        """``fn`` returns an iterator; each ``next()`` is one span sized by
        the chunk it yields (the consumer's time between chunks is not the
        producer's)."""
        step = self.wrap(next, name, size=lambda args, chunk: len(chunk or b""))

        def shim(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    try:
                        yield step(iterator)
                    except StopIteration:
                        return

            return timed()

        shim.__wrapped__ = fn
        return shim


def _request_rid(args: tuple, _result: Any) -> "str | None":
    request = args[1]
    return request.context.get("request_id") or request.headers.get(RID_HEADER)


def install(tracer: Tracer) -> Callable[[], None]:
    """Swap the shims in; returns the callable that restores the originals."""
    from repro.blob import staging, store as blob_store
    from repro.cache import fingerprint, store as cache_store
    from repro.container import jobmanager, service
    from repro.container.adapters import base as adapter_base, python_adapter
    from repro.core import api, description, jobs
    from repro.durability import journal
    from repro.gateway import balancer, gateway, idempotency
    from repro.http import app, eventloop, messages, registry, router
    from repro.observability import instrument
    from repro.runtime import pool
    from repro.runtime.trace import current_span_context, parse_trace_header
    from repro.tenancy import admission, gate, registry as tenant_registry
    from repro.workflow import engine, wms

    originals: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Callable) -> None:
        originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def shim(owner: Any, attribute: str, name, **how) -> None:
        patch(owner, attribute, tracer.wrap(getattr(owner, attribute), name, **how))

    # ---- http
    shim(messages.RequestParser, "feed", "http.parse",
         rid=lambda args, parsed: parsed[0][0].headers.get(RID_HEADER) if parsed else None,
         size=lambda args, parsed: len(args[1]))
    shim(router.Router, "resolve", "http.route")
    shim(router.Router, "dispatch",
         lambda args, stack: tracer.handler_names.get(id(args[0]), "core.handler"))
    # the event loop imported the function by name: patch the name it calls
    shim(eventloop, "serialize_response", "http.serialize",
         rid=lambda args, payload: args[0].headers.get(RID_HEADER),
         size=lambda args, payload: len(payload or b""))
    shim(app.RestApp, "handle", "http.app", rid=_request_rid)

    # ---- runtime: the submit call itself and, for an HTTP server's handler
    # pool, the wait until a worker starts on the request
    pool_submit = pool.ExecutorPool.submit

    def submit_and_time_wait(self, fn, *args, **kwargs):
        if not self.name.startswith("http-"):
            return pool_submit(self, fn, *args, **kwargs)
        queued = perf_counter_ns()
        request = next((a for a in args if isinstance(a, messages.Request)), None)

        def started(*a, **k):
            tracer.record("http.handler_wait", queued, perf_counter_ns(),
                          request.headers.get(RID_HEADER) if request is not None else None)
            return fn(*a, **k)

        return pool_submit(self, started, *args, **kwargs)

    patch(pool.ExecutorPool, "submit", tracer.wrap(submit_and_time_wait, "runtime.pool_submit"))

    # ---- core
    shim(description.ServiceDescription, "validate_inputs", "core.validate")
    shim(jobs.Job, "representation", "core.render")
    shim(api, "representation_etag", "core.render")

    # ---- container: submit (with its enqueue) and the adapter run
    shim(service.DeployedService, "submit", "container.submit")
    shim(service.DeployedService, "delete_job", "container.delete")
    enqueue = jobmanager.JobManager.enqueue

    def stamped_enqueue(self, job, execute):
        tracer.enqueued[job.id] = perf_counter_ns()
        return enqueue(self, job, execute)

    patch(jobmanager.JobManager, "enqueue", tracer.wrap(stamped_enqueue, "container.submit"))
    execute = python_adapter.PythonAdapter.execute

    def execute_after_wait(self, context):
        queued = tracer.enqueued.pop(context.job.id, None)
        if queued is not None:
            tracer.record("container.queue_wait", queued, perf_counter_ns(), context.job.request_id)
        return execute(self, context)

    patch(python_adapter.PythonAdapter, "execute", tracer.wrap(
        execute_after_wait, "container.adapter", rid=lambda args, _: args[1].job.request_id))

    # ---- durability, cache
    shim(journal.Journal, "append", "durability.append")
    shim(fingerprint, "job_fingerprint", "cache.fingerprint")
    patch(service, "job_fingerprint", fingerprint.job_fingerprint)
    shim(cache_store.ResultCache, "claim", "cache.claim")

    # ---- tenancy: the gate, the fair-share queue (offer → take), the ledger
    shim(gate.TenantGate, "__call__", "tenancy.gate")
    offer, take = admission.FairShareQueue.offer, admission.FairShareQueue.take

    def stamped_offer(self, entry):
        tracer.offered[entry.job.id] = perf_counter_ns()
        return offer(self, entry)

    def take_after_wait(self):
        entry = take(self)
        if entry is not None:
            offered = tracer.offered.pop(entry.job.id, None)
            if offered is not None:
                tracer.record("tenancy.queue_wait", offered, perf_counter_ns(), entry.job.request_id)
        return entry

    patch(admission.FairShareQueue, "offer", tracer.wrap(stamped_offer, "tenancy.queue"))
    patch(admission.FairShareQueue, "take", tracer.wrap(take_after_wait, "tenancy.queue"))
    shim(tenant_registry.TenantRegistry, "charge", "tenancy.charge")

    # ---- observability
    shim(instrument.ObservabilityMiddleware, "__call__", "observability.middleware")

    # ---- gateway
    shim(balancer.ConsistentHashPolicy, "choose", "gateway.select")
    shim(gateway, "routing_hint", "gateway.hint")
    shim(gateway, "rewrite_job_document", "gateway.rewrite")
    shim(idempotency.IdempotencyCache, "reserve", "gateway.idempotency")
    shim(idempotency.IdempotencyCache, "put", "gateway.idempotency")

    def outbound_name(args, stack):
        if stack and stack[-1][1] == "gateway.self":
            return "gateway.forward"
        return "transport.request" if stack else "workflow.request"

    def outbound_rid(args, _result):
        headers = args[3] or {}
        rid = headers.get(RID_HEADER)
        if rid is None:
            # the engine's requests carry no request id, only its run's trace
            trace = parse_trace_header(headers.get("X-Trace"))
            rid = trace[0] if trace else None
        return rid

    # callers pass the headers by keyword; the span reads them by position
    request = registry.TransportRegistry.request
    timed_request = tracer.wrap(
        lambda self, method, url, headers, body: request(self, method, url, headers=headers, body=body),
        outbound_name, rid=outbound_rid)
    patch(registry.TransportRegistry, "request",
          lambda self, method, url, headers=None, body=b"": timed_request(self, method, url, headers, body))

    # ---- workflow
    shim(engine.WorkflowEngine, "execute", "workflow.engine",
         rid=lambda args, _: getattr(current_span_context(), "trace_id", None))
    shim(wms.CompositeService, "submit", "workflow.submit")

    # ---- blob
    shim(blob_store.BlobUpload, "write", "blob.write", size=lambda args, _: len(args[1]))
    shim(blob_store.BlobUpload, "commit", "blob.write")
    patch(blob_store.BlobStore, "open_range",
          tracer.wrap_iterator(blob_store.BlobStore.open_range, "blob.read"))
    shim(staging, "stage_blob", "blob.stage")
    shim(adapter_base.JobContext, "open_blob", "blob.stage")

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore


# ------------------------------------------------------------- arithmetic


def covered(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def adopt(spans: list[Span]) -> list[Span]:
    """Re-parent each app-server root span under the forwarding span that
    carries its request id and encloses it (the innermost one, when a
    request crosses two hops)."""
    forwards: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name in FORWARDS and span.rid:
            forwards[span.rid].append(span)
    adopted = []
    for span in spans:
        if span.parent == 0 and span.name in REQUEST_ROOTS and span.rid in forwards:
            enclosing = [f for f in forwards[span.rid] if f.start <= span.start and span.end <= f.end]
            if enclosing:
                span = span._replace(parent=min(enclosing, key=lambda f: f.end - f.start).id)
        adopted.append(span)
    return adopted


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time (ns): duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def peak_overlap(intervals: Iterable[tuple[int, int]]) -> int:
    """The most intervals open at one instant."""
    events = sorted(
        event for low, high in intervals for event in ((low, 1), (high, -1))
    )
    peak = open_now = 0
    for _, step in events:
        open_now += step
        peak = max(peak, open_now)
    return peak


def summarize(spans: Iterable[tuple], since: int, until: int) -> dict[str, Any]:
    """Fold the spans that started in ``[since, until)`` into what the load
    generator needs: per-name totals, the blocking-path rows of every
    submit request, and the few shapes only spans can give."""
    spans = adopt([span for span in map(Span._make, spans) if since <= span.start < until])
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    names: dict[str, dict[str, int]] = defaultdict(lambda: {"count": 0, "self_ns": 0, "total_ns": 0, "bytes": 0})
    for span in spans:
        row = names[span.name]
        row["count"] += 1
        row["self_ns"] += own[span.id]
        row["total_ns"] += span.end - span.start
        row["bytes"] += span.size

    def root_of(span: Span) -> Span:
        while span.parent and span.parent in by_id:
            span = by_id[span.parent]
        return span

    # the blocking path of a submit: every span in a tree whose root is one
    # of the request's own server-side spans (async work — the adapter run,
    # transition appends — roots elsewhere and is left out)
    submits: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        root = root_of(span)
        if root.rid and root.rid.endswith(SUBMIT_RID_SUFFIX) and root.name in REQUEST_ROOTS:
            submits[root.rid][span.name] += own[span.id]

    # engine time with no member request in flight, per workflow run
    requests_by_run: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.name == "workflow.request" and span.rid:
            requests_by_run[span.rid].append((span.start, span.end))
    engine_self = sum(
        (span.end - span.start) - covered(requests_by_run.get(span.rid, ()), span.start, span.end)
        for span in spans if span.name == "workflow.engine"
    )
    return {
        "spans": len(spans),
        "names": {name: dict(row) for name, row in names.items()},
        "submits": {rid: dict(rows) for rid, rows in submits.items()},
        "engine_self_ns": engine_self,
        "gateway_busy_peak": peak_overlap(
            (span.start, span.end) for span in spans if span.name == "gateway.self"
        ),
    }
