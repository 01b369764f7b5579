"""Per-tenant request gating and tenancy metric families.

:class:`TenantGate` is REST middleware with two jobs:

- **attribution** — resolve every request to its billing tenant (the
  security layer's access decision, then a non-anonymous identity, then
  the ``X-Tenant`` header, then the default account) and publish it as
  ``request.context["tenant"]`` for the layers below;
- **enforcement** (gateway only) — token-bucket rate limits, per-tenant
  concurrency caps, quota sheds, and negative-cache suspensions on the
  submit path, each answered with ``429`` + a capped ``Retry-After``
  and the tenant named in the body.

The per-tenant counters and latency histogram follow the deferred
aggregation pattern from :class:`ObservabilityMiddleware`: the request
thread appends one tuple to a bounded deque; the scrape folds them into
families.  Only the token-bucket/in-flight checks are synchronous —
cheap dict arithmetic under one lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.http.app import DeferredResponse
from repro.http.messages import HttpError, Request, Response
from repro.tenancy.registry import DEFAULT_TENANT, TENANT_HEADER, TenantRegistry

__all__ = ["TokenBucket", "TenantGate", "instrument_tenancy"]


class TokenBucket:
    """Classic token bucket; not thread-safe on its own (the gate holds
    the lock)."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def try_take(self) -> tuple[bool, float]:
        """Take one token: ``(True, 0.0)`` or ``(False, wait_seconds)``."""
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        if self.rate <= 0:
            return False, 60.0
        return False, (1.0 - self._tokens) / self.rate


class TenantGate:
    """Attribution middleware, optionally enforcing gateway limits."""

    PENDING_LIMIT = 65536

    #: Ceiling on every Retry-After the gate emits.
    RETRY_AFTER_CAP = 30.0

    def __init__(self, registry: TenantRegistry, metrics=None,
                 enforce: bool = True, clock=time.monotonic):
        self.registry = registry
        self.enforce = enforce
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        self._suspended: dict[str, float] = {}
        self._pending: deque = deque(maxlen=self.PENDING_LIMIT)
        if metrics is not None:
            self.requests = metrics.counter(
                "mc_tenant_requests_total",
                "HTTP requests handled, by billing tenant and response status.",
                labels=("tenant", "status"),
            )
            self.latency = metrics.histogram(
                "mc_tenant_request_seconds",
                "Request handling latency in seconds, by billing tenant.",
                labels=("tenant",),
            )
            self.shed = metrics.counter(
                "mc_tenant_shed_total",
                "Requests shed by the tenant gate, by tenant and reason.",
                labels=("tenant", "reason"),
            )
            metrics.on_scrape(self._flush_pending)
        else:
            self.requests = self.latency = self.shed = None

    # -- attribution -------------------------------------------------

    def resolve(self, request: Request) -> str:
        """Billing tenant for ``request``; see the module docstring for
        the precedence chain."""
        tenant = request.context.get("tenant")
        if tenant:
            return tenant
        access = request.context.get("access")
        if access is not None:
            return self.registry.resolve_identity(access.effective_id)
        identity = request.context.get("identity")
        if identity is not None and not identity.anonymous:
            return self.registry.resolve_identity(identity.id)
        header = request.headers.get(TENANT_HEADER)
        if header:
            return header.strip()
        return DEFAULT_TENANT

    # -- suspension (negative cache of upstream quota sheds) ---------

    def suspend(self, tenant: str, ttl: float) -> None:
        """Shed ``tenant`` at this gate for ``ttl`` seconds — used by
        the gateway when a replica answered 429-over-quota, so repeat
        offenders stop consuming forward attempts."""
        deadline = self._clock() + min(max(ttl, 0.1), self.RETRY_AFTER_CAP)
        with self._lock:
            current = self._suspended.get(tenant, 0.0)
            self._suspended[tenant] = max(current, deadline)

    def suspended_for(self, tenant: str) -> float:
        """Seconds of suspension remaining (0 when clear)."""
        with self._lock:
            deadline = self._suspended.get(tenant)
            if deadline is None:
                return 0.0
            remaining = deadline - self._clock()
            if remaining <= 0:
                del self._suspended[tenant]
                return 0.0
            return remaining

    # -- enforcement -------------------------------------------------

    @staticmethod
    def _is_submit(request: Request) -> bool:
        return request.method == "POST" and request.path.startswith("/services/")

    def _shed(self, tenant: str, reason: str, retry_after: float) -> HttpError:
        retry_after = min(max(retry_after, 0.1), self.RETRY_AFTER_CAP)
        if self.shed is not None:
            self._pending.append(("shed", tenant, reason))
        messages = {
            "suspended": f"tenant {tenant!r} is over quota (suspended at the gateway)",
            "quota": f"tenant {tenant!r} is over quota",
            "concurrency": f"tenant {tenant!r} is at its concurrency cap",
            "rate": f"tenant {tenant!r} exceeded its request rate",
        }
        return HttpError(
            429, messages[reason],
            details={"tenant": tenant, "reason": reason},
            retry_after=retry_after,
        )

    def _admit(self, tenant: str) -> None:
        """Run the shed chain for one submit; raises 429 HttpError."""
        suspended = self.suspended_for(tenant)
        if suspended > 0:
            raise self._shed(tenant, "suspended", suspended)
        if self.registry.over_quota(tenant):
            raise self._shed(tenant, "quota", 5.0)
        spec = self.registry.spec(tenant)
        with self._lock:
            if (spec.max_concurrent is not None
                    and self._in_flight.get(tenant, 0) >= spec.max_concurrent):
                raise self._shed(tenant, "concurrency", 0.5)
            if spec.rate is not None:
                bucket = self._buckets.get(tenant)
                if bucket is None or bucket.rate != spec.rate:
                    bucket = self._buckets[tenant] = TokenBucket(
                        spec.rate, spec.burst, self._clock)
                ok, wait = bucket.try_take()
                if not ok:
                    raise self._shed(tenant, "rate", wait)

    # -- middleware --------------------------------------------------

    def __call__(self, request: Request, call_next) -> Response:
        tenant = self.resolve(request)
        request.context["tenant"] = tenant
        gating = self.enforce and self._is_submit(request)
        pending = self._pending
        start = time.perf_counter()
        if gating:
            try:
                self._admit(tenant)
            except HttpError as error:
                if self.requests is not None:
                    pending.append((
                        "sample", tenant, error.status,
                        time.perf_counter() - start))
                raise
            with self._lock:
                self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
        try:
            response = call_next(request)
            if self.requests is not None:
                pending.append((
                    "sample", tenant, response.status,
                    time.perf_counter() - start))
            return response
        except DeferredResponse as deferred:
            # parked (a long-poll, or a waited submit — the gated request
            # itself): the sample lands when the response renders, with
            # its real status and the full duration
            if self.requests is not None:
                deferred.render = self._resumed_render(deferred.render, tenant, start)
            raise
        except HttpError as error:
            if self.requests is not None:
                pending.append((
                    "sample", tenant, error.status, time.perf_counter() - start))
            raise
        except BaseException:
            if self.requests is not None:
                pending.append(("sample", tenant, 500, time.perf_counter() - start))
            raise
        finally:
            if gating:
                with self._lock:
                    held = self._in_flight.get(tenant, 0)
                    if held <= 1:
                        self._in_flight.pop(tenant, None)
                    else:
                        self._in_flight[tenant] = held - 1

    def _resumed_render(self, render, tenant: str, start: float):
        def resumed() -> Response:
            response = render()
            self._pending.append((
                "sample", tenant, response.status, time.perf_counter() - start))
            return response

        return resumed

    def _flush_pending(self) -> None:
        pending = self._pending
        while True:
            try:
                item = pending.popleft()
            except IndexError:
                return
            if item[0] == "sample":
                _, tenant, status, elapsed = item
                self.requests.labels(tenant, status).inc()
                self.latency.labels(tenant).observe(elapsed)
            else:
                _, tenant, reason = item
                self.shed.labels(tenant, reason).inc()


def instrument_tenancy(metrics: Any, registry: TenantRegistry,
                       admission=None, container=None) -> None:
    """Register scrape-time collectors for tenant usage and queueing."""

    def usage_rows(currency):
        return [((tenant,), registry.usage(tenant)[currency])
                for tenant in registry.tenants()]

    def quota_rows(attribute):
        rows = []
        for tenant in registry.tenants():
            value = getattr(registry.spec(tenant), attribute)
            if value is not None:
                rows.append(((tenant,), value))
        return rows

    metrics.collector(
        "mc_tenant_cpu_seconds_used", "CPU-seconds consumed, by tenant.",
        "gauge", lambda: usage_rows("cpu"), labels=("tenant",))
    metrics.collector(
        "mc_tenant_cpu_seconds_quota", "CPU-second quota, for quota-bearing tenants.",
        "gauge", lambda: quota_rows("cpu_quota"), labels=("tenant",))
    metrics.collector(
        "mc_tenant_disk_bytes_used", "Blob bytes pinned, by tenant.",
        "gauge", lambda: usage_rows("disk"), labels=("tenant",))
    metrics.collector(
        "mc_tenant_disk_bytes_quota", "Disk-byte quota, for quota-bearing tenants.",
        "gauge", lambda: quota_rows("disk_quota"), labels=("tenant",))

    if admission is not None:
        metrics.collector(
            "mc_tenant_backlog", "Jobs parked in the fair-share queue, by tenant.",
            "gauge",
            lambda: [((t,), n) for t, n in sorted(admission.backlogs().items())],
            labels=("tenant",))
        metrics.collector(
            "mc_tenant_preempted_total",
            "Queued jobs preempted from over-quota tenants under pressure.",
            "counter", lambda: admission.preempted_total)

    if container is not None:
        def jobs_by_tenant():
            tally: dict[tuple[str, str], int] = {}
            for service in container.services:
                for job in service.jobs.list():
                    key = (job.extra.get("tenant", DEFAULT_TENANT),
                           job.state.value)
                    tally[key] = tally.get(key, 0) + 1
            return [(key, count) for key, count in sorted(tally.items())]

        metrics.collector(
            "mc_tenant_jobs", "Jobs held by deployed services, by tenant and state.",
            "gauge", jobs_by_tenant, labels=("tenant", "state"))
