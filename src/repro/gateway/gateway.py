"""The replicated-service API gateway.

:class:`ServiceGateway` exposes the paper's unified REST API (Table 1)
over a *pool* of replica containers behind one stable endpoint:

- ``POST /services/{name}`` spreads across healthy replicas through a
  pluggable balancing policy, with circuit breakers, a global retry
  budget and idempotent replay;
- job-scoped routes (``GET``/``DELETE`` job, file fetches) are pinned to
  the replica that owns the job via the id-prefix scheme in
  :mod:`repro.gateway.routing`;
- saturation answers ``429`` and unavailability ``503``, both with a
  ``Retry-After`` hint, instead of queueing or hanging;
- ``?wait=`` long-polls pass straight through to the owning replica, and
  the ``X-Request-Id`` correlation id threads gateway → replica.

The gateway is itself a :class:`~repro.http.app.RestApp`: it serves over
TCP and in process alike, and a gateway can front other gateways (job-id
prefixes simply stack).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from typing import Any, Callable
from urllib.parse import urlencode

from repro.cache import routing_hint
from repro.core.filerefs import iter_blob_refs
from repro.gateway.balancer import Policy, create_policy, ring_successor
from repro.gateway.breaker import RetryBudget
from repro.gateway.handoff import HandoffTable
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.replicaset import Replica, ReplicaSet, ReplicaState
from repro.gateway.routing import (
    decode_blob_ref,
    decode_job_id,
    rewrite_job_document,
    rewrite_tree,
    rewrite_uri,
)
from repro.http.client import IDEMPOTENCY_KEY_HEADER, X_CACHE_HEADER, parse_retry_after
from repro.http.messages import BodySpool, Headers, HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import ConnectError, TransportError
from repro.observability import RestHost, gateway_status, instrument_gateway
from repro.runtime.trace import build_trace_tree, merge_spans, span, trace_headers

logger = logging.getLogger(__name__)

#: Request headers never forwarded to replicas: hop-by-hop per RFC 7230,
#: plus the ones the transport recomputes.
_HOP_BY_HOP = frozenset(
    {
        "connection",
        "keep-alive",
        "host",
        "content-length",
        "transfer-encoding",
        "te",
        "upgrade",
        "proxy-connection",
    }
)

#: Response headers copied verbatim on proxied responses (bodies are
#: re-serialised, so entity headers like Content-Length are recomputed).
_FORWARDED_RESPONSE_HEADERS = (
    "Content-Type",
    "Content-Range",
    "Content-Disposition",
    "Accept-Ranges",
    "Retry-After",
    "ETag",
    X_CACHE_HEADER,
)


#: How one forward attempt ended (also the ``outcome`` label of
#: ``mc_gateway_forward_attempts_total``).
OK = "ok"
SERVER_ERROR = "server-error"
CONNECT_ERROR = "connect-error"
TRANSPORT_ERROR = "transport-error"


class ServiceGateway(RestHost):
    """Fronts a :class:`ReplicaSet` with the unified REST API."""

    def __init__(
        self,
        registry: TransportRegistry | None = None,
        name: str = "gateway",
        replicas: ReplicaSet | None = None,
        policy: "str | Policy" = "round-robin",
        retry_budget: RetryBudget | None = None,
        idempotency: IdempotencyCache | None = None,
        max_attempts: int = 3,
        retry_after_hint: float = 1.0,
        retry_after_cap: float = 30.0,
        observability: bool = True,
    ):
        super().__init__(name, registry, observability)
        # explicit None checks: an empty ReplicaSet / IdempotencyCache is
        # falsy (len() == 0), yet a caller-supplied one must still be used
        self.replicas = replicas if replicas is not None else ReplicaSet(registry=self.registry)
        if isinstance(policy, str):
            self.policy_name = policy
            self.policy: Policy = create_policy(policy)
        else:
            self.policy_name = type(policy).__name__
            self.policy = policy
        self.retry_budget = retry_budget if retry_budget is not None else RetryBudget()
        self.idempotency = idempotency if idempotency is not None else IdempotencyCache()
        self.max_attempts = max_attempts
        self.retry_after_hint = retry_after_hint
        # every Retry-After this gateway emits is clamped to this ceiling,
        # so a wound-up breaker cannot tell clients to go away for minutes
        self.retry_after_cap = retry_after_cap
        #: Per-tenant rate-limit/concurrency gate, set by enable_tenancy.
        self.tenant_gate = None
        #: Where retired replicas' jobs went: old job-id prefixes stay
        #: resolvable through this table after a retirement.
        self.handoffs = HandoffTable()
        #: In-progress retirements: replica id -> the successor a failed
        #: migration already (partially) copied jobs to, so retries stick.
        self._retiring: dict[str, str] = {}
        #: The autoscaler driving this gateway's membership, if any
        #: (attached by :class:`repro.autoscale.Autoscaler`).
        self.autoscaler = None
        self._forward_attempts = None
        if self.metrics is not None:
            self._forward_attempts = self.metrics.counter(
                "mc_gateway_forward_attempts_total",
                "Submit forward attempts to replicas, by outcome.",
                labels=("outcome",),
            )
        # what the replicas' result caches did with our submits, as seen
        # in their X-Cache answers (surfaced in /health)
        self._stats_lock = threading.Lock()
        self._cache_counts = {"hit": 0, "coalesced": 0, "miss": 0}
        # where submits referencing gateway-advertised blobs ended up: on
        # the replica holding the bytes, or elsewhere (which then stages)
        self._data_home_counts = {"home": 0, "fallback": 0}
        self.app.route("GET", "/", self._health)
        self.app.route("GET", "/health", self._health)
        self.app.route("GET", "/status", self._status)
        self.app.route("GET", "/services", self._index)
        self.app.route("GET", "/services/{name}", self._describe)
        self.app.route("POST", "/services/{name}", self._submit)
        self.app.route("GET", "/services/{name}/jobs/{job_id}", self._get_job)
        self.app.route("DELETE", "/services/{name}/jobs/{job_id}", self._delete_job)
        self.app.route("GET", "/services/{name}/jobs/{job_id}/trace", self._get_trace)
        self.app.route("GET", "/services/{name}/jobs/{job_id}/files/{file_id...}", self._get_file)
        self.app.route("POST", "/blobs", self._put_blob)
        self.app.route("PUT", "/blobs/{ref}", self._put_blob)
        self.app.route("GET", "/blobs/{ref}", self._get_blob)
        self.app.route("GET", "/blobs/{ref}/manifest", self._get_blob_manifest)
        if self.metrics is not None:
            instrument_gateway(self)

    def shutdown(self) -> None:
        self.replicas.stop_health_checks()
        self._unpublish()

    # -------------------------------------------------------------- tenancy

    def enable_tenancy(self, registry=None):
        """Enforce per-tenant rate limits and concurrency caps here.

        The gate attributes every request to its billing tenant, answers
        429 + Retry-After (tenant named in the body) for tenants over
        their token bucket, concurrency cap, or known-exhausted quota,
        and negative-caches replica quota sheds (see ``_note_replica_shed``)
        so repeat offenders stop consuming forward attempts. Returns the
        registry so callers can declare tenants on it.
        """
        from repro.tenancy import TenantGate, TenantRegistry
        from repro.tenancy.gate import instrument_tenancy

        if self.tenant_gate is not None:
            raise RuntimeError("tenancy is already enabled")
        registry = registry or TenantRegistry()
        self.tenant_gate = TenantGate(registry, metrics=self.metrics, enforce=True)
        self.app.add_middleware(self.tenant_gate)
        if self.metrics is not None:
            instrument_tenancy(self.metrics, registry)
        return registry

    def _note_replica_shed(self, response: Response) -> None:
        """Learn from a replica's 429: when the body names an over-quota
        tenant, suspend that tenant at this gate for the replica's
        Retry-After — the gateway then sheds its traffic up front instead
        of burning forward attempts on guaranteed rejections."""
        try:
            document = response.json_body
        except Exception:  # noqa: BLE001 - not JSON: nothing to learn
            return
        details = document.get("details") if isinstance(document, dict) else None
        if not isinstance(details, dict) or "quota" not in details:
            return
        tenant = details.get("tenant")
        if not tenant:
            return
        ttl = parse_retry_after(response.headers.get("Retry-After"))
        self.tenant_gate.suspend(tenant, ttl if ttl is not None else 5.0)

    # ----------------------------------------------------------- membership

    def add_replica(self, base_url: str, replica_id: str | None = None) -> Replica:
        return self.replicas.add(base_url, replica_id=replica_id)

    def evict(self, replica_id: str) -> None:
        """Remove a replica permanently (crashed, or dead past recovery).

        Unlike :meth:`retire`, nothing is migrated — there is nobody to
        ask. Every piece of gateway state keyed to the replica goes with
        it: cached submit responses and key bindings (they point at jobs
        that died with the replica), the balancer's ring memo, and any
        handoff redirects that end at it — so gateway memory stays
        bounded no matter how much membership churn it sees.

        Retired prefixes whose handoff chain ends at the dead replica
        lose their cached submits too: those entries were kept across the
        retirement because the jobs had moved here, and the jobs just
        died — replaying the stored 201 would acknowledge a job nobody
        holds anymore.
        """
        self.replicas.remove(replica_id)
        self._retiring.pop(replica_id, None)
        orphaned = [
            old for old, target in self.handoffs.snapshot().items()
            if target == replica_id
        ]
        self._forget_replica(replica_id)
        dropped = self.idempotency.invalidate_replica(replica_id)
        for old_id in orphaned:
            dropped += self.idempotency.invalidate_replica(old_id)
        if dropped:
            logger.info("gateway %s evicted %s, dropped %d cached submits", self.name, replica_id, dropped)

    def drain(self, replica_id: str) -> Replica:
        """Flag a replica DRAINING: spread routes stop selecting it while
        pinned job routes keep working. First (reversible) step of
        :meth:`retire`; undo with :meth:`undrain`."""
        return self.replicas.drain(replica_id)

    def undrain(self, replica_id: str) -> None:
        """Cancel a drain (the scaler changed its mind before retiring)."""
        replica = self.replicas.get(replica_id)
        if replica is not None:
            replica.stop_draining()

    def retire(
        self,
        replica_id: str,
        successor_id: "str | None" = None,
        drain_timeout: float = 10.0,
    ) -> dict[str, Any]:
        """Drain a replica and hand every job it holds to its successor.

        The drain protocol (drain, don't drop):

        1. the replica enters ``DRAINING`` — no new submits route to it;
        2. the gateway waits for its own in-flight forwards to finish;
        3. every job the replica holds — finished results included — is
           imported by the successor over the standard API (``GET
           /services/{name}/jobs`` → ``PUT`` each document), raw job ids
           preserved;
        4. the replica leaves the set and the handoff table records where
           its jobs went, so old public job URIs (and Idempotency-Key
           bindings) resolve to the successor from now on.

        Cached idempotent submit responses are deliberately *kept*: their
        job URIs stay valid through the handoff table. Any migration
        failure aborts the retirement with the replica still DRAINING —
        jobs are never dropped halfway; the caller may retry.

        The caller is responsible for quiescing the replica's own queue
        first (see ``JobManager.quiesce``); migrating a WAITING job that
        the origin then also executes is the one way to run work twice.

        Returns a summary: retired id, successor id, jobs migrated.
        """
        replica = self.replicas.get(replica_id)
        if replica is None:
            raise KeyError(replica_id)
        replica.start_draining()
        if successor_id is None:
            successor_id = self._sticky_successor(replica_id)
        if successor_id is None:
            successor_id = self._successor_for(replica_id)
        if successor_id is None or successor_id == replica_id:
            raise RuntimeError(f"no live successor for replica {replica_id!r}")
        successor = self.replicas.get(successor_id)
        if successor is None:
            raise KeyError(successor_id)
        # the choice must be sticky across retries: a partially applied
        # migration has already copied jobs to this successor, and a retry
        # that picked a different one would duplicate them
        self._retiring[replica_id] = successor_id
        deadline = time.monotonic() + drain_timeout
        while replica.in_flight > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        migrated = self._migrate_jobs(replica, successor)
        self._retiring.pop(replica_id, None)
        self.replicas.discard(replica_id)
        self.handoffs.record(replica_id, successor_id)
        forget = getattr(self.policy, "forget", None)
        if forget is not None:
            forget(replica_id)
        logger.info(
            "gateway %s retired %s -> %s (%d jobs migrated)",
            self.name, replica_id, successor_id, migrated,
        )
        return {"retired": replica_id, "successor": successor_id, "migrated": migrated}

    def _sticky_successor(self, replica_id: str) -> "str | None":
        """The successor a previous (failed) retirement already copied
        jobs to. If that successor has since retired itself, its copies
        moved on with it — follow the handoff chain; if it died, the
        copies died too and the entry is dropped so a fresh pick is safe."""
        recorded = self._retiring.get(replica_id)
        while recorded is not None and self.replicas.get(recorded) is None:
            recorded = self.handoffs.resolve(recorded)
        if recorded is None:
            self._retiring.pop(replica_id, None)
        return recorded

    def _successor_for(self, replica_id: str) -> "str | None":
        """The ring successor among live (not draining, not down) peers."""
        candidates = [
            r.id
            for r in self.replicas.replicas()
            if r.id == replica_id or r.state in (ReplicaState.HEALTHY, ReplicaState.DEGRADED)
        ]
        return ring_successor(candidates, replica_id)

    def _forget_replica(self, replica_id: str) -> None:
        forget = getattr(self.policy, "forget", None)
        if forget is not None:
            forget(replica_id)
        self.handoffs.forget(replica_id)

    def _migrate_jobs(self, source: Replica, target: Replica) -> int:
        """Copy every job ``source`` holds to ``target`` via the API.

        All-or-nothing per retirement: any failure raises (the import
        endpoint is idempotent on job id, so a retried retirement simply
        re-posts documents the successor already adopted).
        """
        index = self._migration_get(source, f"{source.base_url}/services")
        migrated = 0
        for entry in index.get("services") or []:
            name = entry.get("name")
            if not name:
                continue
            listing = self._migration_get(source, f"{source.base_url}/services/{name}/jobs")
            for document in listing.get("jobs") or []:
                payload = dict(document)
                payload["extra"] = dict(payload.get("extra") or {}, handoff_from=source.id)
                try:
                    response = self.registry.request(
                        "POST",
                        f"{target.base_url}/services/{name}/jobs/{payload['id']}/import",
                        headers={"Content-Type": "application/json"},
                        body=json.dumps(payload).encode("utf-8"),
                    )
                except TransportError as exc:
                    raise RuntimeError(
                        f"handoff of job {payload['id']} to {target.id} failed: {exc}"
                    ) from exc
                if response.status not in (200, 201):
                    raise RuntimeError(
                        f"handoff of job {payload['id']} to {target.id} "
                        f"rejected with {response.status}"
                    )
                migrated += 1
        return migrated

    def _migration_get(self, source: Replica, url: str) -> dict[str, Any]:
        try:
            response = self.registry.request("GET", url)
        except TransportError as exc:
            raise RuntimeError(f"cannot enumerate retiring replica {source.id}: {exc}") from exc
        if not response.ok:
            raise RuntimeError(
                f"retiring replica {source.id} answered {response.status} for {url}"
            )
        document = response.json_body
        return document if isinstance(document, dict) else {}

    # ------------------------------------------------------------- handlers

    def _health(self, request: Request) -> Response:
        replicas = self.replicas.snapshot()
        document = {
            "gateway": self.name,
            "uri": self.base_uri,
            "policy": self.policy_name,
            "replicas": replicas,
            "draining": sum(1 for r in replicas if r.get("draining")),
            "handoffs": self.handoffs.snapshot(),
            "retry_budget": self.retry_budget.balance,
            "idempotency_entries": len(self.idempotency),
            "cache": self.cache_stats,
            "data_home": self.data_home_stats,
        }
        if self.autoscaler is not None:
            document["autoscaler"] = self.autoscaler.snapshot()
        return Response.json(document)

    @property
    def cache_stats(self) -> dict[str, int]:
        """Replica cache outcomes observed on submits (hit/coalesced/miss)."""
        with self._stats_lock:
            return dict(self._cache_counts)

    @property
    def data_home_stats(self) -> dict[str, int]:
        """Submits referencing blobs this gateway advertised: how many the
        replica holding the bytes took (``home``), how many went to
        another replica and staged them (``fallback``)."""
        with self._stats_lock:
            return dict(self._data_home_counts)

    def _status(self, request: Request) -> Response:
        """Platform-wide health: fan out to replica ``/metrics``, merge."""
        return Response.json(gateway_status(self))

    def _index(self, request: Request) -> Response:
        replica, response = self._forward("GET", "/services", request, _next_unless_answered)
        document = rewrite_tree(response.json_body, replica, self.base_uri)
        if isinstance(document, dict):
            document["gateway"] = self.name
        return Response.json(document, status=response.status)

    def _describe(self, request: Request, name: str) -> Response:
        replica, response = self._forward(
            "GET", f"/services/{name}", request, _next_unless_answered
        )
        if not response.ok:
            return self._proxied(response)
        document = rewrite_tree(response.json_body, replica, self.base_uri)
        return Response.json(document, status=response.status)

    def _submit(self, request: Request, name: str) -> Response:
        idempotency_key = request.headers.get(IDEMPOTENCY_KEY_HEADER)
        if not idempotency_key:
            return self._forward_submit(request, name, None)
        # reserve the key before forwarding, so a concurrent duplicate waits
        # for this attempt's outcome instead of racing it into a second job
        owner, cached = self.idempotency.reserve(idempotency_key)
        if cached is not None:
            return cached
        if not owner:
            raise self._unavailable_error(
                503,
                f"a request with Idempotency-Key {idempotency_key!r} is still in flight",
            )
        try:
            return self._forward_submit(request, name, idempotency_key)
        finally:
            # no-op when the attempt stored its response; otherwise hands
            # the reservation to a waiting duplicate
            self.idempotency.release(idempotency_key)

    def _forward_submit(self, request: Request, name: str, idempotency_key: str | None) -> Response:
        # key selection by submission *content*: a consistent-hash policy
        # then lands identical work on the replica whose result cache most
        # likely already holds it (correctness never depends on this —
        # replicas compute the authoritative fingerprint themselves)
        # body_bytes, not body: a large submission may have been spilled to
        # a spool by the HTTP core, leaving request.body empty
        body = request.body_bytes
        # a job that consumes blobs this gateway advertised runs best where
        # the bytes already are; like the key, a pure function of the body
        home = self._data_home(body) if b'"$blob"' in body else None
        replica, response = self._forward(
            "POST",
            f"/services/{name}",
            request,
            self._submit_verdict,
            key=routing_hint(name, body),
            home=home,
            body=body,
            idempotency_key=idempotency_key,
            limit=self.max_attempts,
            budget=self.retry_budget,
        )
        if home is not None:
            with self._stats_lock:
                self._data_home_counts["home" if replica is home else "fallback"] += 1
        if response.status >= 500:
            # only an unkeyed submit gets here: the replica's own answer
            return self._proxied(response)
        if response.status == 429 and self.tenant_gate is not None:
            self._note_replica_shed(response)
        rewritten = self._rewrite_submit(response, replica)
        if idempotency_key and response.ok:
            self.idempotency.put(idempotency_key, replica.id, rewritten)
        return rewritten

    def _data_home(self, body: bytes) -> "Replica | None":
        """The replica holding most of the bytes a submit body references.

        Counts only references this gateway advertised — a ``$blob`` whose
        ``$file`` is ``<base_uri>/blobs/<replica>.<digest>`` — weighted by
        their ``size``; a retired holder counts for the successor that
        took its place. None when the body references no such blob (or is
        not JSON): placement is then the policy's alone.
        """
        try:
            document = json.loads(body)
        except ValueError:
            return None
        prefix = f"{self.base_uri}/blobs/"
        held: dict[str, int] = {}
        for reference in iter_blob_refs(document):
            uri, size = reference.get("$file"), reference.get("size")
            if not (isinstance(uri, str) and uri.startswith(prefix)):
                continue
            holder_id = decode_blob_ref(uri[len(prefix):])[0]
            if holder_id is not None and self.replicas.get(holder_id) is None:
                holder_id = self.handoffs.resolve(holder_id)
            if holder_id is not None:
                weight = size if isinstance(size, int) and size > 0 else 0
                held[holder_id] = held.get(holder_id, 0) + weight
        return self.replicas.get(max(held, key=held.get)) if held else None

    def _submit_verdict(
        self,
        replica: Replica,
        outcome: str,
        result: "Response | TransportError",
        attempt: int,
        idempotency_key: str | None,
    ) -> bool:
        """Whether a submit attempt that ended this way goes to another
        candidate (the Idempotency-Key rules); False answers the client."""
        self._count_forward(outcome)
        if outcome == CONNECT_ERROR:
            # nothing reached the replica: safe to try another — unless
            # an earlier ambiguous failure bound the key to this one, in
            # which case the binding keeps choosing it
            logger.info(
                "gateway %s: POST connect failure on %s: %s", self.name, replica.id, result
            )
            return True
        if outcome == TRANSPORT_ERROR:
            if idempotency_key is None:
                # the replica may have processed the request; replaying
                # without a key could create a duplicate job
                raise HttpError(
                    502,
                    f"connection to replica {replica.id} failed mid-request: {result}",
                    details={"hint": "supply an Idempotency-Key to make POSTs replayable"},
                ) from result
            # ambiguous: the replica may own this key's job now, so pin
            # every further attempt (this request and later client
            # retries) to it — its idempotency ledger deduplicates
            self.idempotency.bind(idempotency_key, replica.id)
            logger.info(
                "gateway %s: POST mid-request failure on %s, replaying there", self.name, replica.id
            )
            return True
        if outcome == SERVER_ERROR:
            if idempotency_key is None:
                return False
            if result.status == 503 and self.idempotency.binding(idempotency_key) == replica.id:
                # the bound replica is alive but cannot answer for this
                # key yet (its submit ledger may hold an in-flight first
                # attempt) — keep the binding and tell the client to
                # retry later; trying elsewhere could mint a duplicate
                raise self._bound_unavailable(idempotency_key)
            # any other 5xx: the replica answered and provably owns no
            # job for this key — lift the binding and try others
            self.idempotency.unbind(idempotency_key)
            return True
        if attempt == 0:
            self.retry_budget.deposit()
        return False

    def _count_forward(self, outcome: str) -> None:
        if self._forward_attempts is not None:
            self._forward_attempts.labels(outcome).inc()

    def _bound_unavailable(self, idempotency_key: str) -> HttpError:
        return self._unavailable_error(
            503,
            f"the replica bound to Idempotency-Key {idempotency_key!r} is unavailable; retry later",
        )

    def _bound_replica(self, key: str) -> "tuple[Replica | None, str | None]":
        """The replica ``key`` is pinned to, admitted.

        Returns ``(replica, refusal)``: ``(None, None)`` when the key is
        unbound (normal selection applies), ``(None, "bound")`` when it is
        bound but the replica cannot take the request right now — the
        caller must answer 503 rather than risk a duplicate elsewhere. A
        binding to a *retired* replica follows the handoff chain — the
        successor imported the ambiguous job (if it exists) with its key
        binding, so its submit ledger deduplicates — and the key is
        rebound there. A binding to an *evicted* replica is dropped: the
        ambiguous job (if it ever existed) died with the replica, so a
        fresh placement is the only way forward.
        """
        bound_id = self.idempotency.binding(key)
        if bound_id is None:
            return None, None
        replica = self.replicas.get(bound_id)
        if replica is None:
            successor_id = self.handoffs.resolve(bound_id)
            replica = self.replicas.get(successor_id) if successor_id is not None else None
            if replica is None:
                self.idempotency.unbind(key)
                return None, None
            self.idempotency.bind(key, replica.id)
        if replica.state is ReplicaState.DOWN or self._admit(replica) is not None:
            return None, "bound"
        return replica, None

    def _get_job(self, request: Request, name: str, job_id: str) -> Response:
        replica, raw_id = self._pin(job_id)
        _, response = self._forward(
            "GET", f"/services/{name}/jobs/{raw_id}", request, _answer, pinned=replica
        )
        if not response.ok:
            # includes 304 Not Modified: body-free, ETag passes through
            return self._proxied(response)
        document = rewrite_job_document(response.json_body, replica, self.base_uri)
        rewritten = Response.json(document, status=response.status)
        etag = response.headers.get("ETag")
        if etag:
            # the replica's validator stays correct for the rewritten body:
            # the URI rewrite is a pure function of an unchanged document
            rewritten.headers.set("ETag", etag)
        return rewritten

    def _delete_job(self, request: Request, name: str, job_id: str) -> Response:
        replica, raw_id = self._pin(job_id)
        _, response = self._forward(
            "DELETE", f"/services/{name}/jobs/{raw_id}", request, _answer, pinned=replica
        )
        return self._proxied(response)

    def _get_trace(self, request: Request, name: str, job_id: str) -> Response:
        """The job's trace tree, with the gateway's own spans merged in.

        The replica holds the queue/adapter spans; the gateway holds the
        ``gateway.forward`` spans of the same trace. Merging both sides
        here yields the complete gateway → replica → adapter tree.
        """
        replica, raw_id = self._pin(job_id)
        _, response = self._forward(
            "GET", f"/services/{name}/jobs/{raw_id}/trace", request, _answer, pinned=replica
        )
        if not response.ok:
            return self._proxied(response)
        document = response.json_body
        if self.tracer is not None and isinstance(document, dict):
            trace_id = document.get("trace_id")
            if trace_id:
                spans = merge_spans(self.tracer.spans(trace_id), document.get("spans") or [])
                document = {
                    "trace_id": trace_id,
                    "spans": spans,
                    "tree": build_trace_tree(spans),
                }
        return Response.json(document, status=response.status)

    def _get_file(self, request: Request, name: str, job_id: str, file_id: str) -> Response:
        replica, raw_id = self._pin(job_id)
        _, response = self._forward(
            "GET", f"/services/{name}/jobs/{raw_id}/files/{file_id}", request, _answer,
            pinned=replica,
        )
        return self._proxied(response)

    def _put_blob(self, request: Request, ref: "str | None" = None) -> Response:
        """Upload through the gateway: placed by content digest.

        A consistent-hash policy then lands re-uploads of the same content
        (and later digest-keyed fetches) on the same replica, so dedup in
        the replica's chunk store actually triggers.
        """
        digest: str | None = None
        pinned: Replica | None = None
        if ref is not None:
            replica_id, digest = decode_blob_ref(ref)
            if replica_id is not None:
                pinned = self._pin_replica(replica_id)
        method, path = ("PUT", f"/blobs/{digest}") if digest is not None else ("POST", "/blobs")
        # a spilled upload is relayed from its spool, never read into memory
        body = request.spool if request.spool is not None else request.body
        replica, response = self._forward(
            method, path, request, _answer, pinned=pinned, key=digest, body=body
        )
        if not response.ok:
            return self._proxied(response)
        document = rewrite_tree(response.json_body, replica, self.base_uri)
        rewritten = Response.json(document, status=response.status)
        location = response.headers.get("Location")
        if location:
            rewritten.headers.set("Location", rewrite_uri(location, replica, self.base_uri))
        return rewritten

    def _get_blob(self, request: Request, ref: str) -> Response:
        return self._proxied(self._blob_response(request, ref, ""))

    def _get_blob_manifest(self, request: Request, ref: str) -> Response:
        # manifests carry digests only, never URIs: nothing to rewrite
        return self._proxied(self._blob_response(request, ref, "/manifest"))

    def _blob_response(self, request: Request, ref: str, suffix: str) -> Response:
        """Fetch a blob resource: pinned when the ref carries a replica
        prefix, otherwise resolved by content — any replica holding the
        digest may answer, and the digest key steers a consistent-hash
        policy to the likeliest holder first."""
        replica_id, digest = decode_blob_ref(ref)
        path = f"/blobs/{digest}{suffix}"
        if replica_id is not None:
            pinned = self._pin_replica(replica_id)
            return self._forward("GET", path, request, _answer, pinned=pinned)[1]
        return self._forward("GET", path, request, _next_unless_found, key=digest)[1]

    # ----------------------------------------------------------- forwarding

    def _forward(
        self,
        method: str,
        path: str,
        request: Request,
        verdict: "Callable[[Replica, str, Any, int, str | None], bool]",
        *,
        pinned: Replica | None = None,
        key: str | None = None,
        home: Replica | None = None,
        body: "bytes | BodySpool" = b"",
        idempotency_key: str | None = None,
        limit: int | None = None,
        budget: RetryBudget | None = None,
    ) -> tuple[Replica, Response]:
        """The one way a request reaches a replica: the candidate loop.

        Each turn admits one candidate — ``pinned`` if given, else the
        replica ``idempotency_key`` is bound to, else ``home`` (once, and
        only while it is healthy and admits the request), else the
        balancing policy's pick for ``key`` — sends to it once, and asks
        ``verdict`` whether that outcome goes to the next candidate (True)
        or is the client's answer. At most ``limit`` sends (default: one
        per replica); every send after the first spends a ``budget`` token.
        An answer that is a transport failure becomes 502; running out of
        candidates becomes 404, 429 or 503 + ``Retry-After``.
        """
        headers = self._forward_headers(request)
        tail = path + "?" + urlencode(request.query) if request.query else path
        tried: set[str] = set()
        attempt = missing = 0
        while True:
            replica = refusal = None
            if pinned is not None:
                refusal = self._admit(pinned)
                replica = pinned if refusal is None else None
            else:
                if idempotency_key:
                    replica, refusal = self._bound_replica(idempotency_key)
                if (
                    replica is None
                    and refusal is None
                    and home is not None
                    and home.id not in tried
                    and home.state is ReplicaState.HEALTHY
                    and self._admit(home) is None
                ):
                    replica = home
                if replica is None and refusal is None:
                    replica, refusal = self._select(tried, key)
            if replica is None:
                break
            outcome, result = self._send(replica, method, replica.base_url + tail, headers, body, path)
            if not verdict(replica, outcome, result, attempt, idempotency_key):
                if outcome in (CONNECT_ERROR, TRANSPORT_ERROR):
                    raise HttpError(502, f"replica {replica.id!r} unreachable: {result}") from result
                return replica, result
            tried.add(replica.id)
            if outcome == OK:
                missing += 1
            attempt += 1
            if limit is None:
                limit = max(1, len(self.replicas))
            if attempt >= limit:
                break
            # spend the retry token before admitting anyone, so an aborted
            # retry cannot hold a half-open probe permit
            if budget is not None and not budget.try_spend():
                logger.warning("gateway %s: retry budget exhausted for %s %s", self.name, method, path)
                break
        if missing and missing == limit:
            # content-addressed: absent only once every member said so
            raise HttpError(404, f"no replica of {self.name!r} holds this blob")
        if refusal == "bound":
            raise self._bound_unavailable(idempotency_key)
        if refusal == "saturated":
            whom = f"replica {pinned.id!r} is" if pinned is not None else f"all replicas of {self.name!r} are"
            raise self._unavailable_error(429, f"{whom} at capacity")
        if refusal == "open":
            raise self._unavailable_error(
                503,
                f"replica {pinned.id!r} circuit is open",
                retry_after=max(self.retry_after_hint, pinned.breaker.retry_after()),
            )
        raise self._unavailable_error(503, f"no replica of {self.name!r} can take the request")

    def _admit(self, replica: Replica) -> str | None:
        """Take ``replica``'s in-flight slot, then its breaker's permit.

        The only place either is taken, so a request is admitted exactly
        once. None means admitted — the caller owes one :meth:`_send`,
        which gives the slot back and tells the breaker how it went;
        otherwise the refusal (``saturated`` / ``open``), nothing held.
        """
        if not replica.acquire_slot():
            return "saturated"
        if not replica.breaker.allow():
            replica.release_slot()
            return "open"
        return None

    def _send(
        self,
        replica: Replica,
        method: str,
        url: str,
        headers: dict[str, str],
        body: "bytes | BodySpool",
        path: str,
    ) -> "tuple[str, Response | TransportError]":
        """One attempt on an admitted replica: span, send, release, report.

        The slot is released whatever happens and the breaker hears
        exactly one outcome. Returns the outcome with the response, or
        with the transport's exception when no response arrived.
        """
        try:
            with span("gateway.forward", labels={"replica": replica.id, "path": path}):
                # inside the span, so the replica's spans parent under this
                # attempt; the ambient span wins over a client-supplied
                # X-Trace, an untraced gateway passes that through
                headers.update(trace_headers())
                response = self.registry.request(method, url, headers=headers, body=body)
        except TransportError as exc:
            replica.breaker.record_failure()
            return (CONNECT_ERROR if isinstance(exc, ConnectError) else TRANSPORT_ERROR), exc
        finally:
            replica.release_slot()
        if response.status >= 500:
            replica.breaker.record_failure()
            return SERVER_ERROR, response
        replica.breaker.record_success()
        return OK, response

    def _forward_headers(self, request: Request) -> dict[str, str]:
        forwarded: dict[str, str] = {}
        for header_name, value in request.headers.items():
            if header_name.lower() not in _HOP_BY_HOP:
                forwarded[header_name] = value
        request_id = request.context.get("request_id")
        if request_id:
            # thread the gateway's correlation id through to the replica
            forwarded["X-Request-Id"] = request_id
        return forwarded

    def _select(self, tried: set[str], key: str | None) -> tuple[Replica | None, str | None]:
        """Pick a replica for a spread route and admit it.

        Healthy replicas are preferred; degraded ones are a fallback tier.
        Returns ``(None, "saturated")`` when capacity (not health) was the
        only obstacle — the caller answers 429 rather than 503.
        """
        replicas = self.replicas.replicas()
        saturated = False
        for state in (ReplicaState.HEALTHY, ReplicaState.DEGRADED):
            pool = [r for r in replicas if r.state is state and r.id not in tried]
            while pool:
                chosen = self.policy.choose(pool, key)
                refusal = self._admit(chosen)
                if refusal is None:
                    return chosen, None
                saturated = saturated or refusal == "saturated"
                pool.remove(chosen)
        return None, ("saturated" if saturated else "unavailable")

    def _pin(self, job_id: str) -> tuple[Replica, str]:
        """Resolve a public job id to its owning replica (not admitted)."""
        replica_id, raw_id = decode_job_id(job_id)
        return self._pin_replica(replica_id), raw_id

    def _pin_replica(self, replica_id: str) -> Replica:
        replica = self.replicas.get(replica_id)
        if replica is None:
            # retired? its jobs (raw ids intact) live on at the successor,
            # so the old public URI keeps resolving
            successor_id = self.handoffs.resolve(replica_id)
            if successor_id is not None:
                replica = self.replicas.get(successor_id)
        if replica is None:
            raise HttpError(404, f"no replica {replica_id!r} behind this gateway")
        if replica.state is ReplicaState.DOWN:
            raise self._unavailable_error(
                503, f"replica {replica_id!r} is down; its resources are unavailable until it recovers"
            )
        return replica

    # ------------------------------------------------------------ responses

    def _rewrite_submit(self, response: Response, replica: Replica) -> Response:
        document = response.json_body
        if isinstance(document, dict):
            document = rewrite_job_document(document, replica, self.base_uri)
        rewritten = Response.json(document, status=response.status)
        location = response.headers.get("Location")
        if location:
            rewritten.headers.set("Location", rewrite_uri(location, replica, self.base_uri))
        retry_after = response.headers.get("Retry-After")
        if retry_after:
            # replica backpressure/quota answers keep their hint — the
            # submit path bypasses _proxied's header copy
            rewritten.headers.set("Retry-After", retry_after)
        cache_status = response.headers.get(X_CACHE_HEADER)
        if cache_status:
            rewritten.headers.set(X_CACHE_HEADER, cache_status)
            if cache_status in self._cache_counts:
                with self._stats_lock:
                    self._cache_counts[cache_status] += 1
        return rewritten

    def _proxied(self, response: Response) -> Response:
        """Pass a replica response through, keeping only entity headers."""
        out = Response(status=response.status, body=response.body)
        for header_name in _FORWARDED_RESPONSE_HEADERS:
            value = response.headers.get(header_name)
            if value is not None:
                out.headers.set(header_name, value)
        return out

    def _unavailable_error(
        self, status: int, message: str, retry_after: float | None = None
    ) -> HttpError:
        """A 429/503 whose ``Retry-After`` never exceeds the gateway's cap."""
        if retry_after is None:
            retry_after = self.retry_after_hint
        return HttpError(status, message, retry_after=min(self.retry_after_cap, retry_after))


def _answer(replica: Replica, outcome: str, result: Any, attempt: int, key: str | None) -> bool:
    """Verdict of routes that are sent once: whatever happened is the answer."""
    return False


def _next_unless_answered(replica: Replica, outcome: str, result: Any, attempt: int, key: str | None) -> bool:
    """Verdict of idempotent spread reads: a transport error or a 5xx goes
    to the next replica."""
    return outcome != OK


def _next_unless_found(replica: Replica, outcome: str, result: Any, attempt: int, key: str | None) -> bool:
    """Verdict of content-addressed reads: also a 404 — it only means
    *that* replica holds no copy."""
    return outcome != OK or result.status == 404


def make_replicated_gateway(
    base_urls: "list[str]",
    registry: TransportRegistry | None = None,
    name: str = "gateway",
    policy: "str | Policy" = "round-robin",
    health_interval: float | None = 5.0,
    **replica_set_options: Any,
) -> ServiceGateway:
    """Convenience: a gateway fronting ``base_urls`` with health checks on."""
    replica_set = ReplicaSet(registry=registry, **replica_set_options)
    gateway = ServiceGateway(
        registry=replica_set.registry, name=name, replicas=replica_set, policy=policy
    )
    for url in base_urls:
        replica_set.add(url)
    if health_interval is not None:
        replica_set.start_health_checks(interval=health_interval)
    return gateway
