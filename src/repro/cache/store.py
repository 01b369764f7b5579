"""The content-addressed result cache with single-flight coalescing.

One :class:`ResultCache` serves a whole container. It answers three
questions about a fingerprint, in strict priority order:

1. *done* — a job with this fingerprint completed ``DONE`` and is still
   fresh (LRU + TTL): serve that job instantly (``X-Cache: hit``);
2. *in flight* — a job with this fingerprint is queued or running:
   attach to it instead of executing again (``X-Cache: coalesced``);
3. *pending* — another submit thread is mid-way through creating the
   leader job: wait for it to register (the same protocol as
   ``Idempotency-Key`` replay's reserve/release), then re-evaluate.

Only a genuine miss executes, so within one container a fingerprint can
never be executing twice concurrently — the chaos suite asserts exactly
that. Failures and cancellations are never cached: a terminal
``FAILED``/``CANCELLED`` leader just drops out of the in-flight index and
the next identical submit recomputes. Deleting a job invalidates its
fingerprint, so a hit can never resurrect deleted results.

Durability: :meth:`ResultCache.join` registers the ``"type": "cache"``
vocabulary with the container's state spine. Each promotion to the done
tier is journaled as a lightweight ``{service, fp, id, stored}`` record;
after a cold restart the records wait in a per-service table until the
service deploys, and :meth:`ResultCache.rehydrate` re-seeds the hot set
from them, keeping only entries whose job was itself recovered ``DONE``
and whose TTL has not lapsed.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.jobs import Job, JobState

__all__ = ["CacheClosedError", "CacheStats", "ResultCache", "apply_cache_event"]

logger = logging.getLogger(__name__)


def apply_cache_event(table: dict[str, dict[str, dict]], record: dict[str, Any]) -> None:
    """Fold one cache record (snapshot- or journal-shaped) into the
    per-service rehydration table (service → fingerprint → record)."""
    service, fingerprint, job_id = record.get("service"), record.get("fp"), record.get("id")
    if service and fingerprint and job_id:
        table.setdefault(service, {})[fingerprint] = record


class CacheClosedError(Exception):
    """The cache shut down while a claim was outstanding.

    Raised to pending claimants so a container shutdown fails coalesced
    waiters promptly instead of leaving them hanging on the condition.
    """


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache's counters."""

    hits: int
    coalesced: int
    misses: int
    evictions: int
    expirations: int
    invalidations: int

    @property
    def lookups(self) -> int:
        return self.hits + self.coalesced + self.misses

    @property
    def hit_ratio(self) -> float:
        lookups = self.lookups
        return (self.hits + self.coalesced) / lookups if lookups else 0.0


class _DoneEntry:
    __slots__ = ("service", "job_id", "stored")

    def __init__(self, service: str, job_id: str, stored: float):
        self.service = service
        self.job_id = job_id
        self.stored = stored


class ResultCache:
    """Container-wide fingerprint → job index (LRU + TTL + single-flight).

    ``ttl`` bounds how long a ``DONE`` result stays servable (``None``
    disables expiry); ``capacity`` bounds the done tier (LRU eviction).
    ``clock`` is wall-clock time — entry ages are journaled and must stay
    meaningful across restarts.
    """

    def __init__(
        self,
        capacity: int = 2048,
        ttl: "float | None" = 600.0,
        pending_timeout: float = 30.0,
        clock: Callable[[], float] = time.time,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("cache ttl must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl = ttl
        self.pending_timeout = pending_timeout
        self.clock = clock
        #: Journal sink for ``{"type": "cache"}`` records, one per promotion
        #: to the done tier; set by :meth:`join` (``None`` while volatile).
        self.journal_fn: "Callable[[dict[str, Any]], None] | None" = None
        #: Journaled entries awaiting their service's deploy (service →
        #: fingerprint → record), consumed by :meth:`rehydrate`.
        self._recovered: dict[str, dict[str, dict]] = {}
        self._cond = threading.Condition(threading.Lock())
        self._done: "OrderedDict[str, _DoneEntry]" = OrderedDict()
        self._inflight: dict[str, tuple[str, str]] = {}  # fp -> (service, job id)
        self._pending: set[str] = set()
        self._by_job: dict[str, str] = {}  # job id -> fp (done or in flight)
        self._closed = False
        self._hits = 0
        self._coalesced = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0

    # --------------------------------------------------------------- lookup

    def claim(self, fingerprint: str) -> "tuple[str, str | None]":
        """Resolve ``fingerprint``: ``("hit", job_id)``, ``("coalesced",
        job_id)`` or ``("miss", None)``.

        A miss hands *ownership* of the fingerprint to the caller, who
        must finish with :meth:`register` (leader job created) or
        :meth:`release` (submit failed). While a fingerprint is owned,
        concurrent claimants block until the owner resolves it — at most
        ``pending_timeout`` seconds, after which the claim degrades to a
        plain miss (a pathologically stuck owner can then at worst cause
        one duplicate execution; it can never cause a deadlock).

        Raises :class:`CacheClosedError` once the cache is closed, so
        shutdown fails waiters instead of stranding them.
        """
        deadline = time.monotonic() + self.pending_timeout
        with self._cond:
            while True:
                if self._closed:
                    raise CacheClosedError("result cache is closed")
                entry = self._done.get(fingerprint)
                if entry is not None:
                    if self._expired(entry):
                        self._evict(fingerprint, entry, expired=True)
                    else:
                        self._done.move_to_end(fingerprint)
                        self._hits += 1
                        return "hit", entry.job_id
                if fingerprint in self._inflight:
                    self._coalesced += 1
                    return "coalesced", self._inflight[fingerprint][1]
                if fingerprint not in self._pending:
                    self._pending.add(fingerprint)
                    self._misses += 1
                    return "miss", None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._misses += 1
                    return "miss", None
                self._cond.wait(remaining)

    def register(self, fingerprint: str, service: str, job: Job) -> None:
        """Install the owner's freshly created leader job.

        The fingerprint moves pending → in-flight and the cache follows
        the job's transitions: ``DONE`` promotes it to the done tier,
        ``FAILED``/``CANCELLED`` simply drops it (failures are never
        cached). Waiting claimants are released to coalesce onto the job.
        """
        with self._cond:
            self._pending.discard(fingerprint)
            if not self._closed:
                self._inflight[fingerprint] = (service, job.id)
                self._by_job[job.id] = fingerprint
            self._cond.notify_all()
        job.subscribe(self._on_transition)

    def release(self, fingerprint: str) -> None:
        """Abandon an owned fingerprint (the submit failed before a job
        existed); a waiting claimant inherits the miss."""
        with self._cond:
            self._pending.discard(fingerprint)
            self._cond.notify_all()

    # ---------------------------------------------------------- maintenance

    def invalidate_job(self, job_id: str) -> bool:
        """Forget whatever entry points at ``job_id`` (the job was deleted).

        A later identical submit recomputes instead of serving the dead
        job. Returns True when an entry was dropped.
        """
        with self._cond:
            fingerprint = self._by_job.pop(job_id, None)
            if fingerprint is None:
                return False
            self._done.pop(fingerprint, None)
            self._inflight.pop(fingerprint, None)
            self._invalidations += 1
            self._cond.notify_all()
            return True

    def seed(self, fingerprint: str, service: str, job_id: str, stored: float) -> bool:
        """Rehydrate one journaled entry (recovery path).

        The caller has already checked the job recovered ``DONE``; here
        the entry is dropped if its TTL lapsed across the outage or the
        fingerprint is already occupied. Returns True when seeded.
        """
        with self._cond:
            if self._closed or fingerprint in self._done or fingerprint in self._inflight:
                return False
            entry = _DoneEntry(service, job_id, stored)
            if self._expired(entry):
                return False
            self._done[fingerprint] = entry
            self._by_job[job_id] = fingerprint
            self._trim()
            return True

    # ----------------------------------------------------------- durability

    def join(self, spine: Any) -> None:
        """Register the cache vocabulary (records and snapshot section
        ``cache``), the cache's collectors and its shutdown action with
        the container's state spine."""
        self.journal_fn = spine.register(
            ("cache",), ("cache",), self._restore, lambda: {"cache": self.export()},
            collectors=self.instrument, close=self.close)

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        for record in [*(sections.get("cache") or []), *records]:
            apply_cache_event(self._recovered, record)

    def rehydrate(self, service: str, recovered_done: Callable[[str], bool]) -> int:
        """Re-seed ``service``'s journaled entries (once, at its deploy);
        returns how many. Only records whose job ``recovered_done`` are
        admitted: deleted jobs dropped out of recovery via their ``deleted``
        event, and failed/interrupted jobs must never be served from cache."""
        seeded = sum(
            1 for record in self._recovered.pop(service, {}).values()
            if recovered_done(record["id"])
            and self.seed(record["fp"], service, record["id"], record.get("stored", 0.0))
        )
        if seeded:
            logger.info("rehydrated %d cache entries for %s", seeded, service)
        return seeded

    def export(self) -> list[dict[str, Any]]:
        """The done tier as journal-shaped records (compaction snapshots)."""
        with self._cond:
            return [
                {"service": entry.service, "fp": fingerprint, "id": entry.job_id, "stored": entry.stored}
                for fingerprint, entry in self._done.items()
                if not self._expired(entry)
            ]

    def close(self) -> None:
        """Shut the cache: wake every pending claimant with
        :class:`CacheClosedError` and stop accepting registrations."""
        with self._cond:
            self._closed = True
            self._pending.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------- metrics

    def instrument(self, metrics: Any) -> None:
        """Register the cache's scrape-time collectors on ``metrics``."""

        def rows(**fields: str):
            def read():
                stats = self.stats
                return [((label,), getattr(stats, field)) for label, field in fields.items()]

            return read

        metrics.collector(
            "mc_cache_lookups_total", "Result-cache claims, by outcome.", "counter",
            rows(hit="hits", coalesced="coalesced", miss="misses"), labels=("outcome",))
        metrics.collector(
            "mc_cache_removals_total", "Result-cache entries removed, by reason.", "counter",
            rows(evicted="evictions", expired="expirations", invalidated="invalidations"),
            labels=("reason",))
        metrics.collector(
            "mc_cache_entries", "Result-cache done-tier entries held.",
            "gauge", lambda: len(self))

    @property
    def stats(self) -> CacheStats:
        with self._cond:
            return CacheStats(
                hits=self._hits,
                coalesced=self._coalesced,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                invalidations=self._invalidations,
            )

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._pending)

    def __len__(self) -> int:
        with self._cond:
            return len(self._done)

    def __contains__(self, fingerprint: object) -> bool:
        with self._cond:
            entry = self._done.get(fingerprint)  # type: ignore[arg-type]
            return entry is not None and not self._expired(entry)

    # ----------------------------------------------------------- internals

    def _expired(self, entry: _DoneEntry) -> bool:
        return self.ttl is not None and self.clock() - entry.stored >= self.ttl

    def _evict(self, fingerprint: str, entry: _DoneEntry, expired: bool = False) -> None:
        self._done.pop(fingerprint, None)
        if self._by_job.get(entry.job_id) == fingerprint:
            del self._by_job[entry.job_id]
        if expired:
            self._expirations += 1
        else:
            self._evictions += 1

    def _trim(self) -> None:
        while len(self._done) > self.capacity:
            fingerprint, entry = next(iter(self._done.items()))
            self._evict(fingerprint, entry)

    def _on_transition(self, job: Job, state: JobState) -> None:
        if not state.terminal:
            return
        promoted = None
        with self._cond:
            fingerprint = self._by_job.get(job.id)
            if fingerprint is None or self._inflight.get(fingerprint, (None, None))[1] != job.id:
                return
            service, _ = self._inflight.pop(fingerprint)
            if state is JobState.DONE and not self._closed:
                stored = self.clock()
                self._done[fingerprint] = _DoneEntry(service, job.id, stored)
                self._trim()
                if self._by_job.get(job.id) == fingerprint:
                    promoted = {"type": "cache", "service": service, "fp": fingerprint,
                                "id": job.id, "stored": stored}
            else:
                # FAILED / CANCELLED: never cached; the next identical
                # submit recomputes from scratch
                self._by_job.pop(job.id, None)
            self._cond.notify_all()
        if promoted is not None and self.journal_fn is not None:
            self.journal_fn(promoted)
