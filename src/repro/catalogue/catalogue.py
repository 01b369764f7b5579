"""The catalogue: publication, discovery, monitoring and annotation.

Publishing takes "a URI of the service and a few tags describing it"; the
catalogue then "retrieves service description via the unified REST API,
performs indexing and stores description along with specified tags"
(paper §3.2). A background pinger keeps availability current, and entries
can be tagged by users after publication (the paper's "collaborative
Web 2.0" feature). Joined to a host's state spine, publication, tagging
and unpublication are journaled; availability is not, because the next
probe round measures it afresh.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.catalogue.index import InvertedIndex
from repro.catalogue.snippets import make_snippet
from repro.http.client import ClientError, RestClient
from repro.http.registry import TransportRegistry
from repro.http.transport import TransportError
from repro.runtime.pool import ExecutorPool, PeriodicTask


class CatalogueError(Exception):
    """Publication or lookup failure."""


@dataclass
class CatalogueEntry:
    """One published service."""

    uri: str
    description: dict[str, Any]
    tags: set[str] = field(default_factory=set)
    available: bool = True
    #: Finer-grained availability for gateway-published services:
    #: ``up`` (responsive), ``degraded`` (responding with 5xx — e.g. a
    #: gateway whose replicas are all down or saturated), ``down``
    #: (unreachable at the transport level).
    status: str = "up"
    published_at: float = field(default_factory=time.time)
    last_ping: float | None = None

    @property
    def name(self) -> str:
        return str(self.description.get("name", ""))

    @property
    def title(self) -> str:
        return str(self.description.get("title", "")) or self.name

    def index_text(self) -> str:
        """The searchable text: name, title, prose, parameters and tags."""
        parts = [
            self.name,
            self.title,
            str(self.description.get("description", "")),
            " ".join(sorted(self.tags)),
        ]
        for group in ("inputs", "outputs"):
            for parameter_name, spec in self.description.get(group, {}).items():
                parts.append(parameter_name)
                if isinstance(spec, dict):
                    parts.append(str(spec.get("title", "")))
        return " ".join(part for part in parts if part)

    def to_json(self) -> dict[str, Any]:
        return {
            "uri": self.uri,
            "description": self.description,
            "tags": sorted(self.tags),
            "available": self.available,
            "status": self.status,
            "published_at": self.published_at,
            "last_ping": self.last_ping,
        }

    def durable(self) -> dict[str, Any]:
        """What the journal keeps: what the publisher and annotators set."""
        return {
            "uri": self.uri,
            "description": self.description,
            "tags": sorted(self.tags),
            "published_at": self.published_at,
        }

    @classmethod
    def from_json(cls, document: dict[str, Any]) -> "CatalogueEntry":
        return cls(
            uri=document["uri"],
            description=document["description"],
            tags=set(document.get("tags", [])),
            available=bool(document.get("available", True)),
            status=str(document.get("status", "up")),
            published_at=float(document.get("published_at", time.time())),
            last_ping=document.get("last_ping"),
        )


class Catalogue:
    """Discovery, monitoring and annotation of computational web services."""

    #: Probes one :meth:`ping_all` round runs at once.
    PROBE_WORKERS = 2

    def __init__(self, registry: TransportRegistry | None = None):
        self.registry = registry or TransportRegistry()
        self._client = RestClient(self.registry)
        self._probe_client = RestClient(self.registry, retry_after_cap=0.0)
        self._entries: dict[str, CatalogueEntry] = {}
        self._index = InvertedIndex()
        self._lock = threading.Lock()
        self._pinger: PeriodicTask | None = None
        self._probe_pool: ExecutorPool | None = None
        #: The journal sink (set by :meth:`join`; ``None`` when volatile).
        self.journal_fn: "Callable[[dict[str, Any]], None] | None" = None

    # ---------------------------------------------------------- publication

    def publish(self, uri: str, tags: list[str] | None = None) -> CatalogueEntry:
        """Register a service by URI; its description is fetched and indexed."""
        uri = uri.rstrip("/")
        try:
            description = self._client.get(uri)
        except (ClientError, TransportError) as exc:
            raise CatalogueError(f"cannot retrieve service description from {uri!r}: {exc}") from exc
        if not isinstance(description, dict) or "name" not in description:
            raise CatalogueError(f"{uri!r} did not return a service description")
        entry = CatalogueEntry(uri=uri, description=description, tags=set(tags or []))
        with self._lock:
            self._put(entry)
        return entry

    def unpublish(self, uri: str) -> None:
        with self._lock:
            entry = self._get(uri)
            del self._entries[entry.uri]
            self._index.remove(entry.uri)
            if self.journal_fn is not None:
                self.journal_fn({"type": "catalogue", "event": "drop", "uri": entry.uri})

    def entry(self, uri: str) -> CatalogueEntry:
        with self._lock:
            return self._get(uri)

    def entries(self) -> list[CatalogueEntry]:
        with self._lock:
            return list(self._entries.values())

    def add_tags(self, uri: str, tags: list[str]) -> CatalogueEntry:
        """User tagging (the catalogue's collaborative feature)."""
        with self._lock:
            entry = self._get(uri)
            entry.tags.update(tags)
            self._put(entry)
        return entry

    def _get(self, uri: str) -> CatalogueEntry:
        entry = self._entries.get(uri.rstrip("/"))
        if entry is None:
            raise CatalogueError(f"service {uri!r} is not published")
        return entry

    def _put(self, entry: CatalogueEntry) -> None:
        # under the lock: the journal sees changes to one URI in the order
        # they were made, which keeps the folds below state-setting
        self._entries[entry.uri] = entry
        self._index.add(entry.uri, entry.index_text())
        if self.journal_fn is not None:
            self.journal_fn({"type": "catalogue", "event": "put", "entry": entry.durable()})

    # ---------------------------------------------------------- durability

    def join(self, spine: Any) -> None:
        """Register the catalogue vocabulary (``catalogue`` records and
        snapshot section), its collector and its shutdown action with the
        host's state spine."""
        self.journal_fn = spine.register(
            ("catalogue",), ("catalogue",), self._restore,
            lambda: {"catalogue": self.export()},
            collectors=self.instrument, close=self.close)

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        # the spine restores before it hands out the sink: _put journals nothing here
        for document in sections.get("catalogue") or []:
            self._put(CatalogueEntry.from_json(document))
        for record in records:
            if record.get("event") == "put":
                self._put(CatalogueEntry.from_json(record["entry"]))
            elif record.get("event") == "drop" and self._entries.pop(record["uri"], None):
                self._index.remove(record["uri"])

    def export(self) -> list[dict[str, Any]]:
        """Every entry in its durable form (compaction snapshots)."""
        with self._lock:
            return [entry.durable() for entry in self._entries.values()]

    def instrument(self, metrics: Any) -> None:
        """Register the catalogue's scrape-time collector on ``metrics``."""

        def by_status():
            tally = Counter(entry.status for entry in self.entries())
            return [((status,), count) for status, count in sorted(tally.items())]

        metrics.collector(
            "mc_catalogue_entries", "Published services, by last probed status.",
            "gauge", by_status, labels=("status",))

    # -------------------------------------------------------------- search

    def search(
        self,
        query: str,
        tag: str | None = None,
        available_only: bool = False,
        limit: int = 20,
    ) -> list[dict[str, Any]]:
        """Ranked full-text search with optional filters.

        Each hit carries the entry plus a highlighted snippet. An empty
        query with a tag filter lists that tag's services (newest first).
        """
        if query.strip():
            ranked = self._index.search(query)
            ordered = [self._entries.get(uri) for uri, _ in ranked]
        else:
            ordered = sorted(self.entries(), key=lambda e: -e.published_at)
        hits: list[dict[str, Any]] = []
        for entry in ordered:
            if entry is None:
                continue
            if tag is not None and tag not in entry.tags:
                continue
            if available_only and not entry.available:
                continue
            hits.append(
                {
                    "uri": entry.uri,
                    "name": entry.name,
                    "title": entry.title,
                    "tags": sorted(entry.tags),
                    "available": entry.available,
                    "snippet": make_snippet(entry.index_text(), query),
                }
            )
            if len(hits) >= limit:
                break
        return hits

    # ----------------------------------------------------------- monitoring

    def ping(self, uri: str) -> bool:
        """Probe one service; updates and returns its availability.

        A 5xx answer (a gateway with its whole replica pool down reports
        503) marks the entry ``degraded`` — published and addressable but
        not currently serving — while a transport failure marks it
        ``down``. Probes never honour ``Retry-After`` waits: a ping must
        report *now*, not after the service recovers.
        """
        entry = self.entry(uri)
        try:
            response = self._probe_client.request_raw("GET", entry.uri)
        except (ClientError, TransportError):
            entry.available = False
            entry.status = "down"
        else:
            entry.available = response.ok
            if response.ok:
                entry.status = "up"
            elif response.status >= 500:
                entry.status = "degraded"
            else:  # 404 and friends: the service resource itself is gone
                entry.status = "down"
        entry.last_ping = time.time()
        return entry.available

    def ping_all(self) -> dict[str, bool]:
        """One probe round over every entry, fanned out over the probe
        pool: an unreachable service costs the round one probe timeout,
        not one per entry behind it. Entries unpublished meanwhile drop
        out of the answer."""
        with self._lock:
            if self._probe_pool is None:
                self._probe_pool = ExecutorPool(self.PROBE_WORKERS, name="catalogue-probe")
            pool = self._probe_pool
        handles = {entry.uri: pool.submit(self.ping, entry.uri) for entry in self.entries()}
        for handle in handles.values():
            handle.wait()
        return {uri: handle.result for uri, handle in handles.items() if handle.error is None}

    def start_pinger(self, interval: float = 30.0) -> None:
        """Run :meth:`ping_all` every ``interval`` seconds."""
        if self._pinger is not None:
            raise RuntimeError("pinger already running")
        self._pinger = PeriodicTask(interval, self.ping_all, name="catalogue-pinger")
        self._pinger.start()

    def stop_pinger(self) -> None:
        if self._pinger is None:
            return
        self._pinger.stop()
        self._pinger = None

    def close(self) -> None:
        """Stop the pinger and release the probe pool's threads."""
        self.stop_pinger()
        with self._lock:
            pool, self._probe_pool = self._probe_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
