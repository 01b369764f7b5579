"""The durable-state spine: one journal, many registered participants.

A host that keeps durable state (service container, WMS, batch cluster)
owns one :class:`StateSpine`. The spine owns the
:class:`~repro.durability.journal.Journal` (or none, when the host runs
volatile), reads it back **once** at construction, and lets each plane of
the host register as a *participant*: the record ``"type"`` strings and
snapshot section keys that are its vocabulary, a ``restore`` that folds
them into its own state, an ``export`` for compaction, and optionally its
``/metrics`` collectors and a shutdown action. Routing by type happens at
recovery only; on the append path the participant calls
:meth:`StateSpine.append` with each finished record.

Compaction is **cut, export, write, unlink**: the journal is cut before
any participant exports, so a record appended meanwhile is both in the
export and replayed on top of it. Every fold must therefore be idempotent
over records its own export reflects — state-setting folds are; tenant
usage, a sum, numbers its records so its export can say which it covers.
"""

from __future__ import annotations

import logging
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.durability.journal import Journal, JournalRecovery

__all__ = ["StateSpine"]

logger = logging.getLogger(__name__)

Record = dict[str, Any]


class StateSpine:
    """Recovery, best-effort append, compaction and shutdown for one host."""

    def __init__(
        self,
        journal_dir: "str | Path | None" = None,
        fsync: str = "batch",
        metrics: Any = None,
    ):
        journal = Journal(Path(journal_dir), fsync=fsync) if journal_dir is not None else None
        self.journal: Journal | None = journal
        #: The host's metrics registry; participants' collectors land here.
        self.metrics = metrics
        #: Records dropped because the journal refused them (degraded mode).
        self.append_failures = 0
        self._exports: list[Callable[[], dict[str, Any]]] = []
        self._closers: list[Callable[[], None]] = []
        recovery = journal.recover() if journal is not None else JournalRecovery()
        self._warnings: list[str] = recovery.warnings
        self._sections: dict[str, Any] = recovery.snapshot or {}
        self._records = [r for r in recovery.records if isinstance(r.get("type"), str)]
        untyped = len(recovery.records) - len(self._records)
        if untyped:
            self._warnings.append(f"{untyped} record(s) without a type skipped")
            logger.warning("journal %s: %s", journal_dir, self._warnings[-1])
        if journal is not None and metrics is not None:
            metrics.collector(
                "mc_journal_records_total", "Records appended to the write-ahead journal.",
                "counter", lambda: journal.records_appended)
            metrics.collector(
                "mc_journal_segments_total", "Journal segments created.",
                "counter", lambda: journal.segments_created)
            metrics.collector(
                "mc_journal_unsynced_records",
                "Appended records not yet covered by an fsync (group-commit lag).",
                "gauge", lambda: journal.unsynced_records)
            metrics.collector(
                "mc_journal_append_failures_total",
                "Records dropped because the journal refused the append.",
                "counter", lambda: self.append_failures)

    # ---------------------------------------------------------- registration

    def register(
        self,
        types: Sequence[str],
        sections: Sequence[str],
        restore: Callable[[dict[str, Any], list[Record]], None],
        export: Callable[[], dict[str, Any]],
        collectors: "Callable[[Any], None] | None" = None,
        close: "Callable[[], None] | None" = None,
    ) -> "Callable[[Record], None] | None":
        """Add a participant and hand it what recovery read for it:
        ``restore(sections, records)`` receives the snapshot sections it
        named (those present) and, in journal order, every record whose
        ``"type"`` it named; ``export()`` returns its sections for the
        next snapshot. Returns the participant's journal sink —
        :meth:`append`, or ``None`` when the host is volatile, so record
        building can be skipped altogether."""
        self._exports.append(export)
        if close is not None:
            self._closers.append(close)
        mine = [record for record in self._records if record["type"] in types]
        if mine:
            self._records = [r for r in self._records if r["type"] not in types]
        restore({key: self._sections.pop(key) for key in sections if key in self._sections}, mine)
        if collectors is not None and self.metrics is not None:
            collectors(self.metrics)
        return self.append if self.journal is not None else None

    @property
    def recovery_warnings(self) -> list[str]:
        """Corruption tolerated at recovery, plus one line per record type
        no participant has (yet) claimed."""
        unclaimed = Counter(record["type"] for record in self._records)
        return self._warnings + [
            f"{count} record(s) of unregistered type {kind!r} ignored"
            for kind, count in sorted(unclaimed.items())
        ]

    # ---------------------------------------------------------------- append

    def append(self, record: Record) -> None:
        """Journal one record; persistence failures never break processing."""
        try:
            self.journal.append(record)
        except Exception as error:  # noqa: BLE001 - best-effort, but counted
            self.append_failures += 1
            logger.error("journal append failed for %s %s: %s",
                         record.get("type"), record.get("id"), error)

    # ------------------------------------------------------------ compaction

    def compact(self) -> None:
        """Snapshot every participant's state and drop covered segments
        (safe to call concurrently: recovery takes the newest snapshot)."""
        if self.journal is None:
            return
        index = self.journal.cut()
        if index is None:
            return
        state: dict[str, Any] = {}
        for export in self._exports:
            state.update(export())
        self.journal.snapshot(state, index)

    # -------------------------------------------------------------- shutdown

    def close(self) -> None:
        """Graceful stop: participants' shutdown actions (registration
        order), then sync + close."""
        for close in self._closers:
            close()
        if self.journal is not None:
            self.journal.sync()
            self.journal.close()

    def crash(self) -> None:
        """Cold stop: the journal goes first, so nothing after this call
        is persisted; then the participants are released."""
        if self.journal is not None:
            self.journal.close()
        for close in self._closers:
            close()
