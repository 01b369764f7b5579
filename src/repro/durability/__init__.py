"""Durable state: write-ahead journaling and crash recovery.

Everything in the platform that promises "a submitted job stays an
addressable resource" keeps that promise only as long as the process
lives — unless its state is journaled. This package provides the one
shared substrate:

- :class:`Journal` — an append-only write-ahead journal of JSON records
  (length-prefixed, checksummed, segment-rotated, snapshot-compacted)
  whose replay tolerates the torn tails a crash leaves behind;
- :class:`StateSpine` — what every journal-backed host shares: it owns
  the journal, recovers once, routes what it read to the participants
  registered against it (by record ``"type"`` and snapshot section), and
  owns the one best-effort append, the one compaction and the one
  graceful/cold shutdown;
- :class:`Recoverable` — the protocol of every host that can be
  cold-restarted from its journal (the service container, the workflow
  management service, the batch cluster).

The division of labour: the journal knows bytes and records, the spine
knows types and sections, the participants know their own record
vocabulary. A participant appends one record per externally observable
state change, and at registration folds whatever its host's journal
directory already held back into the state it had before the crash.
"""

from repro.durability.journal import Journal, JournalRecovery, encode_record, read_records
from repro.durability.recovery import Recoverable
from repro.durability.spine import StateSpine

__all__ = [
    "Journal",
    "JournalRecovery",
    "Recoverable",
    "StateSpine",
    "encode_record",
    "read_records",
]
