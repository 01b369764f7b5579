"""The write-ahead journal: append-only, checksummed, crash-tolerant.

On-disk layout (one directory per journal)::

    segment-00000001.waj      length-prefixed records, oldest first
    segment-00000002.waj
    snapshot-00000002.waj     state snapshot covering segments < 2
    ...

Record framing: every record is ``[length:u32 BE][crc32:u32 BE][payload]``
where the payload is the UTF-8 JSON encoding of one dict. A crash can
leave at most one torn record at the tail of the newest segment; replay
detects it (short header, short payload, or checksum mismatch), keeps
everything up to the last valid record, logs a warning, and never raises.

Segments rotate at ``segment_max_bytes``. A snapshot written through
:meth:`Journal.snapshot` makes every older segment (and older snapshot)
redundant; compaction deletes them, bounding recovery time by snapshot
age rather than journal lifetime. :meth:`Journal.cut` fixes the
snapshot's index *before* the state is exported, so records appended
meanwhile land in a segment the snapshot does not cover. Snapshot files
use the same framing (one record) and are written to a temp name then
atomically renamed, so a crash mid-snapshot leaves the previous snapshot
authoritative.

Appends never touch existing segments: a journal opened over a directory
with history always starts a fresh segment, so a torn tail from the
previous incarnation is quarantined rather than appended after.

``fsync`` policy — the hot-path knob:

- ``"always"``: flush + fsync after every append (safest, slowest);
- ``"batch"`` (default): group commit — every append is flushed to the
  OS (microseconds: a ``SIGKILL``'d process loses nothing, the page
  cache survives it), and every ``fsync_batch``-th append wakes a
  dedicated syncer thread that fsyncs on behalf of the whole batch, so
  the append path never waits for the disk at all. Only a power failure
  or kernel crash can cost the records since the last sync point;
- ``"never"``: buffer only, leave flushing to rotation/close/sync.

In never mode process death can additionally lose the user-space buffer;
a graceful teardown loses nothing in any mode, because :meth:`close`
(and :meth:`recover` on a live journal) flush the buffer first.
"""

from __future__ import annotations

import json
import logging
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterator

logger = logging.getLogger(__name__)

_HEADER = struct.Struct(">II")  # payload length, crc32(payload)
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.waj$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.waj$")

_FSYNC_MODES = ("always", "batch", "never")


@dataclass
class JournalRecovery:
    """What :meth:`Journal.recover` found on disk.

    ``snapshot`` is the newest valid snapshot state (or ``None``);
    ``records`` are every valid record appended after it, in order;
    ``warnings`` describe any corruption that was tolerated.
    """

    snapshot: "dict[str, Any] | None" = None
    records: list[dict[str, Any]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.records


def encode_record(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_records(stream: BinaryIO, origin: str, warnings: list[str]) -> Iterator[dict[str, Any]]:
    """Yield valid records; stop (with a warning) at the first torn one.

    After a framing or checksum failure the rest of the stream cannot be
    trusted — record boundaries are gone — so replay stops at the last
    valid record rather than resynchronising heuristically.
    """
    while True:
        header = stream.read(_HEADER.size)
        if not header:
            return
        if len(header) < _HEADER.size:
            warnings.append(f"{origin}: truncated record header ({len(header)} bytes); tail dropped")
            return
        length, checksum = _HEADER.unpack(header)
        payload = stream.read(length)
        if len(payload) < length:
            warnings.append(
                f"{origin}: truncated record payload ({len(payload)}/{length} bytes); tail dropped"
            )
            return
        if zlib.crc32(payload) != checksum:
            warnings.append(f"{origin}: record checksum mismatch; record and tail dropped")
            return
        try:
            record = json.loads(payload)
        except ValueError:
            warnings.append(f"{origin}: record is not valid JSON; record and tail dropped")
            return
        if isinstance(record, dict):
            yield record
        else:
            warnings.append(f"{origin}: record is not an object; skipped")


class Journal:
    """An append-only write-ahead journal over one directory.

    Thread-safe: appends from handler threads, transition observers and
    schedulers serialize on an internal lock. :meth:`close` makes further
    appends silent no-ops — the crash controllers use that to model the
    instant a process loses the ability to persist anything.
    """

    def __init__(
        self,
        directory: "str | Path",
        segment_max_bytes: int = 1 << 20,
        fsync: str = "batch",
        fsync_batch: int = 32,
    ):
        if fsync not in _FSYNC_MODES:
            raise ValueError(f"fsync must be one of {_FSYNC_MODES}, got {fsync!r}")
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be positive")
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        self.fsync_batch = fsync_batch
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._sync_wanted = threading.Event()
        self._syncer: threading.Thread | None = None
        self._file: BinaryIO | None = None
        self._file_bytes = 0
        self._unsynced = 0
        self._closed = False
        self.records_appended = 0
        self.segments_created = 0
        # never append into an existing segment: its tail may be torn
        self._next_index = self._scan_next_index()

    # --------------------------------------------------------------- append

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (per the fsync policy)."""
        data = encode_record(record)
        with self._lock:
            if self._closed:
                return
            if self._file is None or self._file_bytes >= self.segment_max_bytes:
                self._rotate()
            self._file.write(data)
            self._file_bytes += len(data)
            self.records_appended += 1
            if self.fsync == "always":
                self._file.flush()
                os.fsync(self._file.fileno())
                self._unsynced = 0
            elif self.fsync == "batch":
                # into the page cache now — a killed process loses nothing;
                # only the fsync (power-failure durability) is batched
                self._file.flush()
                self._unsynced += 1
                if self._unsynced >= self.fsync_batch:
                    self._unsynced = 0
                    if self._syncer is None:
                        self._syncer = threading.Thread(
                            target=self._sync_loop,
                            name=f"waj-sync-{self.directory.name}",
                            daemon=True,
                        )
                        self._syncer.start()
                    self._sync_wanted.set()

    def _sync_loop(self) -> None:
        """The group-commit thread: fsync on behalf of whole batches.

        Appenders only ever write into the buffer and wake this thread at
        batch boundaries — the append path itself never waits for the
        disk, exactly like a database log writer.
        """
        while True:
            self._sync_wanted.wait()
            self._sync_wanted.clear()
            with self._sync_lock:
                with self._lock:
                    if self._closed:
                        return
                    file = self._file
                    if file is None:
                        continue
                    file.flush()
                try:
                    os.fsync(file.fileno())
                except (OSError, ValueError):
                    pass  # rotated or closed underneath us: the next sync covers it

    def sync(self) -> None:
        """Force any batched appends down to disk now."""
        with self._lock:
            if self._file is not None and not self._closed:
                self._file.flush()
                if self.fsync != "never":
                    os.fsync(self._file.fileno())
                self._unsynced = 0

    def close(self) -> None:
        """Stop persisting; subsequent appends are dropped.

        A graceful shutdown calls :meth:`sync` first; a simulated crash
        calls :meth:`close` alone, so whatever the dead incarnation still
        tries to write is lost — exactly like the real thing.
        """
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None
        self._sync_wanted.set()  # release the syncer thread, if any

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def unsynced_records(self) -> int:
        """Appended records not yet covered by an fsync (group-commit lag).

        Read without the lock on purpose: this feeds the ``/metrics``
        scrape, which must never contend with the append path. A slightly
        stale integer is fine for a gauge.
        """
        return self._unsynced

    # ------------------------------------------------------------- snapshot

    def cut(self) -> "int | None":
        """Seal the open segment and return the index a snapshot of state
        exported *after* this call must carry (``None`` once closed):
        every record appended so far sits in a segment below that index,
        every later append in one at or above it."""
        with self._lock:
            if self._closed:
                return None
            self._seal()
            return self._next_index

    def snapshot(self, state: dict[str, Any], index: "int | None" = None) -> None:
        """Write a compaction snapshot and delete the segments it covers.

        ``index`` is what :meth:`cut` returned before ``state`` was
        exported; without one the cut happens here, which is only safe
        when nothing can append between the export and this call. Replay
        applies the snapshot, then every segment at or above its index.
        The write is atomic (temp file + rename), and older
        segments/snapshots are removed only after the rename succeeds.
        """
        data = encode_record(state)
        with self._lock:
            if self._closed:
                return
            if index is None:
                self._seal()
                index = self._next_index
            final = self.directory / f"snapshot-{index:08d}.waj"
            temp = self.directory / f"snapshot-{index:08d}.waj.tmp"
            with open(temp, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp, final)
            for pattern in (_SEGMENT_RE, _SNAPSHOT_RE):
                for path, file_index in self._matching(pattern):
                    if file_index < index:
                        path.unlink(missing_ok=True)

    # ------------------------------------------------------------- recovery

    def recover(self) -> JournalRecovery:
        """Read everything valid on disk: newest good snapshot + records.

        Tolerates torn tails, checksum flips and empty segment files —
        each produces a warning, never an exception. Corrupt snapshots
        fall back to the next older one (replaying correspondingly more
        segments).
        """
        recovery = JournalRecovery()
        with self._lock:
            if self._file is not None and not self._closed:
                self._file.flush()  # a live journal reads its own buffer back
            snapshots = sorted(self._matching(_SNAPSHOT_RE), key=lambda item: item[1], reverse=True)
            segments = sorted(self._matching(_SEGMENT_RE), key=lambda item: item[1])
        snapshot_index = 0
        for path, index in snapshots:
            state = self._read_snapshot(path, recovery.warnings)
            if state is not None:
                recovery.snapshot = state
                snapshot_index = index
                break
        for path, index in segments:
            if index < snapshot_index:
                continue  # compacted away logically, even if the file survived
            if path.stat().st_size == 0:
                recovery.warnings.append(f"{path.name}: empty segment (crash before first record)")
                continue
            with open(path, "rb") as stream:
                recovery.records.extend(read_records(stream, path.name, recovery.warnings))
        for warning in recovery.warnings:
            logger.warning("journal %s: %s", self.directory, warning)
        return recovery

    # ------------------------------------------------------------ internals

    def _scan_next_index(self) -> int:
        found = self._matching(_SEGMENT_RE) + self._matching(_SNAPSHOT_RE)
        return max((index for _, index in found), default=0) + 1

    def _matching(self, pattern: "re.Pattern[str]") -> list[tuple[Path, int]]:
        found = []
        for path in self.directory.iterdir():
            match = pattern.match(path.name)
            if match:
                found.append((path, int(match.group(1))))
        return found

    def _seal(self) -> None:
        """Flush, sync and close the open segment (under the journal lock)."""
        if self._file is not None:
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
        self._file_bytes = 0
        self._unsynced = 0

    def _rotate(self) -> None:
        """Open the next segment (under the journal lock)."""
        self._seal()
        path = self.directory / f"segment-{self._next_index:08d}.waj"
        self._next_index += 1
        self._file = open(path, "ab")
        self.segments_created += 1

    @staticmethod
    def _read_snapshot(path: Path, warnings: list[str]) -> "dict[str, Any] | None":
        with open(path, "rb") as stream:
            states = list(read_records(stream, path.name, warnings))
        if not states:
            warnings.append(f"{path.name}: unreadable snapshot; falling back")
            return None
        return states[0]
