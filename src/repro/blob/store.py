"""The chunked content-addressed blob store.

A *blob* is an immutable byte sequence addressed by the SHA-256 of its
content (the same :mod:`repro.cache.fingerprint` hashing the result cache
uses, so a blob digest doubles as the ``{"$content": ...}`` value in a job
fingerprint). On disk a blob is a *manifest* — an ordered list of chunk
digests — plus the chunk files themselves, each addressed by its own
digest so identical chunks are stored once across all blobs.

Layout under the store directory::

    chunks/<chunk digest>          one file per distinct chunk
    manifests/<blob digest>.json   one manifest per committed blob

Commit is atomic: chunks are written first (via tmp-file + rename, so a
torn write never corrupts an existing chunk), then the manifest is
renamed into place. A crash mid-upload therefore leaves orphan chunks at
worst — never a committed partial blob — and orphans are swept by GC.

Garbage collection is refcounted through *pins*: a pin is a
``(digest, owner)`` pair (owners are strings like ``job:<id>``) recorded
in the container's write-ahead journal as ``{"type": "blob"}`` records
(:meth:`BlobStore.join` registers the vocabulary with the container's
state spine), so the pin set survives a cold restart.
:meth:`BlobStore.gc` collects committed blobs with no pins (after a grace
period, so a blob uploaded just before its job submission cannot be swept
in between) and then drops chunk files no surviving manifest references.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.blob.chunker import DEFAULT_CHUNK_SIZE, rechunk
from repro.cache.fingerprint import ContentHasher, hash_bytes

__all__ = [
    "BlobError",
    "BlobDigestMismatch",
    "BlobNotFound",
    "BlobManifest",
    "BlobStore",
    "BlobUpload",
    "apply_blob_event",
]

logger = logging.getLogger(__name__)

#: Seconds an unpinned blob is left alone after commit before GC may take
#: it — the window between "client uploaded the blob" and "client
#: submitted the job that pins it".
DEFAULT_GC_GRACE = 60.0

_READ_SIZE = 256 * 1024


def apply_blob_event(table: dict[str, dict[str, Any]], record: dict[str, Any]) -> None:
    """Fold one blob record into the recovery table (digest → entry).

    Events mirror the blob store's lifecycle: ``commit`` makes a digest
    known, ``pin``/``unpin`` maintain its owner list, ``collect`` removes
    it. Replaying the whole journal therefore reproduces the exact pin
    state at crash time, which is what keeps GC safe across restarts.
    """
    digest, event = record.get("digest"), record.get("event")
    if not digest or not event:
        return
    if event == "collect":
        table.pop(digest, None)
        return
    entry = table.setdefault(digest, {"committed": False, "pins": []})
    if event == "commit":
        entry["committed"] = True
    elif event == "pin":
        owner = record.get("owner")
        if owner and owner not in entry["pins"]:
            entry["pins"].append(owner)
    elif event == "unpin":
        owner = record.get("owner")
        if owner in entry["pins"]:
            entry["pins"].remove(owner)


class BlobError(Exception):
    """A blob-store operation failed."""


class BlobNotFound(BlobError):
    """The requested digest is not committed in this store."""


class BlobDigestMismatch(BlobError):
    """Uploaded content does not hash to the digest the caller claimed."""


@dataclass
class BlobManifest:
    """The committed description of one blob."""

    digest: str
    size: int
    chunk_size: int
    #: Ordered ``[digest, size]`` pairs; concatenating the chunks in order
    #: reproduces the content, and ``sha256(content) == digest``.
    chunks: list[list[Any]] = field(default_factory=list)
    content_type: str = ""

    def to_json(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "digest": self.digest,
            "size": self.size,
            "chunkSize": self.chunk_size,
            "chunks": [[digest, size] for digest, size in self.chunks],
        }
        if self.content_type:
            document["contentType"] = self.content_type
        return document

    @classmethod
    def from_json(cls, document: dict[str, Any]) -> "BlobManifest":
        try:
            chunks = [[str(digest), int(size)] for digest, size in document["chunks"]]
            manifest = cls(
                digest=str(document["digest"]),
                size=int(document["size"]),
                chunk_size=int(document.get("chunkSize", DEFAULT_CHUNK_SIZE)),
                chunks=chunks,
                content_type=str(document.get("contentType", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BlobError(f"malformed blob manifest: {exc}") from exc
        if sum(size for _digest, size in manifest.chunks) != manifest.size:
            raise BlobError("malformed blob manifest: chunk sizes do not sum to size")
        return manifest


class BlobUpload:
    """One in-progress streaming upload (created by :meth:`BlobStore.begin_upload`).

    ``write`` accepts arbitrarily sized buffers; full chunks are hashed
    and flushed to disk as they fill, so an upload of any size holds at
    most one chunk in memory. ``commit`` seals the blob: the manifest is
    written atomically, and when the caller claimed a digest up front it
    is verified against the actual content hash first.
    """

    def __init__(self, store: "BlobStore", content_type: str = ""):
        self._store = store
        self.content_type = content_type
        self._hasher = ContentHasher()
        self._pending = bytearray()
        self._chunks: list[list[Any]] = []
        self._size = 0
        self._done = False

    @property
    def size(self) -> int:
        return self._size

    def write(self, data: "bytes | bytearray | memoryview") -> None:
        if self._done:
            raise BlobError("upload already committed or aborted")
        if not data:
            return
        self._hasher.update(data)
        self._size += len(data)
        chunk_size = self._store.chunk_size
        with memoryview(data) as view:
            start = 0
            if self._pending:
                # top up the chunk an earlier, unaligned write left open
                start = chunk_size - len(self._pending)
                self._pending.extend(view[:start])
                if len(self._pending) < chunk_size:
                    return
                self._flush(self._pending)
                self._pending = bytearray()
            # whole chunks go to disk straight from the caller's buffer
            while len(view) - start >= chunk_size:
                self._flush(view[start : start + chunk_size])
                start += chunk_size
            self._pending.extend(view[start:])

    def _flush(self, chunk: "bytes | bytearray | memoryview") -> None:
        digest = hash_bytes(chunk)
        self._store._write_chunk(digest, chunk)
        self._chunks.append([digest, len(chunk)])

    def commit(self, expected: "str | None" = None) -> BlobManifest:
        """Seal the upload; returns the committed manifest.

        With ``expected`` the content digest is verified and a mismatch
        aborts the upload (no manifest appears) — the wire contract of
        ``PUT /blobs/{digest}``.
        """
        if self._done:
            raise BlobError("upload already committed or aborted")
        self._done = True
        if self._pending:
            self._flush(self._pending)
            self._pending = bytearray()
        digest = self._hasher.hexdigest()
        if expected is not None and expected != digest:
            raise BlobDigestMismatch(
                f"content hashes to {digest}, not the claimed {expected}"
            )
        manifest = BlobManifest(
            digest=digest,
            size=self._size,
            chunk_size=self._store.chunk_size,
            chunks=self._chunks,
            content_type=self.content_type,
        )
        self._store._commit(manifest)
        return manifest

    def abort(self) -> None:
        """Drop the upload; chunks already flushed stay as GC-able orphans."""
        self._done = True
        self._pending = bytearray()


class BlobStore:
    """Directory-backed content-addressed blob storage with journaled pins."""

    def __init__(
        self,
        directory: "str | Path",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        gc_grace: float = DEFAULT_GC_GRACE,
    ):
        self.directory = Path(directory)
        self.chunk_size = chunk_size
        #: Journal sink for ``{"type": "blob"}`` records (commit/pin/unpin/
        #: collect); set by :meth:`join` (``None`` while volatile).
        self.journal_fn: "Callable[[dict[str, Any]], None] | None" = None
        self.gc_grace = gc_grace
        self._chunk_dir = self.directory / "chunks"
        self._manifest_dir = self.directory / "manifests"
        self._chunk_dir.mkdir(parents=True, exist_ok=True)
        self._manifest_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._manifests: dict[str, BlobManifest] = {}
        self._pins: dict[str, set[str]] = {}
        self._committed_at: dict[str, float] = {}
        self.chunks_deduped = 0
        self.blobs_collected = 0
        self._load()

    def _load(self) -> None:
        """Index the manifests already on disk (committed = manifest exists)."""
        for path in self._manifest_dir.glob("*.json"):
            try:
                manifest = BlobManifest.from_json(json.loads(path.read_text()))
            except (ValueError, BlobError) as exc:
                logger.warning("ignoring unreadable blob manifest %s: %s", path.name, exc)
                continue
            if manifest.digest != path.stem:
                logger.warning("ignoring mislabeled blob manifest %s", path.name)
                continue
            self._manifests[manifest.digest] = manifest
            self._committed_at[manifest.digest] = path.stat().st_mtime

    # ------------------------------------------------------------- writing

    def begin_upload(self, content_type: str = "") -> BlobUpload:
        return BlobUpload(self, content_type=content_type)

    def put_bytes(self, content: "bytes | Iterable[bytes]", content_type: str = "") -> BlobManifest:
        """Store ``content`` (a buffer or chunk iterable); returns its manifest."""
        upload = self.begin_upload(content_type=content_type)
        for piece in rechunk(content, self.chunk_size):
            upload.write(piece)
        return upload.commit()

    def _write_chunk(self, digest: str, chunk: "bytes | bytearray | memoryview") -> None:
        """Persist one chunk under its digest (idempotent, atomic)."""
        target = self._chunk_dir / digest
        if target.exists():
            with self._lock:
                self.chunks_deduped += 1
            return
        tmp = self._chunk_dir / f".tmp-{uuid.uuid4().hex}"
        tmp.write_bytes(chunk)
        os.replace(tmp, target)

    def add_chunk(self, digest: str, chunk: bytes) -> None:
        """Add one externally fetched chunk, verifying its digest (staging)."""
        actual = hash_bytes(chunk)
        if actual != digest:
            raise BlobDigestMismatch(f"chunk hashes to {actual}, not the claimed {digest}")
        self._write_chunk(digest, chunk)

    def has_chunk(self, digest: str) -> bool:
        return (self._chunk_dir / digest).exists()

    def commit_manifest(self, manifest: BlobManifest) -> BlobManifest:
        """Commit a blob assembled chunk-by-chunk (the staging path).

        Every chunk must already be present; the full content digest is
        recomputed from the chunk files before the manifest appears, so a
        forged or corrupted manifest can never commit under a digest its
        bytes do not hash to.
        """
        if self.exists(manifest.digest):
            return self._manifests[manifest.digest]
        hasher = ContentHasher()
        for digest, size in manifest.chunks:
            path = self._chunk_dir / digest
            if not path.exists():
                raise BlobError(f"cannot commit {manifest.digest}: missing chunk {digest}")
            data = path.read_bytes()
            if len(data) != size:
                raise BlobError(f"cannot commit {manifest.digest}: chunk {digest} has wrong size")
            hasher.update(data)
        actual = hasher.hexdigest()
        if actual != manifest.digest:
            raise BlobDigestMismatch(
                f"assembled content hashes to {actual}, not the claimed {manifest.digest}"
            )
        self._commit(manifest)
        return manifest

    def _commit(self, manifest: BlobManifest) -> None:
        with self._lock:
            fresh = manifest.digest not in self._manifests
            if fresh:
                tmp = self._manifest_dir / f".tmp-{uuid.uuid4().hex}"
                tmp.write_text(json.dumps(manifest.to_json()))
                os.replace(tmp, self._manifest_dir / f"{manifest.digest}.json")
                self._manifests[manifest.digest] = manifest
                self._committed_at[manifest.digest] = time.time()
        if fresh:
            self._journal(
                {"type": "blob", "event": "commit", "digest": manifest.digest, "size": manifest.size}
            )

    # ------------------------------------------------------------- reading

    def exists(self, digest: str) -> bool:
        with self._lock:
            return digest in self._manifests

    def manifest(self, digest: str) -> BlobManifest:
        with self._lock:
            manifest = self._manifests.get(digest)
        if manifest is None:
            raise BlobNotFound(f"no blob {digest!r} in this store")
        return manifest

    def open_range(self, digest: str, start: int = 0, end: "int | None" = None) -> Iterator[bytes]:
        """Iterate the bytes of ``[start, end]`` (inclusive, whole blob by
        default) one stored chunk at a time — constant memory whatever the
        blob size, which is what the streaming GET serves from."""
        manifest = self.manifest(digest)
        last = manifest.size - 1 if end is None else min(end, manifest.size - 1)
        if manifest.size == 0 or start > last:
            return
        offset = 0
        for chunk_digest, size in manifest.chunks:
            chunk_start, chunk_last = offset, offset + size - 1
            offset += size
            if chunk_last < start:
                continue
            if chunk_start > last:
                break
            data = (self._chunk_dir / chunk_digest).read_bytes()
            lo = max(start - chunk_start, 0)
            hi = min(last - chunk_start, size - 1)
            yield data[lo : hi + 1]

    def read(self, digest: str) -> bytes:
        return b"".join(self.open_range(digest))

    # ---------------------------------------------------------------- pins

    def pin(self, digest: str, owner: str) -> None:
        """Hold ``digest`` against GC on behalf of ``owner`` (journaled)."""
        if not self.exists(digest):
            raise BlobNotFound(f"cannot pin uncommitted blob {digest!r}")
        with self._lock:
            owners = self._pins.setdefault(digest, set())
            fresh = owner not in owners
            owners.add(owner)
        if fresh:
            self._journal({"type": "blob", "event": "pin", "digest": digest, "owner": owner})

    def unpin(self, digest: str, owner: str) -> None:
        """Release ``owner``'s pin (no-op when absent, journaled when held)."""
        with self._lock:
            owners = self._pins.get(digest)
            held = owners is not None and owner in owners
            if held:
                owners.discard(owner)
                if not owners:
                    del self._pins[digest]
        if held:
            self._journal({"type": "blob", "event": "unpin", "digest": digest, "owner": owner})

    def pins(self, digest: str) -> set[str]:
        with self._lock:
            return set(self._pins.get(digest, ()))

    # ------------------------------------------------------------ lifecycle

    def join(self, spine: Any, release: "Callable[[], None] | None" = None) -> None:
        """Register the blob vocabulary (records ``blob``, snapshot section
        ``blobs``) and the store's collectors with the container's state
        spine; ``release`` runs at shutdown (the owner's directory cleanup)."""
        self.journal_fn = spine.register(
            ("blob",), ("blobs",), self._restore, lambda: {"blobs": self.export()},
            collectors=self.instrument, close=release)

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        table: dict[str, dict[str, Any]] = {}
        for record in [*(sections.get("blobs") or []), *records]:
            apply_blob_event(table, record)
        self.recover(table)

    def recover(self, table: dict[str, dict[str, Any]]) -> None:
        """Adopt the journal replay's blob table after a cold restart.

        Pins are restored exactly as journaled; a pin whose blob has no
        manifest on disk (lost to an unsynced crash) is dropped with a
        warning rather than resurrecting a blob that has no bytes.
        """
        with self._lock:
            for digest, entry in table.items():
                if digest not in self._manifests:
                    if entry.get("pins"):
                        logger.warning(
                            "dropping pins for blob %s: journaled but no manifest on disk", digest
                        )
                    continue
                owners = {str(owner) for owner in entry.get("pins", [])}
                if owners:
                    self._pins[digest] = owners

    def export(self) -> list[dict[str, Any]]:
        """Journal-shaped records reproducing current state (for snapshots)."""
        records: list[dict[str, Any]] = []
        with self._lock:
            for digest, manifest in self._manifests.items():
                records.append(
                    {"type": "blob", "event": "commit", "digest": digest, "size": manifest.size}
                )
                for owner in sorted(self._pins.get(digest, ())):
                    records.append(
                        {"type": "blob", "event": "pin", "digest": digest, "owner": owner}
                    )
        return records

    def gc(self, grace: "float | None" = None) -> dict[str, int]:
        """Collect unpinned blobs and orphan chunks; returns counters.

        A committed blob is collected only when it has no pins and its
        commit is older than ``grace`` seconds. Chunks survive as long as
        any surviving manifest references them (dedup means a chunk may
        outlive the blob it arrived with).
        """
        grace = self.gc_grace if grace is None else grace
        horizon = time.time() - grace
        collected: list[str] = []
        with self._lock:
            for digest in list(self._manifests):
                if self._pins.get(digest):
                    continue
                if self._committed_at.get(digest, 0.0) > horizon:
                    continue
                with contextlib.suppress(OSError):
                    (self._manifest_dir / f"{digest}.json").unlink()
                del self._manifests[digest]
                self._committed_at.pop(digest, None)
                collected.append(digest)
            live_chunks = {
                chunk_digest
                for manifest in self._manifests.values()
                for chunk_digest, _size in manifest.chunks
            }
            chunks_removed = 0
            for path in self._chunk_dir.iterdir():
                if path.name in live_chunks:
                    continue
                if path.name.startswith(".tmp-") and path.stat().st_mtime > horizon:
                    continue  # an upload may still be renaming it into place
                if not path.name.startswith(".tmp-") and path.stat().st_mtime > horizon:
                    continue  # a chunk of an upload that has not committed yet
                with contextlib.suppress(OSError):
                    path.unlink()
                    chunks_removed += 1
            self.blobs_collected += len(collected)
        for digest in collected:
            self._journal({"type": "blob", "event": "collect", "digest": digest})
        return {"blobs": len(collected), "chunks": chunks_removed}

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "blobs": len(self._manifests),
                "bytes": sum(m.size for m in self._manifests.values()),
                "pinned": sum(1 for d in self._manifests if self._pins.get(d)),
                "chunks_deduped": self.chunks_deduped,
                "blobs_collected": self.blobs_collected,
                "chunk_size": self.chunk_size,
            }

    def instrument(self, metrics: Any) -> None:
        """Register the store's scrape-time collectors on ``metrics``."""

        def stat(key):
            return lambda: self.stats()[key]

        metrics.collector("mc_blobs", "Blobs committed in the store.",
                          "gauge", stat("blobs"))
        metrics.collector("mc_blob_bytes", "Total bytes across committed blobs.",
                          "gauge", stat("bytes"))
        metrics.collector("mc_blob_pinned", "Blobs currently pinned against GC.",
                          "gauge", stat("pinned"))
        metrics.collector("mc_blob_chunks_deduped_total",
                          "Chunk writes skipped because the chunk already existed.",
                          "counter", stat("chunks_deduped"))
        metrics.collector("mc_blobs_collected_total", "Blobs removed by the GC.",
                          "counter", stat("blobs_collected"))

    def _journal(self, record: dict[str, Any]) -> None:
        if self.journal_fn is not None:
            self.journal_fn(record)
