"""Unit tests for the content-addressed blob store."""

import hashlib
import json

import pytest

from repro.blob import (
    BlobDigestMismatch,
    BlobError,
    BlobManifest,
    BlobNotFound,
    BlobStore,
)


def sha(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


@pytest.fixture()
def store(tmp_path):
    return BlobStore(tmp_path / "blobs", chunk_size=1024)


class TestRoundTrip:
    def test_put_read_round_trip(self, store):
        content = bytes(range(256)) * 20  # several chunks plus a tail
        manifest = store.put_bytes(content, content_type="application/x-test")
        assert manifest.digest == sha(content)
        assert manifest.size == len(content)
        assert store.read(manifest.digest) == content
        assert store.manifest(manifest.digest).content_type == "application/x-test"

    def test_empty_blob(self, store):
        manifest = store.put_bytes(b"")
        assert manifest.size == 0
        assert store.read(manifest.digest) == b""

    def test_streaming_upload_equals_one_shot(self, store):
        content = b"xy" * 3000
        upload = store.begin_upload()
        for i in range(0, len(content), 7):
            upload.write(content[i : i + 7])
        manifest = upload.commit()
        assert manifest.digest == sha(content)
        assert store.read(manifest.digest) == content

    def test_open_range_inclusive(self, store):
        content = bytes(range(256)) * 10
        manifest = store.put_bytes(content)
        assert b"".join(store.open_range(manifest.digest, 100, 1499)) == content[100:1500]
        assert b"".join(store.open_range(manifest.digest, 0, 0)) == content[:1]
        # an end past the blob clamps instead of erroring
        assert b"".join(store.open_range(manifest.digest, 2000, 10**9)) == content[2000:]

    def test_read_unknown_digest(self, store):
        with pytest.raises(BlobNotFound):
            store.manifest("0" * 64)


class TestVerification:
    def test_claimed_digest_verified(self, store):
        upload = store.begin_upload()
        upload.write(b"actual content")
        with pytest.raises(BlobDigestMismatch):
            upload.commit(expected=sha(b"something else"))
        # the mismatch must not commit anything
        assert not store.exists(sha(b"actual content"))

    def test_add_chunk_verifies(self, store):
        with pytest.raises(BlobDigestMismatch):
            store.add_chunk(sha(b"right"), b"wrong")

    def test_forged_manifest_cannot_commit(self, store):
        chunk = b"c" * 10
        store.add_chunk(sha(chunk), chunk)
        forged = BlobManifest(
            digest=sha(b"claimed other content"),
            size=len(chunk),
            chunk_size=1024,
            chunks=[[sha(chunk), len(chunk)]],
        )
        with pytest.raises(BlobDigestMismatch):
            store.commit_manifest(forged)
        assert not store.exists(forged.digest)

    def test_commit_manifest_requires_chunks(self, store):
        manifest = BlobManifest(
            digest=sha(b"missing"), size=7, chunk_size=1024, chunks=[[sha(b"missing"), 7]]
        )
        with pytest.raises(BlobError):
            store.commit_manifest(manifest)


class TestDedup:
    def test_identical_chunks_stored_once(self, store):
        content = b"z" * 1024 * 4  # four identical chunks
        store.put_bytes(content)
        assert store.chunks_deduped == 3
        # a second blob sharing content dedups every chunk
        store.put_bytes(content + b"tail")
        assert store.chunks_deduped == 7

    def test_recommit_is_idempotent(self, store):
        first = store.put_bytes(b"same bytes")
        second = store.put_bytes(b"same bytes")
        assert first.digest == second.digest
        assert store.stats()["blobs"] == 1


class TestGC:
    def test_unpinned_blob_collected_after_grace(self, store):
        manifest = store.put_bytes(b"ephemeral" * 500)
        assert store.gc(grace=3600)["blobs"] == 0  # still inside grace
        assert store.exists(manifest.digest)
        result = store.gc(grace=0)
        assert result["blobs"] == 1
        assert result["chunks"] >= 1
        assert not store.exists(manifest.digest)

    def test_pinned_blob_survives(self, store):
        manifest = store.put_bytes(b"held" * 500)
        store.pin(manifest.digest, "job:j1")
        assert store.gc(grace=0)["blobs"] == 0
        assert store.exists(manifest.digest)
        store.unpin(manifest.digest, "job:j1")
        assert store.gc(grace=0)["blobs"] == 1

    def test_shared_chunk_survives_collection_of_one_owner(self, store):
        shared = b"s" * 1024
        kept = store.put_bytes(shared + b"kept tail")
        store.put_bytes(shared + b"doomed tail")
        store.pin(kept.digest, "job:keeper")
        store.gc(grace=0)
        # the shared first chunk still serves the surviving blob
        assert store.read(kept.digest) == shared + b"kept tail"

    def test_orphan_tmp_files_swept(self, store, tmp_path):
        orphan = tmp_path / "blobs" / "chunks" / ".tmp-dead"
        orphan.write_bytes(b"torn write")
        assert store.gc(grace=0)["chunks"] == 1
        assert not orphan.exists()

    def test_pin_requires_commit(self, store):
        with pytest.raises(BlobNotFound):
            store.pin("f" * 64, "job:j1")


class TestDurability:
    def test_reload_reindexes_manifests(self, store, tmp_path):
        manifest = store.put_bytes(b"persisted" * 100)
        reopened = BlobStore(tmp_path / "blobs", chunk_size=1024)
        assert reopened.exists(manifest.digest)
        assert reopened.read(manifest.digest) == b"persisted" * 100

    def test_journal_records_emitted(self, store):
        records = []
        store.journal_fn = records.append
        manifest = store.put_bytes(b"journaled")
        store.pin(manifest.digest, "job:j9")
        store.unpin(manifest.digest, "job:j9")
        store.gc(grace=0)
        events = [(r["event"], r.get("owner")) for r in records]
        assert events == [
            ("commit", None),
            ("pin", "job:j9"),
            ("unpin", "job:j9"),
            ("collect", None),
        ]

    def test_export_recover_round_trip(self, store, tmp_path):
        manifest = store.put_bytes(b"snapshot me")
        store.pin(manifest.digest, "job:alive")
        from repro.blob.store import apply_blob_event

        table = {}
        for record in store.export():
            apply_blob_event(table, record)
        reopened = BlobStore(tmp_path / "blobs", chunk_size=1024)
        reopened.recover(table)
        assert reopened.pins(manifest.digest) == {"job:alive"}
        # the recovered pin protects the blob exactly like a live one
        assert reopened.gc(grace=0)["blobs"] == 0

    def test_recover_drops_pins_without_manifest(self, tmp_path):
        fresh = BlobStore(tmp_path / "other")
        fresh.recover({"e" * 64: {"committed": True, "pins": ["job:ghost"]}})
        assert fresh.pins("e" * 64) == set()

    def test_manifest_json_round_trip(self):
        manifest = BlobManifest(
            digest="d" * 64, size=5, chunk_size=4, chunks=[["a" * 64, 4], ["b" * 64, 1]]
        )
        assert BlobManifest.from_json(json.loads(json.dumps(manifest.to_json()))) == manifest

    def test_malformed_manifest_rejected(self):
        with pytest.raises(BlobError):
            BlobManifest.from_json({"digest": "d" * 64, "size": 9, "chunks": [["a" * 64, 4]]})
