"""Canonical job fingerprints: the cache's content address.

A fingerprint identifies *what a submission computes*, not how the
request happened to be spelled: two submissions whose service and input
values are equal must fingerprint identically, whatever the JSON key
order, whitespace or header dressing of the POST. Input values that are
file references are resolved to the *content* behind them — the URI is an
address, not a value, and the same bytes published under two URIs must
still collide.

Three layers, from cheapest to most thorough:

- :func:`canonical_json` — deterministic serialization (sorted keys,
  minimal separators) of any JSON value;
- :func:`routing_hint` — a cheap fingerprint of a raw submit body, used
  by the gateway to key consistent-hash routing so identical work lands
  on the replica most likely to hold the cached result (no file
  fetching: the gateway never dereferences inputs);
- :func:`job_fingerprint` — the authoritative content address computed
  by the container, with file references resolved through a caller
  supplied fetcher and hashed incrementally (:class:`ContentHasher`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable

from repro.core.filerefs import blob_digest, file_uri, is_blob_ref, is_file_ref

__all__ = [
    "ContentHasher",
    "FingerprintError",
    "canonical_json",
    "hash_bytes",
    "job_fingerprint",
    "routing_hint",
]


class FingerprintError(Exception):
    """The fingerprint could not be computed (e.g. an unfetchable file)."""


def canonical_json(value: Any) -> str:
    """Serialize ``value`` deterministically: sorted keys, no whitespace.

    Two JSON-equal values always produce the same string, whatever dict
    insertion order they were built in.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class ContentHasher:
    """Incremental SHA-256 over a byte stream.

    The digest depends only on the concatenated bytes, never on how they
    were chunked — feeding one 10 MB buffer or ten 1 MB buffers yields the
    same fingerprint (the chunking-invariance property test pins this).
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, chunk: bytes) -> "ContentHasher":
        self._hash.update(chunk)
        return self

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def hash_bytes(content: "bytes | Iterable[bytes]") -> str:
    """SHA-256 of ``content`` (a buffer or any iterable of chunks)."""
    hasher = ContentHasher()
    if isinstance(content, (bytes, bytearray, memoryview)):
        hasher.update(content)
    else:
        for chunk in content:
            hasher.update(chunk)
    return hasher.hexdigest()


def _normalize(value: Any, fetch: "Callable[[dict], bytes] | None") -> Any:
    """Replace file references with content digests, recursively.

    Everything else passes through untouched; ``canonical_json`` then
    handles key-order insensitivity.
    """
    if is_blob_ref(value):
        # the blob digest *is* sha256 of the content (the manifest digest
        # is chunk-boundary independent by construction), so this equals
        # {"$content": hash_bytes(fetched)} without moving a byte
        return {"$content": blob_digest(value)}
    if is_file_ref(value):
        if fetch is None:
            # no fetcher: fall back to the URI, which is still stable for
            # a file that stays where it is
            return {"$content-uri": file_uri(value)}
        try:
            content = fetch(value)
        except Exception as exc:  # noqa: BLE001 - fetchers wrap transports
            raise FingerprintError(
                f"cannot resolve file reference {file_uri(value)!r}: {exc}"
            ) from exc
        return {"$content": hash_bytes(content)}
    if isinstance(value, dict):
        return {name: _normalize(item, fetch) for name, item in value.items()}
    if isinstance(value, list):
        return [_normalize(item, fetch) for item in value]
    return value


def normalize_refs(value: Any, fetch: "Callable[[dict], bytes] | None" = None) -> Any:
    """Public face of :func:`_normalize` for non-fingerprint dedup keys.

    With no fetcher, blob references still normalize to their content
    digest — two blob refs to the same bytes on different containers (or
    the same URI seen raw and gateway-rewritten) compare equal without a
    single fetch; plain file refs degrade to their URI.
    """
    return _normalize(value, fetch)


def job_fingerprint(
    service: str,
    inputs: dict[str, Any],
    fetch: "Callable[[dict], bytes] | None" = None,
) -> str:
    """The content address of one submission: ``sha256(service + inputs)``.

    ``fetch`` resolves a file-reference envelope to its bytes; when given,
    file-valued inputs are hashed by content, making the fingerprint
    invariant under re-publication of the same bytes at a new URI.
    """
    normalized = _normalize(inputs, fetch)
    payload = f"{service}\x00{canonical_json(normalized)}"
    return hash_bytes(payload.encode("utf-8"))


def routing_hint(service: str, body: bytes) -> str:
    """A cheap submit fingerprint for gateway routing affinity.

    Parses the body as JSON when possible so key order cannot scatter
    identical submissions across replicas; an unparseable body hashes
    verbatim. This is a *routing* key only — correctness never depends on
    it, the container computes the authoritative fingerprint itself.
    """
    try:
        canonical = canonical_json(json.loads(body)) if body else "{}"
    except ValueError:
        canonical = body.hex()
    return f"{service}\x00{canonical}"
