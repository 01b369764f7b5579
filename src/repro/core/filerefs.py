"""File references: passing large parameter values by URI.

The unified interface lets any input or output value "contain identifiers
of file resources" (paper §2). The platform's convention for such an
identifier is a small JSON envelope::

    {"$file": "<absolute URI of the file resource>",
     "name": "matrix.json",          # optional display name
     "size": 1048576,                 # optional content length
     "contentType": "application/json"}

Adapters resolve references by fetching the URI through the transport
registry, so a file may live on any service in the federation — including
a job of another service, which is exactly how workflow data flows.

Blob references are file references with a content address: the envelope
additionally carries the blob's manifest digest under ``$blob``::

    {"$blob": "<sha256 of the content>",
     "$file": "<URI of the blob resource on its owning container>",
     "size": 104857600,
     "contentType": "application/octet-stream"}

The ``$file`` URI keeps blob refs backward compatible (any consumer that
only understands file refs just fetches the URI), while the digest lets
fingerprinting resolve the value *without fetching* and lets consumers
stage the content chunk-wise from the owning container's blob store.
"""

from __future__ import annotations

from typing import Any, Iterator

#: JSON Schema describing the reference envelope itself. Services whose
#: parameters are inherently file-valued can use this as the parameter
#: schema; validation of a reference then needs no special-casing.
FILE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["$file"],
    "properties": {
        "$file": {"type": "string", "minLength": 1},
        "name": {"type": "string"},
        "size": {"type": "integer", "minimum": 0},
        "contentType": {"type": "string"},
    },
    "format": "file",
}


def is_file_ref(value: Any) -> bool:
    """Whether ``value`` is a file-reference envelope."""
    return isinstance(value, dict) and isinstance(value.get("$file"), str)


def make_file_ref(
    uri: str,
    name: str = "",
    size: int | None = None,
    content_type: str = "",
) -> dict[str, Any]:
    """Build a file-reference envelope for ``uri``."""
    reference: dict[str, Any] = {"$file": uri}
    if name:
        reference["name"] = name
    if size is not None:
        reference["size"] = size
    if content_type:
        reference["contentType"] = content_type
    return reference


def file_uri(reference: dict[str, Any]) -> str:
    """Extract the URI from a reference envelope."""
    if not is_file_ref(reference):
        raise ValueError(f"not a file reference: {reference!r}")
    return reference["$file"]


def is_blob_ref(value: Any) -> bool:
    """Whether ``value`` is a content-addressed blob reference."""
    return isinstance(value, dict) and isinstance(value.get("$blob"), str) and bool(value["$blob"])


def blob_digest(reference: dict[str, Any]) -> str:
    """Extract the content digest from a blob-reference envelope."""
    if not is_blob_ref(reference):
        raise ValueError(f"not a blob reference: {reference!r}")
    return reference["$blob"]


def make_blob_ref(
    digest: str,
    uri: str,
    name: str = "",
    size: int | None = None,
    content_type: str = "",
) -> dict[str, Any]:
    """Build a blob-reference envelope (a file ref carrying its digest)."""
    reference = make_file_ref(uri, name=name, size=size, content_type=content_type)
    reference["$blob"] = digest
    return reference


def iter_blob_refs(value: Any) -> Iterator[dict[str, Any]]:
    """Yield every blob-reference envelope anywhere inside ``value``."""
    if is_blob_ref(value):
        yield value
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from iter_blob_refs(item)
    elif isinstance(value, list):
        for item in value:
            yield from iter_blob_refs(item)


def iter_blob_digests(value: Any) -> Iterator[str]:
    """Yield every blob digest referenced anywhere inside ``value``.

    Used for pin bookkeeping: a job pins the blobs its inputs and results
    reference for as long as the job exists.
    """
    return (reference["$blob"] for reference in iter_blob_refs(value))
