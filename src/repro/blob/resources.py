"""REST resources of the blob data plane.

Mounted beside the service resources on every container (and proxied by
the gateway), giving the federation a uniform byte-transfer interface::

    GET  /blobs                    store statistics
    POST /blobs                    upload; 201 with the blob reference
    PUT  /blobs/{digest}           upload verified against a claimed digest
    GET  /blobs/{digest}           content (streaming; honours Range)
    GET  /blobs/{digest}/manifest  the chunk manifest (what staging reads)

Uploads stream from the request body spool into the store one chunk at a
time and downloads stream manifest chunks into the response, so neither
direction ever holds a whole blob in memory.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.blob.store import BlobDigestMismatch, BlobNotFound, BlobStore
from repro.core.filerefs import make_blob_ref
from repro.http.app import RestApp
from repro.http.messages import HttpError, Request, Response

__all__ = ["blob_uri", "mount_blob_store"]

OCTET_STREAM = "application/octet-stream"


def blob_uri(base_uri: str, digest: str) -> str:
    return f"{base_uri.rstrip('/')}/blobs/{digest}"


def mount_blob_store(
    app: RestApp,
    store: BlobStore,
    base_uri: "str | Callable[[], str]" = "",
) -> None:
    """Wire the blob resources for ``store`` under ``/blobs``.

    ``base_uri`` (the container's advertised address, callable when not
    fixed yet) is used to build the ``$file`` URI in upload responses.
    """

    def _advertised() -> str:
        current = base_uri() if callable(base_uri) else base_uri
        return current.rstrip("/")

    def _reference(manifest) -> dict[str, Any]:
        return make_blob_ref(
            manifest.digest,
            blob_uri(_advertised(), manifest.digest),
            size=manifest.size,
            content_type=manifest.content_type,
        )

    def _upload(request: Request, expected: "str | None" = None) -> Response:
        content_type = request.content_type or OCTET_STREAM
        upload = store.begin_upload(content_type=content_type)
        try:
            # read at the store's chunk size: every full piece is one chunk,
            # hashed and written from the buffer it was read into
            for piece in request.body_chunks(store.chunk_size):
                upload.write(piece)
            manifest = upload.commit(expected=expected)
        except BlobDigestMismatch as exc:
            upload.abort()
            raise HttpError(422, str(exc)) from exc
        except Exception:
            upload.abort()
            raise
        return Response.created(
            blob_uri(_advertised(), manifest.digest), _reference(manifest)
        )

    def stats(request: Request) -> Response:
        return Response.json(store.stats())

    def post_blob(request: Request) -> Response:
        return _upload(request)

    def put_blob(request: Request, digest: str) -> Response:
        return _upload(request, expected=digest)

    def get_blob(request: Request, digest: str) -> Response:
        try:
            manifest = store.manifest(digest)
        except BlobNotFound as exc:
            raise HttpError(404, str(exc)) from exc
        span = request.byte_range(manifest.size) if manifest.size else None
        if span is None:
            start, end = 0, manifest.size - 1
            response = Response.streamed(
                store.open_range(digest),
                length=manifest.size,
                content_type=manifest.content_type or OCTET_STREAM,
            )
        else:
            start, end = span
            response = Response.streamed(
                store.open_range(digest, start, end),
                length=end - start + 1,
                status=206,
                content_type=manifest.content_type or OCTET_STREAM,
            )
            response.headers.set("Content-Range", f"bytes {start}-{end}/{manifest.size}")
        response.headers.set("Accept-Ranges", "bytes")
        response.headers.set("ETag", f'"{digest}"')
        return response

    def get_manifest(request: Request, digest: str) -> Response:
        try:
            manifest = store.manifest(digest)
        except BlobNotFound as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.json(manifest.to_json())

    app.route("GET", "/blobs", stats)
    app.route("POST", "/blobs", post_blob)
    app.route("PUT", "/blobs/{digest}", put_blob)
    app.route("GET", "/blobs/{digest}", get_blob)
    app.route("GET", "/blobs/{digest}/manifest", get_manifest)
