"""HTTP message model: requests, responses and protocol errors.

The model is deliberately small: exactly what a RESTful computational
service needs (JSON bodies, a few headers, byte-range requests for file
resources) and nothing more.
"""

from __future__ import annotations

import json
import socket
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping
from urllib.parse import parse_qsl, quote, urlsplit

#: Reason phrases for the status codes the platform actually uses.
REASON_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    206: "Partial Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    416: "Range Not Satisfiable",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Largest request body any server accepts unless configured otherwise.
#: Requests above it are answered ``413 Payload Too Large`` instead of
#: being buffered into memory.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest request-line-plus-headers block the incremental parser buffers.
DEFAULT_MAX_HEADER_BYTES = 64 * 1024

#: Bodies above this are spilled to an anonymous temp file instead of
#: being buffered in memory, so a large upload costs O(spill threshold)
#: RSS rather than O(body) on both server cores.
DEFAULT_BODY_SPILL_BYTES = 1024 * 1024


def reason_phrase(status: int) -> str:
    """Return the standard reason phrase for ``status`` (or ``"Unknown"``)."""
    return REASON_PHRASES.get(status, "Unknown")


class Headers:
    """A case-insensitive multi-value HTTP header collection.

    Lookup is case-insensitive; the originally supplied casing is kept for
    serialization. Multiple values per name are supported (``add``), though
    ``get`` returns the first value, which is what REST handlers want.
    """

    def __init__(self, items: Mapping[str, str] | None = None):
        self._items: list[tuple[str, str]] = []
        # lowercased-name → values index; every lookup is one dict hit
        # instead of a scan over the item list (which is kept for
        # serialization order and original casing)
        self._index: dict[str, list[str]] = {}
        if items:
            for name, value in items.items():
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header, keeping any existing values for ``name``."""
        value = str(value)
        self._items.append((name, value))
        self._index.setdefault(name.lower(), []).append(value)

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single ``value``."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Drop every value of ``name`` (no error if absent)."""
        lowered = name.lower()
        if self._index.pop(lowered, None) is not None:
            self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return the first value of ``name``, or ``default``."""
        values = self._index.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str) -> list[str]:
        """Return every value of ``name`` in insertion order."""
        return list(self._index.get(name.lower(), ()))

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Headers({dict(self._items)!r})"

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = list(self._items)
        clone._index = {name: list(values) for name, values in self._index.items()}
        return clone


class HttpError(Exception):
    """An error with an HTTP status, rendered as a JSON error body.

    Raise from any handler (or middleware) to produce a well-formed error
    response; the application kernel converts it.
    """

    #: Optional ``Retry-After`` hint (seconds); subclasses may override
    #: at class level, and the constructor only shadows it when given.
    retry_after: float | None = None

    def __init__(self, status: int, message: str, details: Any = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details
        if retry_after is not None:
            self.retry_after = retry_after

    def to_response(self) -> "Response":
        body: dict[str, Any] = {"error": self.message, "status": self.status}
        if self.details is not None:
            body["details"] = self.details
        response = Response.json(body, status=self.status)
        if self.retry_after is not None:
            response.headers.set("Retry-After", f"{self.retry_after:g}")
        return response


class BodySpool:
    """A request body spilled to an anonymous temp file.

    Created by the parser for bodies above the spill threshold. The file
    is unlinked at creation, so the OS reclaims it when the handle drops;
    the server closes it once the request's response is on its way
    (:meth:`Request.close`) instead of waiting for garbage collection.

    ``len(spool)`` is the body length, so code that only needs the size
    of a body treats a spool like a buffer.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile()
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def write(self, data: bytes) -> None:
        self._file.write(data)
        self.size += len(data)

    def read_all(self) -> bytes:
        self._file.seek(0)
        return self._file.read()

    def chunks(self, chunk_size: int = 65536) -> Iterator[bytes]:
        self._file.seek(0)
        while True:
            piece = self._file.read(chunk_size)
            if not piece:
                return
            yield piece

    def send_to(self, sock: socket.socket) -> None:
        """Send the whole body over ``sock`` from byte 0, file to socket
        (``sendfile``): the bytes never become a Python object. Every call
        starts over, so a request can be re-sent."""
        self._file.flush()
        sock.sendfile(self._file, 0, self.size)

    def close(self) -> None:
        self._file.close()


@dataclass
class Request:
    """An HTTP request as seen by handlers.

    ``path`` is the decoded path without the query string; ``query`` holds
    decoded query parameters (first value wins on duplicates).

    Small bodies live in ``body``; a body above the server's spill
    threshold lives in ``spool`` instead (``body`` is then empty).
    Handlers that can stream should iterate :meth:`body_chunks`; handlers
    that need the whole buffer use :attr:`body_bytes`, which works either
    way.
    """

    method: str
    path: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    query: dict[str, str] = field(default_factory=dict)
    #: Attributes attached by middleware (e.g. the authenticated identity).
    context: dict[str, Any] = field(default_factory=dict)
    #: Temp-file-backed body for spilled requests (``None`` ⇒ in ``body``).
    spool: "BodySpool | None" = None

    @classmethod
    def from_target(
        cls,
        method: str,
        target: str,
        headers: Headers | Mapping[str, str] | None = None,
        body: bytes = b"",
        spool: "BodySpool | None" = None,
    ) -> "Request":
        """Build a request from a request-target (path plus query string)."""
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        if headers is None:
            headers = Headers()
        elif not isinstance(headers, Headers):
            headers = Headers(headers)
        return cls(
            method=method.upper(),
            path=parts.path or "/",
            headers=headers,
            body=body,
            query=query,
            spool=spool,
        )

    @property
    def body_size(self) -> int:
        """Total body length, wherever the bytes live."""
        return self.spool.size if self.spool is not None else len(self.body)

    @property
    def body_bytes(self) -> bytes:
        """The whole body as one buffer (reads the spool when spilled)."""
        return self.spool.read_all() if self.spool is not None else self.body

    def body_chunks(self, chunk_size: int = 65536) -> Iterator[bytes]:
        """Iterate the body without materializing a spilled one."""
        if self.spool is not None:
            return self.spool.chunks(chunk_size)
        return iter((self.body,)) if self.body else iter(())

    def close(self) -> None:
        """Release a spilled body's temp file (the body is gone after)."""
        if self.spool is not None:
            self.spool.close()

    @property
    def text(self) -> str:
        """The request body decoded as UTF-8."""
        return self.body_bytes.decode("utf-8")

    @property
    def json(self) -> Any:
        """The request body parsed as JSON.

        Raises :class:`HttpError` (400) on malformed or empty bodies so
        handlers can use it directly without their own error handling.
        """
        data = self.body_bytes
        if not data:
            raise HttpError(400, "request body is empty, expected JSON")
        try:
            return json.loads(data)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"malformed JSON in request body: {exc}") from exc

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "") or ""

    def byte_range(self, size: int) -> tuple[int, int] | None:
        """Interpret a ``Range: bytes=a-b`` header against a body of ``size``.

        Returns an inclusive ``(start, end)`` pair, ``None`` when no Range
        header is present, and raises :class:`HttpError` (416) for
        unsatisfiable or malformed ranges. Suffix ranges (``bytes=-n``) are
        supported; multi-range requests are not (they are rejected).
        """
        raw = self.headers.get("Range")
        if raw is None:
            return None
        unit, _, spec = raw.partition("=")
        if unit.strip().lower() != "bytes" or "," in spec:
            raise HttpError(416, f"unsupported Range header: {raw!r}")
        start_text, dash, end_text = spec.strip().partition("-")
        if not dash:
            raise HttpError(416, f"malformed Range header: {raw!r}")
        try:
            if not start_text:  # suffix range: last N bytes
                suffix = int(end_text)
                if suffix <= 0:
                    raise ValueError
                start, end = max(0, size - suffix), size - 1
            else:
                start = int(start_text)
                end = int(end_text) if end_text else size - 1
        except ValueError as exc:
            raise HttpError(416, f"malformed Range header: {raw!r}") from exc
        if start >= size or end < start:
            raise HttpError(416, f"range {raw!r} not satisfiable for size {size}")
        return start, min(end, size - 1)


@dataclass
class Response:
    """An HTTP response produced by handlers.

    A *streaming* response carries an iterator of body chunks in
    ``stream`` (with its exact total length in ``content_length``) instead
    of a ``body`` buffer; servers write the chunks as the socket drains,
    so a multi-GB blob GET never holds the payload in memory. Everything
    else — status, headers, HEAD semantics — is identical.
    """

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    #: Chunk iterator for streaming responses (``None`` ⇒ ``body`` holds it).
    stream: "Iterator[bytes] | None" = None
    #: Exact byte length of ``stream`` (required when streaming: the
    #: platform speaks Content-Length framing, not chunked encoding).
    content_length: "int | None" = None

    @classmethod
    def json(
        cls,
        data: Any,
        status: int = 200,
        headers: Mapping[str, str] | None = None,
    ) -> "Response":
        """A JSON response; ``data`` is serialized with ``json.dumps``."""
        response = cls(
            status=status,
            body=json.dumps(data, ensure_ascii=False).encode("utf-8"),
        )
        response.headers.set("Content-Type", JSON_CONTENT_TYPE)
        for name, value in (headers or {}).items():
            response.headers.set(name, value)
        return response

    @classmethod
    def text(cls, text: str, status: int = 200, content_type: str = "text/plain; charset=utf-8") -> "Response":
        response = cls(status=status, body=text.encode("utf-8"))
        response.headers.set("Content-Type", content_type)
        return response

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        return cls.text(markup, status=status, content_type="text/html; charset=utf-8")

    @classmethod
    def no_content(cls) -> "Response":
        return cls(status=204)

    @classmethod
    def created(cls, location: str, data: Any) -> "Response":
        """A 201 response advertising the new resource's URI."""
        response = cls.json(data, status=201)
        response.headers.set("Location", quote(location, safe="/:?=&%"))
        return response

    @classmethod
    def streamed(
        cls,
        chunks: Iterator[bytes],
        length: int,
        status: int = 200,
        content_type: str = "application/octet-stream",
    ) -> "Response":
        """A streaming response: ``length`` bytes drawn from ``chunks``."""
        response = cls(status=status, stream=iter(chunks), content_length=length)
        response.headers.set("Content-Type", content_type)
        return response

    def materialize(self) -> "Response":
        """Collapse a streaming response into a buffered one, in place.

        Used by transports that hand the caller a complete response object
        (the in-process local transport, the drop-mid-write fault seam).
        """
        if self.stream is not None:
            self.body = b"".join(self.stream)
            self.stream = None
            self.content_length = None
        return self

    @property
    def text_body(self) -> str:
        return self.body.decode("utf-8")

    @property
    def json_body(self) -> Any:
        return json.loads(self.body) if self.body else None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ProtocolError(Exception):
    """A malformed or unacceptable request detected while parsing bytes.

    Carries the HTTP status the server should answer with before closing
    the connection (400 for syntax, 413 for an oversized body, 501 for
    transfer encodings the platform does not speak).
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def split_head(head: bytes) -> tuple[str, Headers]:
    """Split one header block into its start line and parsed header fields.

    ``head`` is everything before the blank line that ends the block. This
    is the one place the ``name: value`` wire grammar lives: the server's
    :class:`RequestParser` and the client transport's response reader both
    call it, so both refuse the same malformed lines (no colon, empty
    name, whitespace before or inside the name — which also rules out
    obsolete line folding) with a 400-class :class:`ProtocolError`.
    Leading blank lines are tolerated (RFC 9112 §2.2).
    """
    lines = head.decode("latin-1").split("\r\n")
    first = 0
    while first < len(lines) and not lines[first].strip():
        first += 1
    if first == len(lines):
        raise ProtocolError(400, "empty message head")
    headers = Headers()
    for line in lines[first + 1 :]:
        name, separator, value = line.partition(":")
        if not separator or not name or name != name.strip() or " " in name:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers.add(name, value.strip())
    return lines[first], headers


def closes_connection(version: str, headers: Headers) -> bool:
    """Whether the message's sender will not reuse the connection after it.

    HTTP/1.1 persists unless ``Connection: close``; HTTP/1.0 closes unless
    ``Connection: keep-alive``.
    """
    connection = headers.get("Connection")
    if connection is None:
        return version == "HTTP/1.0"
    tokens = {token.strip() for token in connection.lower().split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" not in tokens
    return "close" in tokens


class RequestParser:
    """Incremental, feed-based HTTP/1.1 request parser.

    The event-loop server owns one parser per connection and feeds it
    whatever ``recv`` returned — a byte, a header fragment, several
    pipelined requests at once. :meth:`feed` consumes the bytes and
    returns every request completed so far as ``(request, close_after)``
    pairs, preserving pipeline order; incomplete input is buffered until
    the next feed. The parser never blocks and never reads a socket.

    ``close_after`` captures HTTP/1.1 persistence semantics: ``True`` for
    ``Connection: close`` and for HTTP/1.0 requests without an explicit
    ``keep-alive``.

    Malformed input raises :class:`ProtocolError`; the parser is then
    poisoned (a framing error leaves the byte stream unrecoverable) and
    the connection must be closed after the error response.
    """

    def __init__(
        self,
        max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        spill_threshold: int = DEFAULT_BODY_SPILL_BYTES,
    ):
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        #: Bodies longer than this go to a :class:`BodySpool` instead of
        #: memory; ``0`` spills everything, a negative value never spills.
        self.spill_threshold = spill_threshold
        self._buffer = bytearray()
        self._state = "headers"
        # fields of the request whose body is still arriving
        self._method = ""
        self._target = ""
        self._headers: Headers | None = None
        self._length = 0
        self._close_after = False
        self._spool: "BodySpool | None" = None

    @property
    def buffered(self) -> int:
        """How many unconsumed bytes the parser is holding."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[Request, bool]]:
        """Consume ``data``; return every request it completed, in order."""
        if self._state == "error":
            raise ProtocolError(400, "parser already failed; connection must close")
        self._buffer.extend(data)
        completed: list[tuple[Request, bool]] = []
        try:
            while True:
                if self._state == "headers":
                    if not self._parse_head():
                        break
                if self._state == "body":
                    if self._spool is not None:
                        # spill what arrived; the buffer never grows past
                        # one feed's worth for a spilled body
                        want = self._length - self._spool.size
                        take = min(want, len(self._buffer))
                        if take:
                            self._spool.write(bytes(self._buffer[:take]))
                            del self._buffer[:take]
                        if self._spool.size < self._length:
                            break
                        request = Request.from_target(
                            self._method, self._target, headers=self._headers,
                            spool=self._spool,
                        )
                        self._spool = None
                    else:
                        if len(self._buffer) < self._length:
                            break
                        body = bytes(self._buffer[: self._length])
                        del self._buffer[: self._length]
                        request = Request.from_target(
                            self._method, self._target, headers=self._headers, body=body
                        )
                    completed.append((request, self._close_after))
                    self._state = "headers"
                    if not self._buffer:
                        break
        except ProtocolError:
            self._state = "error"
            raise
        return completed

    def _parse_head(self) -> bool:
        """Parse one request-line-plus-headers block; False if incomplete."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > self.max_header_bytes:
                raise ProtocolError(400, "request header block too large")
            return False
        head = bytes(self._buffer[:end])
        del self._buffer[: end + 4]
        request_line, headers = split_head(head)
        parts = request_line.split()
        if len(parts) != 3:
            raise ProtocolError(400, f"malformed request line: {request_line!r}")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise ProtocolError(400, f"unsupported protocol version {version!r}")
        transfer_encoding = (headers.get("Transfer-Encoding") or "").lower()
        if transfer_encoding and transfer_encoding != "identity":
            raise ProtocolError(
                501, f"transfer encoding {transfer_encoding!r} is not supported"
            )
        raw_length = headers.get("Content-Length", "0") or "0"
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError as exc:
            raise ProtocolError(400, f"invalid Content-Length {raw_length!r}") from exc
        if length > self.max_body_bytes:
            raise ProtocolError(
                413,
                f"request body of {length} bytes exceeds the {self.max_body_bytes}-byte limit",
            )
        self._method = method
        self._target = target
        self._headers = headers
        self._length = length
        self._close_after = closes_connection(version, headers)
        self._spool = (
            BodySpool()
            if self.spill_threshold >= 0 and length > self.spill_threshold and length > 0
            else None
        )
        self._state = "body"
        return True


def serialize_response(
    response: Response,
    head: bool = False,
    close: bool = False,
    server: str = "MathCloud/1.0",
) -> bytes:
    """Render ``response`` as HTTP/1.1 wire bytes in a single buffer.

    One buffer means one ``send`` for small responses — the event-loop
    server never exposes the header/body write boundary to Nagle or
    delayed ACKs. ``head`` omits the body while keeping GET's headers and
    ``Content-Length`` (the HEAD contract); ``close`` advertises that the
    connection will not be reused.

    For a *streaming* response this renders the head only (advertising
    ``content_length``); the caller is responsible for writing the chunk
    iterator after it.
    """
    status = response.status
    parts = [f"HTTP/1.1 {status} {reason_phrase(status)}\r\n".encode("latin-1")]
    seen = set()
    for name, value in response.headers.items():
        seen.add(name.lower())
        parts.append(f"{name}: {value}\r\n".encode("latin-1"))
    if "server" not in seen:
        parts.append(f"Server: {server}\r\n".encode("latin-1"))
    if "content-length" not in seen:
        length = (
            response.content_length
            if response.stream is not None and response.content_length is not None
            else len(response.body)
        )
        parts.append(f"Content-Length: {length}\r\n".encode("latin-1"))
    if close and "connection" not in seen:
        parts.append(b"Connection: close\r\n")
    parts.append(b"\r\n")
    if response.body and not head and response.stream is None:
        parts.append(response.body)
    return b"".join(parts)
