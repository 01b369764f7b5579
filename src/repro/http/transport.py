"""Client-side transports.

Every REST interaction in the platform goes through the :class:`Transport`
interface, so callers (clients, the workflow engine, the catalogue pinger,
the gateway) are agnostic about whether a service lives behind a real TCP
socket (:class:`HttpTransport`) or in the same process
(:class:`LocalTransport`). The two are semantically identical: both carry
the full request/response model including headers, status codes and bodies.
"""

from __future__ import annotations

import re
import socket
import threading
from collections import deque
from typing import Mapping
from urllib.parse import urlsplit

from repro.http.app import RestApp
from repro.http.messages import (
    DEFAULT_MAX_HEADER_BYTES,
    BodySpool,
    Headers,
    ProtocolError,
    Request,
    Response,
    closes_connection,
    split_head,
)


class TransportError(Exception):
    """A connection-level failure (service unreachable, socket error)."""


class ConnectError(TransportError):
    """The connection could not be established at all.

    No request bytes reached the server, so the request was provably not
    processed — callers (the gateway's retry path) may replay it on another
    authority without risking duplicate side effects. Errors raised after
    the connection was up (send or receive failures) stay plain
    :class:`TransportError`, because the server may have processed the
    request before the socket died.
    """


class Transport:
    """Abstract request/response channel to one or more authorities."""

    #: URI schemes this transport can serve.
    schemes: tuple[str, ...] = ()

    def request(
        self,
        method: str,
        url: str,
        headers: Mapping[str, str] | None = None,
        body: "bytes | BodySpool" = b"",
    ) -> Response:
        """Send one request to an absolute ``url`` and return the response.

        ``body`` is a buffer or a server-side request's spilled body (what
        a relay forwards without reading it into memory). Raises
        :class:`TransportError` when the authority cannot be reached;
        HTTP-level errors (4xx/5xx) are returned as normal responses.
        """
        raise NotImplementedError

    def handles(self, url: str) -> bool:
        """Whether this transport can carry requests for ``url``."""
        parts = urlsplit(url)
        return parts.scheme in self.schemes


class BadResponse(Exception):
    """The peer's bytes are not one well-framed HTTP/1.x response (garbage
    in the head, a bad chunk size, a body cut short)."""


class NoStatusLine(BadResponse):
    """The reply does not begin with a status line — usually no byte at all
    before EOF, which is how a keep-alive socket the server closed while it
    sat in the pool shows itself."""


#: Failures that mean a *reused* keep-alive connection went stale (the
#: server closed it between requests). Candidates for one replay on a
#: fresh connection, subject to :func:`_replay_safe`.
_STALE_ERRORS = (
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
    NoStatusLine,
)

#: Everything an exchange on an established connection can fail with.
_EXCHANGE_ERRORS = (OSError, BadResponse, ProtocolError)

#: Methods that may always be replayed after a stale-socket failure.
_REPLAYABLE_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS", "TRACE"})

#: Methods whose empty body is still announced with ``Content-Length: 0``.
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})

#: One ``recv`` worth of bytes; small responses arrive whole.
_RECV_SIZE = 65536

#: Bodies above this are not assembled from ``recv``-sized pieces: a
#: request body goes out in its own ``sendall`` instead of being joined to
#: the head, a response body is received into one preallocated buffer.
_LARGE_BODY = 65536

#: A method, request-target or header name is visible ASCII, nothing else;
#: a header value may not hold a control character other than a tab. CR and
#: LF above all: they would let a caller-supplied string end its line and
#: smuggle a second header or request.
_NOT_VISIBLE = re.compile(r"[^\x21-\x7e]")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_HEX = re.compile(rb"[0-9a-fA-F]+")
#: ``HTTP/1.x``, a three-digit status, an optional reason phrase.
_STATUS_LINE = re.compile(r"(HTTP/1\.[0-9]) ([1-9][0-9]{2})(?: .*)?")


def _replay_safe(method: str, headers: "Mapping[str, str] | None") -> bool:
    """Whether a stale-socket failure may be replayed on a fresh connection.

    A reset or EOF after the request went out is ambiguous — the server
    may have processed it and died before delivering the response — so
    only idempotent methods, or requests the caller explicitly marked
    replayable with an ``Idempotency-Key``, are retried transparently.
    Everything else surfaces as :class:`TransportError` for the caller to
    arbitrate.
    """
    if method in _REPLAYABLE_METHODS:
        return True
    return any(name.lower() == "idempotency-key" for name in (headers or {}))


def _render_head(
    method: str,
    target: str,
    authority: tuple[str, int],
    headers: "Mapping[str, str] | None",
    body_length: int,
) -> bytes:
    """The request line and header block, ending in the blank line.

    Raises ``ValueError`` for a method, header name or value that could
    break out of its line (CR, LF, other control characters; whitespace in
    a method or name); the caller has checked ``target``. The head is
    rendered before a connection is picked, so nothing of such a request
    ever reaches a wire.
    """
    if not method or _NOT_VISIBLE.search(method):
        raise ValueError(f"invalid HTTP method {method!r}")
    lines = [f"{method} {target} HTTP/1.1"]
    seen = set()
    for name, value in (headers or {}).items():
        value = str(value)
        if not name or _NOT_VISIBLE.search(name) or ":" in name:
            raise ValueError(f"invalid header name {name!r}")
        if _CONTROL.search(value):
            raise ValueError(f"invalid value for header {name!r}: {value!r}")
        seen.add(name.lower())
        lines.append(f"{name}: {value}")
    if "host" not in seen:
        host, port = authority
        lines.append(f"Host: {host}" if port == 80 else f"Host: {host}:{port}")
    if "content-length" not in seen and (body_length or method in _BODY_METHODS):
        lines.append(f"Content-Length: {body_length}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


class ResponseReader:
    """Incremental reader of one HTTP/1.x response off a blocking socket.

    Speaks the three body framings a server may choose — ``Content-Length``,
    ``Transfer-Encoding: chunked`` (trailers discarded) and, failing both,
    everything up to EOF — skips interim 1xx responses, and knows the
    replies that never carry a body (to HEAD, 204, 304). The header block
    goes through the same :func:`~repro.http.messages.split_head` grammar
    the server's request parser uses. A large ``Content-Length`` body is
    handed over as the ``bytearray`` it was received into (it hashes,
    slices, decodes and compares like ``bytes``), not copied into one.

    After :meth:`read`, ``reusable`` says whether the socket may carry
    another exchange: the peer did not announce a close, the body was not
    close-delimited and no byte beyond the response was received.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""
        self.reusable = False

    def read(self, bodiless: bool) -> Response:
        """The next final response; ``bodiless`` when it answers a HEAD."""
        while True:
            status_line, headers = split_head(self._read_head())
            match = _STATUS_LINE.fullmatch(status_line)
            if match is None:
                raise NoStatusLine(f"malformed status line: {status_line!r}")
            status = int(match[2])
            if status >= 200:
                break
        closing = closes_connection(match[1], headers)
        if bodiless or status in (204, 304):
            body = b""
        else:
            encoding = (headers.get("Transfer-Encoding") or "identity").lower()
            length = headers.get("Content-Length")
            if encoding == "chunked":
                body = self._read_chunked()
            elif encoding != "identity":
                raise BadResponse(f"transfer encoding {encoding!r} is not supported")
            elif length is not None:
                if not (length.isascii() and length.isdigit()):
                    raise BadResponse(f"invalid Content-Length {length!r}")
                body = self._read_exact(int(length))
            else:
                body = self._read_to_eof()
                closing = True
        self.reusable = not closing and not self._buffer
        return Response(status=status, headers=headers, body=body)

    def _fill(self) -> bool:
        """Receive once into the buffer; False at EOF."""
        data = self._sock.recv(_RECV_SIZE)
        self._buffer = self._buffer + data if self._buffer else data
        return bool(data)

    def _read_head(self) -> bytes:
        searched = 0
        while True:
            end = self._buffer.find(b"\r\n\r\n", searched)
            if end >= 0:
                head = self._buffer[:end]
                self._buffer = self._buffer[end + 4 :]
                return head
            if len(self._buffer) > DEFAULT_MAX_HEADER_BYTES:
                raise BadResponse("response header block too large")
            searched = max(0, len(self._buffer) - 3)
            if not self._fill():
                if not self._buffer:
                    raise NoStatusLine("connection closed before any response byte")
                raise BadResponse("connection closed inside the response head")

    def _read_exact(self, length: int) -> "bytes | bytearray":
        have = len(self._buffer)
        if length > _LARGE_BODY and have < length:
            # one buffer of the final size, filled in place: what arrived
            # with the head goes in first, the socket writes the rest
            # behind it (never past it: a surplus byte stays on the socket)
            body = bytearray(length)
            body[:have] = self._buffer
            self._buffer = b""
            with memoryview(body) as view:
                while have < length:
                    received = self._sock.recv_into(view[have:])
                    if not received:
                        raise BadResponse(f"body cut short: {have} of {length} bytes")
                    have += received
            return body
        while len(self._buffer) < length:
            if not self._fill():
                raise BadResponse(f"body cut short: {len(self._buffer)} of {length} bytes")
        body = self._buffer[:length]
        self._buffer = self._buffer[length:]
        return body

    def _read_line(self) -> bytes:
        while True:
            end = self._buffer.find(b"\r\n")
            if end >= 0:
                line = self._buffer[:end]
                self._buffer = self._buffer[end + 2 :]
                return line
            if len(self._buffer) > DEFAULT_MAX_HEADER_BYTES:
                raise BadResponse("chunk header or trailer line too long")
            if not self._fill():
                raise BadResponse("connection closed inside a chunked body")

    def _read_chunked(self) -> bytes:
        pieces = []
        while True:
            size_text = self._read_line().partition(b";")[0].strip()
            if not _HEX.fullmatch(size_text):
                raise BadResponse(f"invalid chunk size {size_text!r}")
            size = int(size_text, 16)
            if not size:
                break
            pieces.append(self._read_exact(size))
            if self._read_line():
                raise BadResponse("chunk data not followed by CRLF")
        while self._read_line():
            pass  # trailer fields are discarded
        return b"".join(pieces)

    def _read_to_eof(self) -> bytes:
        pieces = [self._buffer]
        self._buffer = b""
        while True:
            data = self._sock.recv(_RECV_SIZE)
            if not data:
                return b"".join(pieces)
            pieces.append(data)


class HttpTransport(Transport):
    """Carries requests over TCP with a small native HTTP/1.1 client.

    A request goes out as one ``sendall`` (head and body together unless
    the body is large; a spilled body goes from its file to the socket,
    from byte 0 on every send); the reply is read by :class:`ResponseReader`,
    which understands ``Content-Length``, ``chunked`` and close-delimited
    bodies. ``timeout`` bounds every socket operation (connect, send,
    each receive) on its own.

    Connections are kept alive and pooled per ``(host, port)``: sequential
    requests to the same authority reuse one socket instead of paying a TCP
    handshake each (the gateway's health probes and retries hit the same
    replicas continuously). Each pooled socket is used by one thread at
    a time; the pool itself is lock-protected, so the transport stays
    shareable across threads. A socket goes back to the pool only after a
    complete response that did not announce a close (``Connection: close``,
    HTTP/1.0 without ``keep-alive``), whose end the framing marked (not
    EOF) and behind which no surplus byte was received; any error closes
    it. A request sent on a reused socket that turns out to be stale is
    transparently replayed once on a fresh connection — but only when the
    replay provably cannot duplicate work (idempotent method or
    ``Idempotency-Key`` present).
    """

    schemes = ("http",)

    def __init__(self, timeout: float = 30.0, keep_alive: bool = True, pool_size: int = 8):
        self.timeout = timeout
        self.keep_alive = keep_alive
        #: Max idle connections kept per (host, port).
        self.pool_size = pool_size
        self._lock = threading.Lock()
        self._pool: dict[tuple[str, int], deque[socket.socket]] = {}

    def request(
        self,
        method: str,
        url: str,
        headers: Mapping[str, str] | None = None,
        body: "bytes | BodySpool" = b"",
    ) -> Response:
        parts = urlsplit(url)
        if parts.scheme != "http":
            raise TransportError(f"HttpTransport cannot handle {url!r}")
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        if _NOT_VISIBLE.search(target):
            raise TransportError(
                f"{method} {url!r} failed: a request target cannot contain"
                " control characters, spaces or non-ASCII characters"
            )
        authority = (parts.hostname or "", parts.port or 80)
        method = method.upper()
        head = _render_head(method, target, authority, headers, len(body))
        sock, reused = self._acquire(authority)
        try:
            return self._exchange(sock, authority, method, head, body)
        except _STALE_ERRORS as exc:
            sock.close()
            if not reused or not _replay_safe(method, headers):
                raise TransportError(f"{method} {url} failed: {exc}") from exc
            # the pooled socket died between requests; replay on a fresh one
            sock, _ = self._acquire(authority, fresh=True)
            try:
                return self._exchange(sock, authority, method, head, body)
            except _EXCHANGE_ERRORS as retry_exc:
                sock.close()
                raise TransportError(f"{method} {url} failed: {retry_exc}") from retry_exc
        except _EXCHANGE_ERRORS as exc:
            sock.close()
            raise TransportError(f"{method} {url} failed: {exc}") from exc

    def close(self) -> None:
        """Drop every idle pooled connection."""
        with self._lock:
            pools, self._pool = self._pool, {}
        for idle in pools.values():
            for sock in idle:
                sock.close()

    # ----------------------------------------------------------- internals

    def _acquire(
        self, authority: tuple[str, int], fresh: bool = False
    ) -> tuple[socket.socket, bool]:
        """A connected socket for ``authority``: pooled when available, else new.

        Returns ``(socket, reused)``; establishment failures surface as
        :class:`ConnectError`.
        """
        if self.keep_alive and not fresh:
            with self._lock:
                idle = self._pool.get(authority)
                if idle:
                    return idle.pop(), True
        try:
            sock = socket.create_connection(authority, timeout=self.timeout)
        except OSError as exc:
            raise ConnectError(f"cannot connect to {authority[0]}:{authority[1]}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, False

    def _release(self, authority: tuple[str, int], sock: socket.socket) -> None:
        if self.keep_alive:
            with self._lock:
                idle = self._pool.setdefault(authority, deque())
                if len(idle) < self.pool_size:
                    idle.append(sock)
                    return
        sock.close()

    def _exchange(
        self,
        sock: socket.socket,
        authority: tuple[str, int],
        method: str,
        head: bytes,
        body: "bytes | BodySpool",
    ) -> Response:
        """One request/response on ``sock``, which is pooled again or closed."""
        if isinstance(body, BodySpool):
            sock.sendall(head)
            body.send_to(sock)
        elif len(body) <= _LARGE_BODY:
            sock.sendall(head + body)
        else:
            sock.sendall(head)
            sock.sendall(body)
        reader = ResponseReader(sock)
        response = reader.read(bodiless=method == "HEAD")
        if reader.reusable:
            self._release(authority, sock)
        else:
            sock.close()
        return response


class LocalTransport(Transport):
    """Carries requests to in-process applications under ``local://`` URIs.

    Each application is registered under an authority name; a request for
    ``local://authority/path`` is dispatched synchronously into the matching
    :class:`RestApp`. This gives tests and single-process deployments the
    exact REST semantics of the socket path at function-call cost.
    """

    schemes = ("local",)

    def __init__(self) -> None:
        self._apps: dict[str, RestApp] = {}

    def bind(self, authority: str, app: RestApp) -> str:
        """Expose ``app`` as ``local://authority``; returns that base URI."""
        if authority in self._apps:
            raise ValueError(f"authority already bound: {authority!r}")
        self._apps[authority] = app
        return f"local://{authority}"

    def unbind(self, authority: str) -> None:
        self._apps.pop(authority, None)

    def request(
        self,
        method: str,
        url: str,
        headers: Mapping[str, str] | None = None,
        body: "bytes | BodySpool" = b"",
    ) -> Response:
        parts = urlsplit(url)
        if parts.scheme != "local":
            raise TransportError(f"LocalTransport cannot handle {url!r}")
        app = self._apps.get(parts.netloc)
        if app is None:
            raise ConnectError(f"no local application bound at {parts.netloc!r}")
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        if isinstance(body, BodySpool):
            # no wire to stream over: the in-process app gets a buffer
            body = body.read_all()
        request = Request.from_target(method, target, headers=Headers(dict(headers or {})), body=body)
        # local callers receive a complete Response object, so a streaming
        # body is collapsed here (the socket cores are where streaming pays)
        return app.handle(request).materialize()

    @property
    def authorities(self) -> list[str]:
        return sorted(self._apps)
