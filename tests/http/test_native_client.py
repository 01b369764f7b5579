"""The transport's native HTTP/1.1 client against a scripted raw-socket peer.

The peer plays back exactly the bytes a test scripts — split wherever the
test wants, framed however it wants, torn or followed by junk — because a
real server only ever produces the well-formed cases. What the peer saw
(connections accepted, raw requests received) is the evidence for the
pooling and replay rules.
"""

import socket
import threading
import time
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.client import IDEMPOTENCY_KEY_HEADER
from repro.http.transport import (
    BadResponse,
    ConnectError,
    HttpTransport,
    ResponseReader,
    TransportError,
)

OK_EMPTY = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"


@dataclass
class Reply:
    """What the peer does once it has read one whole request."""

    #: Byte strings sent one ``sendall`` each, a short pause in between.
    pieces: list = field(default_factory=list)
    #: Close the connection after the last piece.
    close: bool = False
    #: Seconds to sit on the request before sending anything.
    stall: float = 0.0


class ScriptedPeer:
    """A one-connection-at-a-time TCP server that answers from a script.

    The n-th request it reads, on whichever connection, gets the n-th
    :class:`Reply`; a connection the client closes makes it accept the
    next one. Requests are framed by ``Content-Length`` only.
    """

    def __init__(self, *replies: Reply):
        self.replies = list(replies)
        self.requests: list[bytes] = []
        self.accepted = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()

    def __enter__(self) -> "ScriptedPeer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection.settimeout(0.05)
            with connection:
                self._converse(connection)

    def _converse(self, connection: socket.socket) -> None:
        while True:
            request = self._read_request(connection)
            if request is None:
                return
            self.requests.append(request)
            reply = self.replies.pop(0)
            if self._stop.wait(reply.stall):
                return
            for index, piece in enumerate(reply.pieces):
                if index:
                    time.sleep(0.002)
                connection.sendall(piece)
            if reply.close:
                return

    def _read_request(self, connection: socket.socket) -> "bytes | None":
        data = b""
        while True:
            head, separator, body = data.partition(b"\r\n\r\n")
            if separator:
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                if len(body) >= length:
                    return data
            try:
                received = connection.recv(1 << 20)
            except TimeoutError:
                if self._stop.is_set():
                    return None
                continue
            except OSError:
                return None
            if not received:
                return None
            data += received


@pytest.fixture()
def transport():
    instance = HttpTransport(timeout=5.0)
    yield instance
    instance.close()


def framed(body: bytes, status: str = "200 OK", extra: bytes = b"") -> bytes:
    return (
        f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n".encode() + extra + b"\r\n" + body
    )


class TestSplitsAndFramings:
    def test_head_delivered_byte_by_byte(self, transport):
        wire = framed(b'{"ok": true}', extra=b"Content-Type: application/json\r\n")
        head, _, body = wire.partition(b"\r\n\r\n")
        pieces = [bytes([byte]) for byte in head + b"\r\n\r\n"] + [body]
        with ScriptedPeer(Reply(pieces), Reply([OK_EMPTY])) as peer:
            response = transport.request("GET", f"{peer.url}/a")
            assert response.status == 200
            assert response.json_body == {"ok": True}
            assert response.headers.get("content-type") == "application/json"
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 1  # the socket went back to the pool

    def test_body_split_across_reads(self, transport):
        body = bytes(range(256)) * 8
        wire = framed(body)
        cut = len(wire) - len(body)
        pieces = [wire[: cut + 10], wire[cut + 10 : cut + 700], wire[cut + 700 :]]
        with ScriptedPeer(Reply(pieces), Reply([OK_EMPTY])) as peer:
            assert transport.request("GET", f"{peer.url}/a").body == body
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 1

    def test_chunked_with_extensions_and_trailers(self, transport):
        wire = [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"5;ext=1\r\nhello\r\n",
            b"1\r\n \r\n6\r\nworld!\r",
            b"\n0\r\nX-Checksum: abc\r\nX-Other: 1\r\n\r\n",
        ]
        with ScriptedPeer(Reply(wire), Reply([OK_EMPTY])) as peer:
            response = transport.request("GET", f"{peer.url}/a")
            assert response.body == b"hello world!"
            assert "X-Checksum" not in response.headers  # trailers are dropped
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 1  # the terminating chunk ends the message

    def test_close_delimited_body(self, transport):
        wire = [b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\npart one, ", b"part two"]
        with ScriptedPeer(Reply(wire, close=True), Reply([OK_EMPTY])) as peer:
            assert transport.request("GET", f"{peer.url}/a").body == b"part one, part two"
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 2

    def test_100_continue_then_200(self, transport):
        wire = [b"HTTP/1.1 100 Continue\r\n\r\n", framed(b"done", status="201 Created")]
        with ScriptedPeer(Reply(wire), Reply([b"".join(wire)])) as peer:
            for _ in range(2):  # interim and final split, then in one read
                response = transport.request("POST", f"{peer.url}/a", body=b"x")
                assert (response.status, response.body) == (201, b"done")
            assert peer.accepted == 1

    def test_http10_reply_closes_unless_keep_alive(self, transport):
        plain = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi"
        kept = b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nhi"
        with ScriptedPeer(Reply([plain]), Reply([kept]), Reply([OK_EMPTY])) as peer:
            assert transport.request("GET", f"{peer.url}/a").body == b"hi"
            assert transport.request("GET", f"{peer.url}/b").body == b"hi"
            assert peer.accepted == 2  # the plain 1.0 reply was not reused
            assert transport.request("GET", f"{peer.url}/c").status == 200
            assert peer.accepted == 2  # the keep-alive one was

    def test_connection_close_is_honoured(self, transport):
        wire = framed(b"bye", extra=b"Connection: close\r\n")
        with ScriptedPeer(Reply([wire]), Reply([OK_EMPTY])) as peer:
            assert transport.request("GET", f"{peer.url}/a").body == b"bye"
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 2

    @pytest.mark.parametrize(
        ("method", "wire"),
        [
            ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\n"),
            ("GET", b"HTTP/1.1 204 No Content\r\n\r\n"),
            ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 512\r\nETag: x\r\n\r\n"),
        ],
    )
    def test_bodiless_replies_do_not_wait_for_a_body(self, transport, method, wire):
        with ScriptedPeer(Reply([wire]), Reply([OK_EMPTY])) as peer:
            response = transport.request(method, f"{peer.url}/a")
            assert response.body == b""
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 1

    def test_four_mebibytes_both_directions(self, transport):
        upload = bytes(range(251)) * (4 * 1024 * 1024 // 251 + 1)
        upload = upload[: 4 * 1024 * 1024]
        download = upload[::-1]
        with ScriptedPeer(Reply([framed(download)]), Reply([OK_EMPTY])) as peer:
            response = transport.request("POST", f"{peer.url}/blobs", body=upload)
            assert response.body == download
            head, _, received = peer.requests[0].partition(b"\r\n\r\n")
            assert received == upload
            assert f"Content-Length: {len(upload)}".encode() in head
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 1


class TestRequestRendering:
    def test_request_line_host_and_length(self, transport):
        with ScriptedPeer(Reply([OK_EMPTY]), Reply([OK_EMPTY]), Reply([OK_EMPTY])) as peer:
            transport.request("post", f"{peer.url}/jobs?x=1", {"X-Tenant": "acme"}, b'{"a": 1}')
            transport.request("POST", f"{peer.url}/jobs")
            transport.request("GET", peer.url)
            first, second, third = (request.split(b"\r\n") for request in peer.requests)
        assert first[0] == b"POST /jobs?x=1 HTTP/1.1"
        assert b"X-Tenant: acme" in first
        assert f"Host: 127.0.0.1:{peer.port}".encode() in first
        assert b"Content-Length: 8" in first
        assert first[-1] == b'{"a": 1}'
        assert b"Content-Length: 0" in second  # an empty POST still says so
        assert third[0] == b"GET / HTTP/1.1"
        assert not any(line.startswith(b"Content-Length") for line in third)

    @pytest.mark.parametrize(
        "headers",
        [
            {"X-Note": "fine\r\nX-Evil: 1"},
            {"X-Note": "fine\nX-Evil: 1"},
            {"X-Note\r\nX-Evil": "1"},
            {"X-Note: 1\r\nX-Evil": "1"},
            {"Bad Name": "1"},
            {"": "1"},
        ],
    )
    def test_header_injection_is_refused_before_any_byte(self, transport, headers):
        with ScriptedPeer() as peer:
            with pytest.raises(ValueError):
                transport.request("GET", f"{peer.url}/a", headers=headers)
            with pytest.raises(ValueError):
                transport.request("GET /x HTTP/1.1\r\nX-Evil:", f"{peer.url}/a")
            time.sleep(0.1)
            assert peer.accepted == 0  # not even a connection was opened

    def test_unsafe_target_is_refused_before_any_byte(self, transport):
        with ScriptedPeer(Reply([OK_EMPTY])) as peer:
            for path in ("/a b", "/a\x00b", "/café"):
                with pytest.raises(TransportError):
                    transport.request("GET", peer.url + path)
            time.sleep(0.1)
            assert peer.accepted == 0
            # CR/LF never survive URL splitting, so they cannot open a line
            transport.request("GET", f"{peer.url}/a\r\nX-Evil:1")
            assert peer.requests[0].startswith(b"GET /aX-Evil:1 HTTP/1.1\r\n")


class TestFailuresAndPooling:
    def test_truncated_body_is_an_error_and_the_socket_is_not_pooled(self, transport):
        torn = b"HTTP/1.1 201 Created\r\nContent-Length: 100\r\n\r\nonly this much"
        with ScriptedPeer(
            Reply([OK_EMPTY]), Reply([torn], close=True), Reply([OK_EMPTY])
        ) as peer:
            assert transport.request("GET", f"{peer.url}/warm").status == 200
            with pytest.raises(TransportError, match="cut short"):
                # on the reused socket, and ambiguous: the peer answered
                transport.request("POST", f"{peer.url}/jobs", body=b"{}")
            assert len(peer.requests) == 2  # the keyless POST was not replayed
            assert transport.request("GET", f"{peer.url}/after").status == 200
            assert peer.accepted == 2

    def test_torn_head_and_torn_chunk_are_errors(self, transport):
        with ScriptedPeer(
            Reply([b"HTTP/1.1 200 OK\r\nContent-Le"], close=True),
            Reply([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"], close=True),
            Reply([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"], close=True),
        ) as peer:
            for _ in range(3):
                with pytest.raises(TransportError):
                    transport.request("GET", f"{peer.url}/a")
            assert peer.accepted == 3

    def test_stale_pooled_socket_replays_only_what_is_safe(self, transport):
        with ScriptedPeer(
            Reply([OK_EMPTY]),
            Reply(close=True),  # reads the POST, answers nothing, closes
            Reply([OK_EMPTY]),
            Reply(close=True),  # the same to a keyed POST ...
            Reply([framed(b"", status="201 Created")]),  # ... which is replayed
        ) as peer:
            assert transport.request("GET", f"{peer.url}/warm").status == 200
            with pytest.raises(TransportError):
                transport.request("POST", f"{peer.url}/jobs", body=b"{}")
            assert len(peer.requests) == 2
            assert transport.request("GET", f"{peer.url}/warm").status == 200
            response = transport.request(
                "POST", f"{peer.url}/jobs", {IDEMPOTENCY_KEY_HEADER: "ik-1"}, b"{}"
            )
            assert response.status == 201
            assert peer.requests[3] == peer.requests[4]
            assert len(peer.requests) == 5

    def test_no_reply_on_a_fresh_socket_is_never_replayed(self, transport):
        with ScriptedPeer(Reply(close=True)) as peer:
            with pytest.raises(TransportError):
                transport.request("GET", f"{peer.url}/a")
            assert len(peer.requests) == 1

    def test_surplus_bytes_after_the_body_retire_the_socket(self, transport):
        with ScriptedPeer(Reply([framed(b"body") + b"JUNK"]), Reply([OK_EMPTY])) as peer:
            assert transport.request("GET", f"{peer.url}/a").body == b"body"
            assert transport.request("GET", f"{peer.url}/b").status == 200
            assert peer.accepted == 2

    def test_garbage_instead_of_a_status_line(self, transport):
        with ScriptedPeer(Reply([b"SSH-2.0-OpenSSH_9.6\r\n\r\n"], close=True)) as peer:
            with pytest.raises(TransportError, match="status line"):
                transport.request("GET", f"{peer.url}/a")

    def test_unframeable_replies_are_refused(self, transport):
        with ScriptedPeer(
            Reply([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nxx"], close=True),
            Reply([b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"], close=True),
            Reply([b"HTTP/1.1 200 OK\r\nBroken header line\r\n\r\n"], close=True),
        ) as peer:
            for _ in range(3):
                with pytest.raises(TransportError):
                    transport.request("GET", f"{peer.url}/a")

    def test_timeout_applies_to_each_operation(self):
        transport = HttpTransport(timeout=0.2)
        try:
            with ScriptedPeer(Reply([OK_EMPTY], stall=2.0)) as peer:
                started = time.monotonic()
                with pytest.raises(TransportError, match="timed out"):
                    transport.request("GET", f"{peer.url}/slow")
                assert time.monotonic() - started < 1.5
        finally:
            transport.close()

    def test_nobody_listening_is_a_connect_error(self, transport):
        with socket.create_server(("127.0.0.1", 0)) as placeholder:
            port = placeholder.getsockname()[1]
        with pytest.raises(ConnectError):
            transport.request("GET", f"http://127.0.0.1:{port}/a")

    def test_pool_keeps_at_most_pool_size_sockets(self):
        transport = HttpTransport(pool_size=1)
        try:
            with ScriptedPeer(Reply([OK_EMPTY])) as peer:
                transport.request("GET", f"{peer.url}/a")
                extra = socket.socket()
                transport._release(("127.0.0.1", peer.port), extra)
                assert extra.fileno() == -1  # closed, not pooled
        finally:
            transport.close()


# ------------------------------------------------------------ split property


class PiecewiseSocket:
    """The receiving half of a socket that delivers scripted pieces."""

    def __init__(self, pieces):
        self._pieces = [piece for piece in pieces if piece]

    def recv(self, size: int) -> bytes:
        if not self._pieces:
            return b""
        piece = self._pieces[0]
        if len(piece) > size:
            self._pieces[0] = piece[size:]
            return piece[:size]
        return self._pieces.pop(0)

    def recv_into(self, view) -> int:
        data = self.recv(len(view))
        view[: len(data)] = data
        return len(data)


header_names = st.sampled_from(["Content-Type", "ETag", "X-Cache", "X-Request-Id", "Location"])
header_values = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=24
)
bodies = st.one_of(
    st.binary(max_size=600),
    # above the reader's large-body threshold: received into one buffer
    st.integers(min_value=65537, max_value=140000).map(
        lambda size: (bytes(range(256)) * (size // 256 + 1))[:size]
    ),
)


@st.composite
def responses_on_the_wire(draw):
    """``(wire bytes, status, header items, body)`` of one valid response."""
    status = draw(st.sampled_from([200, 201, 404, 503]))
    items = draw(st.lists(st.tuples(header_names, header_values), max_size=5))
    body = draw(bodies)
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    wire_body = body
    if framing == "length":
        items.append(("Content-Length", str(len(body))))
    elif framing == "chunked":
        items.append(("Transfer-Encoding", "chunked"))
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        chunks = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if b > a]
        trailer = b"X-Trailer: t\r\n" if draw(st.booleans()) else b""
        wire_body = (
            b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
            + b"0\r\n" + trailer + b"\r\n"
        )
    interim = b"HTTP/1.1 100 Continue\r\n\r\n" if draw(st.booleans()) else b""
    head = f"HTTP/1.1 {status} Whatever\r\n" + "".join(f"{n}: {v}\r\n" for n, v in items)
    return interim + head.encode("latin-1") + b"\r\n" + wire_body, status, items, body


def read_in_pieces(wire: bytes, cuts: list) -> tuple:
    cuts = sorted(cut % (len(wire) + 1) for cut in cuts)
    pieces = [wire[a:b] for a, b in zip([0, *cuts], [*cuts, len(wire)])]
    reader = ResponseReader(PiecewiseSocket(pieces))
    response = reader.read(bodiless=False)
    return response.status, list(response.headers.items()), response.body, reader.reusable


class TestAnySplitYieldsTheSameResponse:
    @given(
        message=responses_on_the_wire(),
        cuts=st.lists(st.integers(min_value=0, max_value=200_000), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_independence(self, message, cuts):
        wire, status, items, body = message
        whole = read_in_pieces(wire, [])
        assert whole[:3] == (status, items, body)
        assert read_in_pieces(wire, cuts) == whole

    @given(cut=st.integers(min_value=0, max_value=44))
    def test_every_proper_prefix_of_a_framed_response_is_an_error(self, cut):
        wire = b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\npayload"
        assert len(wire) == 45
        reader = ResponseReader(PiecewiseSocket([wire[:cut]]))
        with pytest.raises(BadResponse):
            reader.read(bodiless=False)
