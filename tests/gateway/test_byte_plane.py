"""The byte plane end to end: blobs through a real gateway and replica over TCP.

Both servers spill request bodies above a few KiB, so the sizes around
the spill threshold and the chunk size take every branch of the relay:
in-memory and spooled uploads, joined and sliced responses, aligned and
ragged chunks. What comes out must be byte-for-byte what a direct
``put_bytes`` stores, and a relayed blob must cross the gateway without
being copied around in it.
"""

import hashlib
import socket
import tracemalloc

import pytest

from repro.blob import BlobStore
from repro.container import ServiceContainer
from repro.gateway import ServiceGateway
from repro.http import RestServer
from repro.http.app import DEFER_CAPABILITY, RestApp
from repro.http.messages import BodySpool, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import HttpTransport
from tests.http.test_eventloop import content_length
from tests.waiters import wait_until

SPILL = 4096
CHUNK = 64 * 1024
MIB = 1024 * 1024
SIZES = [0, 1, SPILL - 1, SPILL, SPILL + 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * MIB + 3]


def pattern(size: int) -> bytes:
    """``size`` pseudo-random bytes: no two chunks of a blob are equal, so
    a chunk out of place changes the manifest."""
    return hashlib.shake_256(str(size).encode()).digest(size)


def sha(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


class Plane:
    def __init__(self, request, replica_over_tcp=True):
        self.container = ServiceContainer("bp-replica", registry=TransportRegistry())
        self.container.blobs.chunk_size = CHUNK
        request.addfinalizer(self.container.shutdown)
        if replica_over_tcp:
            self.container.serve(body_spill_bytes=SPILL)
            registry = TransportRegistry()
            replica_url = self.container.base_uri
        else:
            registry = self.container.registry
            replica_url = self.container.local_base
        self.gateway = ServiceGateway(registry=registry, name="bp-gw")
        self.gateway.add_replica(replica_url)
        self.gateway.serve(body_spill_bytes=SPILL)
        request.addfinalizer(self.gateway.shutdown)
        self.client = HttpTransport()
        request.addfinalizer(self.client.close)

    @property
    def store(self) -> BlobStore:
        return self.container.blobs

    def upload(self, content: bytes) -> Response:
        return self.client.request("POST", self.gateway.base_uri + "/blobs", body=content)


@pytest.fixture()
def plane(request):
    return Plane(request)


@pytest.mark.parametrize("size", SIZES)
def test_relayed_blob_is_what_a_direct_put_stores(plane, tmp_path, size):
    content = pattern(size)
    expected = BlobStore(tmp_path / "direct", chunk_size=CHUNK).put_bytes(content)

    created = plane.upload(content)

    assert created.status == 201
    reference = created.json_body
    assert reference["$blob"] == expected.digest == sha(content)
    assert reference["size"] == size
    stored = plane.store.manifest(expected.digest)
    assert (stored.size, stored.chunks) == (expected.size, expected.chunks)
    fetched = plane.client.request("GET", reference["$file"])
    assert fetched.status == 200
    assert len(fetched.body) == size and sha(fetched.body) == expected.digest
    if size > 10:
        ranged = plane.client.request("GET", reference["$file"], headers={"Range": f"bytes=3-{size - 3}"})
        assert ranged.status == 206 and ranged.body == content[3 : size - 2]


def test_spooled_upload_reaches_a_local_replica(request):
    # a gateway served over TCP spools the upload; its replica lives in the
    # same process, where there is no wire to send a file down
    plane = Plane(request, replica_over_tcp=False)
    content = pattern(SPILL + 1)
    created = plane.upload(content)
    assert created.status == 201
    assert created.json_body["$blob"] == sha(content)
    assert plane.store.read(sha(content)) == content


def test_put_with_a_wrong_digest_is_422_and_commits_nothing(plane):
    content = pattern(CHUNK + 1)  # spooled, more than one chunk
    wrong = "0" * 64
    before = plane.store.stats()["blobs"]
    refused = plane.client.request("PUT", f"{plane.gateway.base_uri}/blobs/{wrong}", body=content)
    assert refused.status == 422
    assert not plane.store.exists(wrong) and not plane.store.exists(sha(content))
    assert plane.store.stats()["blobs"] == before
    # the same bytes under their true digest go through
    accepted = plane.client.request("PUT", f"{plane.gateway.base_uri}/blobs/{sha(content)}", body=content)
    assert accepted.status == 201 and plane.store.exists(sha(content))


# ------------------------------------------------------ memory in the relay


def raw_exchange(server: RestServer, head: bytes, body: bytes = b"") -> "tuple[bytes, str, int]":
    """One request over a bare socket; the response body is hashed as it
    arrives, never held, so the client adds nothing to the traced peak."""
    scratch = bytearray(256 * 1024)
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(head)
        if body:
            sock.sendall(body)
        received = b""
        while b"\r\n\r\n" not in received:
            piece = sock.recv(4096)
            assert piece, "connection closed inside the response head"
            received += piece
        response_head, _, start = received.partition(b"\r\n\r\n")
        hasher, got = hashlib.sha256(start), len(start)
        length = content_length(response_head)
        while got < length:
            count = sock.recv_into(scratch)
            assert count, f"body cut short at {got} of {length}"
            hasher.update(memoryview(scratch)[:count])
            got += count
    return response_head, hasher.hexdigest(), got


def test_a_relayed_blob_is_held_at_most_once_in_the_gateway(plane):
    size = 32 * MIB
    content = pattern(size)
    server = plane.gateway._server
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        head, _, _ = raw_exchange(
            server,
            f"POST /blobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {size}\r\n\r\n".encode(),
            content,
        )
        upload_peak = tracemalloc.get_traced_memory()[1] - floor
        assert head.startswith(b"HTTP/1.1 201")

        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        head, digest, got = raw_exchange(
            server, f"GET /blobs/{sha(content)} HTTP/1.1\r\nHost: gw\r\n\r\n".encode()
        )
        download_peak = tracemalloc.get_traced_memory()[1] - floor
    finally:
        tracemalloc.stop()
    assert head.startswith(b"HTTP/1.1 200") and got == size and digest == sha(content)
    # up: spool to socket, a chunk at a time in the replica — no body-sized buffer
    assert upload_peak < size, f"upload peaked at {upload_peak / size:.2f}x the body"
    # down: the one buffer the reply was received into, sent as slices of itself
    assert download_peak < 2 * size, f"download peaked at {download_peak / size:.2f}x the body"


# ------------------------------------------------------------- fault seams


def test_drop_mid_write_severs_a_large_buffered_response_inside_its_body():
    body = pattern(MIB)
    app = RestApp("big")
    app.route("GET", "/big", lambda request: Response(body=body))
    server = RestServer(app, fault_hook=lambda request: "drop-mid-write").start()
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n")
            torn = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break
                torn += piece
    finally:
        server.stop()
    head, separator, partial = torn.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200") and content_length(head) == len(body)
    assert separator and 0 < len(partial) < len(body)
    assert body.startswith(partial)


def test_stale_pooled_socket_replays_a_spooled_upload_from_byte_zero():
    seen = []
    app = RestApp("sink")
    app.route("GET", "/ping", lambda request: Response.json({}))

    def take(request):
        seen.append(sha(request.body_bytes))
        return Response.json({"size": request.body_size})

    app.route("PUT", "/upload", take)
    server = RestServer(app, body_spill_bytes=SPILL).start()
    transport = HttpTransport()
    content = pattern(3 * MIB)
    spool = BodySpool()
    spool.write(content)
    try:
        assert transport.request("GET", server.base_url + "/ping").status == 200
        server.close_connections()  # the pooled socket is now stale
        # an earlier send (to a candidate that failed) left the file at its end
        assert len(spool.read_all()) == len(content)
        response = transport.request("PUT", server.base_url + "/upload", body=spool)
        assert response.status == 200 and response.json_body == {"size": len(content)}
        assert seen == [sha(content)]
        assert server.connections_accepted == 2, "the upload did not go out on a fresh connection"
    finally:
        spool.close()
        transport.close()
        server.stop()


# ------------------------------------------------------- spool lifetime


class Deferral:
    """A handler that defers its answer; the test resumes it."""

    def __init__(self):
        self.resume = None

    def __call__(self, request):
        raise request.context[DEFER_CAPABILITY](
            render=lambda: Response.json({"size": request.body_size}),
            park=lambda resume: setattr(self, "resume", resume),
            timeout=30.0,
        )


@pytest.mark.parametrize("ending", ["answered", "handler-raises", "deferred", "severed-while-parked"])
def test_spool_is_closed_once_its_request_is_over(ending):
    requests = []
    deferral = Deferral()
    app = RestApp("spools")

    def handler(request):
        requests.append(request)
        if ending == "handler-raises":
            raise RuntimeError("handler bug")
        if ending in ("deferred", "severed-while-parked"):
            return deferral(request)
        return Response.json({"size": request.body_size})

    app.route("POST", "/take", handler)
    server = RestServer(app, body_spill_bytes=SPILL).start()
    content = pattern(SPILL + 1)
    try:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                f"POST /take HTTP/1.1\r\nHost: x\r\nContent-Length: {len(content)}\r\n\r\n".encode() + content
            )
            wait_until(lambda: requests, message="the request never reached its handler")
            (request,) = requests
            assert request.spool is not None
            if ending in ("deferred", "severed-while-parked"):
                wait_until(lambda: deferral.resume, message="the request was never parked")
                assert not request.spool._file.closed, "closed while its request is still parked"
            if ending == "severed-while-parked":
                server.close_connections()
            if ending in ("deferred", "severed-while-parked"):
                deferral.resume()
            if ending != "severed-while-parked":
                expected = b"HTTP/1.1 500" if ending == "handler-raises" else b"HTTP/1.1 200"
                assert sock.recv(65536).startswith(expected)
        wait_until(lambda: request.spool._file.closed, message="the spool outlived its request")
    finally:
        server.stop()
