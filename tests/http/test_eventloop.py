"""The selectors-based event-loop server core.

Everything here talks to the server the hard way — raw sockets — because
the behaviours under test (pipelining, byte-at-a-time parsing, idle
reaping, torn writes, long-poll parking) are exactly the ones a
well-behaved client library hides.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.core.jobs import Job
from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.eventloop import TimerWheel
from repro.http.messages import (
    ProtocolError,
    Request,
    RequestParser,
    Response,
    serialize_response,
)
from tests.waiters import wait_until


def ping_app() -> RestApp:
    app = RestApp("eventloop")
    app.route("GET", "/ping", lambda request: Response.json({"pong": True}))
    app.route("POST", "/echo", lambda request: Response.json({"echo": request.json}))
    return app


def content_length(head: bytes) -> int:
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value.strip())
    return 0


def recv_response(sock: socket.socket, timeout: float = 5.0) -> bytes:
    """Read exactly one framed HTTP response off ``sock``.

    Reads the header block a byte at a time and the body to its exact
    Content-Length, so pipelined successors are never swallowed.
    """
    sock.settimeout(timeout)
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        byte = sock.recv(1)
        if not byte:
            return head
        head += byte
    length = content_length(head)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            break
        body += chunk
    return head + body


@pytest.fixture()
def server():
    instance = RestServer(ping_app()).start()
    yield instance
    instance.stop()


class TestRequestParser:
    def test_single_request_with_body(self):
        parser = RequestParser()
        raw = b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
        [(request, close_after)] = parser.feed(raw)
        assert request.method == "POST"
        assert request.path == "/echo"
        assert request.body == b"hi"
        assert close_after is False

    def test_byte_at_a_time_yields_the_same_request(self):
        parser = RequestParser()
        raw = b"POST /echo?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc"
        parsed = []
        for i in range(len(raw)):
            parsed.extend(parser.feed(raw[i : i + 1]))
        [(request, _)] = parsed
        assert request.path == "/echo"
        assert request.query == {"x": "1"}
        assert request.body == b"abc"

    def test_pipelined_requests_come_out_in_order(self):
        parser = RequestParser()
        raw = (
            b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
            b"POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nZ"
            b"GET /c HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        requests = [request.path for request, _ in parser.feed(raw)]
        assert requests == ["/a", "/b", "/c"]

    def test_connection_close_and_http10_set_close_after(self):
        parser = RequestParser()
        [(_, close)] = parser.feed(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert close is True
        parser = RequestParser()
        [(_, close)] = parser.feed(b"GET /a HTTP/1.0\r\nHost: x\r\n\r\n")
        assert close is True
        parser = RequestParser()
        [(_, close)] = parser.feed(b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert close is False

    def test_oversized_body_is_413(self):
        parser = RequestParser(max_body_bytes=10)
        with pytest.raises(ProtocolError) as info:
            parser.feed(b"POST /a HTTP/1.1\r\nContent-Length: 11\r\n\r\n")
        assert info.value.status == 413

    def test_chunked_transfer_encoding_is_501(self):
        parser = RequestParser()
        with pytest.raises(ProtocolError) as info:
            parser.feed(b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert info.value.status == 501

    def test_garbage_request_line_is_400_and_parser_is_poisoned(self):
        parser = RequestParser()
        with pytest.raises(ProtocolError) as info:
            parser.feed(b"NOT A REQUEST LINE AT ALL\r\n\r\n")
        assert info.value.status == 400
        with pytest.raises(ProtocolError):
            parser.feed(b"GET / HTTP/1.1\r\n\r\n")

    def test_serialize_response_frames_and_closes(self):
        wire = serialize_response(Response.json({"a": 1}), close=True)
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in wire
        assert b"Content-Length: " in wire
        head_wire = serialize_response(Response.json({"a": 1}), head=True)
        assert head_wire.endswith(b"\r\n\r\n")  # headers only, no body bytes


class TestTimerWheel:
    def test_fires_after_deadline_not_before(self):
        wheel = TimerWheel(granularity=0.01, slots=8)
        fired = []
        wheel.schedule(0.05, lambda: fired.append("x"))
        assert wheel.advance(time.monotonic() + 0.02) == []
        callbacks = wheel.advance(time.monotonic() + 0.2)
        assert len(callbacks) == 1
        assert fired == []  # advance returns callbacks, the loop runs them

    def test_deadline_beyond_horizon_cascades(self):
        wheel = TimerWheel(granularity=0.01, slots=4)  # horizon: 0.04 s
        wheel.schedule(0.1, lambda: None)
        assert wheel.advance(time.monotonic() + 0.05) == []
        assert len(wheel.advance(time.monotonic() + 0.3)) == 1

    def test_cancelled_entries_never_fire(self):
        wheel = TimerWheel(granularity=0.01, slots=8)
        entry = wheel.schedule(0.02, lambda: None)
        entry.cancelled = True
        assert wheel.advance(time.monotonic() + 0.5) == []
        assert len(wheel) == 0


class TestWireBasics:
    def test_keep_alive_pipelined_requests_answered_in_order(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(
                b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"
                b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n"
                b'Content-Type: application/json\r\n\r\n{"n": 1}'
                b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            first = recv_response(sock)
            second = recv_response(sock)
            third = recv_response(sock)
        assert b'"pong"' in first
        assert b'"echo"' in second and b'"n": 1' in second
        assert b'"pong"' in third
        assert server.connections_accepted == 1

    def test_slow_loris_byte_at_a_time_is_parsed(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            for byte in b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n":
                sock.sendall(bytes([byte]))
            response = recv_response(sock)
        assert response.startswith(b"HTTP/1.1 200")

    def test_head_answers_with_get_headers_and_no_body(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            get = recv_response(sock)
            sock.sendall(b"HEAD /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.settimeout(2.0)
            head = sock.recv(65536)
        get_length = get.partition(b"\r\n\r\n")[0].lower()
        assert head.endswith(b"\r\n\r\n")  # no body bytes follow the headers
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                assert line.lower() in get_length  # same length GET advertised
                break
        else:
            pytest.fail("HEAD response carried no Content-Length")

    def test_oversized_content_length_is_413_without_buffering(self):
        server = RestServer(ping_app(), max_body_bytes=1024).start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 2048\r\n\r\n"
                )
                response = recv_response(sock)
            assert response.startswith(b"HTTP/1.1 413")
            assert b"Connection: close" in response
        finally:
            server.stop()

    def test_bad_request_line_gets_400_then_close(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"COMPLETE GARBAGE\r\n\r\n")
            response = recv_response(sock)
            assert response.startswith(b"HTTP/1.1 400")
            sock.settimeout(2.0)
            assert sock.recv(16) == b""  # server closed after answering

    def test_http10_connection_closes_after_response(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.0\r\nHost: x\r\n\r\n")
            response = recv_response(sock)
            assert response.startswith(b"HTTP/1.1 200")
            sock.settimeout(2.0)
            assert sock.recv(16) == b""


class TestIdleTimeout:
    def test_idle_sockets_are_reaped_and_counted(self):
        server = RestServer(ping_app(), idle_timeout=0.25).start()
        try:
            socks = [
                socket.create_connection((server.host, server.port)) for _ in range(4)
            ]
            wait_until(lambda: server.connections_timed_out >= 4,
                       timeout=5.0, interval=0.05)
            assert server.connections_timed_out == 4
            for sock in socks:
                sock.settimeout(1.0)
                assert sock.recv(16) == b""
                sock.close()
        finally:
            server.stop()

    def test_active_connection_outlives_the_idle_timeout(self):
        server = RestServer(ping_app(), idle_timeout=0.3).start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                for _ in range(6):  # keeps touching the socket past 2x timeout
                    sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert recv_response(sock).startswith(b"HTTP/1.1 200")
                    time.sleep(0.1)
            assert server.connections_timed_out == 0
        finally:
            server.stop()


class LongPollBackend:
    """A tiny in-memory ServiceBackend with one controllable job."""

    def __init__(self):
        self.job = Job(service="lp", inputs={}, id="j1")

    def describe(self):
        return {"name": "lp"}

    def submit(self, inputs, request):
        return self.job

    def get_job(self, job_id):
        return self.job

    def delete_job(self, job_id):
        pass

    def get_file(self, job_id, file_id):
        raise AssertionError("no files here")


def longpoll_server(handler_threads: int = 2):
    from repro.core.api import mount_service

    app = RestApp("longpoll")
    app.route("GET", "/ping", lambda request: Response.json({"pong": True}))
    backend = LongPollBackend()
    mount_service(app, "/services/lp", backend)
    server = RestServer(app, handler_threads=handler_threads).start()
    return server, backend


class TestLongPollParking:
    def test_parked_wait_resumes_on_terminal_transition(self):
        server, backend = longpoll_server()
        try:
            def settle():
                backend.job.mark_running()
                backend.job.mark_done({"r": 1})

            timer = threading.Timer(0.3, settle)
            timer.start()
            started = time.monotonic()
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"GET /services/lp/jobs/j1?wait=10 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                response = recv_response(sock, timeout=8.0)
            elapsed = time.monotonic() - started
            assert b'"DONE"' in response
            assert 0.2 < elapsed < 5.0  # released by the transition, not the wait
            timer.cancel()
        finally:
            server.stop()

    def test_parked_wait_expires_with_current_representation(self):
        server, _backend = longpoll_server()
        try:
            started = time.monotonic()
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"GET /services/lp/jobs/j1?wait=0.3 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                response = recv_response(sock, timeout=8.0)
            elapsed = time.monotonic() - started
            assert b'"WAITING"' in response
            assert elapsed >= 0.25  # the wait really happened
        finally:
            server.stop()

    def test_parked_long_polls_do_not_pin_handler_threads(self):
        # one handler thread, several concurrent long-polls: if parking
        # pinned the worker this would deadlock — the ping could never run
        server, backend = longpoll_server(handler_threads=1)
        try:
            parked = [
                socket.create_connection((server.host, server.port)) for _ in range(3)
            ]
            for sock in parked:
                sock.sendall(
                    b"GET /services/lp/jobs/j1?wait=10 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
            time.sleep(0.3)  # all three are parked now
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                assert recv_response(sock).startswith(b"HTTP/1.1 200")
            backend.job.mark_running()
            backend.job.mark_done({"r": 1})
            for sock in parked:
                assert b'"DONE"' in recv_response(sock, timeout=8.0)
                sock.close()
        finally:
            server.stop()

    def test_keep_alive_connection_survives_a_parked_wait(self):
        server, backend = longpoll_server()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"GET /services/lp/jobs/j1?wait=0.2 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert b'"WAITING"' in recv_response(sock, timeout=8.0)
                # same socket keeps working after the parked response
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                assert recv_response(sock).startswith(b"HTTP/1.1 200")
            assert server.connections_accepted == 1
        finally:
            server.stop()


class TestFaultSeam:
    def test_drop_severs_without_response_bytes(self):
        server = RestServer(ping_app(), fault_hook=lambda request: "drop").start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(3.0)
                assert sock.recv(65536) == b""
        finally:
            server.stop()

    def test_drop_mid_write_sends_a_torn_response(self):
        server = RestServer(
            ping_app(), fault_hook=lambda request: "drop-mid-write"
        ).start()
        try:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(3.0)
                torn = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    torn += chunk
            assert torn.startswith(b"HTTP/1.1 200")  # some bytes made it out
            assert not torn.endswith(b'{"pong": true}')  # but not the whole response
        finally:
            server.stop()

    def test_fault_hook_is_settable_after_start(self, server):
        assert server.fault_hook is None
        server.fault_hook = lambda request: "drop"
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.settimeout(3.0)
            assert sock.recv(65536) == b""
        server.fault_hook = None


class TestLifecycle:
    def test_stop_severs_live_keep_alive_connections(self):
        server = RestServer(ping_app()).start()
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            assert recv_response(sock).startswith(b"HTTP/1.1 200")
            server.stop()
            sock.settimeout(2.0)
            assert sock.recv(16) == b""

    def test_port_is_known_before_start_and_stop_without_start_is_clean(self):
        instance = RestServer(ping_app())
        assert instance.port > 0
        instance.stop()  # never started: must release the listener quietly

    def test_many_concurrent_connections_all_get_answers(self):
        server = RestServer(ping_app()).start()
        try:
            socks = [
                socket.create_connection((server.host, server.port)) for _ in range(64)
            ]
            for sock in socks:
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            for sock in socks:
                assert recv_response(sock).startswith(b"HTTP/1.1 200")
                sock.close()
            assert server.connections_accepted == 64
        finally:
            server.stop()


class BufferedResponses:
    """Framed responses off one socket, without a syscall per byte."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._data = b""

    def next_body(self) -> bytes:
        while True:
            head, separator, rest = self._data.partition(b"\r\n\r\n")
            if separator:
                length = content_length(head)
                if len(rest) >= length:
                    assert head.startswith(b"HTTP/1.1 200"), head
                    self._data = rest[length:]
                    return rest[:length]
            received = self._sock.recv(65536)
            assert received, "server closed the connection mid-run"
            self._data += received


def echo_request(number: int) -> bytes:
    body = b'{"n": %d}' % number
    return (
        b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


class TestInlineCompletion:
    """The worker that wrote a response hands the connection back itself."""

    def test_plain_keep_alive_exchange_never_wakes_the_loop(self, server):
        [loop] = server._loops
        wakes = []
        original = loop.wake
        loop.wake = lambda: (wakes.append(1), original())
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            assert recv_response(sock).startswith(b"HTTP/1.1 200")  # accepted, warm
            del wakes[:]
            for _ in range(50):
                sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                assert recv_response(sock).startswith(b"HTTP/1.1 200")
            assert wakes == []
            # a pipelined successor is the loop's to dispatch: that does wake it
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n" * 2)
            assert recv_response(sock).startswith(b"HTTP/1.1 200")
            assert recv_response(sock).startswith(b"HTTP/1.1 200")
            assert wakes

    def test_request_parsed_during_the_hand_back_is_dispatched(self, server):
        # force the schedule the lock exists for: the next request reaches
        # the loop after the worker found the pipeline empty and before it
        # cleared ``busy``
        [loop] = server._loops
        ping = b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(ping)
            assert recv_response(sock).startswith(b"HTTP/1.1 200")
            [connection] = loop.connections

            class RacingPipeline(type(connection.pipeline)):
                armed = True

                def __len__(self):
                    length = super().__len__()
                    if self.armed and threading.current_thread() is not loop.thread:
                        # the worker's emptiness check, under connection.lock
                        type(self).armed = False
                        sock.sendall(ping)
                        time.sleep(0.2)  # the loop has the request by now
                    return length

            connection.pipeline = RacingPipeline()
            sock.sendall(ping)
            assert recv_response(sock).startswith(b"HTTP/1.1 200")
            assert not RacingPipeline.armed
            assert recv_response(sock, timeout=3.0).startswith(b"HTTP/1.1 200")

    def test_singles_and_deep_pipelines_never_strand_a_request(self):
        # a request parsed while the previous response's worker clears
        # ``busy`` is dispatched by exactly one of the two — which only
        # holds because both sides do it under connection.lock
        clients, rounds, depth = 8, 30, 16
        server = RestServer(ping_app(), handler_threads=4).start()
        failures: list[BaseException] = []

        def client(index: int) -> None:
            try:
                with socket.create_connection((server.host, server.port)) as sock:
                    sock.settimeout(20.0)
                    responses = BufferedResponses(sock)
                    number = index * 1_000_000
                    for _ in range(rounds):
                        sock.sendall(echo_request(number))
                        assert json.loads(responses.next_body()) == {"echo": {"n": number}}
                        number += 1
                        sock.sendall(b"".join(echo_request(number + i) for i in range(depth)))
                        for i in range(depth):
                            assert json.loads(responses.next_body()) == {"echo": {"n": number + i}}
                        number += depth
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), "a request was stranded"
            assert failures == []
            assert server.connections_accepted == clients
        finally:
            sys.setswitchinterval(interval)
            server.stop()
