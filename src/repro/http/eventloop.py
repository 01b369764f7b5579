"""The HTTP server: a selectors-based event loop (the C10k server).

One (or a few) loop threads own every socket through non-blocking parse
and write state machines; request handling runs off-loop on a small
:class:`~repro.runtime.pool.ExecutorPool`, so only actual application/job
work consumes threads. An idle keep-alive connection costs a
:class:`_Connection` object and a selector registration — a few kilobytes
— instead of a thread stack, which is what lets one process hold tens of
thousands of waiting clients.

Connection state machine (see DESIGN.md for the full diagram)::

      accept ──► READING ──complete request──► HANDLING (off-loop worker)
                    ▲                             │
                    │        ┌─ DeferredResponse ─┤
                    │        ▼                    ▼
                    │     PARKED ──resume──► WRITING (direct send, loop
                    │        │                  │     flushes leftovers)
                    │      timer                │
                    └───────────────────────────┘ keep-alive / pipeline
                               (or CLOSED: Connection: close, EOF,
                                protocol error, idle timeout, fault drop)

WRITING → READING has two routes. A worker whose direct send put the whole
response on the wire completes the connection itself, under
``connection.lock``, when the loop has nothing to do for it (no pipelined
successor, no EOF, no close, reading enabled): the common keep-alive
exchange never wakes the loop. Otherwise it hands back with
``call_soon(_response_done)``.

The loop never blocks on a handler: a worker that wants to wait (the
``?wait=`` long-poll) raises :class:`~repro.http.app.DeferredResponse`
through the kernel; the connection parks on the job's transition
observers plus a timer-wheel deadline and is resumed with a completed
response later, pinning no thread in between.

Fault seam: the configured ``fault_hook`` runs on the worker (so seeded
``delay`` faults stall a worker, not the loop) and may answer ``"drop"``
(sever before any response byte) or ``"drop-mid-write"`` (sever after a
partial response).
"""

from __future__ import annotations

import contextlib
import errno
import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable

from repro.http.app import DEFER_CAPABILITY, DeferredResponse, RestApp
from repro.http.messages import (
    DEFAULT_BODY_SPILL_BYTES,
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    ProtocolError,
    Request,
    RequestParser,
    Response,
    serialize_response,
)
from repro.runtime.pool import ExecutorPool

logger = logging.getLogger(__name__)

#: One ``recv`` worth of bytes; large enough that small requests arrive whole.
RECV_SIZE = 65536

#: A buffered response body above this is not joined to its head: it goes
#: out behind the head in slices of this size, through the write path a
#: streaming response takes.
LARGE_BODY = 65536

#: Pipelined requests buffered per connection before the loop stops
#: reading from it (read resumes as responses drain) — bounds the memory
#: a single pipelining client can pin.
MAX_PIPELINE_DEPTH = 16


class _TimerEntry:
    __slots__ = ("deadline", "callback", "cancelled")

    def __init__(self, deadline: float, callback: Callable[[], None]):
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False


class TimerWheel:
    """Hashed timer wheel with lazy cascade (single-thread use).

    Entries land in ``slot = (cursor + ticks) % slots``; an entry whose
    deadline lies beyond the wheel horizon is simply re-inserted when its
    slot comes around with time still left — O(1) schedule and amortized
    O(1) expiry, no sorted structure. Granularity is the firing slack:
    a timeout may fire up to one granularity late, never early.
    """

    def __init__(self, granularity: float = 0.05, slots: int = 1024):
        if granularity <= 0 or slots < 2:
            raise ValueError("granularity must be > 0 and slots >= 2")
        self.granularity = granularity
        self.slots = slots
        self._wheel: list[list[_TimerEntry]] = [[] for _ in range(slots)]
        self._cursor = 0
        self._cursor_time = time.monotonic()
        self._scheduled = 0

    def __len__(self) -> int:
        return self._scheduled

    def schedule(self, delay: float, callback: Callable[[], None]) -> _TimerEntry:
        entry = _TimerEntry(time.monotonic() + max(0.0, delay), callback)
        self._insert(entry)
        self._scheduled += 1
        return entry

    def _insert(self, entry: _TimerEntry) -> None:
        ticks = int((entry.deadline - self._cursor_time) / self.granularity) + 1
        self._wheel[(self._cursor + max(1, ticks)) % self.slots].append(entry)

    def advance(self, now: float) -> list[Callable[[], None]]:
        """Rotate up to ``now``; return the callbacks that came due."""
        fired: list[Callable[[], None]] = []
        while self._cursor_time + self.granularity <= now:
            self._cursor_time += self.granularity
            self._cursor = (self._cursor + 1) % self.slots
            bucket = self._wheel[self._cursor]
            if not bucket:
                continue
            self._wheel[self._cursor] = []
            for entry in bucket:
                if entry.cancelled:
                    self._scheduled -= 1
                elif entry.deadline <= now:
                    self._scheduled -= 1
                    fired.append(entry.callback)
                else:
                    self._insert(entry)  # beyond the horizon: cascade
        return fired


class _Connection:
    """Per-socket state: read buffer/parser, pipeline, pending writes."""

    __slots__ = (
        "sock",
        "loop",
        "parser",
        "pipeline",
        "outbuf",
        "out_offset",
        "stream",
        "lock",
        "busy",
        "close_after",
        "eof",
        "closed",
        "reading",
        "writing",
        "last_activity",
        "idle_entry",
    )

    def __init__(self, sock: socket.socket, loop: "_EventLoop", parser: RequestParser):
        self.sock = sock
        self.loop = loop
        self.parser = parser
        #: Parsed-but-unhandled ``(request, close_after)`` pairs, in order.
        self.pipeline: "deque[tuple[Request, bool]]" = deque()
        #: Bytes accepted for writing but not yet on the wire.
        self.outbuf = bytearray()
        self.out_offset = 0
        #: Chunk iterator of an in-flight streaming response; the write
        #: path refills ``outbuf`` from it one chunk at a time, so a
        #: multi-GB response never occupies more than a chunk of memory.
        self.stream = None
        #: Guards what loop and workers both touch: ``outbuf``,
        #: ``out_offset``, ``stream`` and ``closed`` (the write path), and
        #: ``pipeline``, ``busy`` and ``eof`` (the hand-back of a finished
        #: response). The other fields belong to the loop thread;
        #: ``close_after`` and ``reading`` are read under it by a worker.
        self.lock = threading.Lock()
        #: A request from this connection is being handled or is parked.
        self.busy = False
        self.close_after = False
        self.eof = False
        self.closed = False
        self.reading = True
        self.writing = False
        self.last_activity = time.monotonic()
        self.idle_entry: "_TimerEntry | None" = None


class _EventLoop:
    """One loop thread: a selector, a timer wheel, and its connections."""

    def __init__(self, server: "RestServer", name: str):
        self.server = server
        self.name = name
        self.selector = selectors.DefaultSelector()
        self.wheel = TimerWheel()
        self.connections: set[_Connection] = set()
        self.connections_timed_out = 0
        self._actions: "deque[Callable[[], None]]" = deque()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self.selector.register(self._wake_recv, selectors.EVENT_READ, self._drain_wakeup)
        self._stop = False
        self.thread = threading.Thread(target=self.run, name=name, daemon=True)

    # ------------------------------------------------------- cross-thread API

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread as soon as possible (thread-safe)."""
        self._actions.append(fn)
        self.wake()

    def wake(self) -> None:
        with contextlib.suppress(OSError):
            self._wake_send.send(b"\0")

    def stop(self) -> None:
        self._stop = True
        self.wake()

    # --------------------------------------------------------------- the loop

    def run(self) -> None:
        granularity = self.wheel.granularity
        while not self._stop:
            for key, _mask in self.selector.select(granularity):
                key.data(key.fileobj)
            while self._actions:
                try:
                    self._actions.popleft()()
                except Exception:  # noqa: BLE001 - actions must not kill the loop
                    logger.exception("event-loop action failed")
            for callback in self.wheel.advance(time.monotonic()):
                try:
                    callback()
                except Exception:  # noqa: BLE001 - timers must not kill the loop
                    logger.exception("event-loop timer failed")
        for connection in list(self.connections):
            self._abort(connection)
        self.selector.unregister(self._wake_recv)
        self._wake_recv.close()
        self._wake_send.close()
        self.selector.close()

    def _drain_wakeup(self, sock: socket.socket) -> None:
        # the selector is level-triggered: whatever one read leaves behind
        # brings the loop straight back here
        with contextlib.suppress(OSError):
            sock.recv(4096)

    # ------------------------------------------------------------ connections

    def adopt(self, sock: socket.socket) -> None:
        """Take ownership of a freshly accepted socket (loop thread)."""
        sock.setblocking(False)
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock, self, self.server.new_parser())
        self.connections.add(connection)
        self.selector.register(
            sock, selectors.EVENT_READ, lambda _s, c=connection: self._on_readable(c)
        )
        self._arm_idle_timer(connection, self.server.idle_timeout)

    def _set_interest(self, connection: _Connection, reading: bool, writing: bool) -> None:
        if connection.closed or (reading, writing) == (connection.reading, connection.writing):
            return
        registered = connection.reading or connection.writing
        connection.reading, connection.writing = reading, writing
        events = (selectors.EVENT_READ if reading else 0) | (
            selectors.EVENT_WRITE if writing else 0
        )
        if not events:
            self.selector.unregister(connection.sock)
            return
        # a full pipeline with nothing to flush left the socket unregistered
        change = self.selector.modify if registered else self.selector.register
        change(connection.sock, events, lambda _s, c=connection: self._on_ready(c))

    def _on_ready(self, connection: _Connection) -> None:
        # one callback serves both directions; check actual readiness cheaply
        if connection.writing:
            self._flush(connection)
        if connection.reading and not connection.closed:
            self._on_readable(connection)

    def _on_readable(self, connection: _Connection) -> None:
        try:
            data = connection.sock.recv(RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._abort(connection)
            return
        if not data:
            with connection.lock:
                connection.eof = True
                pending = (
                    connection.busy or connection.pipeline or self._has_backlog(connection)
                )
            if not pending:
                self._abort(connection)
            return
        connection.last_activity = time.monotonic()
        try:
            parsed = connection.parser.feed(data)
        except ProtocolError as error:
            self._refuse(connection, error)
            return
        if parsed:
            with connection.lock:
                connection.pipeline.extend(parsed)
                full = len(connection.pipeline) >= MAX_PIPELINE_DEPTH
            if full:
                # stop reading until responses drain; resumes in _response_done
                self._set_interest(connection, reading=False, writing=connection.writing)
            self._pump(connection)

    def _pump(self, connection: _Connection) -> None:
        """Dispatch the next pipelined request unless one is in flight.

        The claim happens under the lock a worker's inline completion
        takes: a request queued while a worker hands the connection back
        is seen by exactly one of the two.
        """
        with connection.lock:
            if connection.busy or connection.closed or not connection.pipeline:
                return
            request, close_after = connection.pipeline.popleft()
            connection.busy = True
        self.server.dispatch(connection, request, close_after)

    def _refuse(self, connection: _Connection, error: ProtocolError) -> None:
        """Answer a protocol error and close (the byte stream is unrecoverable)."""
        with connection.lock:
            streaming = connection.stream is not None
        if streaming:
            # a response is mid-stream; appending an error body would
            # interleave with its remaining chunks — just sever
            self._abort(connection)
            return
        response = HttpError(error.status, error.message).to_response()
        connection.close_after = True
        self._set_interest(connection, reading=False, writing=connection.writing)
        self.server.send_payload(connection, serialize_response(response, close=True))

    def _has_backlog(self, connection: _Connection) -> bool:
        return (
            len(connection.outbuf) - connection.out_offset > 0
            or connection.stream is not None
        )

    def _flush(self, connection: _Connection) -> None:
        """Write pending bytes (loop thread, write-ready socket)."""
        with connection.lock:
            if connection.closed:
                return
            done = self._send_backlog_locked(connection)
        if done:
            self._set_interest(connection, reading=connection.reading, writing=False)
            self._response_done(connection)

    def _send_backlog_locked(self, connection: _Connection) -> bool:
        """Push ``outbuf`` (refilled from any stream) into the socket;
        True when fully drained.

        Caller holds ``connection.lock``. A streaming response keeps its
        chunk iterator on the connection; whenever the buffered bytes
        drain, the next chunk is pulled and sent — so the response body
        transits the server at one chunk of memory regardless of size.
        On a dead socket the connection is marked closed and cleanup is
        scheduled on the loop.
        """
        while True:
            while connection.out_offset < len(connection.outbuf):
                try:
                    sent = connection.sock.send(
                        memoryview(connection.outbuf)[connection.out_offset :]
                    )
                except (BlockingIOError, InterruptedError):
                    return False
                except OSError:
                    connection.closed = True
                    self.call_soon(lambda: self._abort(connection, already_closed=True))
                    return False
                connection.out_offset += sent
            connection.outbuf = bytearray()
            connection.out_offset = 0
            if connection.stream is None:
                return True
            try:
                chunk = next(connection.stream, None)
            except Exception:  # noqa: BLE001 - a failing stream kills the connection
                logger.exception("response stream failed mid-body")
                connection.stream = None
                connection.closed = True
                self.call_soon(lambda: self._abort(connection, already_closed=True))
                return False
            if chunk is None:
                connection.stream = None
                return True
            connection.outbuf.extend(chunk)

    def _complete_inline_locked(self, connection: _Connection) -> bool:
        """Finish a fully written response from the worker that wrote it.

        Caller holds ``connection.lock``. True when the connection is idle
        again with nothing for the loop to do; False leaves it ``busy``
        and the caller schedules :meth:`_response_done`.
        """
        if (
            connection.pipeline
            or connection.eof
            or connection.close_after
            or not connection.reading
        ):
            return False
        connection.busy = False
        connection.last_activity = time.monotonic()
        return True

    def _response_done(self, connection: _Connection) -> None:
        """Bookkeeping after a complete response hit the wire (loop thread)."""
        if connection.closed:
            return
        if connection.close_after or (
            connection.eof and not connection.pipeline
        ):
            self._abort(connection)
            return
        connection.busy = False
        connection.last_activity = time.monotonic()
        if not connection.reading and len(connection.pipeline) < MAX_PIPELINE_DEPTH:
            self._set_interest(connection, reading=True, writing=connection.writing)
        self._pump(connection)

    def _abort(self, connection: _Connection, already_closed: bool = False) -> None:
        """Close a connection and forget it (loop thread)."""
        if connection not in self.connections:
            return
        self.connections.discard(connection)
        with connection.lock:
            connection.closed = True
        if connection.idle_entry is not None:
            connection.idle_entry.cancelled = True
        with contextlib.suppress(KeyError, OSError, ValueError):
            self.selector.unregister(connection.sock)
        if not already_closed:
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            connection.sock.close()

    # ------------------------------------------------------------ idle timing

    def _arm_idle_timer(self, connection: _Connection, delay: float) -> None:
        if self.server.idle_timeout <= 0:
            return
        connection.idle_entry = self.wheel.schedule(
            delay, lambda: self._idle_expired(connection)
        )

    def _idle_expired(self, connection: _Connection) -> None:
        if connection.closed or connection not in self.connections:
            return
        idle = time.monotonic() - connection.last_activity
        if connection.busy or idle < self.server.idle_timeout:
            # active, parked on a long-poll, or touched since scheduling:
            # re-arm for the remainder instead of churning per request
            remaining = self.server.idle_timeout - (0.0 if connection.busy else idle)
            self._arm_idle_timer(connection, max(remaining, self.wheel.granularity))
            return
        self.connections_timed_out += 1
        self._abort(connection)


class RestServer:
    """Serves a :class:`RestApp` over TCP on background threads.

    Owns the listening socket (bound at construction, to an ephemeral
    loopback port by default, so ``port`` is known immediately and
    parallel test runs never clash), ``loop_threads`` event loops, and
    the off-loop handler pool. Usable as a context manager::

        with RestServer(app) as server:
            client = RestClient(HttpTransport(), base=server.base_url)

    - ``fault_hook`` — per-request fault-injection seam (also settable
      as an attribute): runs with the parsed request before handling and
      may return ``"drop"`` (sever without answering),
      ``"drop-mid-write"`` (sever after a partial response), or ``None``
      (serve normally).
    - ``idle_timeout`` — seconds an idle keep-alive connection may sit
      before the server closes it (``connections_timed_out`` counts the
      reaped ones).
    - ``max_body_bytes`` — request bodies above this answer 413 without
      being buffered (default 64 MB).
    - ``body_spill_bytes`` — request bodies above this are spilled to an
      anonymous temp file instead of memory (default 1 MB; ``-1`` keeps
      everything in memory).
    - ``handler_threads`` / ``loop_threads`` — sizing of the handler
      pool and the number of loop threads.
    """

    def __init__(
        self,
        app: RestApp,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_hook: "Callable[[Request], str | None] | None" = None,
        *,
        idle_timeout: float = 60.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        body_spill_bytes: int = DEFAULT_BODY_SPILL_BYTES,
        handler_threads: int = 8,
        loop_threads: int = 1,
    ):
        if loop_threads < 1:
            raise ValueError("need at least one loop thread")
        self.app = app
        self.fault_hook = fault_hook
        self.idle_timeout = idle_timeout
        self.max_body_bytes = max_body_bytes
        self.body_spill_bytes = body_spill_bytes
        self.handler_threads = handler_threads
        #: How many TCP connections the server has accepted so far.
        self.connections_accepted = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self._listener.setblocking(False)
        #: Bound for good, so the address is read once (``base_url`` is
        #: built from it on every request that advertises a URI).
        self.host, self.port = self._listener.getsockname()[:2]
        self._loops = [
            _EventLoop(self, name=f"http-loop-{self.port}-{index}")
            for index in range(loop_threads)
        ]
        self._next_loop = 0
        self._pool: ExecutorPool | None = None
        self._started = False
        self._stopped = False

    # -------------------------------------------------------------- lifecycle

    @property
    def base_url(self) -> str:
        """The ``http://host:port`` prefix under which the app is reachable."""
        return f"http://{self.host}:{self.port}"

    @property
    def connections_timed_out(self) -> int:
        """Idle keep-alive sockets reaped by the timer wheel so far."""
        return sum(loop.connections_timed_out for loop in self._loops)

    @property
    def open_connections(self) -> int:
        """TCP connections currently open."""
        return sum(len(loop.connections) for loop in self._loops)

    @property
    def timer_entries(self) -> int:
        """Live entries across every loop's timer wheel (idle + long-poll)."""
        return sum(len(loop.wheel) for loop in self._loops)

    def stats(self) -> dict[str, int]:
        """A point-in-time snapshot of the server's connection counters."""
        return {
            "connections_accepted": self.connections_accepted,
            "connections_timed_out": self.connections_timed_out,
            "open_connections": self.open_connections,
            "timer_entries": self.timer_entries,
        }

    def start(self) -> "RestServer":
        if self._started:
            raise RuntimeError("server already started")
        self._pool = ExecutorPool(workers=self.handler_threads, name=f"http-{self.port}")
        accept_loop = self._loops[0]
        accept_loop.selector.register(
            self._listener, selectors.EVENT_READ, lambda _s: self._accept()
        )
        for loop in self._loops:
            loop.thread.start()
        self._started = True
        return self

    def __enter__(self) -> "RestServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for loop in self._loops:
            loop.stop()
        if self._started:
            for loop in self._loops:
                loop.thread.join(timeout=5)
        else:
            # never started: the loop threads never ran, so release their
            # wakeup pipes and selectors here instead of at loop exit
            for loop in self._loops:
                with contextlib.suppress(OSError, KeyError, ValueError):
                    loop.selector.unregister(loop._wake_recv)
                loop._wake_recv.close()
                loop._wake_send.close()
                loop.selector.close()
        with contextlib.suppress(OSError):
            self._listener.close()
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def close_connections(self) -> None:
        """Sever every live keep-alive connection without stopping the server."""
        barriers = []
        for loop in self._loops:
            if not loop.thread.is_alive():
                continue
            done = threading.Event()

            def sever(loop: "_EventLoop" = loop, done: threading.Event = done) -> None:
                for connection in list(loop.connections):
                    loop._abort(connection)
                done.set()

            loop.call_soon(sever)
            barriers.append(done)
        for done in barriers:
            done.wait(timeout=2)

    # ------------------------------------------------------------- loop hooks

    def new_parser(self) -> RequestParser:
        return RequestParser(
            max_body_bytes=self.max_body_bytes, spill_threshold=self.body_spill_bytes
        )

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                if error.errno in (errno.EMFILE, errno.ENFILE):
                    logger.error("accept failed: out of file descriptors")
                    return
                if not self._stopped:
                    logger.error("accept failed: %s", error)
                return
            self.connections_accepted += 1
            loop = self._loops[self._next_loop % len(self._loops)]
            self._next_loop += 1
            if loop is self._loops[0]:
                loop.adopt(sock)
            else:
                loop.call_soon(lambda s=sock, l=loop: l.adopt(s))

    def dispatch(self, connection: _Connection, request: Request, close_after: bool) -> None:
        """Hand a parsed request to the off-loop handler pool."""
        try:
            self._pool.submit(self._handle, connection, request, close_after)
        except RuntimeError:
            # pool already shut down mid-stop; the connection is going away
            connection.loop.call_soon(lambda: connection.loop._abort(connection))

    # -------------------------------------------------------- worker-side path

    def _handle(self, connection: _Connection, request: Request, close_after: bool) -> None:
        """Run one request on a pool worker and write (or park) its response."""
        parked = False
        try:
            decision = None
            hook = self.fault_hook
            if hook is not None:
                decision = hook(request)
            if decision == "drop":
                connection.loop.call_soon(lambda: connection.loop._abort(connection))
                return
            request.context[DEFER_CAPABILITY] = DeferredResponse
            head = request.method.upper() == "HEAD"
            try:
                response = self.app.handle(request)
            except DeferredResponse as deferred:
                parked = True
                self._park(connection, request, deferred, close_after, head)
                return
            if decision == "drop-mid-write":
                payload = serialize_response(
                    response.materialize(), head=head, close=close_after
                )
                self._sever_mid_write(connection, payload)
                return
            self.send_response(connection, response, head=head, close_after=close_after)
        except Exception:  # noqa: BLE001 - a handler bug must not leak the socket
            logger.exception("event-loop request handling failed")
            connection.loop.call_soon(lambda: connection.loop._abort(connection))
        finally:
            if not parked:
                # answered (or severed): a spilled body's temp file goes now
                request.close()

    def _park(
        self,
        connection: _Connection,
        request: Request,
        deferred: DeferredResponse,
        close_after: bool,
        head: bool,
    ) -> None:
        """Park the connection; resume on the deferral's trigger or timeout.

        The connection stays ``busy`` (pipelined successors wait their
        turn) while its worker thread is released. ``resume`` is
        idempotent: whichever of the observer callback and the timer
        fires first wins, the other is a no-op. Whichever way the parked
        request ends, ``request`` is closed.
        """
        state_lock = threading.Lock()
        state = {"fired": False, "timer": None}

        def resume() -> None:
            with state_lock:
                if state["fired"]:
                    return
                state["fired"] = True
                timer = state["timer"]
            if timer is not None:
                timer.cancelled = True
            if not connection.closed:
                try:
                    self._pool.submit(
                        self._finish_parked, connection, request, deferred.render, close_after, head
                    )
                    return
                except RuntimeError:  # stopped while parked
                    pass
            request.close()

        def arm_timer() -> None:
            with state_lock:
                if state["fired"]:
                    return
                state["timer"] = connection.loop.wheel.schedule(deferred.timeout, resume)

        connection.loop.call_soon(arm_timer)
        deferred.park(resume)

    def _finish_parked(
        self,
        connection: _Connection,
        request: Request,
        render: Callable[[], object],
        close_after: bool,
        head: bool,
    ) -> None:
        try:
            if connection.closed:
                return
            response = render()
            self.send_response(connection, response, head=head, close_after=close_after)
        except Exception:  # noqa: BLE001 - render is kernel-wrapped; belt and braces
            logger.exception("deferred response rendering failed")
            connection.loop.call_soon(lambda: connection.loop._abort(connection))
        finally:
            request.close()

    def _sever_mid_write(self, connection: _Connection, payload: bytes) -> None:
        """Write roughly half the response, then cut the socket (fault seam)."""
        half = payload[: max(1, len(payload) // 2)]
        with connection.lock:
            if not connection.closed and not connection.loop._has_backlog(connection):
                with contextlib.suppress(OSError):
                    connection.sock.send(half)
        connection.loop.call_soon(lambda: connection.loop._abort(connection))

    # ------------------------------------------------------------ write path

    def send_response(
        self,
        connection: _Connection,
        response: "Response",
        head: bool = False,
        close_after: bool = False,
    ) -> None:
        """Write one response; callable from any thread.

        A small buffered response takes the single-buffer
        :meth:`send_payload` path. A streaming response queues its
        serialized head and parks the chunk iterator on the connection;
        the write path (direct drain here, then the loop as the socket
        accepts bytes) pulls one chunk at a time, so the body never
        materializes server-side. A large buffered body goes the same
        way, as slices of itself: it is never joined to its head nor
        copied into the backlog whole.
        """
        if close_after:
            connection.close_after = True
        stream = None if head else response.stream
        if stream is None and not head and len(response.body) > LARGE_BODY:
            body = memoryview(response.body)
            stream = (body[at : at + LARGE_BODY] for at in range(0, len(body), LARGE_BODY))
        if stream is None:
            self.send_payload(
                connection, serialize_response(response, head=head, close=close_after)
            )
            return
        header = serialize_response(response, head=True, close=close_after)
        loop = connection.loop
        with connection.lock:
            if connection.closed:
                return
            connection.outbuf.extend(header)
            connection.stream = stream
            done = loop._send_backlog_locked(connection)
            if done and loop._complete_inline_locked(connection):
                return
        if done:
            loop.call_soon(lambda: loop._response_done(connection))
        elif not connection.closed:
            loop.call_soon(
                lambda: loop._set_interest(
                    connection, reading=connection.reading, writing=True
                )
            )

    def send_payload(self, connection: _Connection, payload: bytes) -> None:
        """Write one complete response; callable from any thread.

        Fast path: when nothing is queued, send straight from the calling
        worker — the common small response reaches the wire without a
        loop round-trip, which is what keeps the event-loop's small-job
        latency at parity with thread-per-connection. Whatever does not
        fit in the socket buffer is queued for the loop to flush.
        """
        loop = connection.loop
        with connection.lock:
            if connection.closed:
                return
            direct_done = False
            if not loop._has_backlog(connection):
                try:
                    sent = connection.sock.send(payload)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                except OSError:
                    connection.closed = True
                    loop.call_soon(lambda: loop._abort(connection, already_closed=True))
                    return
                if sent == len(payload):
                    if loop._complete_inline_locked(connection):
                        return
                    direct_done = True
                else:
                    connection.outbuf.extend(payload[sent:])
            else:
                connection.outbuf.extend(payload)
        if direct_done:
            loop.call_soon(lambda: loop._response_done(connection))
        else:
            loop.call_soon(
                lambda: loop._set_interest(
                    connection, reading=connection.reading, writing=True
                )
            )
