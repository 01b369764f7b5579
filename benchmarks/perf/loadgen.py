"""The load generator: verified ops over keep-alive connections.

One process, a few threads, one connection each. Every op checks the value
it gets back; an op that fails, is refused, times out or returns a wrong
value is a failure and has no latency. All traffic is host loopback.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading
import time
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

from benchmarks.perf.workloads import BLOB_BYTES, SUBMIT_RID_SUFFIX, Op, Workload

JSON = "application/json"
OCTETS = "application/octet-stream"


class OpFailed(Exception):
    """The op did not produce the right answer."""


class Record(NamedTuple):
    op_id: str
    ok: bool
    #: Op latency: closed loop from the send, open loop from the due time.
    latency: float
    #: POST → 201 of the op's job submit.
    submit: float
    #: The op's first byte → that 201: the time to a job handle. The same as
    #: ``submit`` unless the op has to upload the job's input first.
    handle: float
    #: Open loop only: how long after its due time the op was sent.
    late: float
    error: str
    #: Which of an op's equally valid paths the stack happened to take, when
    #: it has more than one and their costs differ (see :func:`blob`).
    stratum: str = ""


class Client:
    """One keep-alive connection to one base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        self._address = (parts.hostname, parts.port)
        self._timeout = timeout
        self._connection: "http.client.HTTPConnection | None" = None

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*self._address, timeout=self._timeout)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def path_of(self, uri: str) -> str:
        """The path of a URI the stack advertised under this client's base."""
        if not uri.startswith(self.base_url + "/"):
            raise OpFailed(f"advertised URI {uri!r} is not under {self.base_url}")
        return uri[len(self.base_url):]

    def request(
        self, method: str, path: str, body: "bytes | None" = None, headers: "dict | None" = None
    ) -> "tuple[int, bytes]":
        if self._connection is None:
            self._connection = self._connect()
        try:
            self._connection.request(method, path, body=body, headers=headers or {})
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()  # never reuse a connection in an unknown state
            raise


def _expect(status: int, wanted: int, step: str, payload: bytes) -> None:
    if status != wanted:
        raise OpFailed(f"{step} answered {status}, not {wanted}: {payload[:200]!r}")


def _headers(op: Op, suffix: str, content_type: "str | None" = None) -> dict:
    headers = {"X-Tenant": op.tenant, "X-Request-Id": op.id + suffix}
    if content_type is not None:
        headers["Content-Type"] = content_type
    return headers


def _submit(client: Client, op: Op, path: str, body: bytes) -> "tuple[dict, float]":
    """POST a job; returns its representation and the time to the handle."""
    headers = _headers(op, SUBMIT_RID_SUFFIX, JSON)
    headers["Idempotency-Key"] = op.id
    start = time.perf_counter()
    status, payload = client.request("POST", path, body, headers)
    elapsed = time.perf_counter() - start
    _expect(status, 201, "POST " + path, payload)
    return json.loads(payload), elapsed


def _results(client: Client, op: Op, job: dict, wait: int) -> dict:
    """Long-poll the job to DONE and return its results. Always one GET,
    even when the 201 already said DONE, so every op is the same requests."""
    path = client.path_of(job["uri"]) + f"?wait={wait}"
    status, payload = client.request("GET", path, headers=_headers(op, ".g"))
    _expect(status, 200, "GET job", payload)
    job = json.loads(payload)
    if job["state"] != "DONE":
        raise OpFailed(f"job ended {job['state']}: {job.get('error')}")
    return job["results"]


def _delete(client: Client, op: Op, job: dict) -> None:
    status, payload = client.request("DELETE", client.path_of(job["uri"]), headers=_headers(op, ".d"))
    _expect(status, 204, "DELETE job", payload)


def _check(got, wanted, what: str) -> None:
    if got != wanted:
        raise OpFailed(f"wrong {what}: got {got!r}, expected {wanted!r}")


class Done(NamedTuple):
    """What a successful op reports besides having succeeded."""

    submit: float
    handle: float
    stratum: str = ""


def lifecycle(client: Client, op: Op) -> Done:
    job, submit = _submit(client, op, "/services/work", op.body)
    _check(_results(client, op, job, 5), {"y": 2 * op.value}, "result")
    _delete(client, op, job)
    return Done(submit, submit)


def cached(client: Client, op: Op) -> Done:
    """No DELETE: the job stays, so the same input later hits the cache. A
    hit must equal the cold answer, which is 2x whoever computed it."""
    job, submit = _submit(client, op, "/services/work", op.body)
    _check(_results(client, op, job, 5), {"y": 2 * op.value}, "result")
    return Done(submit, submit)


def workflow(client: Client, op: Op) -> Done:
    job, submit = _submit(client, op, "/services/fan", op.body)
    _check(_results(client, op, job, 10), {"out": 16 * op.value}, "result")
    _delete(client, op, job)
    return Done(submit, submit)


def _owner(uri: str) -> str:
    """The replica a gateway-advertised job or blob URI is pinned to (the
    id prefix of its last segment)."""
    return uri.rsplit("/", 1)[-1].partition(".")[0]


def blob(client: Client, op: Op) -> Done:
    """The gateway places the upload round-robin and the job by a hash of
    its body, so about half the jobs find their blob on their own replica
    and half stage it from the other — a coin the op cannot call, and the
    two cost very differently. The op reports which it was."""
    digest = hashlib.sha256(op.body).hexdigest()
    start = time.perf_counter()
    status, payload = client.request("POST", "/blobs", op.body, _headers(op, ".u", OCTETS))
    _expect(status, 201, "POST /blobs", payload)
    reference = json.loads(payload)
    _check(reference.get("$blob"), digest, "upload digest")
    job, submit = _submit(client, op, "/services/sink", json.dumps({"data": reference}).encode())
    handle = time.perf_counter() - start
    _check(_results(client, op, job, 10), {"digest": digest, "size": BLOB_BYTES}, "result")
    status, payload = client.request("GET", client.path_of(reference["$file"]), headers=_headers(op, ".b"))
    _expect(status, 200, "GET blob", payload)
    _check(hashlib.sha256(payload).hexdigest(), digest, "downloaded digest")
    _delete(client, op, job)
    return Done(submit, handle, "local" if _owner(job["uri"]) == _owner(reference["$file"]) else "staged")


OPS: "dict[str, Callable[[Client, Op], Done]]" = {
    "lifecycle": lifecycle, "cached": cached, "workflow": workflow, "blob": blob,
}


def attempt(
    run_op: "Callable[[Op], Done]", op: Op, start: float, late: float, clock: Callable[[], float],
) -> Record:
    """Run one op and account for it, whatever it does."""
    try:
        done = run_op(op)
    except (OpFailed, OSError, http.client.HTTPException, ValueError, KeyError) as error:
        return Record(op.id, False, 0.0, 0.0, 0.0, late, f"{type(error).__name__}: {error}")
    return Record(op.id, True, clock() - start, done.submit, done.handle, late, "", done.stratum)


class _Shared:
    """A thread-safe ``next()`` over the op stream (and, open loop, the
    schedule): whichever connection is free takes the next op."""

    def __init__(self, items: Iterable):
        self._items = iter(items)
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            return next(self._items, None)


def _run_threads(worker: Callable[[Client], None], base_url: str, threads: int) -> float:
    """Run ``worker`` on ``threads`` connections; returns the wall time."""
    clients = [Client(base_url) for _ in range(threads)]
    pool = [threading.Thread(target=worker, args=(client,)) for client in clients]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    for client in clients:
        client.close()
    return elapsed


def closed_loop(
    workload: Workload, base_url: str, stream: Iterator[Op], threads: int,
    seconds: "float | None" = None, count: "int | None" = None,
) -> "tuple[list[Record], float]":
    """Each connection sends its next op when the previous one completed,
    for ``seconds`` or until ``count`` ops were taken."""
    shared = _Shared(stream if count is None else (op for _, op in zip(range(count), stream)))
    records: list[Record] = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    def worker(client: Client) -> None:
        run_op = partial(OPS[workload.op], client)
        while deadline is None or time.perf_counter() < deadline:
            op = shared.take()
            if op is None:
                return
            records.append(attempt(run_op, op, time.perf_counter(), 0.0, time.perf_counter))

    return records, _run_threads(worker, base_url, threads)


def open_loop_worker(
    take: Callable[[], "tuple[float, Op] | None"], run_op: "Callable[[Op], Done]",
    records: list, clock: Callable[[], float], sleep: Callable[[float], None],
) -> None:
    """Send each op at its due time, or as soon after as this connection is
    free. Latency counts from the *due* time, so the wait a slow reply
    imposes on the ops behind it is charged to them; ``late`` is how much
    of that the generator itself added before the op was even sent."""
    while True:
        item = take()
        if item is None:
            return
        due, op = item
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        records.append(attempt(run_op, op, due, now - due, clock))


def open_loop(
    workload: Workload, base_url: str, stream: Iterator[Op], offsets: list, threads: int,
) -> "tuple[list[Record], float]":
    """Run the ops on the schedule ``offsets`` (seconds from now)."""
    origin = time.perf_counter() + 0.05
    shared = _Shared(zip((origin + offset for offset in offsets), stream))
    records: list[Record] = []

    def worker(client: Client) -> None:
        open_loop_worker(shared.take, partial(OPS[workload.op], client), records, time.perf_counter, time.sleep)

    return records, _run_threads(worker, base_url, threads)


# ------------------------------------------------------------- statistics


def percentile(values: list, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def stratified(records: "list[Record]", field: str, q: float) -> float:
    """The ``q``-th percentile of ``field`` over the successful records —
    taken within each stratum and averaged with equal weights, so that how
    many ops a run happened to land in each does not move the figure."""
    strata: "dict[str, list[float]]" = {}
    for record in records:
        if record.ok:
            strata.setdefault(record.stratum, []).append(getattr(record, field))
    if not strata:
        return 0.0
    return sum(percentile(values, q) for values in strata.values()) / len(strata)


def within_limit(records: list, limit: float) -> float:
    """Share of attempted ops that succeeded within ``limit``; a failed op
    misses every limit."""
    if not records:
        return 0.0
    return sum(1 for record in records if record.ok and record.latency <= limit) / len(records)
