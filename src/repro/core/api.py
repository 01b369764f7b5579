"""Mounting the Table 1 resource/method matrix onto a REST application.

=========  =======================  ===========================  =====================
Resource   GET                      POST                         DELETE
=========  =======================  ===========================  =====================
Service    service description      submit request (create job)  —
Job        job status and results   —                            cancel job / delete data
File       file data (ranged)       —                            —
=========  =======================  ===========================  =====================

Any object implementing :class:`ServiceBackend` — the container's deployed
services, the workflow management service's composite services — gets the
exact same wire interface from :func:`mount_service`. That uniformity is
what makes MathCloud services interoperable and composable.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Protocol

from repro.core.errors import ServiceError
from repro.core.files import FileEntry
from repro.core.jobs import Job, job_document
from repro.http.app import DEFER_CAPABILITY, RestApp
from repro.http.client import IDEMPOTENCY_KEY_HEADER, X_CACHE_HEADER
from repro.http.messages import HttpError, Request, Response
from repro.runtime.trace import build_trace_tree


class ServiceBackend(Protocol):
    """What a computational service must provide to be mounted."""

    def describe(self) -> dict[str, Any]:
        """The JSON service description (``GET`` on the service resource)."""
        ...

    def submit(self, inputs: dict[str, Any], request: Request) -> Job:
        """Create a job for ``inputs``; may complete it synchronously."""
        ...

    def get_job(self, job_id: str) -> Job: ...

    def delete_job(self, job_id: str) -> None:
        """Cancel a live job, or delete a finished job and its files."""
        ...

    def get_file(self, job_id: str, file_id: str) -> FileEntry: ...


#: Upper bound on one long-poll block. Kept below the default client-side
#: socket timeout (30 s) so a ``?wait=`` request can never look like a dead
#: connection; clients needing longer waits chain requests.
MAX_LONG_POLL = 25.0


def parse_wait(raw: "str | None") -> float:
    """The ``?wait=`` query parameter as a bounded number of seconds.

    ``0`` (or absence) means an immediate snapshot, preserving the
    paper's plain polling semantics; invalid values are a client error.
    """
    if raw is None or raw == "":
        return 0.0
    try:
        seconds = float(raw)
    except ValueError as exc:
        raise HttpError(400, f"invalid wait parameter {raw!r}: expected seconds") from exc
    if seconds < 0:
        raise HttpError(400, f"invalid wait parameter {raw!r}: must be >= 0")
    return min(seconds, MAX_LONG_POLL)


class SubmitLedger:
    """Single-flight Idempotency-Key → job-id map for one mounted service.

    A POST that carries an ``Idempotency-Key`` creates at most one job per
    key *on this backend*: a repeat of an already-accepted key answers
    with the original job, and a duplicate racing an in-flight first
    attempt waits for its outcome instead of creating a second job. This
    is the backend half of the end-to-end at-most-once story — it is what
    makes a gateway's (or a client's) replay of an ambiguous POST safe.

    Entries are a bounded LRU; a key whose job has since been deleted is
    forgotten, so deliberate resubmission after cleanup still works.
    """

    def __init__(self, capacity: int = 1024, pending_timeout: float = 30.0):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.pending_timeout = pending_timeout
        self._cond = threading.Condition(threading.Lock())
        self._pending: set[str] = set()
        self._jobs: "OrderedDict[str, str]" = OrderedDict()

    def claim(self, key: str) -> "tuple[str | None, bool]":
        """Returns ``(job_id, owner)``: a recorded job id to replay, or
        ownership of the key (the caller must finish with :meth:`store` or
        :meth:`release`). ``(None, False)`` means an in-flight first
        attempt held the key past ``pending_timeout``."""
        deadline = time.monotonic() + self.pending_timeout
        with self._cond:
            while True:
                job_id = self._jobs.get(key)
                if job_id is not None:
                    self._jobs.move_to_end(key)
                    return job_id, False
                if key not in self._pending:
                    self._pending.add(key)
                    return None, True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None, False
                self._cond.wait(remaining)

    def store(self, key: str, job_id: str) -> None:
        with self._cond:
            self._jobs[key] = job_id
            self._jobs.move_to_end(key)
            while len(self._jobs) > self.capacity:
                self._jobs.popitem(last=False)
            self._pending.discard(key)
            self._cond.notify_all()

    def release(self, key: str) -> None:
        """Abandon a claim whose submit failed; a waiter inherits the key."""
        with self._cond:
            if key in self._pending:
                self._pending.discard(key)
                self._cond.notify_all()

    def forget(self, key: str) -> None:
        """Drop a recorded key (its job was deleted)."""
        with self._cond:
            self._jobs.pop(key, None)

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._pending)

    def __len__(self) -> int:
        with self._cond:
            return len(self._jobs)


def representation_etag(representation: dict[str, Any]) -> str:
    """A strong validator over a JSON representation: the hash of its
    canonical serialization, so any observable change changes the tag.

    (Hashed inline rather than via :mod:`repro.cache` — the core layer
    must not depend on the caching layer, which builds on it.)
    """
    canonical = json.dumps(
        representation, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return '"' + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32] + '"'


def etag_matches(if_none_match: str, etag: str) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation (weak comparison)."""
    candidates = [candidate.strip() for candidate in if_none_match.split(",")]
    stripped = etag[2:] if etag.startswith("W/") else etag
    for candidate in candidates:
        if candidate == "*":
            return True
        if (candidate[2:] if candidate.startswith("W/") else candidate) == stripped:
            return True
    return False


def job_uri(base_uri: str, job_id: str) -> str:
    return f"{base_uri}/jobs/{job_id}"


def file_uri_for(base_uri: str, job_id: str, file_id: str) -> str:
    return f"{job_uri(base_uri, job_id)}/files/{file_id}"


def _to_http_error(error: ServiceError) -> HttpError:
    return HttpError(error.http_status, error.message, details=error.details,
                     retry_after=getattr(error, "retry_after", None))


def mount_service(
    app: RestApp,
    base_path: str,
    backend: ServiceBackend,
    base_uri: "str | Callable[[], str]" = "",
    ledger: "SubmitLedger | None" = None,
    tracer: Any = None,
) -> None:
    """Wire the unified REST API for ``backend`` under ``base_path``.

    ``base_uri`` is the absolute URI prefix advertised in representations
    (job/file links); it defaults to the relative ``base_path``. A callable
    may be passed when the public address is not fixed yet (a container's
    advertised URI switches from ``local://`` to ``http://`` once served).
    ``ledger`` lets the mounter supply a pre-seeded submit ledger — after
    a cold restart the recovered ``Idempotency-Key`` → job bindings go in
    here, so a client replaying an acknowledged POST still gets its
    original job instead of creating a duplicate. ``tracer`` (the
    process's span buffer) additionally mounts ``GET …/jobs/{id}/trace``,
    the job's timing tree.
    """

    ledger = ledger if ledger is not None else SubmitLedger()

    def _advertised() -> str:
        current = base_uri() if callable(base_uri) else base_uri
        return (current or base_path).rstrip("/")

    def describe(request: Request) -> Response:
        document = dict(backend.describe())
        document["uri"] = _advertised()
        return Response.json(document)

    def _created(job: Job, replayed: bool = False, cache_status: "str | None" = None) -> Response:
        location = job_uri(_advertised(), job.id)
        response = Response.created(location, job.representation(uri=location))
        if replayed:
            response.headers.set("Idempotent-Replay", "true")
        if cache_status:
            response.headers.set(X_CACHE_HEADER, cache_status)
        return response

    def _when_settled(
        job: Job, request: Request, wait_seconds: float, render: Callable[[], Response]
    ) -> Response:
        """``render()`` now, or — ``?wait=`` on a live job — once the job
        turns terminal or the wait expires, whichever comes first.

        On a blocking transport (the local transport) the handler blocks
        on the job's condition variable. On the event-loop server the same
        wait costs no thread: the transport's deferral is raised, parking
        the connection on the job's transition observers, and ``render``
        runs at resume time. The wire behaviour is identical either way.
        """
        if wait_seconds <= 0 or job.state.terminal:
            return render()
        deferral = request.context.get(DEFER_CAPABILITY)
        if deferral is None:
            job.wait(timeout=wait_seconds)
            return render()
        # a wait that expires must take its observer (which holds the
        # request and its connection) off the job again; park and the
        # resumed render run on different threads, so whichever of the
        # two comes second does it
        unsubscribe: "Callable[[], None] | None" = None
        answered = False

        def park(resume: Callable[[], None]) -> None:
            nonlocal unsubscribe
            # fires immediately (on this thread) if the job went terminal
            # since the check above — resume is idempotent
            unsubscribe = job.subscribe(
                lambda _job, state: resume() if state.terminal else None
            )
            if answered:
                unsubscribe()

        def answer() -> Response:
            nonlocal answered
            answered = True
            if unsubscribe is not None:
                unsubscribe()
            return render()

        raise deferral(render=answer, park=park, timeout=wait_seconds)

    def submit(request: Request) -> Response:
        """Create a job; ``?wait=<seconds>`` answers once it has settled.

        Without ``wait`` (or with ``0``) the ``201`` carries the job as
        created — the paper's submit. With it, the same ``201`` +
        ``Location`` is held back until the job turns terminal or the
        wait expires and carries the representation current *then*, so a
        quick job's ``results`` arrive in the submit's own reply: one
        round trip instead of ``POST`` then ``GET …?wait=``. The
        parameter is validated before anything is created (invalid ⇒ 400,
        no job), and the wait starts only after the job exists and its
        ``Idempotency-Key`` is in the ledger — a duplicate or a retry
        arriving mid-wait replays the same job (``Idempotent-Replay:
        true``) and, if it asks to, waits on it too. A cache hit or a
        synchronous service hands back a terminal job and never waits;
        a ``DELETE`` during the wait answers the POST with ``CANCELLED``.
        """
        wait_seconds = parse_wait(request.query.get("wait"))
        inputs = request.json if request.body else {}
        key = request.headers.get(IDEMPOTENCY_KEY_HEADER)

        def created(job: Job, replayed: bool = False) -> Response:
            cache_status = None if replayed else request.context.get("cache_status")
            return _when_settled(
                job, request, wait_seconds,
                lambda: _created(job, replayed=replayed, cache_status=cache_status),
            )

        if not key:
            try:
                job = backend.submit(inputs, request)
            except ServiceError as error:
                raise _to_http_error(error) from error
            return created(job)
        while True:
            job_id, owner = ledger.claim(key)
            if job_id is None:
                break
            try:
                job = backend.get_job(job_id)
            except ServiceError:
                # the recorded job was deleted since; treat the key as new
                ledger.forget(key)
                continue
            return created(job, replayed=True)
        if not owner:
            return HttpError(
                503, f"a request with Idempotency-Key {key!r} is still in flight",
                retry_after=1.0,
            ).to_response()
        try:
            job = backend.submit(inputs, request)
        except ServiceError as error:
            ledger.release(key)
            raise _to_http_error(error) from error
        except BaseException:
            ledger.release(key)
            raise
        ledger.store(key, job.id)
        return created(job)

    def get_job(request: Request, job_id: str) -> Response:
        """Job status; ``?wait=<seconds>`` turns the GET into a long-poll:
        answered by the first terminal transition (in the same round
        trip) or, when the wait expires, with the current representation.
        """
        try:
            job = backend.get_job(job_id)
        except ServiceError as error:
            raise _to_http_error(error) from error

        def render() -> Response:
            representation = job.representation(uri=job_uri(_advertised(), job_id))
            etag = representation_etag(representation)
            if_none_match = request.headers.get("If-None-Match")
            if if_none_match and etag_matches(if_none_match, etag):
                # the poller already holds this exact representation: spare
                # the body (304s answer identically over every transport)
                response = Response(status=304, body=b"")
            else:
                response = Response.json(representation)
            response.headers.set("ETag", etag)
            return response

        return _when_settled(job, request, parse_wait(request.query.get("wait")), render)

    def delete_job(request: Request, job_id: str) -> Response:
        try:
            backend.delete_job(job_id)
        except ServiceError as error:
            raise _to_http_error(error) from error
        return Response.no_content()

    def get_file(request: Request, job_id: str, file_id: str) -> Response:
        try:
            entry = backend.get_file(job_id, file_id)
        except ServiceError as error:
            raise _to_http_error(error) from error
        span = request.byte_range(entry.size)
        response = Response(status=200, body=entry.content)
        response.headers.set("Content-Type", entry.content_type)
        response.headers.set("Accept-Ranges", "bytes")
        if entry.name:
            response.headers.set("Content-Disposition", f'attachment; filename="{entry.name}"')
        if span is not None:
            start, end = span
            response.status = 206
            response.body = entry.content[start : end + 1]
            response.headers.set("Content-Range", f"bytes {start}-{end}/{entry.size}")
        return response

    def list_jobs(request: Request) -> Response:
        """The service's job index in journal form (the drain protocol's
        source side: a gateway enumerates a retiring replica's jobs here
        before handing them to the ring successor)."""
        lister = getattr(backend, "list_jobs", None)
        if lister is None:
            raise HttpError(404, "this service does not expose a job index")
        documents = [job_document(job) for job in lister()]
        return Response.json({"service": backend.describe().get("name"),
                              "count": len(documents), "jobs": documents})

    def import_job(request: Request, job_id: str) -> Response:
        """Adopt a handed-off job document under its original id.

        An action subresource rather than a PUT on the job itself, so
        the public job resource keeps its Table 1 method matrix.
        Idempotent: re-importing an id that already exists answers 200
        with the existing job; a first import answers 201. The imported
        ``Idempotency-Key`` binding is seeded into the submit ledger, so
        a client replay of the original POST binds to the migrated job on
        this backend exactly as it would have on the retired one.
        """
        importer = getattr(backend, "import_job", None)
        if importer is None:
            raise HttpError(404, "this service does not accept job imports")
        document = request.json if request.body else {}
        if not isinstance(document, dict):
            raise HttpError(400, "job import body must be a JSON object")
        declared = document.get("id")
        if declared is not None and declared != job_id:
            raise HttpError(409, f"document id {declared!r} does not match URI id {job_id!r}")
        document = dict(document, id=job_id)
        try:
            job, created = importer(document)
        except ServiceError as error:
            raise _to_http_error(error) from error
        if job.idempotency_key:
            ledger.store(job.idempotency_key, job.id)
        location = job_uri(_advertised(), job.id)
        response = Response.json(
            job.representation(uri=location), status=201 if created else 200
        )
        response.headers.set("Location", location)
        return response

    def get_trace(request: Request, job_id: str) -> Response:
        """The job's recorded trace spans, flat and as a nested tree.

        404 when the job exists but carries no trace (created before
        observability was enabled, or through an untraced path); the
        flat ``spans`` list is what a fronting gateway merges with its
        own spans before rebuilding the tree.
        """
        try:
            job = backend.get_job(job_id)
        except ServiceError as error:
            raise _to_http_error(error) from error
        trace_id = getattr(job, "trace_id", None)
        if tracer is None or trace_id is None:
            raise HttpError(404, f"no trace recorded for job {job_id!r}")
        spans = tracer.spans(trace_id)
        return Response.json(
            {"trace_id": trace_id, "spans": spans, "tree": build_trace_tree(spans)}
        )

    app.route("GET", base_path, describe)
    app.route("POST", base_path, submit)
    app.route("GET", f"{base_path}/jobs", list_jobs)
    app.route("GET", f"{base_path}/jobs/{{job_id}}", get_job)
    app.route("POST", f"{base_path}/jobs/{{job_id}}/import", import_job)
    app.route("DELETE", f"{base_path}/jobs/{{job_id}}", delete_job)
    app.route("GET", f"{base_path}/jobs/{{job_id}}/trace", get_trace)
    app.route("GET", f"{base_path}/jobs/{{job_id}}/files/{{file_id}}", get_file)


def unmount_service(app: RestApp, base_path: str) -> int:
    """Remove every route mounted under ``base_path``."""
    return app.router.remove_prefix(base_path)
