"""Jobs: asynchronous request processing with the paper's state machine.

A client's ``POST`` to the service resource creates a subordinate *job*
resource. The job advances ``WAITING → RUNNING → DONE`` (the three states
named in the paper), or ends in ``FAILED``/``CANCELLED``. The
representation returned by ``GET`` carries status, inputs and — once the
job is ``DONE`` — the output parameter values.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.core.errors import JobNotFoundError, JobStateError


class JobState(str, Enum):
    """Lifecycle of a job resource (paper §2)."""

    WAITING = "WAITING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Legal state transitions; anything else is a programming error.
_TRANSITIONS: dict[JobState, set[JobState]] = {
    JobState.WAITING: {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.CANCELLED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
}


def new_job_id() -> str:
    return "j-" + uuid.uuid4().hex[:12]


#: Observer signature: called with (job, new_state) after each transition.
TransitionObserver = Callable[["Job", JobState], None]


@dataclass(eq=False)
class Job:
    """One request being processed by a computational service.

    Jobs have identity semantics (a job equals only itself), matching their
    nature as mutable, stateful resources.

    Mutations go through the transition methods, which enforce the state
    machine and are safe to call from handler threads; readers use
    :meth:`representation` to get a consistent snapshot. Completion is
    observable two ways without polling: :meth:`wait` blocks on a
    condition variable until the job is terminal (the substrate of the
    REST layer's ``?wait=`` long-poll), and :meth:`subscribe` registers a
    callback fired on every transition.
    """

    service: str
    inputs: dict[str, Any]
    id: str = field(default_factory=new_job_id)
    state: JobState = JobState.WAITING
    results: dict[str, Any] | None = None
    error: str | None = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: Correlation id of the request that created the job (``X-Request-Id``).
    request_id: str | None = None
    #: The ``Idempotency-Key`` the creating POST carried, if any. Journaled
    #: with the job so key→job bindings survive a cold restart (a replayed
    #: POST after recovery still answers with this job, not a duplicate).
    idempotency_key: str | None = None
    #: Trace correlation (``X-Trace``): the trace the creating request
    #: belonged to and the span the job's own spans attach under. Process-
    #: local and best-effort — never journaled, never in representations.
    trace_id: str | None = None
    trace_parent: str | None = None
    #: Extra representation fields (e.g. per-block workflow states).
    extra: dict[str, Any] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    #: Set when a cancel arrives; adapters poll it for cooperative abort.
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the condition shares the job lock: transitions notify the exact
        # waiters that guard their predicates on the same mutex
        self._cond = threading.Condition(self._lock)
        self._observers: list[TransitionObserver] = []

    def _transition(self, target: JobState) -> None:
        if target not in _TRANSITIONS[self.state]:
            raise JobStateError(f"job {self.id}: cannot go {self.state.value} → {target.value}")
        self.state = target

    def _notify_observers(self, state: JobState) -> None:
        """Fire observers outside the lock so callbacks may read the job.

        Terminal is final, so a terminal transition also drops the
        observers: whatever they captured (a parked request, its
        connection) must not live as long as the job does.
        """
        with self._lock:
            if state.terminal:
                observers, self._observers = self._observers, []
            else:
                observers = list(self._observers)
        for observer in observers:
            observer(self, state)

    def subscribe(self, observer: TransitionObserver) -> Callable[[], None]:
        """Register ``observer`` for subsequent transitions.

        If the job is already terminal the observer fires immediately (on
        the caller's thread) and is not kept, so subscribers cannot miss
        the final state and see it exactly once. Returns a callable that
        removes the observer again (idempotent; a no-op once a terminal
        transition dropped it) — a waiter that gives up calls it.
        """
        with self._lock:
            state = self.state
            terminal = state.terminal
            if not terminal:
                self._observers.append(observer)
        if terminal:
            observer(self, state)

        def unsubscribe() -> None:
            with self._lock:
                if observer in self._observers:
                    self._observers.remove(observer)

        return unsubscribe

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True unless the wait timed out.

        Waiters are released by the transition itself — no polling. Any
        number of threads may wait concurrently; a single terminal
        transition releases them all.
        """
        with self._cond:
            if timeout is None:
                while not self.state.terminal:
                    self._cond.wait()
                return True
            deadline = time.monotonic() + timeout
            while not self.state.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def mark_running(self) -> None:
        with self._cond:
            self._transition(JobState.RUNNING)
            self.started = time.time()
            self._cond.notify_all()
        self._notify_observers(JobState.RUNNING)

    def mark_done(self, results: dict[str, Any]) -> None:
        with self._cond:
            self._transition(JobState.DONE)
            self.results = results
            self.finished = time.time()
            self._cond.notify_all()
        self._notify_observers(JobState.DONE)

    def mark_failed(self, error: str) -> None:
        with self._cond:
            self._transition(JobState.FAILED)
            self.error = error
            self.finished = time.time()
            self._cond.notify_all()
        self._notify_observers(JobState.FAILED)

    def mark_cancelled(self) -> None:
        with self._cond:
            self._transition(JobState.CANCELLED)
            self.finished = time.time()
            self._cond.notify_all()
        self.cancel_event.set()
        self._notify_observers(JobState.CANCELLED)

    def try_interrupt(self, error: str) -> bool:
        """Mark a still-queued job ``FAILED (recoverable=interrupted)``.

        Used when the process stops (or restarts) before a handler picked
        the job up: the job must not silently vanish in ``WAITING``, but a
        job that is already running (or terminal) is left alone. Returns
        True when the interruption was applied.
        """
        with self._cond:
            if self.state is not JobState.WAITING:
                return False
            self._transition(JobState.FAILED)
            self.error = error
            self.extra["recoverable"] = "interrupted"
            self.finished = time.time()
            self._cond.notify_all()
        self._notify_observers(JobState.FAILED)
        return True

    def try_finish(self, outcome: Callable[[], tuple[JobState, Any]]) -> bool:
        """Finish the job unless it was cancelled concurrently.

        ``outcome`` runs under the job lock and returns ``(DONE, results)``
        or ``(FAILED, error_message)``. Returns False when the job is
        already terminal (e.g. a cancel won the race).
        """
        with self._cond:
            if self.state.terminal:
                return False
            target, value = outcome()
            self._transition(target)
            if target is JobState.DONE:
                self.results = value
            else:
                self.error = str(value)
            self.finished = time.time()
            self._cond.notify_all()
        self._notify_observers(target)
        return True

    def representation(self, uri: str = "") -> dict[str, Any]:
        """The JSON representation served by ``GET`` on the job resource."""
        with self._lock:
            document: dict[str, Any] = {
                "id": self.id,
                "service": self.service,
                "state": self.state.value,
                "created": self.created,
                "inputs": self.inputs,
            }
            if uri:
                document["uri"] = uri
            if self.request_id is not None:
                document["request_id"] = self.request_id
            if self.started is not None:
                document["started"] = self.started
            if self.finished is not None:
                document["finished"] = self.finished
            if self.state is JobState.DONE:
                document["results"] = self.results
            if self.error is not None:
                document["error"] = self.error
            document.update(self.extra)
            return document


def job_document(job: Job) -> dict[str, Any]:
    """The journal/snapshot form of one job's externally promised state."""
    document: dict[str, Any] = {
        "id": job.id,
        "state": job.state.value,
        "inputs": job.inputs,
        "created": job.created,
    }
    if job.request_id is not None:
        document["request_id"] = job.request_id
    if job.idempotency_key is not None:
        document["key"] = job.idempotency_key
    if job.extra:
        document["extra"] = dict(job.extra)
    if job.started is not None:
        document["started"] = job.started
    if job.finished is not None:
        document["finished"] = job.finished
    if job.results is not None:
        document["results"] = job.results
    if job.error is not None:
        document["error"] = job.error
    return document


def restore_job(service: str, document: dict[str, Any]) -> Job:
    """Build a :class:`Job` from its recovered document.

    Terminal jobs come back terminal (results, error and timestamps
    intact); in-flight jobs (``WAITING``/``RUNNING`` at crash time) come
    back ``WAITING`` — the caller decides whether to re-enqueue them or
    interrupt them, based on whether re-execution is safe.
    """
    job = Job(
        service=service,
        inputs=dict(document.get("inputs") or {}),
        id=document["id"],
        request_id=document.get("request_id"),
        extra=dict(document.get("extra") or {}),
    )
    job.idempotency_key = document.get("key")
    job.created = document.get("created", job.created)
    job.started = document.get("started")
    state = JobState(document.get("state", JobState.WAITING.value))
    if state.terminal:
        # direct restoration: the transitions already happened, pre-crash
        job.state = state
        job.results = document.get("results")
        job.error = document.get("error")
        job.finished = document.get("finished", job.created)
        if state is JobState.CANCELLED:
            job.cancel_event.set()
    return job


class JobStore:
    """Thread-safe registry of a service's jobs."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()

    def add(self, job: Job) -> Job:
        with self._lock:
            self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def remove(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.pop(job_id, None)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def list(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __contains__(self, job_id: object) -> bool:
        with self._lock:
            return job_id in self._jobs
