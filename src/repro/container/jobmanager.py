"""The Job Manager: queue plus a configurable pool of handler threads.

"The requests are converted into asynchronous jobs and placed in a queue
served by a configurable pool of handler threads. During job processing,
handler thread invokes adapter specified in the service configuration."
(paper §3.1)

The pool is shared by every service deployed in the container, so the pool
size bounds the container's processing concurrency (benchmark F1 sweeps
it). The queue/worker machinery itself lives in
:class:`repro.runtime.ExecutorPool`; the manager adds the job semantics —
state transitions, adapter error conversion, correlation-id logging.

Durability: :meth:`JobManager.join` registers the job vocabulary
(``"type": "job"`` records, snapshot section ``services``) with the
container's state spine. From then on every lifecycle event of an adopted
job — creation with inputs and the creating ``Idempotency-Key``, then each
state transition — goes to the journal sink the spine handed back, and
what recovery read is folded into a per-service table the container
consumes at deploy time to rebuild each service's job store.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from typing import Any, Callable

from repro.core.errors import AdapterError, ServiceError
from repro.core.jobs import Job, JobState
from repro.runtime.pool import ExecutorPool, PoolStats
from repro.runtime.trace import SpanContext, activate_span_context, record_span, span
from repro.tenancy.registry import DEFAULT_TENANT

__all__ = ["INTERRUPTED_ERROR", "JobManager", "apply_job_event"]

logger = logging.getLogger(__name__)

#: The error recorded on jobs whose processing a restart cut short.
INTERRUPTED_ERROR = "interrupted: the container stopped before the job finished"


def apply_job_event(table: dict[str, dict[str, dict]], record: dict[str, Any]) -> None:
    """Fold one ``job`` record into the per-service recovery table."""
    service, job_id, event = record.get("service"), record.get("id"), record.get("event")
    if not service or not job_id or not event:
        return
    jobs = table.setdefault(service, {})
    if event == "deleted":
        jobs.pop(job_id, None)
        return
    document = jobs.setdefault(job_id, {"id": job_id, "state": JobState.WAITING.value})
    if event == "created":
        for field in ("inputs", "request_id", "key", "created", "extra"):
            if field in record:
                document[field] = record[field]
        # re-enqueued after a previous recovery: the job is in flight again
        document["state"] = JobState.WAITING.value
        document.pop("results", None)
        document.pop("error", None)
    elif event == "running":
        document["state"] = JobState.RUNNING.value
        if "started" in record:
            document["started"] = record["started"]
    elif event in ("done", "failed", "cancelled"):
        document["state"] = JobState[event.upper()].value
        for field in ("results", "error", "finished", "extra"):
            if field in record:
                document[field] = record[field]


class JobManager:
    """Runs adapter executions for queued jobs on a fixed thread pool."""

    def __init__(self, handlers: int = 4, name: str = "everest"):
        if handlers < 1:
            raise ValueError("the handler pool needs at least one thread")
        self.handlers = handlers
        self._pool = ExecutorPool(workers=handlers, name=f"{name}-handler")
        self._stopped = False
        self._quiesced = False
        #: Live (non-terminal) jobs this manager has adopted, by id.
        self._tracked: dict[str, Job] = {}
        self._track_lock = threading.Lock()
        #: Journal sink for job records, set by :meth:`join` (``None``
        #: while volatile, so no record is even built).
        self.journal_fn: "Callable[[dict[str, Any]], None] | None" = None
        self._recovered: dict[str, dict[str, dict]] = {}
        #: Fair-share admission queue, when tenancy is enabled: jobs park
        #: here and handler threads drain them by scheduler policy.
        self.admission = None
        #: Called with ``(job, state)`` after each journaled transition of
        #: an adopted job, in order (the container subscribes billing here).
        self.transition_observers: list[Callable[[Job, JobState], None]] = []
        #: The container's span buffer, when observability is on. Spans
        #: for ``queue.wait`` and ``adapter.run`` are recorded against the
        #: trace the creating request carried (``job.trace_id``).
        self.tracer = None

    def join(self, spine: Any, tables: Callable[[], dict[str, dict[str, dict]]]) -> None:
        """Register the job vocabulary with the container's state spine;
        ``tables`` exports the live job documents (service → id → document)
        for compaction — the manager itself only tracks non-terminal jobs."""
        self.journal_fn = spine.register(
            ("job",), ("services",), self._restore, lambda: {"services": tables()})

    def enqueue(self, job: Job, execute: Callable[[], dict[str, Any]]) -> None:
        """Queue one job; ``execute`` is the adapter invocation thunk."""
        if self._stopped:
            raise ServiceError("container is shut down")
        self.adopt(job)
        logger.info("job %s [request %s] queued for %s", job.id, job.request_id or "-", job.service)
        if self.admission is not None:
            from repro.tenancy.admission import AdmissionEntry

            tenant = job.extra.get("tenant", DEFAULT_TENANT)
            self.admission.offer(AdmissionEntry(
                tenant=tenant, job=job, execute=execute, enqueued=time.time(),
                priority=self.admission.registry.spec(tenant).priority,
            ))
            # one pool task per offered job: each drain releases whichever
            # entry the fair-share policy ranks first, not necessarily the
            # one just offered
            self._pool.submit(self._drain_admission)
            return
        self._pool.submit(self._process, job, execute, time.time())

    def run_job(self, job: Job, execute: Callable[[], dict[str, Any]]) -> None:
        """Process a job in the calling thread (sync-mode services)."""
        self.adopt(job)
        self._process(job, execute, time.time())

    def adopt(self, job: Job) -> None:
        """Track ``job`` and journal its creation plus every transition.

        Idempotent per job id, so a service may adopt before enqueueing
        without double-journaling.
        """
        if self._track(job):
            job.subscribe(self._on_transition)

    def import_job(self, job: Job) -> None:
        """Adopt a handed-off job from a retiring replica.

        Journals the job's creation record and — when the handoff arrived
        already terminal — its terminal record, so the handoff survives a
        cold restart in the standard journal format. Terminal imports never
        reach the transition observers: the origin replica already billed
        the tenant for the work, and handing the finished job over must
        not bill it twice. Non-terminal imports subscribe the normal
        transition path — their (re-)execution here is journaled and
        billed exactly like locally created work.
        """
        if not self._track(job):
            return
        if not job.state.terminal:
            job.subscribe(self._on_transition)
        elif self.journal_fn is not None:
            self.journal_fn(self._transition_record(job, job.state))

    def _track(self, job: Job) -> bool:
        """Start tracking ``job`` and journal its creation; False when it
        is already tracked (adoption is idempotent per job id)."""
        with self._track_lock:
            if job.id in self._tracked:
                return False
            if not job.state.terminal:
                self._tracked[job.id] = job
        if self.journal_fn is not None:
            self.journal_fn(self._creation_record(job))
        return True

    def quiesce(self) -> None:
        """Stop *starting* queued work (the drain protocol's first step).

        Jobs already running finish normally; WAITING jobs stay WAITING so
        the retire path can migrate them to the ring successor without the
        risk of this pool picking one up concurrently — the one way a
        handoff could execute the same job twice.
        """
        self._quiesced = True

    def running_count(self) -> int:
        """Jobs currently executing (the drain waits for this to hit 0)."""
        with self._track_lock:
            jobs = list(self._tracked.values())
        return sum(1 for job in jobs if job.state is JobState.RUNNING)

    def record_deleted(self, job: Job) -> None:
        """Journal that a job resource was deleted (recovery must not
        resurrect it)."""
        with self._track_lock:
            self._tracked.pop(job.id, None)
        if self.journal_fn is not None:
            self.journal_fn(
                {"type": "job", "event": "deleted", "service": job.service, "id": job.id}
            )

    def take_recovered(self, service: str) -> dict[str, dict]:
        """Claim the recovered job documents of one service (id → doc);
        handed out once, to the deploy that rebuilds its job store."""
        return self._recovered.pop(service, {})

    def set_task_hook(self, hook: "Callable[[str], None] | None") -> None:
        """Install (or clear) the handler pool's per-task fault hook."""
        self._pool.task_hook = hook

    @property
    def stats(self) -> PoolStats:
        """Task counters of the handler pool (queued/running/completed/failed)."""
        return self._pool.stats

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and release the pool (draining it when
        ``wait``). The journal stays open: its owner closes it afterwards."""
        self._stopped = True
        self._pool.shutdown(wait=wait)
        if not wait:
            # without the drain, queued-but-unstarted jobs would sit in
            # WAITING forever; mark them interrupted (journaled) instead
            with self._track_lock:
                pending = list(self._tracked.values())
            for job in pending:
                job.try_interrupt(INTERRUPTED_ERROR)

    def crash(self) -> None:
        """A cold stop: the pool is released without waiting or marking
        anything (the owner has already stopped persisting)."""
        self._stopped = True
        self._pool.shutdown(wait=False)

    # ----------------------------------------------------------- internals

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        """Fold the snapshot's job tables and the journaled job records
        into the per-service recovery table."""
        table = sections.get("services") or {}
        for record in records:
            apply_job_event(table, record)
        self._recovered = table
        if table:
            total = sum(len(jobs) for jobs in table.values())
            logger.info("replayed journal: %d jobs across %d services", total, len(table))

    def _creation_record(self, job: Job) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "job",
            "event": "created",
            "service": job.service,
            "id": job.id,
            "inputs": job.inputs,
            "created": job.created,
        }
        if job.request_id is not None:
            record["request_id"] = job.request_id
        if job.idempotency_key is not None:
            record["key"] = job.idempotency_key
        if job.extra:
            record["extra"] = dict(job.extra)
        return record

    def _transition_record(self, job: Job, state: JobState) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "job",
            "event": state.value.lower() if state.terminal else "running",
            "service": job.service,
            "id": job.id,
        }
        if state is JobState.RUNNING:
            record["started"] = job.started
        elif state is JobState.DONE:
            record["results"] = job.results
            record["finished"] = job.finished
        elif state is JobState.FAILED:
            record["error"] = job.error
            record["finished"] = job.finished
            if job.extra:
                record["extra"] = dict(job.extra)
        elif state is JobState.CANCELLED:
            record["finished"] = job.finished
        return record

    def _on_transition(self, job: Job, state: JobState) -> None:
        if self.journal_fn is not None:
            self.journal_fn(self._transition_record(job, state))
        if state.terminal:
            with self._track_lock:
                self._tracked.pop(job.id, None)
        for observer in self.transition_observers:
            observer(job, state)

    def _drain_admission(self) -> None:
        """Pool task: release and process the fair-share queue's pick."""
        if self._quiesced:
            return
        entry = self.admission.take()
        if entry is not None:
            self._process(entry.job, entry.execute, entry.enqueued)

    def _process(
        self,
        job: Job,
        execute: Callable[[], dict[str, Any]],
        enqueued: "float | None" = None,
    ) -> None:
        rid = job.request_id or "-"
        if job.state.terminal:  # cancelled while queued
            logger.info("job %s [request %s] skipped: already %s", job.id, rid, job.state.value)
            return
        if self._quiesced:
            # draining for retirement: leave the job WAITING for migration
            logger.info("job %s [request %s] parked: manager is quiesced", job.id, rid)
            return
        try:
            job.mark_running()
        except ServiceError:
            return  # lost the race against a cancel
        logger.info("job %s [request %s] running for %s", job.id, rid, job.service)
        # both spans hang off the submit that created the job; they are
        # `follows` links, not children — the creating request has usually
        # already answered 201 by the time a handler thread picks this up
        traced = self.tracer is not None and job.trace_id is not None
        if traced and enqueued is not None:
            record_span(
                self.tracer, job.trace_id, job.trace_parent, "queue.wait",
                start=enqueued, duration=time.time() - enqueued,
                labels={"service": job.service, "job": job.id},
            )
        context = SpanContext(self.tracer, job.trace_id, job.trace_parent) if traced else None
        with activate_span_context(context):
            with span(
                "adapter.run",
                labels={"service": job.service, "job": job.id},
                link="follows",
            ):
                try:
                    outputs = execute()
                except AdapterError as error:
                    job.try_finish(lambda: (JobState.FAILED, error.message))
                    logger.info("job %s [request %s] failed: %s", job.id, rid, error.message)
                    return
                except Exception as error:  # noqa: BLE001 - adapters may misbehave
                    logger.error(
                        "adapter crashed for job %s [request %s]\n%s", job.id, rid, traceback.format_exc()
                    )
                    job.try_finish(
                        lambda: (JobState.FAILED, f"internal adapter error: {error}")
                    )
                    return
        if job.try_finish(lambda: (JobState.DONE, outputs)):
            logger.info("job %s [request %s] done", job.id, rid)
