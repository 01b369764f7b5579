"""The cluster: nodes, slot-accounting FIFO scheduler, qsub/qstat/qdel.

Scheduling model (deliberately the classic TORQUE one):

- every node has a fixed number of slots (processors);
- a job asking for ``nodes × ppn`` needs that many nodes each with ``ppn``
  free slots, simultaneously;
- the queue is FIFO: the head job blocks smaller jobs behind it (no
  backfill) — matching default TORQUE behaviour and keeping job start
  order predictable for tests;
- walltime is enforced: commands are killed, callables are flagged through
  the job's cooperative cancel event and reported as walltime failures.

Jobs execute for real — shell commands in throwaway scratch directories,
callables on a worker thread — so cluster-backed services do actual work.
"""

from __future__ import annotations

import base64
import itertools
import json
import logging
import os
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.batch.job import BatchJob, BatchJobState, JobResources
from repro.durability import StateSpine
from repro.runtime.pool import ExecutorPool

logger = logging.getLogger(__name__)

#: The failure recorded on unrecoverable in-flight jobs after a restart.
BATCH_INTERRUPTED_REASON = "interrupted: the cluster stopped before the job finished"


def batch_job_document(job: BatchJob) -> dict[str, Any]:
    """The journal form of one batch job's submission.

    Command jobs serialize completely (argv, stdin, staged files, resource
    request), so a restarted cluster can requeue them verbatim. Function
    jobs carry in-process callables that cannot be persisted; they are
    flagged and recovery fails them as interrupted instead.
    """
    resources = job.resources
    document: dict[str, Any] = {
        "id": job.id,
        "name": job.name,
        "submitted": job.submitted,
        "resources": {
            "nodes": resources.nodes,
            "ppn": resources.ppn,
            "walltime": resources.walltime,
        },
    }
    if job.tenant:
        document["tenant"] = job.tenant
    if job.command is not None:
        document["command"] = list(job.command)
        if job.stdin:
            document["stdin"] = job.stdin
        if job.stage_in:
            document["stage_in"] = {
                name: base64.b64encode(content).decode("ascii")
                for name, content in job.stage_in.items()
            }
        if job.stage_out:
            document["stage_out"] = list(job.stage_out)
        if job.env:
            document["env"] = dict(job.env)
    else:
        document["function"] = True
    return document


def restore_batch_job(document: dict[str, Any]) -> BatchJob:
    """Rebuild a :class:`BatchJob` from its journal document (QUEUED)."""
    spec = document.get("resources") or {}
    resources = JobResources(
        nodes=int(spec.get("nodes", 1)),
        ppn=int(spec.get("ppn", 1)),
        walltime=float(spec.get("walltime", 3600.0)),
    )
    if "command" in document:
        job = BatchJob(
            name=document.get("name", "job"),
            command=list(document["command"]),
            resources=resources,
            stdin=document.get("stdin", ""),
            stage_in={
                name: base64.b64decode(content)
                for name, content in (document.get("stage_in") or {}).items()
            },
            stage_out=list(document.get("stage_out") or []),
            env=dict(document.get("env") or {}),
        )
    else:
        job = BatchJob(
            name=document.get("name", "job"),
            function=_unrecoverable_function,
            resources=resources,
        )
    job.id = document["id"]
    job.submitted = document.get("submitted", job.submitted)
    job.tenant = document.get("tenant")
    return job


def _unrecoverable_function(job: BatchJob) -> None:  # pragma: no cover
    raise RuntimeError("in-process callables do not survive a cluster restart")


def _outcome_fields(job: BatchJob) -> dict[str, Any]:
    """What a finished job produced, in journal form — shared by its
    ``finished`` record and its snapshot document."""
    fields: dict[str, Any] = {}
    if job.failure_reason:
        fields["reason"] = job.failure_reason
    if job.exit_status is not None:
        fields["exit_status"] = job.exit_status
    if job.stdout:
        fields["stdout"] = job.stdout
    if job.stderr:
        fields["stderr"] = job.stderr
    if job.output_files:
        fields["output_files"] = {
            name: base64.b64encode(content).decode("ascii")
            for name, content in job.output_files.items()
        }
    if job.result is not None:
        try:
            json.dumps(job.result)
        except (TypeError, ValueError):
            pass  # unserializable results are not recoverable
        else:
            fields["result"] = job.result
    return fields


def _numeric_id(job_id: str) -> int:
    """The leading number of a ``<n>.<cluster>`` id (0 when malformed)."""
    head = job_id.split(".", 1)[0]
    return int(head) if head.isdigit() else 0


def apply_batch_event(table: dict[str, dict[str, Any]], record: dict[str, Any]) -> None:
    """Fold one ``batch`` record into the recovery table (id → document)."""
    job_id, event = record.get("id"), record.get("event")
    if not job_id or not event:
        return
    if event == "submitted":
        document = dict(record.get("job") or {})
        document["id"] = job_id
        document["state"] = BatchJobState.QUEUED.value
        table[job_id] = document
    elif event == "finished":
        document = table.setdefault(job_id, {"id": job_id, "function": True})
        for field in (
            "state",
            "reason",
            "exit_status",
            "stdout",
            "stderr",
            "output_files",
            "result",
            "started",
            "finished",
        ):
            if field in record:
                document[field] = record[field]


@dataclass
class ComputeNode:
    """One node: a name and a slot count."""

    name: str
    slots: int = 4

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("a node needs at least one slot")


class ClusterError(Exception):
    """Submission or control-command failure (unknown job, oversized request)."""


class Cluster:
    """A TORQUE-like resource manager over simulated nodes.

    The public surface mirrors the command-line tools: :meth:`qsub`,
    :meth:`qstat`, :meth:`qdel`, plus :meth:`wait` and lifecycle control.
    """

    def __init__(
        self,
        nodes: list[ComputeNode] | None = None,
        name: str = "cluster",
        journal_dir: "str | Path | None" = None,
        journal_fsync: str = "batch",
        accounting=None,
    ):
        self.name = name
        #: Tenant registry charged for reserved slot-time (``wall × nodes
        #: × ppn``) on terminal transitions, when tenancy is wired in.
        self.accounting = accounting
        self.nodes = nodes or [ComputeNode("node01", slots=4)]
        seen: set[str] = set()
        for node in self.nodes:
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            seen.add(node.name)
        self._free = {node.name: node.slots for node in self.nodes}
        self._dead: set[str] = set()
        self._released: set[str] = set()
        # callable payloads run on a shared worker pool; the scheduler can
        # never start more than total_slots jobs at once (every job holds at
        # least one slot), so this size guarantees a free worker per job
        self._fn_pool = ExecutorPool(workers=self.total_slots, name=f"{name}-fn")
        self._queue: list[BatchJob] = []
        self._jobs: dict[str, BatchJob] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._shutdown = False
        self.state = StateSpine(journal_dir, journal_fsync)
        #: The cluster's write-ahead journal (``None`` when volatile).
        self.journal = self.state.journal
        self._append = self.state.register(("batch",), ("jobs",), self._restore, self._export)
        self._readmit_recovered()
        #: Corruption tolerated while replaying the journal, if any.
        self.recovery_warnings: list[str] = self.state.recovery_warnings
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name=f"{name}-sched", daemon=True
        )
        self._scheduler.start()

    # ------------------------------------------------------------- control

    def qsub(self, job: BatchJob) -> str:
        """Submit a job; returns its id (``<n>.<cluster>`` like TORQUE)."""
        if job.resources.ppn > max(node.slots for node in self.nodes):
            raise ClusterError(
                f"job {job.name!r} asks ppn={job.resources.ppn}, "
                f"larger than any node on {self.name}"
            )
        if job.resources.nodes > len(self.nodes):
            raise ClusterError(
                f"job {job.name!r} asks {job.resources.nodes} nodes, "
                f"cluster {self.name} has {len(self.nodes)}"
            )
        with self._lock:
            if self._shutdown:
                raise ClusterError(f"cluster {self.name} is shut down")
            job.id = f"{next(self._ids)}.{self.name}"
            job.state = BatchJobState.QUEUED
            self._jobs[job.id] = job
            self._queue.append(job)
            # journaled before the scheduler can see the job, so a crash
            # after qsub returned can never lose an acknowledged submission
            if self._append is not None:
                self._append(
                    {
                        "type": "batch",
                        "event": "submitted",
                        "id": job.id,
                        "job": batch_job_document(job),
                    }
                )
            self._wake.notify_all()
        return job.id

    def qstat(self, job_id: str) -> dict[str, object]:
        """Status record for one job (raises for unknown ids, like qstat)."""
        job = self._get(job_id)
        return {
            "id": job.id,
            "name": job.name,
            "state": job.state.torque_code,
            "detail": job.state.value,
            "exit_status": job.exit_status,
            "nodes": list(job.node_names),
        }

    def qdel(self, job_id: str) -> None:
        """Cancel a queued or running job."""
        job = self._get(job_id)
        with self._lock:
            if job.state is BatchJobState.QUEUED:
                self._queue.remove(job)
                self._finish(job, BatchJobState.CANCELLED, reason="deleted by qdel")
                return
        # running (or already terminal): signal cooperatively; the runner
        # notices and reports CANCELLED.
        job._cancel.set()

    def get_job(self, job_id: str) -> BatchJob:
        return self._get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> BatchJob:
        job = self._get(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.state.value} after {timeout}s")
        return job

    def jobs(self) -> list[BatchJob]:
        with self._lock:
            return list(self._jobs.values())

    @property
    def total_slots(self) -> int:
        return sum(node.slots for node in self.nodes)

    @property
    def free_slots(self) -> int:
        with self._lock:
            return sum(self._free.values())

    # --------------------------------------------------------- node failure

    def fail_node(self, name: str) -> list[str]:
        """Take a node down: kill its running jobs, withdraw its slots.

        Returns the ids of the jobs that were signalled. The node stops
        taking allocations until :meth:`restore_node`; queued jobs simply
        wait for capacity elsewhere (or for the node to come back).
        """
        with self._lock:
            if name not in self._free:
                raise ClusterError(f"unknown node {name!r} on cluster {self.name}")
            if name in self._dead:
                return []
            self._dead.add(name)
            self._free[name] = 0
            victims = [
                job
                for job in self._jobs.values()
                if job.state is BatchJobState.RUNNING and name in job.node_names
            ]
        for job in victims:
            job._cancel.set()
        return [job.id for job in victims]

    def restore_node(self, name: str) -> None:
        """Bring a failed node back with its slot capacity restored.

        Slots still held by jobs that survived on other nodes of a
        multi-node allocation (and have not released yet) stay deducted,
        so the free-slot ledger remains conserved.
        """
        with self._lock:
            if name not in self._dead:
                return
            self._dead.discard(name)
            node = next(node for node in self.nodes if node.name == name)
            held = sum(
                job.resources.ppn
                for job in self._jobs.values()
                if name in job.node_names and job.id not in self._released
            )
            self._free[name] = max(0, node.slots - held)
            self._wake.notify_all()

    @property
    def dead_nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._dead)

    def shutdown(self) -> None:
        """Stop scheduling; queued jobs are cancelled, running jobs signalled."""
        with self._lock:
            self._shutdown = True
            doomed = list(self._queue)
            self._queue.clear()
            for job in doomed:
                self._finish(job, BatchJobState.CANCELLED, reason="cluster shutdown")
            self._wake.notify_all()
        for job in self.jobs():
            if job.state is BatchJobState.RUNNING:
                job._cancel.set()
        self._fn_pool.shutdown(wait=False)
        self.state.close()

    # ----------------------------------------------------------- durability

    def crash(self) -> None:
        """Simulate a cold stop: the journal closes first, so nothing the
        dying threads do afterwards is persisted. Queued jobs are *not*
        cancelled — their submitted records stand, and the next incarnation
        over the same ``journal_dir`` requeues them.
        """
        self.state.crash()
        with self._lock:
            self._shutdown = True
            self._queue.clear()
            self._wake.notify_all()
        for job in self.jobs():
            if job.state is BatchJobState.RUNNING:
                job._cancel.set()
        self._fn_pool.shutdown(wait=False)

    def compact(self) -> None:
        """Snapshot every known job into the journal and drop the segments
        the snapshot covers."""
        self.state.compact()

    def _export(self) -> dict[str, Any]:
        return {"jobs": {job.id: self._snapshot_document(job) for job in self.jobs()}}

    def _snapshot_document(self, job: BatchJob) -> dict[str, Any]:
        document = batch_job_document(job)
        document["state"] = job.state.value
        if job.started is not None:
            document["started"] = job.started
        if job.state.terminal:
            document["finished"] = job.finished
            document.update(_outcome_fields(job))
        return document

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        table = sections.get("jobs") or {}
        for record in records:
            apply_batch_event(table, record)
        self._recovered = table

    def _readmit_recovered(self) -> None:
        """Rebuild the job table from what :meth:`_restore` folded: finished
        jobs as they were, command jobs back on the queue, callables failed
        (journaled, so it runs once the journal sink exists)."""
        table, self._recovered = self._recovered, {}
        highest = 0
        requeued = 0
        for job_id in sorted(table, key=_numeric_id):  # original submission order
            document = table[job_id]
            highest = max(highest, _numeric_id(job_id))
            job = restore_batch_job(document)
            state = BatchJobState(document.get("state", BatchJobState.QUEUED.value))
            if state.terminal:
                # direct restoration: the run already happened, pre-crash
                job.state = state
                job.started = document.get("started")
                job.finished = document.get("finished", job.submitted)
                job.failure_reason = document.get("reason", "")
                job.exit_status = document.get("exit_status")
                job.stdout = document.get("stdout", "")
                job.stderr = document.get("stderr", "")
                job.output_files = {
                    name: base64.b64decode(content)
                    for name, content in (document.get("output_files") or {}).items()
                }
                job.result = document.get("result")
                job._done.set()
                self._jobs[job.id] = job
            elif job.command is not None:
                # a queued (or mid-run) command job re-runs from its staged
                # inputs; node-death requeue semantics apply as usual
                job.state = BatchJobState.QUEUED
                job.started = None
                self._jobs[job.id] = job
                self._queue.append(job)
                requeued += 1
            else:
                # in-process callables cannot be rebuilt from a journal
                self._jobs[job.id] = job
                self._finish(job, BatchJobState.FAILED, reason=BATCH_INTERRUPTED_REASON)
        self._ids = itertools.count(highest + 1)
        if table:
            logger.info(
                "replayed cluster journal: %d jobs, %d requeued", len(table), requeued
            )

    # ----------------------------------------------------------- internals

    def _get(self, job_id: str) -> BatchJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ClusterError(f"unknown job id {job_id!r}")
        return job

    def _finish(self, job: BatchJob, state: BatchJobState, reason: str = "", exit_status: int | None = None) -> None:
        """Must hold no locks that the waiter needs; sets the done event."""
        job.state = state
        job.failure_reason = reason
        if exit_status is not None:
            job.exit_status = exit_status
        job.finished = time.time()
        if self._append is not None:
            record: dict[str, Any] = {
                "type": "batch",
                "event": "finished",
                "id": job.id,
                "state": state.value,
                "finished": job.finished,
            }
            if job.started is not None:
                record["started"] = job.started
            record.update(_outcome_fields(job))
            self._append(record)
        if (self.accounting is not None and job.tenant and job.started
                and job.finished):
            # reserved slot-time, charged once on the terminal transition:
            # a cancelled-while-queued job (no started stamp) costs nothing
            wall = max(0.0, job.finished - job.started)
            self.accounting.charge(
                job.tenant, cpu=wall * job.resources.nodes * job.resources.ppn)
        job._done.set()

    def _try_allocate(self, job: BatchJob) -> list[str] | None:
        """Pick nodes for the job; returns node names or None (under lock)."""
        chosen: list[str] = []
        for node in self.nodes:
            if self._free[node.name] >= job.resources.ppn:
                chosen.append(node.name)
                if len(chosen) == job.resources.nodes:
                    for name in chosen:
                        self._free[name] -= job.resources.ppn
                    return chosen
        return None

    def _release(self, job: BatchJob) -> None:
        with self._lock:
            self._released.add(job.id)
            for name in job.node_names:
                # a dead node's slots were withdrawn wholesale on failure;
                # restore_node re-credits them, so don't double-count here
                if name not in self._dead:
                    self._free[name] += job.resources.ppn
            self._wake.notify_all()

    def _schedule_loop(self) -> None:
        while True:
            with self._lock:
                while not self._shutdown and not (self._queue and self._head_fits()):
                    self._wake.wait(timeout=0.5)
                    if self._shutdown:
                        break
                if self._shutdown:
                    return
                job = self._queue.pop(0)
                job.node_names = self._try_allocate(job) or []
            if not job.node_names:  # lost a race; requeue at the head
                with self._lock:
                    self._queue.insert(0, job)
                continue
            job.state = BatchJobState.RUNNING
            job.started = time.time()
            threading.Thread(
                target=self._run_job, args=(job,), name=f"{self.name}-{job.id}", daemon=True
            ).start()

    def _head_fits(self) -> bool:
        """Whether the queue head could be allocated right now (under lock)."""
        job = self._queue[0]
        available = sum(1 for node in self.nodes if self._free[node.name] >= job.resources.ppn)
        return available >= job.resources.nodes

    def _run_job(self, job: BatchJob) -> None:
        try:
            if job.command is not None:
                self._run_command(job)
            else:
                self._run_function(job)
        except Exception as exc:  # noqa: BLE001 - a job must never kill the runner
            self._finish(job, BatchJobState.FAILED, reason=f"runner error: {exc}")
        finally:
            self._release(job)

    def _run_command(self, job: BatchJob) -> None:
        scratch = Path(tempfile.mkdtemp(prefix=f"batch-{self.name}-"))
        try:
            for name, content in job.stage_in.items():
                target = scratch / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(content)
            process = subprocess.Popen(
                job.command,
                cwd=scratch,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=None if not job.env else {**os.environ, **job.env},
                text=True,
            )
            deadline = time.monotonic() + job.resources.walltime
            try:
                if job.stdin:
                    process.stdin.write(job.stdin)
                process.stdin.close()
                while process.poll() is None:
                    if job._cancel.is_set():
                        process.kill()
                        process.wait()
                        self._finish(job, BatchJobState.CANCELLED, reason="deleted by qdel")
                        return
                    if time.monotonic() > deadline:
                        process.kill()
                        process.wait()
                        self._finish(job, BatchJobState.FAILED, reason="walltime exceeded")
                        return
                    time.sleep(0.01)
            finally:
                job.stdout = process.stdout.read()
                job.stderr = process.stderr.read()
            for name in job.stage_out:
                path = scratch / name
                if path.exists():
                    job.output_files[name] = path.read_bytes()
            code = process.returncode
            if code == 0:
                self._finish(job, BatchJobState.COMPLETED, exit_status=0)
            else:
                self._finish(
                    job,
                    BatchJobState.FAILED,
                    reason=f"exit status {code}",
                    exit_status=code,
                )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _run_function(self, job: BatchJob) -> None:
        deadline = time.monotonic() + job.resources.walltime
        handle = self._fn_pool.submit(job.function, job)
        while not handle.wait(timeout=0.01):
            if job._cancel.is_set():
                handle.wait(timeout=1.0)  # give a cooperative payload a beat
                self._finish(job, BatchJobState.CANCELLED, reason="deleted by qdel")
                return
            if time.monotonic() > deadline:
                self._finish(job, BatchJobState.FAILED, reason="walltime exceeded")
                return
        if job._cancel.is_set():
            self._finish(job, BatchJobState.CANCELLED, reason="deleted by qdel")
        elif handle.error is not None:
            self._finish(job, BatchJobState.FAILED, reason=str(handle.error))
        else:
            job.result = handle.result
            self._finish(job, BatchJobState.COMPLETED, exit_status=0)
