"""The workflow management service (WMS).

"The WMS performs storage, deployment and execution of workflows ... In
accordance with the service-oriented approach the WMS deploys each saved
workflow as a new service. The subsequent workflow execution is performed
by sending request to the new composite service through the unified REST
API." (paper §3.3)

Composite-service job representations carry a ``blocks`` field with the
live per-block states, which is what the editor polls to colour blocks;
each workflow instance (job) thus has a unique URI showing its current
state at any time.

When the federation is secured, the WMS invokes member services with its
own service certificate plus an ``X-On-Behalf-Of`` header naming the user
who called the composite service — the paper's proxy-list delegation.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.api import SubmitLedger, mount_service, unmount_service
from repro.core.errors import BadInputError, ServiceError
from repro.core.files import FileEntry, FileStore
from repro.core.jobs import Job, JobState, JobStore, job_document, restore_job
from repro.durability import StateSpine
from repro.http.client import IDEMPOTENCY_KEY_HEADER
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.observability import RestHost, instrument_wms
from repro.runtime.trace import (
    SpanContext,
    Tracer,
    activate_span_context,
    current_span_context,
    span,
)
from repro.security.middleware import ON_BEHALF_HEADER
from repro.workflow.engine import (
    BlockState,
    WorkflowCancelled,
    WorkflowEngine,
    WorkflowExecutionError,
)
from repro.workflow.jsonio import parse_workflow, workflow_to_json
from repro.workflow.model import Workflow, WorkflowError

logger = logging.getLogger(__name__)

#: The error recorded on runs a WMS restart cut short with no way to resume.
RUN_INTERRUPTED_ERROR = "interrupted: the WMS stopped before the workflow run finished"


def apply_run_event(
    workflows: dict[str, dict[str, Any]],
    runs: dict[str, dict[str, dict[str, Any]]],
    record: dict[str, Any],
) -> None:
    """Fold one ``workflow`` or ``run`` record into the recovery tables."""
    if record.get("type") == "workflow":
        name, event = record.get("name"), record.get("event")
        if not name or not event:
            return
        if event == "deployed":
            workflows[name] = dict(record.get("document") or {})
        elif event == "undeployed":
            workflows.pop(name, None)
            runs.pop(name, None)
        return
    name, run_id, event = record.get("workflow"), record.get("id"), record.get("event")
    if not name or not run_id or not event:
        return
    table = runs.setdefault(name, {})
    if event == "deleted":
        table.pop(run_id, None)
        return
    document = table.setdefault(run_id, {"id": run_id, "state": JobState.WAITING.value})
    if event == "created":
        for field in ("inputs", "created", "request_id", "key", "headers"):
            if field in record:
                document[field] = record[field]
        # a resumed run re-records its creation: it is in flight again,
        # but its checkpoints stay valid (the resume started from them)
        document["state"] = JobState.WAITING.value
        document.pop("results", None)
        document.pop("error", None)
    elif event == "block":
        block = record.get("block")
        if block:
            document.setdefault("checkpoints", {})[block] = record.get("outputs") or {}
    elif event in ("done", "failed", "cancelled"):
        document["state"] = JobState[event.upper()].value
        for field in ("results", "error", "finished", "blocks"):
            if field in record:
                document[field] = record[field]
        document.pop("checkpoints", None)


class CompositeService:
    """A saved workflow behaving as one computational web service."""

    def __init__(
        self,
        workflow: Workflow,
        engine: WorkflowEngine,
        record: "Callable[[dict[str, Any]], None] | None" = None,
        tracer: "Tracer | None" = None,
    ):
        workflow.validate()
        self.workflow = workflow
        self.engine = engine
        self.tracer = tracer
        self.description = workflow.to_description()
        self.jobs = JobStore()
        self.files = FileStore()
        #: Journal sink supplied by a durable WMS; no-op when volatile.
        self._record_sink = record or (lambda document: None)
        #: Per-run completed-block outputs, kept while the run is live so a
        #: snapshot (compaction) can carry them for resume.
        self._checkpoints: dict[str, dict[str, dict[str, Any]]] = {}
        self._checkpoint_lock = threading.Lock()

    # ------------------------------------------------------ ServiceBackend

    def describe(self) -> dict[str, Any]:
        document = self.description.to_json()
        document["workflow"] = workflow_to_json(self.workflow)
        return document

    def submit(self, inputs: dict[str, Any], request: Request) -> Job:
        values = self.description.validate_inputs(inputs)
        job = Job(
            service=self.workflow.name,
            inputs=values,
            request_id=request.context.get("request_id"),
        )
        job.idempotency_key = request.headers.get(IDEMPOTENCY_KEY_HEADER)
        # the run thread's spans attach under the creating request's span
        trace_context = current_span_context()
        if trace_context is not None and trace_context.tracer is not None:
            job.trace_id = trace_context.trace_id
            job.trace_parent = trace_context.span_id
        job.extra["blocks"] = {
            block_id: BlockState.PENDING.value for block_id in self.workflow.blocks
        }
        self.jobs.add(job)
        headers = self._delegation_headers(request)
        self._adopt(job, headers)
        self._start(job, values, headers)
        return job

    def get_job(self, job_id: str) -> Job:
        return self.jobs.get(job_id)

    def delete_job(self, job_id: str) -> None:
        job = self.jobs.get(job_id)
        if not job.state.terminal:
            job.mark_cancelled()
        self.jobs.remove(job_id)
        self.files.delete_job_files(job_id)
        with self._checkpoint_lock:
            self._checkpoints.pop(job_id, None)
        self._record("deleted", job)

    def get_file(self, job_id: str, file_id: str) -> FileEntry:
        self.jobs.get(job_id)
        return self.files.get(file_id, job_id=job_id)

    # ------------------------------------------------------------ recovery

    def restore_run(self, document: dict[str, Any]) -> Job:
        """Rebuild one run from its recovered document and, for a run that
        was in flight at crash time, resume it from its checkpointed
        frontier: completed blocks keep their recorded outputs, only the
        unfinished remainder of the DAG executes again."""
        states = dict(document.get("blocks") or {})
        checkpoints = dict(document.get("checkpoints") or {})
        job = restore_job(
            self.workflow.name,
            {**document, "extra": {**(document.get("extra") or {}), "blocks": states}},
        )
        if not job.state.terminal:
            job.extra["blocks"] = {
                block_id: (
                    BlockState.DONE.value
                    if block_id in checkpoints
                    else BlockState.PENDING.value
                )
                for block_id in self.workflow.blocks
            }
        self.jobs.add(job)
        if not job.state.terminal:
            headers = dict(document.get("headers") or {})
            self._adopt(job, headers)
            with self._checkpoint_lock:
                self._checkpoints[job.id] = dict(checkpoints)
            self._start(job, dict(job.inputs), headers, resume_from=checkpoints)
        return job

    # ----------------------------------------------------------- internals

    def _delegation_headers(self, request: Request) -> dict[str, str]:
        access = request.context.get("access")
        if access is not None and access.effective_id:
            return {ON_BEHALF_HEADER: access.effective_id}
        return {}

    def _record(self, event: str, job: Job, **fields: Any) -> None:
        document: dict[str, Any] = {
            "type": "run",
            "event": event,
            "workflow": self.workflow.name,
            "id": job.id,
            **fields,
        }
        self._record_sink(document)

    def _adopt(self, job: Job, headers: dict[str, str]) -> None:
        """Journal the run's creation and subscribe its terminal record."""
        record: dict[str, Any] = {"inputs": job.inputs, "created": job.created}
        if job.request_id is not None:
            record["request_id"] = job.request_id
        if job.idempotency_key is not None:
            record["key"] = job.idempotency_key
        if headers:
            record["headers"] = dict(headers)
        self._record("created", job, **record)
        job.subscribe(self._on_transition)

    def _on_transition(self, job: Job, state: JobState) -> None:
        if not state.terminal:
            return
        with self._checkpoint_lock:  # a finished run needs no resume data
            self._checkpoints.pop(job.id, None)
        fields: dict[str, Any] = {
            "finished": job.finished,
            "blocks": dict(job.extra.get("blocks") or {}),
        }
        if state is JobState.DONE:
            self._record("done", job, results=job.results, **fields)
        elif state is JobState.FAILED:
            self._record("failed", job, error=job.error, **fields)
        else:
            self._record("cancelled", job, **fields)

    def _start(
        self,
        job: Job,
        values: dict[str, Any],
        headers: dict[str, str],
        resume_from: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        thread = threading.Thread(
            target=self._run,
            args=(job, values, headers, resume_from),
            name=f"wf-{job.id}",
            daemon=True,
        )
        thread.start()

    def run_document(self, job: Job) -> dict[str, Any]:
        """The snapshot form of one run (job state plus resume data)."""
        document = job_document(job)
        extra = dict(document.pop("extra", {}))
        document["blocks"] = extra.pop("blocks", {})
        if extra:
            document["extra"] = extra
        with self._checkpoint_lock:
            checkpoints = dict(self._checkpoints.get(job.id) or {})
        if checkpoints:
            document["checkpoints"] = checkpoints
        return document

    def _run(
        self,
        job: Job,
        values: dict[str, Any],
        headers: dict[str, str],
        resume_from: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        try:
            job.mark_running()
        except ServiceError:
            return  # cancelled before it started

        def observer(block_id: str, state: BlockState, error: str) -> None:
            job.extra["blocks"][block_id] = state.value

        def checkpoint(block_id: str, outputs: dict[str, Any]) -> None:
            json.dumps(outputs)  # unserializable outputs cannot be resumed
            with self._checkpoint_lock:
                self._checkpoints.setdefault(job.id, {})[block_id] = outputs
            self._record("block", job, block=block_id, outputs=outputs)

        # runs execute on a dedicated thread, which never inherits the
        # submitting request's contextvars: re-establish the trace position
        # captured on the job, then open the run's own span. `follows`, not
        # `child` — the submit answered 201 long before the run finishes.
        trace_context = None
        if self.tracer is not None and job.trace_id is not None:
            trace_context = SpanContext(self.tracer, job.trace_id, job.trace_parent)
        try:
            with activate_span_context(trace_context):
                with span(
                    "workflow.run",
                    labels={"workflow": self.workflow.name, "job": job.id},
                    link="follows",
                ):
                    outputs = self.engine.execute(
                        self.workflow,
                        values,
                        observer=observer,
                        cancel_event=job.cancel_event,
                        headers=headers,
                        resume_from=resume_from,
                        on_block_done=checkpoint,
                    )
        except WorkflowCancelled:
            return  # the job is already CANCELLED
        except (WorkflowExecutionError, WorkflowError) as exc:
            job.try_finish(lambda: (JobState.FAILED, str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - engine bugs must surface
            job.try_finish(lambda: (JobState.FAILED, f"internal engine error: {exc}"))
            return
        job.try_finish(lambda: (JobState.DONE, outputs))


class WorkflowManagementService(RestHost):
    """Stores workflows and publishes each as a composite service."""

    def __init__(
        self,
        name: str = "wms",
        registry: TransportRegistry | None = None,
        max_parallel: int = 8,
        credentials: Mapping[str, str] | None = None,
        journal_dir: "str | Path | None" = None,
        journal_fsync: str = "batch",
        observability: bool = True,
    ):
        super().__init__(name, registry, observability)
        #: Headers the WMS itself presents when calling member services
        #: (its service certificate when the federation is secured).
        self.credentials = dict(credentials or {})
        self.engine = WorkflowEngine(
            self.registry, max_parallel=max_parallel, headers=self.credentials
        )
        self._composites: dict[str, CompositeService] = {}
        self._lock = threading.Lock()
        self._recovered_runs: dict[str, dict[str, dict[str, Any]]] = {}
        self._recovered_workflows: dict[str, dict[str, Any]] = {}
        # workflow and run records fold together: an ``undeployed``
        # workflow takes its runs with it
        self.state = StateSpine(journal_dir, journal_fsync, self.metrics)
        #: The WMS's write-ahead journal (``None`` when volatile).
        self.journal = self.state.journal
        self._journal_append = self.state.register(
            ("workflow", "run"), ("workflows", "runs"), self._restore, self._export
        ) or (lambda record: None)
        #: Corruption tolerated while replaying the journal, if any.
        self.recovery_warnings: list[str] = self.state.recovery_warnings
        self.app.route("GET", "/workflows", self._list)
        self.app.route("POST", "/workflows", self._create)
        self.app.route("GET", "/workflows/{workflow_id}", self._get)
        self.app.route("PUT", "/workflows/{workflow_id}", self._replace)
        self.app.route("DELETE", "/workflows/{workflow_id}", self._delete)
        # redeploy journaled workflows: deploy_workflow consumes each
        # workflow's recovered runs, restoring or resuming them
        for workflow_name, document in self._recovered_workflows.items():
            try:
                self.deploy_workflow(parse_workflow(document, self.registry))
            except (WorkflowError, BadInputError) as exc:
                self.recovery_warnings.append(
                    f"could not redeploy workflow {workflow_name!r}: {exc}"
                )
                logger.warning("skipping unrecoverable workflow %r: %s", workflow_name, exc)
        if self.metrics is not None:
            instrument_wms(self)

    def workflow_uri(self, workflow_name: str) -> str:
        return f"{self.base_uri}/workflows/{workflow_name}"

    def shutdown(self) -> None:
        self._unpublish()
        self.state.close()

    # ----------------------------------------------------------- durability

    def crash(self) -> None:
        """Simulate a cold stop: the journal closes first, so nothing the
        dying run threads do afterwards is persisted. Rebuild by
        constructing a fresh WMS over the same ``journal_dir``."""
        self.state.crash()
        self._unpublish()

    def compact(self) -> None:
        """Snapshot deployed workflows and their runs (with resume
        checkpoints) into the journal; drop the segments it covers."""
        self.state.compact()

    def _export(self) -> dict[str, Any]:
        composites = self.composites()
        return {
            "workflows": {c.workflow.name: workflow_to_json(c.workflow) for c in composites},
            "runs": {
                c.workflow.name: {job.id: c.run_document(job) for job in c.jobs.list()}
                for c in composites
            },
        }

    def _restore(self, sections: dict[str, Any], records: list[dict[str, Any]]) -> None:
        workflows = sections.get("workflows") or {}
        runs = sections.get("runs") or {}
        for record in records:
            apply_run_event(workflows, runs, record)
        self._recovered_workflows, self._recovered_runs = workflows, runs
        if workflows or runs:
            total = sum(len(table) for table in runs.values())
            logger.info("replayed WMS journal: %d workflows, %d runs", len(workflows), total)

    # ------------------------------------------------------------- storage

    def deploy_workflow(self, workflow: Workflow) -> CompositeService:
        """Save ``workflow`` and publish it as a composite service."""
        composite = CompositeService(
            workflow, self.engine, record=self._journal_append, tracer=self.tracer
        )
        with self._lock:
            if workflow.name in self._composites:
                raise WorkflowError(f"workflow {workflow.name!r} already deployed")
            self._composites[workflow.name] = composite
        self._journal_append(
            {
                "type": "workflow",
                "event": "deployed",
                "name": workflow.name,
                "document": workflow_to_json(workflow),
            }
        )
        # restore this workflow's recovered runs before the routes exist:
        # terminal runs keep their results, in-flight runs resume from
        # their checkpointed frontier, and recovered Idempotency-Key
        # bindings seed the submit ledger
        ledger = SubmitLedger()
        for document in self._recovered_runs.pop(workflow.name, {}).values():
            job = composite.restore_run(document)
            if job.idempotency_key:
                ledger.store(job.idempotency_key, job.id)
        mount_service(
            self.app,
            f"/services/{workflow.name}",
            composite,
            base_uri=lambda name=workflow.name: self.service_uri(name),
            ledger=ledger,
            tracer=self.tracer,
        )

        def instance_page(request: Request, job_id: str) -> Response:
            """The paper's instance URI: "open the current state of the
            instance in the editor at any time" — a static editor render
            coloured with the live block states."""
            from repro.workflow.editor import render_workflow_page

            try:
                job = composite.get_job(job_id)
            except ServiceError as exc:
                raise HttpError(404, exc.message) from exc
            states = job.extra.get("blocks", {})
            return Response.html(render_workflow_page(composite.workflow, states))

        self.app.route("GET", f"/services/{workflow.name}/jobs/{{job_id}}/ui", instance_page)
        return composite

    def undeploy_workflow(self, name: str) -> None:
        with self._lock:
            composite = self._composites.pop(name, None)
        if composite is None:
            raise WorkflowError(f"no workflow {name!r} deployed")
        unmount_service(self.app, f"/services/{name}")
        self._recovered_runs.pop(name, None)
        self._journal_append({"type": "workflow", "event": "undeployed", "name": name})

    def replace_workflow(self, workflow: Workflow) -> CompositeService:
        with self._lock:
            exists = workflow.name in self._composites
        if exists:
            self.undeploy_workflow(workflow.name)
        return self.deploy_workflow(workflow)

    def composite(self, name: str) -> CompositeService:
        with self._lock:
            if name not in self._composites:
                raise KeyError(name)
            return self._composites[name]

    def composites(self) -> list[CompositeService]:
        with self._lock:
            return list(self._composites.values())

    @property
    def workflows(self) -> list[str]:
        with self._lock:
            return sorted(self._composites)

    # ------------------------------------------------------------- handlers

    def _entry(self, name: str) -> dict[str, Any]:
        return {
            "id": name,
            "uri": self.workflow_uri(name),
            "service_uri": self.service_uri(name),
        }

    def _list(self, request: Request) -> Response:
        return Response.json([self._entry(name) for name in self.workflows])

    def _create(self, request: Request) -> Response:
        try:
            workflow = parse_workflow(request.json, self.registry)
            self.deploy_workflow(workflow)
        except WorkflowError as exc:
            raise HttpError(422, str(exc)) from exc
        except BadInputError as exc:
            raise HttpError(422, exc.message, details=exc.details) from exc
        return Response.created(self.workflow_uri(workflow.name), self._entry(workflow.name))

    def _get(self, request: Request, workflow_id: str) -> Response:
        try:
            composite = self.composite(workflow_id)
        except KeyError as exc:
            raise HttpError(404, f"no workflow {workflow_id!r}") from exc
        document = workflow_to_json(composite.workflow)
        document.update(self._entry(workflow_id))
        return Response.json(document)

    def _replace(self, request: Request, workflow_id: str) -> Response:
        try:
            workflow = parse_workflow(request.json, self.registry)
        except WorkflowError as exc:
            raise HttpError(422, str(exc)) from exc
        if workflow.name != workflow_id:
            raise HttpError(409, f"document names {workflow.name!r}, path names {workflow_id!r}")
        self.replace_workflow(workflow)
        return Response.json(self._entry(workflow_id))

    def _delete(self, request: Request, workflow_id: str) -> Response:
        try:
            self.undeploy_workflow(workflow_id)
        except WorkflowError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.no_content()
