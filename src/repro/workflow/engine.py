"""The workflow runtime.

Executes a validated workflow: blocks run as soon as all their inputs are
available, independent blocks run in parallel, and per-block states stream
to an observer — the information the editor uses to paint blocks by
state. Service blocks are invoked through the unified REST API (submit,
poll, collect — one waited submit when the block is quick), so a workflow
can span services in any container, cluster or grid without the engine
knowing the difference.
"""

from __future__ import annotations

import builtins
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from enum import Enum
from typing import Any, Callable, Mapping

from repro.cache import canonical_json, normalize_refs
from repro.client.client import JobFailedError, ServiceProxy
from repro.http.client import ClientError
from repro.http.registry import TransportRegistry
from repro.http.transport import TransportError
from repro.runtime.trace import (
    activate_span_context,
    current_span_context,
    span,
    trace_headers,
)
from repro.workflow.model import (
    Block,
    ConstBlock,
    InputBlock,
    OutputBlock,
    ScriptBlock,
    ServiceBlock,
    Workflow,
)


class BlockState(str, Enum):
    """Per-block execution states (the editor's colours)."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    SKIPPED = "SKIPPED"


class WorkflowExecutionError(Exception):
    """One or more blocks failed; carries every block error."""

    def __init__(self, workflow_name: str, block_errors: dict[str, str]):
        details = "; ".join(f"{block}: {error}" for block, error in sorted(block_errors.items()))
        super().__init__(f"workflow {workflow_name!r} failed: {details}")
        self.block_errors = block_errors


class WorkflowCancelled(Exception):
    """Execution was cancelled through the cancel event."""


#: Observer signature: (block_id, state, error_message_or_empty).
StateObserver = Callable[[str, BlockState, str], None]

#: Builtins available to script blocks — enough for data plumbing, no I/O.
_SCRIPT_BUILTINS = {
    name: getattr(builtins, name)
    for name in (
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
        "float", "format", "frozenset", "int", "isinstance", "len", "list",
        "map", "max", "min", "pow", "range", "repr", "reversed", "round",
        "set", "sorted", "str", "sum", "tuple", "zip", "ValueError", "TypeError",
    )
}


class WorkflowEngine:
    """Executes workflows over a transport registry."""

    def __init__(
        self,
        registry: TransportRegistry | None = None,
        max_parallel: int = 8,
        poll: float = 0.02,
        headers: Mapping[str, str] | None = None,
        wait_chunk: float = 0.5,
        resubmit_lost: int = 1,
    ):
        self.registry = registry or TransportRegistry()
        self.max_parallel = max_parallel
        #: Fallback poll interval for servers that ignore ``?wait=``.
        self.poll = poll
        #: One long-poll block per member-service request; bounds how long a
        #: cancel can go unnoticed while a service block is in flight.
        self.wait_chunk = wait_chunk
        #: Headers sent with every service call (credentials / delegation).
        self.headers = dict(headers or {})
        #: How many times a service block is resubmitted from scratch when
        #: its job resource is *lost* — the backend (typically a gateway
        #: replica) becomes unreachable or answers 502/503. Running against
        #: a replicated gateway, the resubmission lands on a survivor, so
        #: workflows ride out a replica failure mid-run.
        self.resubmit_lost = resubmit_lost

    def execute(
        self,
        workflow: Workflow,
        inputs: dict[str, Any] | None = None,
        observer: StateObserver | None = None,
        cancel_event: threading.Event | None = None,
        headers: Mapping[str, str] | None = None,
        resume_from: Mapping[str, dict[str, Any]] | None = None,
        on_block_done: Callable[[str, dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Run ``workflow`` with the given workflow-level inputs.

        Returns the output parameter values. Raises
        :class:`WorkflowExecutionError` when blocks fail (downstream blocks
        are reported SKIPPED) and :class:`WorkflowCancelled` on cancel.

        ``resume_from`` maps block ids to their recorded output values from
        a previous interrupted run: those blocks are marked DONE up front
        with the recorded values instead of being executed again, so a
        restarted engine continues the DAG from its last completed
        frontier. ``on_block_done`` is called with ``(block_id, outputs)``
        just before each block turns DONE — the checkpoint hook durable
        callers persist through; a hook failure never fails the block.
        """
        workflow.validate()
        run = _Run(
            engine=self,
            workflow=workflow,
            inputs=dict(inputs or {}),
            observer=observer or (lambda *args: None),
            cancel_event=cancel_event or threading.Event(),
            headers={**self.headers, **dict(headers or {})},
            resume_from=dict(resume_from or {}),
            checkpoint=on_block_done,
        )
        return run.execute()


class _MemoEntry:
    """One sweep-wide single-flight slot: the leader's outcome, awaited by
    follower blocks with the same (service URI, canonical inputs)."""

    __slots__ = ("event", "ok", "results")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.ok = False
        self.results: dict[str, Any] = {}


class _Run:
    """State of one workflow execution."""

    def __init__(
        self,
        engine: WorkflowEngine,
        workflow: Workflow,
        inputs: dict[str, Any],
        observer: StateObserver,
        cancel_event: threading.Event,
        headers: dict[str, str],
        resume_from: dict[str, dict[str, Any]] | None = None,
        checkpoint: Callable[[str, dict[str, Any]], None] | None = None,
    ):
        self.engine = engine
        self.workflow = workflow
        self.inputs = inputs
        self.observer = observer
        self.cancel_event = cancel_event
        self.headers = headers
        self.resume_from = resume_from or {}
        self.checkpoint = checkpoint
        # captured on the submitting thread: block threads come from a
        # ThreadPoolExecutor, which never inherits contextvars, so each
        # block re-activates this before opening its own span
        self.trace_context = current_span_context()
        self.values: dict[tuple[str, str], Any] = {}
        self.states: dict[str, BlockState] = {
            block_id: BlockState.PENDING for block_id in workflow.blocks
        }
        self.errors: dict[str, str] = {}
        self._lock = threading.Lock()
        # sweep-wide submission dedup: parameter sweeps routinely contain
        # several service blocks with identical URI + inputs; only one of
        # them actually POSTs, the rest adopt its results
        self._memo: dict[tuple[str, str], _MemoEntry] = {}
        self._memo_lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle

    def execute(self) -> dict[str, Any]:
        self._check_workflow_inputs()
        remaining = set(self.workflow.blocks)
        # resumed blocks complete instantly from their recorded outputs —
        # a restarted run re-executes only the unfinished frontier
        for block_id, outputs in self.resume_from.items():
            if block_id not in remaining:
                continue
            remaining.discard(block_id)
            for port_name, value in outputs.items():
                self.values[(block_id, port_name)] = value
            self._set_state(block_id, BlockState.DONE)
        running: dict[Future[None], str] = {}
        with ThreadPoolExecutor(max_workers=self.engine.max_parallel) as pool:
            while remaining or running:
                if self.cancel_event.is_set():
                    for future in running:
                        future.cancel()
                    raise WorkflowCancelled(f"workflow {self.workflow.name!r} cancelled")
                progressed = False
                for block_id in sorted(remaining):
                    decision = self._readiness(block_id)
                    if decision == "ready":
                        remaining.discard(block_id)
                        self._set_state(block_id, BlockState.RUNNING)
                        future = pool.submit(self._run_block_guarded, block_id)
                        running[future] = block_id
                        progressed = True
                    elif decision == "skip":
                        remaining.discard(block_id)
                        self._set_state(block_id, BlockState.SKIPPED)
                        progressed = True
                if running:
                    done, _ = wait(running, timeout=0.1, return_when=FIRST_COMPLETED)
                    for future in done:
                        running.pop(future)
                        progressed = True
                elif not progressed and remaining:
                    # validated DAGs always progress; guard anyway
                    raise WorkflowExecutionError(
                        self.workflow.name,
                        {block: "deadlocked (unreachable inputs)" for block in remaining},
                    )
        if self.errors:
            raise WorkflowExecutionError(self.workflow.name, self.errors)
        return self._collect_outputs()

    def _check_workflow_inputs(self) -> None:
        known = {block.name for block in self.workflow.input_blocks()}
        unknown = set(self.inputs) - known
        if unknown:
            raise WorkflowExecutionError(
                self.workflow.name,
                {name: "unknown workflow input" for name in sorted(unknown)},
            )

    # ----------------------------------------------------------- scheduling

    def _readiness(self, block_id: str) -> str:
        """'ready' | 'wait' | 'skip' for a pending block."""
        for edge in self.workflow.incoming(block_id):
            upstream_state = self.states[edge.src_block]
            if upstream_state in (BlockState.FAILED, BlockState.SKIPPED):
                return "skip"
            if upstream_state is not BlockState.DONE:
                return "wait"
            if (edge.src_block, edge.src_port) not in self.values:
                return "wait"
        return "ready"

    def _set_state(self, block_id: str, state: BlockState, error: str = "") -> None:
        with self._lock:
            self.states[block_id] = state
            if error:
                self.errors[block_id] = error
        self.observer(block_id, state, error)

    # ------------------------------------------------------------ execution

    def _run_block_guarded(self, block_id: str) -> None:
        block = self.workflow.blocks[block_id]
        try:
            with activate_span_context(self.trace_context):
                with span("workflow.block", labels={"block": block_id, "kind": block.kind}):
                    outputs = self._run_block(block)
        except (JobFailedError, ClientError, TransportError, WorkflowCancelled) as exc:
            self._set_state(block_id, BlockState.FAILED, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - script blocks run user code
            self._set_state(block_id, BlockState.FAILED, f"{type(exc).__name__}: {exc}")
            return
        with self._lock:
            for port_name, value in outputs.items():
                self.values[(block_id, port_name)] = value
        if self.checkpoint is not None:
            try:
                self.checkpoint(block_id, outputs)
            except Exception:  # noqa: BLE001 - durability is best-effort
                pass  # an unserializable output loses its checkpoint, not its run
        self._set_state(block_id, BlockState.DONE)

    def _block_inputs(self, block: Block) -> dict[str, Any]:
        bound: dict[str, Any] = {}
        for edge in self.workflow.incoming(block.id):
            bound[edge.dst_port] = self.values[(edge.src_block, edge.src_port)]
        return bound

    def _run_block(self, block: Block) -> dict[str, Any]:
        if isinstance(block, InputBlock):
            if block.name in self.inputs:
                return {"value": self.inputs[block.name]}
            if block.default is not None or not block.required:
                return {"value": block.default}
            raise ValueError(f"missing workflow input {block.name!r}")
        if isinstance(block, ConstBlock):
            return {"value": block.value}
        if isinstance(block, OutputBlock):
            return {}  # its incoming value is read at collection time
        if isinstance(block, ServiceBlock):
            return self._run_service(block)
        if isinstance(block, ScriptBlock):
            return self._run_script(block)
        raise TypeError(f"engine cannot execute block kind {block.kind!r}")

    def _run_service(self, block: ServiceBlock) -> dict[str, Any]:
        inputs = self._block_inputs(block)
        try:
            # normalize first so two blocks fed the same *content* — blob
            # refs whose URIs differ only by which replica (or gateway
            # rewrite) advertises them — share one memo slot
            memo_key = (block.uri, canonical_json(normalize_refs(inputs)))
        except (TypeError, ValueError):
            # non-JSON input values cannot be canonicalized: no dedup
            return self._submit_service(block, inputs)
        while True:
            with self._memo_lock:
                entry = self._memo.get(memo_key)
                leader = entry is None
                if leader:
                    entry = self._memo[memo_key] = _MemoEntry()
            if leader:
                try:
                    entry.results = self._submit_service(block, inputs)
                    entry.ok = True
                except BaseException:
                    # drop the slot so a waiting duplicate retries as the
                    # new leader (one block's transient failure must not
                    # condemn its twins), then wake the waiters
                    with self._memo_lock:
                        self._memo.pop(memo_key, None)
                    entry.event.set()
                    raise
                entry.event.set()
                return dict(entry.results)
            while not entry.event.wait(0.05):
                if self.cancel_event.is_set():
                    raise WorkflowCancelled(f"block {block.id!r} cancelled")
            if entry.ok:
                return dict(entry.results)
            # the leader failed; re-resolve (this block may now lead)

    def _submit_service(self, block: ServiceBlock, inputs: dict[str, Any]) -> dict[str, Any]:
        # idempotent submits: a fresh Idempotency-Key per submission lets a
        # gateway replay the POST across replicas on connection failures;
        # the block's retry budget bounds client-level Retry-After waits
        proxy = ServiceProxy(
            block.uri,
            self.engine.registry,
            # the ambient span here is this block's workflow.block span, so
            # the member service's spans parent under it across the hop
            headers={**self.headers, **trace_headers()},
            idempotent_submits=True,
            retry_after_cap=block.retry_budget,
        )
        resubmits_left = max(0, self.engine.resubmit_lost)
        transient_left = max(0, block.retries)
        backoff = 0.05
        while True:
            try:
                return self._await_service(block, proxy, inputs)
            except (TransportError, ClientError) as exc:
                status = exc.status if isinstance(exc, ClientError) else None
                if self.cancel_event.is_set():
                    raise
                if status in (429, 503) and transient_left > 0:
                    # per-block policy: an overload answer that outlived the
                    # client's Retry-After budget is retried with capped
                    # backoff before the block is allowed to fail; a server
                    # that said *when* to come back wins over the heuristic
                    transient_left -= 1
                    hinted = getattr(exc, "retry_after", None)
                    wait = min(hinted, 2.0) if hinted is not None else backoff
                    self.cancel_event.wait(wait)
                    backoff = min(backoff * 2, 0.5)
                    continue
                lost = status in (502, 503) or isinstance(exc, TransportError)
                if not lost or resubmits_left <= 0:
                    raise
                resubmits_left -= 1
                # the job resource is gone (replica died); submit afresh —
                # a replicated gateway routes the retry to a survivor

    def _await_service(
        self, block: ServiceBlock, proxy: ServiceProxy, inputs: dict[str, Any]
    ) -> dict[str, Any]:
        # one round trip per block: the submit itself waits (up to a
        # wait_chunk) for the job to settle, so a quick block's results come
        # back in the 201; a slower one continues long-polling in wait_chunk
        # blocks, so completion is signalled by the service's own
        # transition and cancellation is still noticed between chunks
        handle = proxy.submit_dict(inputs, wait=self.engine.wait_chunk)
        representation = handle.representation
        interval = self.engine.poll
        while True:
            if representation["state"] == "DONE":
                return representation.get("results", {})
            if representation["state"] in ("FAILED", "CANCELLED"):
                raise JobFailedError(
                    representation["state"], representation.get("error", ""), handle.uri
                )
            if self.cancel_event.is_set():
                try:
                    handle.cancel()
                finally:
                    raise WorkflowCancelled(f"block {block.id!r} cancelled")
            if handle.long_poll_supported is False:
                # explicit fallback for servers that ignore ?wait=: event-based
                # backoff polling (interruptible by cancel, no time.sleep)
                self.cancel_event.wait(interval)
                interval = min(interval * 1.5, 0.5)
            representation = handle.poll(wait=self.engine.wait_chunk)

    def _run_script(self, block: ScriptBlock) -> dict[str, Any]:
        namespace: dict[str, Any] = dict(self._block_inputs(block))
        namespace["__builtins__"] = _SCRIPT_BUILTINS
        exec(compile(block.code, f"<script:{block.id}>", "exec"), namespace)  # noqa: S102
        outputs: dict[str, Any] = {}
        for name in block.output_names:
            if name not in namespace:
                raise ValueError(f"script did not assign output variable {name!r}")
            outputs[name] = namespace[name]
        return outputs

    # ------------------------------------------------------------- results

    def _collect_outputs(self) -> dict[str, Any]:
        outputs: dict[str, Any] = {}
        for block in self.workflow.output_blocks():
            edge = self.workflow.incoming(block.id)[0]
            outputs[block.name] = self.values[(edge.src_block, edge.src_port)]
        return outputs
