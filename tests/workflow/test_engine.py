"""Tests for the workflow engine against live services."""

import threading
import time

import pytest

from repro.container import ServiceContainer
from repro.workflow.engine import (
    BlockState,
    WorkflowCancelled,
    WorkflowEngine,
    WorkflowExecutionError,
)
from repro.workflow.model import (
    ConstBlock,
    DataType,
    InputBlock,
    OutputBlock,
    ScriptBlock,
    ServiceBlock,
    Workflow,
)

from tests.workflow.conftest import diamond_workflow


@pytest.fixture()
def engine(registry):
    return WorkflowEngine(registry, poll=0.005)


class TestBasicExecution:
    def test_diamond_workflow(self, container, engine):
        workflow = diamond_workflow(container)
        outputs = engine.execute(workflow, {"n": 10})
        assert outputs == {"result": (10 + 1) + (10 * 2)}

    def test_default_input_value(self, container, engine):
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.NUMBER, default=5, required=False))
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "out.value")
        assert engine.execute(workflow, {}) == {"out": 5}
        assert engine.execute(workflow, {"n": 9}) == {"out": 9}

    def test_missing_required_input_fails(self, container, engine):
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "out.value")
        with pytest.raises(WorkflowExecutionError, match="missing workflow input"):
            engine.execute(workflow, {})

    def test_unknown_input_rejected(self, container, engine):
        workflow = diamond_workflow(container)
        with pytest.raises(WorkflowExecutionError, match="unknown workflow input"):
            engine.execute(workflow, {"n": 1, "ghost": 2})

    def test_const_only_workflow(self, engine):
        workflow = Workflow("w")
        workflow.add(ConstBlock("c", value={"k": 1}))
        workflow.add(OutputBlock("out"))
        workflow.connect("c.value", "out.value")
        assert engine.execute(workflow) == {"out": {"k": 1}}


class TestScriptBlocks:
    def test_script_computes(self, engine):
        workflow = Workflow("w")
        workflow.add(InputBlock("xs", type=DataType.ARRAY))
        workflow.add(
            ScriptBlock(
                "sq",
                code="total = sum(x * x for x in xs)",
                input_names=["xs"],
                output_names=["total"],
            )
        )
        workflow.add(OutputBlock("out"))
        workflow.connect("xs.value", "sq.xs")
        workflow.connect("sq.total", "out.value")
        assert engine.execute(workflow, {"xs": [1, 2, 3]}) == {"out": 14}

    def test_script_missing_output_variable(self, engine):
        workflow = Workflow("w")
        workflow.add(ScriptBlock("s", code="pass", input_names=[], output_names=["y"]))
        workflow.add(OutputBlock("out"))
        workflow.connect("s.y", "out.value")
        with pytest.raises(WorkflowExecutionError, match="did not assign output variable 'y'"):
            engine.execute(workflow)

    def test_script_exception_reported(self, engine):
        workflow = Workflow("w")
        workflow.add(
            ScriptBlock("s", code="y = 1 / 0", input_names=[], output_names=["y"])
        )
        workflow.add(OutputBlock("out"))
        workflow.connect("s.y", "out.value")
        with pytest.raises(WorkflowExecutionError, match="ZeroDivisionError"):
            engine.execute(workflow)

    def test_script_sandbox_has_no_open(self, engine):
        workflow = Workflow("w")
        workflow.add(
            ScriptBlock("s", code="y = open('/etc/passwd')", input_names=[], output_names=["y"])
        )
        workflow.add(OutputBlock("out"))
        workflow.connect("s.y", "out.value")
        with pytest.raises(WorkflowExecutionError, match="NameError"):
            engine.execute(workflow)

    def test_script_string_building(self, engine):
        # the paper's example: "create complex string inputs for services"
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.INTEGER))
        workflow.add(
            ScriptBlock(
                "fmt",
                code="text = 'solve[' + ','.join(str(i) for i in range(n)) + ']'",
                input_names=["n"],
                output_names=["text"],
            )
        )
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "fmt.n")
        workflow.connect("fmt.text", "out.value")
        assert engine.execute(workflow, {"n": 3}) == {"out": "solve[0,1,2]"}


class TestParallelism:
    def test_independent_blocks_overlap(self, container, engine):
        # two slow(0.3s) blocks in parallel should take well under 0.6s
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        for block_id in ("s1", "s2", "s3"):
            block = ServiceBlock(block_id, uri=container.service_uri("slow"))
            block.introspect(container.registry)
            workflow.add(block)
            workflow.connect("n.value", f"{block_id}.x")
        workflow.add(
            ScriptBlock("gather", code="total = a + b + c", input_names=["a", "b", "c"], output_names=["total"])
        )
        workflow.add(OutputBlock("out"))
        workflow.connect("s1.x", "gather.a")
        workflow.connect("s2.x", "gather.b")
        workflow.connect("s3.x", "gather.c")
        workflow.connect("gather.total", "out.value")
        start = time.time()
        outputs = engine.execute(workflow, {"n": 2})
        elapsed = time.time() - start
        assert outputs == {"out": 6}
        assert elapsed < 0.8, f"blocks did not run in parallel ({elapsed:.2f}s)"


class TestFailurePropagation:
    def build_failing(self, container):
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        broken = ServiceBlock("bad", uri=container.service_uri("broken"))
        broken.introspect(container.registry)
        workflow.add(broken)
        downstream = ServiceBlock("after", uri=container.service_uri("neg"))
        downstream.introspect(container.registry)
        workflow.add(downstream)
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "bad.x")
        workflow.connect("bad.y", "after.x")
        workflow.connect("after.minus", "out.value")
        return workflow

    def test_failure_skips_downstream(self, container, engine):
        workflow = self.build_failing(container)
        states = {}
        with pytest.raises(WorkflowExecutionError) as info:
            engine.execute(workflow, {"n": 1}, observer=lambda b, s, e: states.update({b: s}))
        assert "numerical instability" in str(info.value)
        assert states["bad"] is BlockState.FAILED
        assert states["after"] is BlockState.SKIPPED
        assert states["out"] is BlockState.SKIPPED

    def test_unreachable_service_fails_block(self, engine, registry):
        from repro.core.description import Parameter, ServiceDescription

        workflow = Workflow("w")
        description = ServiceDescription(name="ghost", inputs=[], outputs=[Parameter("r", True)])
        workflow.add(ServiceBlock("g", uri="local://nowhere/services/ghost", description=description))
        workflow.add(OutputBlock("out"))
        workflow.connect("g.r", "out.value")
        with pytest.raises(WorkflowExecutionError, match="g:"):
            engine.execute(workflow)


class TestStateStream:
    def test_observer_sees_full_lifecycle(self, container, engine):
        workflow = diamond_workflow(container)
        events = []
        engine.execute(workflow, {"n": 1}, observer=lambda b, s, e: events.append((b, s)))
        for block_id in workflow.blocks:
            block_events = [state for b, state in events if b == block_id]
            assert block_events[0] is BlockState.RUNNING
            assert block_events[-1] is BlockState.DONE

    def test_dependency_order_respected(self, container, engine):
        workflow = diamond_workflow(container)
        done_times = {}
        start_times = {}

        def observe(block, state, error):
            if state is BlockState.RUNNING:
                start_times[block] = time.time()
            elif state is BlockState.DONE:
                done_times[block] = time.time()

        engine.execute(workflow, {"n": 1}, observer=observe)
        assert done_times["plus1"] <= start_times["total"]
        assert done_times["times2"] <= start_times["total"]


class TestCancellation:
    def test_cancel_event_stops_execution(self, container, engine):
        workflow = Workflow("w")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        slow = ServiceBlock("s", uri=container.service_uri("slow"))
        slow.introspect(container.registry)
        workflow.add(slow)
        workflow.add(ConstBlock("d", value=5))
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "s.x")
        workflow.connect("d.value", "s.delay")
        workflow.connect("s.x", "out.value")
        cancel = threading.Event()
        box = {}

        def run():
            try:
                engine.execute(workflow, {"n": 1}, cancel_event=cancel)
            except WorkflowCancelled as exc:
                box["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.2)
        cancel.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "error" in box


def single_block_workflow(container, service, constants):
    """One service block fed by constants; its first output is the result."""
    workflow = Workflow("one")
    block = ServiceBlock("s", uri=container.service_uri(service))
    block.introspect(container.registry)
    workflow.add(block)
    for name, value in constants.items():
        workflow.add(ConstBlock(f"c_{name}", value=value))
        workflow.connect(f"c_{name}.value", f"s.{name}")
    workflow.add(OutputBlock("out"))
    workflow.connect(f"s.{block.outputs[0].name}", "out.value")
    return workflow


@pytest.fixture()
def sent(registry):
    """Every request the engine sends, as ``(method, url)``."""
    log = []
    original = registry.request

    def recording(method, url, **kwargs):
        if "/jobs" in url or method != "GET":  # not block introspection
            log.append((method, url))
        return original(method, url, **kwargs)

    registry.request = recording
    return log


class TestWaitedSubmit:
    """One round trip per service block: the submit itself waits."""

    def test_quick_block_is_one_request(self, container, engine, sent):
        workflow = single_block_workflow(container, "add", {"a": 2, "b": 3})
        assert engine.execute(workflow) == {"out": 5}
        assert [method for method, _ in sent] == ["POST"]
        assert sent[0][1].endswith("/services/add?wait=0.5")

    def test_sync_mode_block_is_one_request(self, container, engine, sent):
        container.deploy({
            "description": {
                "name": "inc",
                "inputs": {"x": {"schema": {"type": "number"}}},
                "outputs": {"y": {"schema": {"type": "number"}}},
            },
            "adapter": "python",
            "mode": "sync",
            "config": {"callable": lambda x: {"y": x + 1}},
        })
        workflow = single_block_workflow(container, "inc", {"x": 1})
        assert engine.execute(workflow) == {"out": 2}
        assert [method for method, _ in sent] == ["POST"]

    def test_cache_hit_block_is_one_request(self, registry, engine, sent):
        cached = ServiceContainer("cached-math", handlers=2, registry=registry, cache=True)
        try:
            cached.deploy({
                "description": {
                    "name": "double",
                    "inputs": {"x": {"schema": {"type": "number"}}},
                    "outputs": {"y": {"schema": {"type": "number"}}},
                },
                "adapter": "python",
                "config": {"callable": lambda x: {"y": 2 * x}},
            })
            workflow = single_block_workflow(cached, "double", {"x": 4})
            assert engine.execute(workflow) == {"out": 8}
            del sent[:]
            assert engine.execute(workflow) == {"out": 8}  # answered by the cache
            assert [method for method, _ in sent] == ["POST"]
            assert cached.cache.stats.hits == 1
        finally:
            cached.shutdown()

    def test_slow_block_continues_with_long_poll_chunks(self, container, registry, sent):
        engine = WorkflowEngine(registry, wait_chunk=0.1)
        workflow = single_block_workflow(container, "slow", {"x": 7, "delay": 0.35})
        assert engine.execute(workflow) == {"out": 7}
        methods = [method for method, _ in sent]
        assert methods[0] == "POST" and set(methods[1:]) == {"GET"}
        assert 2 <= len(methods) - 1 <= 5  # 0.35 s in 0.1 s chunks, after the POST's own
        assert all(url.endswith("?wait=0.1") for _, url in sent)

    def test_cancel_during_the_waited_submit_deletes_the_job(self, container, engine, sent):
        workflow = single_block_workflow(container, "slow", {"x": 1, "delay": 5})
        cancel = threading.Event()
        box = {}

        def run():
            try:
                engine.execute(workflow, cancel_event=cancel)
            except WorkflowCancelled as exc:
                box["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)  # the POST is out, waiting its wait_chunk (0.5 s)
        cancelled_at = time.monotonic()
        cancel.set()
        thread.join(timeout=10)
        assert not thread.is_alive() and "error" in box
        # noticed when the submit came back, before any follow-up poll
        assert time.monotonic() - cancelled_at < engine.wait_chunk + 0.4
        assert [method for method, _ in sent] == ["POST", "DELETE"]
        assert container.service("slow").jobs.list() == []
