"""Trace-tree invariants: property-tested synthetically, then end-to-end.

The hypothesis suite generates random well-formed span forests and
checks that ``verify_trace_tree`` accepts them and flags every mutation
we can inject (duplicate ids, negative durations, orphaned parents,
non-nesting children).  The integration suite submits real jobs through
a gateway to a replica and asserts that the recovered trace shows the
gateway→replica→adapter hop chain with correct parentage.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.container import ServiceContainer
from repro.gateway import ServiceGateway
from repro.http.registry import TransportRegistry
from repro.observability import verify_trace_tree
from repro.runtime.trace import (
    SpanContext,
    Tracer,
    activate_span_context,
    build_trace_tree,
    merge_spans,
    parse_trace_header,
    span,
    trace_headers,
)
from tests.waiters import wait_for_state


# --------------------------------------------------------------------------
# synthetic trees


@st.composite
def span_trees(draw):
    """A random well-formed single-root span list.

    ``child``-linked spans nest inside their parent's interval;
    ``follows``-linked spans only start at-or-after their parent.
    """
    count = draw(st.integers(min_value=1, max_value=12))
    base = draw(st.floats(min_value=1.0e9, max_value=2.0e9))
    spans = [{
        "trace_id": "t-prop",
        "span_id": "s0",
        "parent_id": None,
        "name": "root",
        "start": base,
        "duration": draw(st.floats(min_value=0.01, max_value=10.0)),
        "labels": {},
        "link": "child",
    }]
    for index in range(1, count):
        parent = spans[draw(st.integers(min_value=0, max_value=index - 1))]
        link = draw(st.sampled_from(["child", "follows"]))
        if link == "child":
            offset = draw(st.floats(min_value=0.0, max_value=parent["duration"] / 2))
            start = parent["start"] + offset
            duration = draw(st.floats(
                min_value=0.0, max_value=max(0.0, parent["duration"] / 2 - offset)))
        else:
            start = parent["start"] + draw(st.floats(min_value=0.0, max_value=60.0))
            duration = draw(st.floats(min_value=0.0, max_value=10.0))
        spans.append({
            "trace_id": "t-prop",
            "span_id": f"s{index}",
            "parent_id": parent["span_id"],
            "name": f"op{index}",
            "start": start,
            "duration": duration,
            "labels": {},
            "link": link,
        })
    return spans


class TestTraceInvariantsProperty:
    @given(span_trees())
    def test_well_formed_trees_have_no_violations(self, spans):
        assert verify_trace_tree(spans) == []

    @given(span_trees(), st.randoms())
    def test_tree_shape_is_order_independent(self, spans, rng):
        shuffled = list(spans)
        rng.shuffle(shuffled)
        roots = build_trace_tree(shuffled)
        assert len(roots) == 1

        def count(node):
            return 1 + sum(count(child) for child in node["children"])

        assert count(roots[0]) == len(spans)

        def starts_sorted(node):
            starts = [child["start"] for child in node["children"]]
            assert starts == sorted(starts)
            for child in node["children"]:
                starts_sorted(child)

        starts_sorted(roots[0])

    @given(span_trees())
    def test_negative_duration_is_flagged(self, spans):
        spans[-1]["duration"] = -0.001
        assert any("negative duration" in p for p in verify_trace_tree(spans))

    @given(span_trees())
    def test_duplicate_span_id_is_flagged(self, spans):
        duplicated = dict(spans[-1])
        assert any(
            "duplicate span id" in p
            for p in verify_trace_tree(spans + [duplicated])
        )

    @given(span_trees())
    def test_missing_root_leaves_orphans(self, spans):
        # the root vanished (replica died before flushing): every direct
        # child now references a missing parent, and there is no root
        truncated = [s for s in spans if s["span_id"] != "s0"]
        problems = verify_trace_tree(truncated, complete=True)
        if truncated:
            assert any("missing parent" in p for p in problems)
        # but a partial read is fine when not asserting completeness
        assert not any(
            "missing parent" in p
            for p in verify_trace_tree(truncated, complete=False)
        )

    @given(span_trees())
    def test_second_root_is_flagged(self, spans):
        intruder = {
            "trace_id": "t-prop", "span_id": "s-intruder", "parent_id": None,
            "name": "second-root", "start": spans[0]["start"], "duration": 0.0,
            "labels": {}, "link": "child",
        }
        assert any(
            "single root" in p for p in verify_trace_tree(spans + [intruder]))

    @given(span_trees())
    def test_mixed_trace_ids_are_flagged(self, spans):
        foreign = {**spans[-1], "trace_id": "t-other", "span_id": "s-foreign"}
        assert any(
            "different traces" in p for p in verify_trace_tree(spans + [foreign]))

    def test_child_escaping_parent_interval_is_flagged(self):
        spans = [
            {"trace_id": "t", "span_id": "a", "parent_id": None, "name": "root",
             "start": 100.0, "duration": 1.0, "labels": {}, "link": "child"},
            {"trace_id": "t", "span_id": "b", "parent_id": "a", "name": "runaway",
             "start": 100.5, "duration": 5.0, "labels": {}, "link": "child"},
        ]
        assert any("after its parent" in p for p in verify_trace_tree(spans))
        # the same shape is legal under a follows link
        spans[1]["link"] = "follows"
        assert verify_trace_tree(spans) == []

    def test_child_starting_before_parent_is_flagged(self):
        spans = [
            {"trace_id": "t", "span_id": "a", "parent_id": None, "name": "root",
             "start": 100.0, "duration": 1.0, "labels": {}, "link": "child"},
            {"trace_id": "t", "span_id": "b", "parent_id": "a", "name": "early",
             "start": 99.0, "duration": 0.1, "labels": {}, "link": "follows"},
        ]
        assert any("before its parent" in p for p in verify_trace_tree(spans))


class TestTraceHeaderParsing:
    @given(st.text(max_size=200))
    def test_never_raises_on_arbitrary_input(self, value):
        parsed = parse_trace_header(value)
        if parsed is not None:
            trace_id, parent = parsed
            assert trace_id
            assert all(c.isalnum() or c in "-_" for c in trace_id)
            if parent is not None:
                assert all(c.isalnum() or c in "-_" for c in parent)

    def test_round_trip_through_headers(self):
        tracer = Tracer("rt")
        with activate_span_context(SpanContext(tracer, "t0123", None)):
            with span("outer"):
                headers = trace_headers()
        parsed = parse_trace_header(headers["X-Trace"])
        assert parsed is not None
        trace_id, parent = parsed
        assert trace_id == "t0123"
        assert parent is not None

    @pytest.mark.parametrize("value", [
        None, "", "/", "/abc", "bad id/with space", "a" * 300,
        "ok/", "tid/par/extra sp ace",
    ])
    def test_malformed_values_rejected(self, value):
        parsed = parse_trace_header(value)
        if parsed is not None:  # "ok/" degrades to (trace, None)
            assert parsed == ("ok", None)


class TestSpanRecordingPrimitives:
    def test_untraced_span_is_a_noop(self):
        with span("nothing") as context:
            assert context is None

    def test_nested_spans_parent_correctly(self):
        tracer = Tracer("unit")
        with activate_span_context(SpanContext(tracer, "t-nest", None)):
            with span("outer") as outer:
                with span("inner") as inner:
                    assert inner.span_id != outer.span_id
        spans = tracer.spans("t-nest")
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert verify_trace_tree(spans) == []

    def test_tracer_evicts_oldest_trace_whole(self):
        tracer = Tracer("small", max_traces=2)
        for trace_id in ("t-1", "t-2", "t-3"):
            with activate_span_context(SpanContext(tracer, trace_id, None)):
                with span("op"):
                    pass
        assert tracer.trace_ids() == ["t-2", "t-3"]
        assert tracer.spans("t-1") == []
        assert tracer.spans_dropped == 1

    def test_per_trace_span_cap_counts_drops(self):
        tracer = Tracer("tiny", max_spans_per_trace=3)
        with activate_span_context(SpanContext(tracer, "t-cap", None)):
            for _ in range(5):
                with span("op"):
                    pass
        assert len(tracer.spans("t-cap")) == 3
        assert tracer.spans_dropped == 2

    def test_merge_spans_dedups_by_span_id(self):
        record = {"trace_id": "t", "span_id": "x", "parent_id": None,
                  "name": "a", "start": 1.0, "duration": 0.1}
        merged = merge_spans([record], [dict(record)], [])
        assert len(merged) == 1


# --------------------------------------------------------------------------
# end-to-end: gateway → replica → adapter

_ADD = {
    "description": {
        "name": "add",
        "inputs": {"a": {"schema": {"type": "number"}},
                   "b": {"schema": {"type": "number"}}},
        "outputs": {"sum": {"schema": {"type": "number"}}},
    },
    "adapter": "python",
    "config": {"callable": lambda a, b: {"sum": a + b}},
}


@pytest.fixture()
def platform():
    registry = TransportRegistry()
    replicas = []
    for name in ("trace-a", "trace-b"):
        container = ServiceContainer(name, handlers=2, registry=registry)
        container.deploy(_ADD)
        replicas.append(container)
    gateway = ServiceGateway(registry=registry, name="trace-gw")
    for container in replicas:
        gateway.add_replica(container.local_base)
    yield registry, gateway, replicas
    gateway.shutdown()
    for container in replicas:
        container.shutdown()


def _submit_and_trace(registry, gateway, a=2, b=3):
    response = registry.request(
        "POST", f"{gateway.base_uri}/services/add",
        body=json.dumps({"a": a, "b": b}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert response.status == 201
    job_uri = response.json_body["uri"]
    document = wait_for_state(
        lambda: registry.request("GET", job_uri).json_body)
    assert document["state"] == "DONE"
    trace = registry.request("GET", job_uri + "/trace")
    assert trace.status == 200
    return trace.json_body


class TestGatewayTraceEndToEnd:
    def test_trace_spans_cover_every_hop(self, platform):
        registry, gateway, _ = platform
        document = _submit_and_trace(registry, gateway)
        spans = document["spans"]
        names = {s["name"] for s in spans}
        assert {"http.request", "gateway.forward",
                "queue.wait", "adapter.run"} <= names

    def test_trace_tree_is_well_formed(self, platform):
        registry, gateway, _ = platform
        document = _submit_and_trace(registry, gateway)
        assert verify_trace_tree(document["spans"]) == []
        assert len(document["tree"]) == 1

    def test_parentage_follows_the_hop_chain(self, platform):
        registry, gateway, _ = platform
        spans = _submit_and_trace(registry, gateway)["spans"]
        by_id = {s["span_id"]: s for s in spans}

        def parent_of(record):
            return by_id.get(record["parent_id"] or "")

        forwards = [s for s in spans if s["name"] == "gateway.forward"]
        assert forwards, "no gateway.forward span recorded"
        for forward in forwards:
            assert parent_of(forward)["component"] == "trace-gw"

        adapter_runs = [s for s in spans if s["name"] == "adapter.run"]
        assert adapter_runs
        for run in adapter_runs:
            # adapter.run follows the replica's submit http.request,
            # which is itself a child of the gateway's forward attempt
            replica_request = parent_of(run)
            assert replica_request["name"] == "http.request"
            assert parent_of(replica_request)["name"] == "gateway.forward"
            assert run["link"] == "follows"

    def test_spread_read_is_forwarded_inside_a_span(self, platform):
        registry, gateway, replicas = platform
        response = registry.request(
            "GET", f"{gateway.base_uri}/services/add",
            headers={"X-Trace": "t-describe"})
        assert response.status == 200
        [forward] = [s for s in gateway.tracer.spans("t-describe")
                     if s["name"] == "gateway.forward"]
        replica_spans = [s for c in replicas for s in c.tracer.spans("t-describe")]
        assert [s["parent_id"] for s in replica_spans] == [forward["span_id"]]

    def test_traces_of_distinct_jobs_never_cross(self, platform):
        registry, gateway, _ = platform
        first = _submit_and_trace(registry, gateway, 1, 1)
        second = _submit_and_trace(registry, gateway, 2, 2)
        assert first["trace_id"] != second["trace_id"]
        first_ids = {s["span_id"] for s in first["spans"]}
        second_ids = {s["span_id"] for s in second["spans"]}
        assert not first_ids & second_ids

    def test_untraced_gateway_passes_client_trace_through(self, platform):
        registry, _, replicas = platform
        dark = ServiceGateway(registry=registry, name="dark-gw",
                              observability=False)
        try:
            for container in replicas:
                dark.add_replica(container.local_base)
            response = registry.request(
                "POST", f"{dark.base_uri}/services/add",
                body=json.dumps({"a": 1, "b": 1}).encode(),
                headers={"Content-Type": "application/json",
                         "X-Trace": "t-client-chosen/feedface00000000"},
            )
            assert response.status == 201
            job_uri = response.json_body["uri"]
            wait_for_state(lambda: registry.request("GET", job_uri).json_body)
            # the replica recorded its spans under the client's trace id
            holder = next(
                c for c in replicas
                if "t-client-chosen" in c.tracer.trace_ids())
            spans = holder.tracer.spans("t-client-chosen")
            assert {"queue.wait", "adapter.run"} <= {s["name"] for s in spans}
        finally:
            dark.shutdown()

    def test_trace_of_unknown_job_is_404(self, platform):
        registry, gateway, _ = platform
        response = registry.request(
            "GET", f"{gateway.base_uri}/services/add/jobs/j-ghost/trace")
        assert response.status == 404
