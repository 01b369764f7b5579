"""The harness's own arithmetic (``pytest benchmarks/perf``; not part of tier-1).

A wrong percentile rule, open-loop clock or span subtraction would make
every later comparison wrong while still printing plausible numbers, so
each is pinned here against a case worked out by hand.
"""

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from benchmarks.perf import loadgen, metrics, spans, stack, workloads
from benchmarks.perf.spans import Span

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_a_seed_fixes_the_requests_and_another_seed_changes_them(workload):
    take = 3 if workload.op == "blob" else 200
    first = list(islice(workloads.ops(workload, 7), take))
    assert first == list(islice(workloads.ops(workload, 7), take))
    assert first != list(islice(workloads.ops(workload, 8), take))
    assert len({op.id for op in first}) == take


def test_a_seed_fixes_the_schedule_and_another_seed_changes_it():
    assert workloads.schedule(7, 240, 2.0) == workloads.schedule(7, 240, 2.0)
    assert workloads.schedule(7, 240, 2.0) != workloads.schedule(8, 240, 2.0)
    offsets = workloads.schedule(7, 240, 2.5)
    assert offsets == sorted(offsets) and 0 < offsets[0] and offsets[-1] < 2.5
    # every seed offers the same load: exactly the rate in each second
    assert [sum(1 for o in offsets if second <= o < second + 1) for second in range(3)] == [240, 240, 120]


def test_only_cache_sweep_repeats_an_input():
    for workload in workloads.WORKLOADS:
        if workload.op == "blob":
            continue
        values = [op.value for op in islice(workloads.ops(workload, 3), 2000)]
        if workload.op == "cached":
            fresh = [v for v in values[workloads.HOT_VALUES:] if v not in set(workloads.hot_values(3))]
            assert len(set(fresh)) == len(fresh)
            assert 0.85 < 1 - len(fresh) / (len(values) - workloads.HOT_VALUES) < 0.95
        else:
            assert len(set(values)) == len(values)


def test_workflow_inputs_never_repeat_inside_a_run():
    """The fan's inner submits — n±1, n±3 and their doubles — must be unique
    across ops, or the engine memo and replica caches would absorb work."""
    workload = workloads.BY_NAME["workflow_fanout"]
    inner = []
    for op in islice(workloads.ops(workload, 5), 500):
        first = [op.value + offset for offset in (-3, -1, 1, 3)]
        inner += first + [2 * x for x in first]
    assert len(set(inner)) == len(inner)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert workloads.pick_tail(1000) == 99
    assert workloads.pick_tail(999) == 95
    assert workloads.pick_tail(200) == 95
    assert workloads.pick_tail(199) == 90
    assert workloads.pick_tail(100) == 90
    assert workloads.pick_tail(99) == 75
    assert workloads.pick_tail(5) == 75  # the menu's floor
    for workload in workloads.WORKLOADS:
        assert workload.expected_samples * (100 - workload.tail) / 100 >= 10


# ------------------------------------------------------------- load loop


def test_percentile_interpolates_between_order_statistics():
    assert loadgen.percentile([], 50) == 0.0
    assert loadgen.percentile([4.0], 99) == 4.0
    assert loadgen.percentile([1, 2, 3, 4], 50) == 2.5
    assert loadgen.percentile(list(range(101)), 95) == 95


def test_strata_weigh_equally_however_many_ops_fell_in_each():
    def record(latency, stratum):
        return loadgen.Record("x", True, latency, 0.0, 0.0, 0.0, "", stratum)

    lopsided = [record(1.0, "local")] * 90 + [record(3.0, "staged")] * 10
    assert loadgen.percentile([r.latency for r in lopsided], 50) == 1.0
    assert loadgen.stratified(lopsided, "latency", 50) == 2.0
    failed = loadgen.Record("x", False, 0.0, 0.0, 0.0, 0.0, "boom")
    assert loadgen.stratified(lopsided + [failed], "latency", 50) == 2.0


def test_open_loop_charges_a_stalled_reply_to_the_ops_it_delayed():
    """One connection, ops due every 10 ms, the second reply stalls 100 ms:
    the ops behind it are sent late and their latency, counted from when
    they were due, includes the wait."""
    now = [0.0]
    service = {0: 0.001, 1: 0.100, 2: 0.001, 3: 0.001}
    ops = [workloads.Op(str(i), "acme", i, b"") for i in range(4)]
    items = iter(zip((0.00, 0.01, 0.02, 0.03), ops))
    records = []

    def run_op(op):
        now[0] += service[op.value]
        return loadgen.Done(0.0005, 0.0005)

    def sleep(seconds):
        assert seconds > 0
        now[0] += seconds

    loadgen.open_loop_worker(lambda: next(items, None), run_op, records, lambda: now[0], sleep)
    assert [r.op_id for r in records] == ["0", "1", "2", "3"]
    assert [round(r.late, 6) for r in records] == [0.0, 0.0, 0.09, 0.081]
    assert [round(r.latency, 6) for r in records] == [0.001, 0.1, 0.091, 0.082]
    assert loadgen.within_limit(records, 0.05) == 0.25


def test_a_failed_op_misses_every_limit_and_has_no_latency():
    def run_op(op):
        raise loadgen.OpFailed("wrong result")

    record = loadgen.attempt(run_op, workloads.Op("a", "acme", 1, b""), 0.0, 0.0, lambda: 5.0)
    assert not record.ok and record.latency == 0.0 and "wrong result" in record.error
    assert loadgen.within_limit([record], 1e9) == 0.0


def test_rate_at_slo_stops_at_the_first_failing_rung():
    def rung(latency, late=0.0, count=100):
        return [loadgen.Record("x", True, latency, 0.0, 0.0, late, "")] * count

    limit = workloads.SLO_LIMIT_S
    rungs = {160: rung(limit / 2), 240: rung(limit / 2), 320: rung(limit * 2), 480: rung(limit / 2)}
    assert metrics.rate_at_slo(rungs) == 240
    # meeting the latency limit while the sends fall ever further behind is not sustaining the rate
    rungs[240] = rung(limit / 2, late=limit * 2)
    assert metrics.rate_at_slo(rungs) == 160


# ----------------------------------------------------------------- spans


def test_self_time_is_the_span_minus_the_union_of_its_children():
    parent = Span(1, "p", 0, 100, 0, None, 0)
    overlapping = [Span(2, "a", 10, 50, 1, None, 0), Span(3, "b", 30, 70, 1, None, 0)]
    own = spans.self_times([parent] + overlapping)
    assert own[1] == 100 - 60  # [10, 70] once, not 40 + 40
    assert own[2] == 40 and own[3] == 40
    # a child that outlives its parent only covers what lies inside it
    assert spans.self_times([parent, Span(4, "late", 90, 150, 1, None, 0)])[1] == 90
    assert spans.covered([(5, 8), (0, 3), (2, 6)], 1, 7) == 6


def test_a_forwarded_request_nests_under_the_forward_that_carried_it():
    forward = Span(1, "gateway.forward", 0, 100, 0, "op.s", 0)
    downstream = [
        Span(2, "http.parse", 10, 20, 0, "op.s", 0),
        Span(3, "http.app", 30, 80, 0, "op.s", 0),
        Span(4, "http.app", 30, 80, 0, "other.s", 0),   # another request
        Span(5, "http.app", 90, 130, 0, "op.s", 0),     # not enclosed
    ]
    adopted = {span.id: span.parent for span in spans.adopt([forward] + downstream)}
    assert adopted == {1: 0, 2: 1, 3: 1, 4: 0, 5: 0}
    assert spans.self_times(spans.adopt([forward] + downstream))[1] == 100 - 10 - 50


def test_peak_overlap_counts_the_most_spans_open_at_once():
    assert spans.peak_overlap([]) == 0
    assert spans.peak_overlap([(0, 10), (5, 15), (10, 20)]) == 2
    assert spans.peak_overlap([(0, 10), (1, 9), (2, 8)]) == 3


def test_the_submit_budget_rows_sum_to_the_submits_they_describe():
    raw = [
        (1, "http.app", 0, 1000, 0, "a.s", 0),
        (2, "container.submit", 100, 600, 1, "a.s", 0),
        (3, "durability.append", 200, 300, 2, "a.s", 0),
        (4, "container.adapter", 700, 5000, 0, "a.s", 0),   # async: not on the path
        (5, "http.app", 0, 400, 0, "a.g", 0),               # not the submit
    ]
    summary = spans.summarize(raw, 0, 10_000)
    assert summary["submits"] == {"a.s": {"http.app": 500, "container.submit": 400, "durability.append": 100}}
    assert summary["names"]["http.app"] == {"count": 2, "self_ns": 900, "total_ns": 1400, "bytes": 0}
    assert spans.summarize(raw, 50, 10_000)["spans"] == 3  # the window cuts by start time


def test_shims_go_in_and_come_out():
    from repro.durability.journal import Journal
    from repro.http import eventloop, messages
    from repro.tenancy.gate import TenantGate

    before = (Journal.append, eventloop.serialize_response, TenantGate.__call__, messages.RequestParser.feed)
    restore = spans.install(spans.Tracer())
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in
                   (Journal.append, eventloop.serialize_response, TenantGate.__call__))
    finally:
        restore()
    assert (Journal.append, eventloop.serialize_response, TenantGate.__call__,
            messages.RequestParser.feed) == before


def test_a_shim_records_nesting_and_survives_an_exception():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("boom")

    timed_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: timed_inner(), "outer")
    with pytest.raises(ValueError):
        outer()
    (inner_span, outer_span) = map(Span._make, tracer.spans)
    assert (inner_span.name, outer_span.name) == ("inner", "outer")
    assert inner_span.parent == outer_span.id and outer_span.parent == 0
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
    assert tracer._stack() == []


# ------------------------------------------------------------ end to end


def test_fan_workflow_is_four_branches_of_two_blocks_and_a_gather():
    from repro.container import ServiceContainer

    container = ServiceContainer("fan-shape")
    try:
        container.deploy(stack.work_config())
        workflow = stack.fan_workflow(container.service_uri("work"), container.registry)
        workflow.validate()
        kinds = [block.kind for block in workflow.blocks.values()]
        assert kinds.count("service") == 8 and kinds.count("script") == 2
    finally:
        container.shutdown()


def test_a_traced_direct_run_fills_the_replica_layers_and_leaves_the_gateway_at_zero():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/perf/run.py"), "--workload", "lifecycle_direct",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 50
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(values) == {metric.name for metric in metrics.PER_LAYER}
    for name, value in values.items():
        layer = name.split(".")[0]
        if layer in ("http", "core", "container", "durability") and name != "container.jobs_failed":
            assert value > 0, name
        if layer in ("gateway", "workflow", "blob"):
            assert value == 0, name
    assert values["cache.hit_ratio"] == 0 and values["tenancy.shed_per_op"] == 0
    assert values["container.jobs_failed"] == 0 and values["fail_ratio"] == 0
    assert "stacked submit budget" in done.stdout and "unattributed" in done.stdout
    assert not list((ROOT / ".bench_work").glob("*"))  # nothing left behind
