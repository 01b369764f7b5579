"""Every metric the benchmark reports: name, unit, direction, bound, and how
it is computed from what a run observed.

BENCHMARK.json carries the same tables (``python -m benchmarks.perf
--check`` holds the two together). End-to-end metrics come from the
untraced run; per-layer metrics from the traced one, ``*_us`` being mean
self time per op of the named layer.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

from benchmarks.perf.loadgen import Record, percentile, stratified, within_limit
from benchmarks.perf.workloads import (
    OPEN_LOOP_LADDER, OPEN_LOOP_REFERENCE, SLO_LIMIT_S, SLO_SHARE, SUBMIT_RID_SUFFIX, Workload,
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median an end-to-end metric may worsen by.
    bound: "float | None" = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.15),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("submit_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

_US = ("us", "lower")
PER_LAYER = (
    # http
    Metric("http.parse_us", *_US), Metric("http.route_us", *_US), Metric("http.serialize_us", *_US),
    Metric("http.app_self_us", *_US), Metric("http.handler_wait_us", *_US),
    Metric("http.requests_per_op", "count", "lower"), Metric("http.bytes_per_op", "B", "lower"),
    Metric("http.conns_accepted", "count", "lower"),
    # core
    Metric("core.validate_us", *_US), Metric("core.handler_us", *_US), Metric("core.render_us", *_US),
    Metric("core.renders_per_op", "count", "lower"),
    # container
    Metric("container.submit_self_us", *_US), Metric("container.delete_self_us", *_US),
    Metric("container.queue_wait_us", *_US),
    Metric("container.adapter_us", *_US), Metric("container.jobs_per_op", "count", "lower"),
    Metric("container.jobs_failed", "count", "lower"),
    # durability
    Metric("durability.append_us", *_US), Metric("durability.appends_per_op", "count", "lower"),
    Metric("durability.bytes_per_op", "B", "lower"),
    # cache
    Metric("cache.fingerprint_us", *_US), Metric("cache.claim_us", *_US),
    Metric("cache.hit_ratio", "ratio", "higher"), Metric("cache.misses_per_op", "count", "lower"),
    # tenancy
    Metric("tenancy.gate_us", *_US), Metric("tenancy.queue_us", *_US), Metric("tenancy.queue_wait_us", *_US),
    Metric("tenancy.charge_us", *_US), Metric("tenancy.shed_per_op", "count", "lower"),
    # observability
    Metric("observability.middleware_us", *_US), Metric("observability.scrape_ms", "ms", "lower"),
    # gateway
    Metric("gateway.self_us", *_US), Metric("gateway.forward_us", *_US), Metric("gateway.select_us", *_US),
    Metric("gateway.rewrite_us", *_US), Metric("gateway.idempotency_us", *_US),
    Metric("gateway.attempts_per_submit", "count", "lower"), Metric("gateway.shed_per_op", "count", "lower"),
    Metric("gateway.handler_busy_peak", "count", "lower"),
    # workflow
    Metric("workflow.engine_self_us_per_block", *_US), Metric("workflow.block_wait_us", *_US),
    Metric("workflow.requests_per_block", "count", "lower"), Metric("workflow.submit_self_us", *_US),
    # blob
    Metric("blob.write_us_per_mb", *_US), Metric("blob.read_us_per_mb", *_US),
    Metric("blob.stage_us_per_mb", *_US), Metric("blob.chunks_per_op", "count", "lower"),
    # runtime and the stack process
    Metric("runtime.pool_submit_us", *_US), Metric("runtime.threads_peak", "count", "lower"),
    Metric("proc.cpu_user_ms_per_op", "ms", "lower"), Metric("proc.cpu_sys_ms_per_op", "ms", "lower"),
    Metric("proc.vol_ctx_per_op", "count", "lower"), Metric("proc.rss_growth_kb_per_kop", "kB", "lower"),
    # what a user sees but the contract cannot bound on every workload
    Metric("ops_per_s", "1/s", "higher"), Metric("rate_at_slo_per_s", "1/s", "higher"),
    Metric("fail_ratio", "ratio", "lower"),
    # the harness itself: validity, not targets
    Metric("gen.late_p95_ms", "ms", "lower"), Metric("gen.cpu_share", "ratio", "lower"),
    Metric("trace.submit_p50_ms", "ms", "lower"), Metric("trace.unattributed_share", "ratio", "lower"),
    Metric("trace.overhead_share", "ratio", "lower"), Metric("trace.spans_per_op", "count", "lower"),
)

#: Span names whose self time lies on a submit's blocking path, in budget order.
BUDGET_ROWS = (
    "http.parse", "http.handler_wait", "http.app", "observability.middleware", "tenancy.gate",
    "http.route", "gateway.self", "gateway.idempotency", "gateway.hint", "gateway.select", "gateway.forward",
    "gateway.rewrite", "core.handler", "workflow.submit", "container.submit", "core.validate",
    "cache.fingerprint", "cache.claim", "durability.append", "tenancy.queue", "tenancy.charge",
    "runtime.pool_submit", "core.render", "http.serialize",
)


@dataclass
class ProcSample:
    """``/proc/<pid>`` of the stack process at one instant."""

    user_s: float
    sys_s: float
    rss_kb: int
    hwm_kb: int

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s


@dataclass
class Phase:
    """What the generator saw of one measured window."""

    records: "list[Record]"
    wall_s: float
    before: ProcSample
    after: ProcSample
    threads_peak: int
    gen_cpu_s: float
    #: The stack's ``finish`` reply.
    stack: "dict[str, Any]"
    #: Open-loop ladder: rate -> that rung's records.
    rungs: "dict[int, list[Record]] | None" = None

    @cached_property
    def ok(self) -> "list[Record]":
        return [record for record in self.records if record.ok]


def end_to_end(workload: Workload, phase: Phase, setups: "list[float]") -> "dict[str, float]":
    ok = phase.ok
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": stratified(ok, "latency", 50) * 1e3,
        "op_tail_ms": stratified(ok, "latency", workload.tail) * 1e3,
        "submit_p50_ms": stratified(ok, "handle", 50) * 1e3,
        "cpu_ms_per_op": (phase.after.cpu_s - phase.before.cpu_s) / max(1, len(ok)) * 1e3,
        "peak_rss_mb": phase.after.hwm_kb / 1024,
    }


def backlog_s(records: "list[Record]") -> float:
    """How late the generator was sending the last tenth of a rung: under a
    sustainable rate this stays near zero, past the knee it grows all rung."""
    tail = [record.late for record in records[-max(1, len(records) // 10):]]
    return percentile(tail, 50)


def rate_at_slo(rungs: "dict[int, list[Record]]") -> int:
    """The highest ladder rate whose rung met the latency limit with no
    growing backlog; rungs above the first failing one do not count."""
    passed = 0
    for rate in sorted(rungs):
        records = rungs[rate]
        if within_limit(records, SLO_LIMIT_S) < SLO_SHARE or backlog_s(records) > SLO_LIMIT_S:
            break
        passed = rate
    return passed


def budget(traced: Phase) -> "tuple[dict[str, float], float]":
    """The stacked submit budget at the median: mean self time per row (µs)
    over the submits whose client-side latency lies between p40 and p60,
    plus what no span covers, and those submits' mean latency (µs)."""
    submits = traced.stack["trace"]["submits"]
    latency = {
        r.op_id + SUBMIT_RID_SUFFIX: r.submit for r in traced.ok if r.op_id + SUBMIT_RID_SUFFIX in submits
    }
    low, high = (percentile(list(latency.values()), q) for q in (40, 60))
    band = [rid for rid, seconds in latency.items() if low <= seconds <= high]
    if not band:
        return {}, 0.0
    rows = {
        name: sum(submits[rid].get(name, 0) for rid in band) / len(band) / 1e3
        for name in sorted({name for rid in band for name in submits[rid]},
                           key=lambda n: BUDGET_ROWS.index(n) if n in BUDGET_ROWS else len(BUDGET_ROWS))
    }
    total = sum(latency[rid] for rid in band) / len(band) * 1e6
    rows["unattributed"] = total - sum(rows.values())
    return rows, total


def per_layer(
    workload: Workload, plain: Phase, traced: Phase, rows: "dict[str, float]", submit_us: float,
) -> "dict[str, float]":
    """``plain`` is the untraced window of the same run (the overhead
    baseline, throughput, and the open-loop ladder); ``traced`` the window
    the shims were on for; ``rows, submit_us`` its :func:`budget`."""
    trace, stack = traced.stack["trace"], traced.stack
    ops = max(1, len(traced.ok))
    names = trace["names"]

    def row(name: str, field: str = "self_ns") -> float:
        return names.get(name, {}).get(field, 0)

    def us(name: str) -> float:
        return row(name) / ops / 1e3

    def per_mb(name: str, moved: float) -> float:
        return row(name) / 1e3 / (moved / 2**20) if moved else 0.0

    blocks = row("container.adapter", "count") if workload.op == "workflow" else 0
    uploaded = row("blob.write", "bytes")
    lookups = stack["cache_hits"] + stack["cache_misses"]
    plain_ops = max(1, len(plain.ok))
    # open loop: only the ladder's reference rung offers what the traced window did
    baseline = plain.rungs[OPEN_LOOP_REFERENCE] if plain.rungs else plain.records
    plain_p50 = stratified(baseline, "latency", 50)
    traced_p50 = stratified(traced.records, "latency", 50)
    refused = sum(1 for r in traced.records if not r.ok and (" 429" in r.error or " 503" in r.error))
    values = {
        "http.parse_us": us("http.parse"), "http.route_us": us("http.route"),
        "http.serialize_us": us("http.serialize"), "http.app_self_us": us("http.app"),
        "http.handler_wait_us": us("http.handler_wait"),
        "http.requests_per_op": row("http.app", "count") / ops,
        "http.bytes_per_op": (row("http.parse", "bytes") + row("http.serialize", "bytes")
                              + row("blob.read", "bytes")) / ops,
        "http.conns_accepted": stack["conns_accepted"],
        "core.validate_us": us("core.validate"), "core.handler_us": us("core.handler"),
        "core.render_us": us("core.render"), "core.renders_per_op": row("core.render", "count") / ops,
        "container.submit_self_us": us("container.submit"),
        "container.delete_self_us": us("container.delete"),
        "container.queue_wait_us": us("container.queue_wait"),
        "container.adapter_us": us("container.adapter"),
        "container.jobs_per_op": row("container.adapter", "count") / ops,
        "container.jobs_failed": stack["jobs_failed"],
        "durability.append_us": us("durability.append"),
        "durability.appends_per_op": row("durability.append", "count") / ops,
        "durability.bytes_per_op": stack["journal_bytes"] / ops,
        "cache.fingerprint_us": us("cache.fingerprint"), "cache.claim_us": us("cache.claim"),
        "cache.hit_ratio": stack["cache_hits"] / lookups if lookups else 0.0,
        "cache.misses_per_op": stack["cache_misses"] / ops,
        "tenancy.gate_us": us("tenancy.gate"), "tenancy.queue_us": us("tenancy.queue"),
        "tenancy.queue_wait_us": us("tenancy.queue_wait"), "tenancy.charge_us": us("tenancy.charge"),
        "tenancy.shed_per_op": stack["mc_tenant_shed_total"] / ops,
        "observability.middleware_us": us("observability.middleware"),
        "observability.scrape_ms": stack["scrape_s"] * 1e3,
        "gateway.self_us": us("gateway.self"), "gateway.forward_us": us("gateway.forward"),
        "gateway.select_us": us("gateway.select") + us("gateway.hint"), "gateway.rewrite_us": us("gateway.rewrite"),
        "gateway.idempotency_us": us("gateway.idempotency"),
        "gateway.attempts_per_submit": (
            stack["mc_gateway_forward_attempts_total"] / row("gateway.hint", "count")
            if row("gateway.hint", "count") else 0.0
        ),
        "gateway.shed_per_op": refused / max(1, len(traced.records)),
        "gateway.handler_busy_peak": trace["gateway_busy_peak"],
        "workflow.engine_self_us_per_block": trace["engine_self_ns"] / blocks / 1e3 if blocks else 0.0,
        "workflow.block_wait_us": row("workflow.request", "total_ns") / blocks / 1e3 if blocks else 0.0,
        "workflow.requests_per_block": row("workflow.request", "count") / blocks if blocks else 0.0,
        "workflow.submit_self_us": us("workflow.submit"),
        "blob.write_us_per_mb": per_mb("blob.write", uploaded),
        "blob.read_us_per_mb": per_mb("blob.read", row("blob.read", "bytes")),
        "blob.stage_us_per_mb": per_mb("blob.stage", uploaded),
        "blob.chunks_per_op": row("blob.read", "count") / ops,
        "runtime.pool_submit_us": us("runtime.pool_submit"),
        # the process as a whole is read off the untraced window: the shims'
        # own span list would otherwise be what grows
        "runtime.threads_peak": plain.threads_peak,
        "proc.cpu_user_ms_per_op": (plain.after.user_s - plain.before.user_s) / plain_ops * 1e3,
        "proc.cpu_sys_ms_per_op": (plain.after.sys_s - plain.before.sys_s) / plain_ops * 1e3,
        "proc.vol_ctx_per_op": plain.stack["vol_ctx"] / plain_ops,
        "proc.rss_growth_kb_per_kop": (plain.after.rss_kb - plain.before.rss_kb) / plain_ops * 1e3,
        "ops_per_s": len(plain.ok) / plain.wall_s,
        "rate_at_slo_per_s": rate_at_slo(plain.rungs) if plain.rungs else 0,
        "fail_ratio": 1 - len(plain.ok + traced.ok) / max(1, len(plain.records + traced.records)),
        "gen.late_p95_ms": percentile([r.late for r in plain.records], 95) * 1e3,
        "gen.cpu_share": plain.gen_cpu_s / plain.wall_s,
        "trace.submit_p50_ms": submit_us / 1e3,
        "trace.unattributed_share": rows.get("unattributed", 0.0) / submit_us if submit_us else 0.0,
        "trace.overhead_share": traced_p50 / plain_p50 - 1 if plain_p50 else 0.0,
        "trace.spans_per_op": trace["spans"] / ops,
    }
    if set(values) != {metric.name for metric in PER_LAYER}:
        raise RuntimeError(f"per-layer table and values disagree: {set(values) ^ {m.name for m in PER_LAYER}}")
    return values


def ladder_table(rungs: "dict[int, list[Record]]") -> "list[str]":
    lines = [f"  open-loop ladder (limit {SLO_LIMIT_S * 1e3:.0f} ms from due for {SLO_SHARE:.0%} of ops):"]
    for rate in OPEN_LOOP_LADDER:
        records = rungs.get(rate, [])
        ok = [r.latency for r in records if r.ok]
        lines.append(
            f"    {rate:4d}/s  n={len(records):5d}  p50={percentile(ok, 50) * 1e3:7.2f} ms"
            f"  p95={percentile(ok, 95) * 1e3:7.2f} ms  within={within_limit(records, SLO_LIMIT_S):6.1%}"
            f"  backlog={backlog_s(records) * 1e3:6.2f} ms"
        )
    return lines
