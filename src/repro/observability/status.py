"""The gateway's platform-wide ``/status`` aggregate.

``gateway_status`` fans out to every replica's ``/metrics`` resource,
parses the exposition pages, and merges them into one document: per-
replica health (reachability, scrape outcome, request counts, error
rate, queue depth) plus platform percentiles computed by summing the
replicas' latency histogram buckets — the same estimate an external
Prometheus would produce with ``histogram_quantile`` over a ``sum by
(le)``.  A replica that cannot be scraped is reported, not omitted:
missing eyes are themselves a health signal.

``verify_trace_tree`` is the shared invariant checker for trace trees —
used by the hypothesis property tests, the chaos schedules, and anyone
debugging a trace by hand.
"""

from __future__ import annotations

from typing import Any

from repro.observability.promtext import Family, histogram_quantile, parse_metrics

__all__ = ["gateway_status", "verify_trace_tree"]

#: Slack for comparing wall-clock span starts taken on different
#: monotonic bases (start is time.time(), duration is perf_counter
#: delta), and across processes on one host.
_CLOCK_SLACK = 0.050


def _merge_buckets(target: dict[float, float], family: "Family | None",
                   method: str = "POST") -> None:
    if family is None:
        return
    for bound, count in family.buckets(method=method):
        target[bound] = target.get(bound, 0.0) + count


def _scrape_summary(families: dict[str, Family]) -> dict[str, Any]:
    requests = families.get("mc_http_requests_total")
    total = errors = 0.0
    if requests is not None:
        for sample in requests.samples:
            total += sample.value
            if sample.labels.get("status", "").startswith("5"):
                errors += sample.value
    summary: dict[str, Any] = {
        "requests_total": total,
        "error_rate": (errors / total) if total else 0.0,
    }
    queued = families.get("mc_pool_queued")
    if queued is not None:
        summary["queue_depth"] = queued.total()
    jobs = families.get("mc_jobs")
    if jobs is not None:
        summary["jobs"] = {
            sample.labels.get("state", "?"): sample.value for sample in jobs.samples
        }
    latency = families.get("mc_http_request_seconds")
    if latency is not None:
        buckets = latency.buckets(method="POST")
        if buckets and buckets[-1][1]:
            summary["submit_p99_seconds"] = histogram_quantile(0.99, buckets)
    return summary


def _merge_tenant_families(tenants: dict[str, dict], families: dict[str, Family]) -> None:
    """Fold one process's per-tenant families into the aggregate."""

    def row(tenant: str) -> dict:
        return tenants.setdefault(tenant, {
            "requests_total": 0.0, "shed_total": 0.0,
            "cpu_seconds_used": 0.0, "disk_bytes_used": 0.0,
            "_buckets": {},
        })

    for name, key in (("mc_tenant_requests_total", "requests_total"),
                      ("mc_tenant_shed_total", "shed_total"),
                      ("mc_tenant_cpu_seconds_used", "cpu_seconds_used"),
                      ("mc_tenant_disk_bytes_used", "disk_bytes_used")):
        family = families.get(name)
        if family is None:
            continue
        for sample in family.samples:
            tenant = sample.labels.get("tenant")
            if tenant:
                row(tenant)[key] += sample.value
    latency = families.get("mc_tenant_request_seconds")
    if latency is not None:
        seen = {s.labels.get("tenant") for s in latency.samples}
        for tenant in sorted(t for t in seen if t):
            buckets = row(tenant)["_buckets"]
            for bound, count in latency.buckets(tenant=tenant):
                buckets[bound] = buckets.get(bound, 0.0) + count


def _tenant_report(tenants: dict[str, dict], gate: Any) -> dict[str, dict]:
    """Finish the aggregate: percentiles from merged buckets, quota
    standings from the gateway's own registry."""
    standings = {}
    if gate is not None:
        standings = {
            entry["tenant"]: entry for entry in gate.registry.standings()
        }
        for tenant in standings:
            tenants.setdefault(tenant, {
                "requests_total": 0.0, "shed_total": 0.0,
                "cpu_seconds_used": 0.0, "disk_bytes_used": 0.0,
                "_buckets": {},
            })
    report: dict[str, dict] = {}
    for tenant, row in sorted(tenants.items()):
        buckets = sorted(row.pop("_buckets").items(), key=lambda pair: pair[0])
        if buckets and buckets[-1][1]:
            row["latency_seconds"] = {
                f"p{int(q * 100)}": histogram_quantile(q, buckets)
                for q in (0.5, 0.9, 0.99)
            }
        standing = standings.get(tenant)
        if standing is not None:
            row["quota"] = {
                "weight": standing["weight"],
                "priority": standing["priority"],
                "cpu_quota": standing["cpu_quota"],
                "disk_quota": standing["disk_quota"],
                "over_quota": standing["over_quota"],
            }
        report[tenant] = row
    return report


def gateway_status(gateway: Any) -> dict[str, Any]:
    """Aggregate the fleet's metrics into one status document."""
    merged_buckets: dict[float, float] = {}
    total_requests = total_errors = 0.0
    queue_depth = 0.0
    jobs: dict[str, float] = {}
    tenants: dict[str, dict] = {}
    replicas: list[dict[str, Any]] = []
    healthy = 0

    for entry in gateway.replicas.snapshot():
        report: dict[str, Any] = {
            "id": entry["id"],
            "url": entry["url"],
            "state": entry["state"],
            "in_flight": entry["in_flight"],
        }
        if entry["state"] == "HEALTHY":
            healthy += 1
        try:
            response = gateway.registry.request("GET", entry["url"] + "/metrics")
            if response.status != 200:
                raise ValueError(f"scrape answered {response.status}")
            families = parse_metrics(response.body.decode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - unreachable replica is a *finding*
            report["scrape"] = f"error: {exc}"
            replicas.append(report)
            continue
        report["scrape"] = "ok"
        summary = _scrape_summary(families)
        report["metrics"] = summary
        total_requests += summary["requests_total"]
        total_errors += summary["error_rate"] * summary["requests_total"]
        queue_depth += summary.get("queue_depth", 0.0)
        for state, count in summary.get("jobs", {}).items():
            jobs[state] = jobs.get(state, 0.0) + count
        _merge_buckets(merged_buckets, families.get("mc_http_request_seconds"))
        _merge_tenant_families(tenants, families)
        replicas.append(report)

    gate = getattr(gateway, "tenant_gate", None)
    if gateway.metrics is not None and gate is not None:
        # the gateway's own shed counters and rate-limit view
        _merge_tenant_families(tenants, parse_metrics(gateway.metrics.render()))

    ordered = sorted(merged_buckets.items(), key=lambda pair: pair[0])
    percentiles = {
        f"p{int(q * 100)}": histogram_quantile(q, ordered)
        for q in (0.5, 0.9, 0.99)
    } if ordered and ordered[-1][1] else {}

    handoffs = getattr(gateway, "handoffs", None)
    autoscaler = getattr(gateway, "autoscaler", None)
    return {
        "gateway": gateway.name,
        "uri": gateway.base_uri,
        "policy": gateway.policy_name,
        "retry_budget": gateway.retry_budget.balance,
        "idempotency_entries": len(gateway.idempotency),
        "cache": gateway.cache_stats,
        "data_home": gateway.data_home_stats,
        "replicas": replicas,
        "handoffs": handoffs.snapshot() if handoffs is not None else {},
        "autoscaler": autoscaler.snapshot() if autoscaler is not None else None,
        "tenants": _tenant_report(tenants, gate),
        "platform": {
            "replicas_total": len(replicas),
            "replicas_healthy": healthy,
            "replicas_draining": sum(
                1 for entry in gateway.replicas.snapshot() if entry.get("draining")
            ),
            "requests_total": total_requests,
            "error_rate": (total_errors / total_requests) if total_requests else 0.0,
            "queue_depth": queue_depth,
            "jobs": jobs,
            "submit_latency_seconds": percentiles,
        },
    }


def verify_trace_tree(spans: list[dict], complete: bool = True) -> list[str]:
    """Check the trace-tree invariants over a flat span list.

    Returns a list of violation descriptions (empty = well-formed):

    - span ids unique; durations non-negative
    - with ``complete=True``: exactly one root, and every parent id
      resolves within the list
    - a parent never starts after its child (within clock slack)
    - a ``child``-linked span's interval nests inside its parent's
      (``follows``-linked spans only need the start ordering: they
      outlive the request span that caused them)
    """
    problems: list[str] = []
    by_id: dict[str, dict] = {}
    for record in spans:
        span_id = record.get("span_id")
        if span_id in by_id:
            problems.append(f"duplicate span id {span_id}")
        by_id[span_id] = record
        if record.get("duration", 0) < 0:
            problems.append(f"negative duration on {record.get('name')} ({span_id})")

    roots = [s for s in spans if not s.get("parent_id") or s["parent_id"] not in by_id]
    if complete:
        named_roots = [s for s in roots if not s.get("parent_id")]
        orphans = [s for s in roots if s.get("parent_id")]
        for orphan in orphans:
            problems.append(
                f"span {orphan.get('name')} ({orphan['span_id']}) references "
                f"missing parent {orphan['parent_id']}"
            )
        if len(named_roots) != 1:
            problems.append(f"expected a single root span, found {len(named_roots)}")

    trace_ids = {s.get("trace_id") for s in spans}
    if len(trace_ids) > 1:
        problems.append(f"spans from {len(trace_ids)} different traces mixed together")

    for record in spans:
        parent = by_id.get(record.get("parent_id") or "")
        if parent is None:
            continue
        if record["start"] < parent["start"] - _CLOCK_SLACK:
            problems.append(
                f"span {record.get('name')} starts before its parent "
                f"{parent.get('name')} ({record['start']:.6f} < {parent['start']:.6f})"
            )
        if record.get("link", "child") == "child":
            parent_end = parent["start"] + parent.get("duration", 0.0)
            child_end = record["start"] + record.get("duration", 0.0)
            if child_end > parent_end + _CLOCK_SLACK:
                problems.append(
                    f"child span {record.get('name')} ends {child_end - parent_end:.6f}s "
                    f"after its parent {parent.get('name')}"
                )
    return problems
