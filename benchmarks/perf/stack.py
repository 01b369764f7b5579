"""The system under test: the fully composed stack, in a process of its own.

Two journaled replica containers (result cache, tenancy, observability on)
deploying ``work`` and ``sink``; a consistent-hash gateway with tenancy over
both; a journaled workflow management service publishing ``fan``, whose
service blocks call ``work`` through the gateway. Everything listens on an
ephemeral loopback port and keeps its files under ``--work-dir``.

Run as a script by ``run.py``, which talks to it over stdin/stdout, one
JSON object per line: the stack announces its URLs, then answers ``mark``
(start of the measured window), ``finish`` (counters, scrape timings and —
with ``--trace`` — the span summary for the window) and exits on EOF.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    del sys.path[0]  # a script's own directory would shadow stdlib names
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.perf import spans  # noqa: E402
from benchmarks.perf.workloads import TENANTS  # noqa: E402

REPLICAS = ("r0", "r1")


def work_config() -> dict:
    return {
        "description": {
            "name": "work",
            "inputs": {"x": {"schema": {"type": "number"}}},
            "outputs": {"y": {"schema": {"type": "number"}}},
        },
        "adapter": "python",
        "config": {"callable": lambda x: {"y": 2 * x}},
    }


def sink_config() -> dict:
    def consume(context, data):
        hasher, size = hashlib.sha256(), 0
        for piece in context.open_blob(data):
            hasher.update(piece)
            size += len(piece)
        return {"digest": hasher.hexdigest(), "size": size}

    return {
        "description": {
            "name": "sink",
            "inputs": {"data": {"schema": {"type": "object"}}},
            "outputs": {
                "digest": {"schema": {"type": "string"}},
                "size": {"schema": {"type": "integer"}},
            },
        },
        "adapter": "python",
        "config": {"callable": consume},
    }


def fan_workflow(work_uri: str, registry):
    """``out = 16 n``: four branches fed n-3, n-1, n+1, n+3 (distinct, so the
    engine's memo and the replicas' caches never collapse them), each
    doubling twice through ``work``, summed by one script block."""
    from repro.workflow.model import (
        DataType, InputBlock, OutputBlock, ScriptBlock, ServiceBlock, Workflow,
    )

    offsets = (-3, -1, 1, 3)
    workflow = Workflow("fan")
    workflow.add(InputBlock("n", type=DataType.NUMBER))
    workflow.add(ScriptBlock(
        "scatter",
        code="\n".join(f"x{i} = n + ({offset})" for i, offset in enumerate(offsets)),
        input_names=["n"], output_names=[f"x{i}" for i in range(len(offsets))],
    ))
    workflow.connect("n.value", "scatter.n")
    workflow.add(ScriptBlock(
        "gather", code="out = " + " + ".join(f"y{i}" for i in range(len(offsets))),
        input_names=[f"y{i}" for i in range(len(offsets))], output_names=["out"],
    ))
    for i in range(len(offsets)):
        for stage in ("a", "b"):
            block = ServiceBlock(f"{stage}{i}", uri=work_uri)
            block.introspect(registry)
            workflow.add(block)
        workflow.connect(f"scatter.x{i}", f"a{i}.x")
        workflow.connect(f"a{i}.y", f"b{i}.x")
        workflow.connect(f"b{i}.y", f"gather.y{i}")
    workflow.add(OutputBlock("out", type=DataType.NUMBER))
    workflow.connect("gather.out", "out.value")
    return workflow


class Stack:
    def __init__(self, work_dir: Path, tracer: "spans.Tracer | None"):
        from repro.container import ServiceContainer
        from repro.gateway import ServiceGateway
        from repro.http.registry import TransportRegistry
        from repro.tenancy import TenantSpec
        from repro.workflow.wms import WorkflowManagementService

        self.work_dir = work_dir
        self.tracer = tracer
        self.since = 0

        def declare(tenants):
            for name, weight in TENANTS:
                tenants.register(TenantSpec(name, weight=weight))

        self.replicas, self.servers = [], []
        for name in REPLICAS:
            replica = ServiceContainer(
                name, registry=TransportRegistry(), journal_dir=work_dir / name,
                journal_fsync="batch", cache=True,
            )
            declare(replica.enable_tenancy())
            replica.deploy(work_config())
            replica.deploy(sink_config())
            self.servers.append(replica.serve())
            self.replicas.append(replica)
        self.gateway = ServiceGateway(registry=TransportRegistry(), name="gw", policy="consistent-hash")
        declare(self.gateway.enable_tenancy())
        for replica in self.replicas:
            self.gateway.add_replica(replica.base_uri, replica_id=replica.name)
        self.servers.append(self.gateway.serve())
        self.wms = WorkflowManagementService(
            "wms", registry=TransportRegistry(), journal_dir=work_dir / "wms", journal_fsync="batch",
        )
        self.servers.append(self.wms.serve())
        self.wms.deploy_workflow(fan_workflow(self.gateway.service_uri("work"), self.wms.registry))
        if tracer is not None:
            tracer.handler_names[id(self.gateway.app.router)] = "gateway.self"
        self.urls = {replica.name: replica.base_uri for replica in self.replicas}
        self.urls.update(gateway=self.gateway.base_uri, wms=self.wms.base_uri)

    # ------------------------------------------------------------ counters

    def counters(self) -> dict:
        """Counts the layers keep themselves, read through public surfaces."""
        cache = [replica.cache.stats for replica in self.replicas]
        return {
            "cache_hits": sum(s.hits + s.coalesced for s in cache),
            "cache_misses": sum(s.misses for s in cache),
            "journal_bytes": sum(
                path.stat().st_size for path in self.work_dir.rglob("*") if path.is_file()
                and not {"blobs", "tmp"} & set(path.relative_to(self.work_dir).parts)
            ),
            "vol_ctx": resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw,
            "conns_accepted": sum(server.stats()["connections_accepted"] for server in self.servers),
            "jobs_failed": sum(
                1 for replica in self.replicas for service in replica.services
                for job in service.jobs.list() if job.state.value == "FAILED"
            ),
        }

    def scrape(self) -> dict:
        """One ``GET /metrics`` per app: pays the deferred aggregation, and
        reads the sheds and forward attempts the apps counted."""
        from repro.observability import parse_metrics

        totals = {"scrape_s": 0.0, "mc_tenant_shed_total": 0.0, "mc_gateway_forward_attempts_total": 0.0}
        for url in self.urls.values():
            start = time.perf_counter()
            response = self.gateway.registry.request("GET", f"{url}/metrics")
            totals["scrape_s"] += time.perf_counter() - start
            families = parse_metrics(response.body.decode())
            for name in totals:
                if name in families:
                    totals[name] += families[name].total()
        return totals

    # ------------------------------------------------------------ protocol

    def mark(self) -> dict:
        self._at_mark = {**self.counters(), **self.scrape()}
        self.since = time.perf_counter_ns()
        return {"ok": True}

    def finish(self) -> dict:
        until = time.perf_counter_ns()
        now = {**self.counters(), **self.scrape()}
        reply = {
            key: now[key] - self._at_mark[key]
            for key in now if key != "scrape_s"
        }
        reply["scrape_s"] = now["scrape_s"]
        if self.tracer is not None:
            reply["trace"] = spans.summarize(list(self.tracer.spans), self.since, until)
        return reply

    def close(self) -> None:
        self.wms.shutdown()
        self.gateway.shutdown()
        for replica in self.replicas:
            replica.shutdown(wait=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = restore = None
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
    stack = Stack(args.work_dir, tracer)
    try:
        print(json.dumps({"pid": os.getpid(), "urls": stack.urls}), flush=True)
        for line in sys.stdin:
            command = {"mark": stack.mark, "finish": stack.finish}[json.loads(line)["cmd"]]
            print(json.dumps(command()), flush=True)
    finally:
        stack.close()
        if restore is not None:
            restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
