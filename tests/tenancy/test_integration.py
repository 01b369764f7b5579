"""Tenancy through the REST stack: quota 429s, disk metering, crash-safe
balances, and the gateway's rate limits + negative cache."""

import json
import threading

import pytest

from repro.container import ServiceContainer
from repro.gateway import ServiceGateway
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from repro.tenancy import TenantSpec
from repro.tenancy.registry import TENANT_HEADER
from tests.waiters import wait_until


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def client(registry):
    return RestClient(registry, retry_after_cap=0.0)


def work_config(gate=None):
    def run(x):
        if gate is not None and x < 0:
            gate.wait(10)
        return {"y": x * 2}

    return {
        "description": {
            "name": "work",
            "inputs": {"x": {"schema": {"type": "number"}}},
            "outputs": {"y": {"schema": {"type": "number"}}},
        },
        "adapter": "python",
        "config": {"callable": run},
    }


def blob_config():
    return {
        "description": {
            "name": "consume",
            "inputs": {"data": {"schema": {"type": "object"}}},
            "outputs": {"ok": {"schema": {"type": "boolean"}}},
        },
        "adapter": "python",
        "config": {"callable": lambda data: {"ok": True}},
    }


def submit(client, uri, tenant, x=1):
    return client.request_raw(
        "POST", uri, body=f'{{"x": {x}}}'.encode(),
        headers={TENANT_HEADER: tenant, "Content-Type": "application/json"},
    )


def wait_done(client, uri, timeout=10.0):
    return wait_until(
        lambda: (job := client.get(uri))["state"] == "DONE" and job or None,
        timeout=timeout, interval=0.01, message=f"{uri} never finished")


class TestContainerEnforcement:
    def test_over_quota_submit_answers_429_naming_tenant(self, registry, client):
        container = ServiceContainer("tq", handlers=2, registry=registry)
        tenants = container.enable_tenancy()
        tenants.register(TenantSpec(name="acme", cpu_quota=1.0))
        tenants.charge("acme", cpu=2.0)
        container.deploy(work_config())
        try:
            response = submit(client, container.service_uri("work"), "acme")
            assert response.status == 429
            assert "acme" in response.json_body["error"]
            assert response.json_body["details"]["quota"] == "cpu"
            assert float(response.headers.get("Retry-After")) > 0
            # an in-quota tenant on the same container is unaffected
            ok = submit(client, container.service_uri("work"), "other")
            assert ok.status == 201
            assert wait_done(client, ok.json_body["uri"])["results"] == {"y": 2}
        finally:
            container.shutdown()

    def test_backlog_bound_answers_429(self, registry, client):
        gate = threading.Event()
        container = ServiceContainer("tb", handlers=1, registry=registry)
        tenants = container.enable_tenancy()
        tenants.register(TenantSpec(name="bursty", max_backlog=1))
        container.deploy(work_config(gate))
        uri = container.service_uri("work")
        try:
            running = submit(client, uri, "bursty", x=-1)
            assert running.status == 201
            wait_until(lambda: client.get(running.json_body["uri"])["state"] == "RUNNING" or None,
                       timeout=5, interval=0.01, message="job never ran")
            assert submit(client, uri, "bursty", x=-2).status == 201  # fills the backlog
            rejected = submit(client, uri, "bursty", x=-3)
            assert rejected.status == 429
            assert rejected.json_body["details"]["tenant"] == "bursty"
            assert response_names_backlog(rejected)
        finally:
            gate.set()
            container.shutdown()

    def test_cpu_wall_time_is_charged_on_completion(self, registry, client):
        container = ServiceContainer("tc", handlers=2, registry=registry)
        tenants = container.enable_tenancy()
        container.deploy(work_config())
        try:
            created = submit(client, container.service_uri("work"), "acme")
            wait_done(client, created.json_body["uri"])
            wait_until(lambda: tenants.usage("acme")["cpu"] > 0 or None,
                       timeout=5, interval=0.01, message="cpu never charged")
        finally:
            container.shutdown()

    def test_disk_pinned_bytes_charged_and_refunded_on_delete(self, registry, client):
        container = ServiceContainer("td", handlers=2, registry=registry)
        tenants = container.enable_tenancy()
        container.deploy(blob_config())
        try:
            content = b"tenant-bytes" * 512
            uploaded = client.request_raw(
                "POST", container.base_uri + "/blobs", body=content,
                headers={"Content-Type": "application/octet-stream"})
            assert uploaded.status == 201
            reference = uploaded.json_body
            created = client.request_raw(
                "POST", container.service_uri("consume"),
                body=json.dumps({"data": reference}).encode(),
                headers={TENANT_HEADER: "hoarder", "Content-Type": "application/json"})
            assert created.status == 201
            job = wait_done(client, created.json_body["uri"])
            assert tenants.usage("hoarder")["disk"] == len(content)
            client.request_raw("DELETE", created.json_body["uri"])
            assert tenants.usage("hoarder")["disk"] == 0
        finally:
            container.shutdown()

    def test_disk_quota_rejects_oversized_inputs(self, registry, client):
        container = ServiceContainer("tdq", handlers=2, registry=registry)
        tenants = container.enable_tenancy()
        tenants.register(TenantSpec(name="small", disk_quota=64))
        container.deploy(blob_config())
        try:
            content = b"x" * 4096
            reference = client.request_raw(
                "POST", container.base_uri + "/blobs", body=content,
                headers={"Content-Type": "application/octet-stream"}).json_body
            rejected = client.request_raw(
                "POST", container.service_uri("consume"),
                body=json.dumps({"data": reference}).encode(),
                headers={TENANT_HEADER: "small", "Content-Type": "application/json"})
            assert rejected.status == 429
            assert rejected.json_body["details"]["quota"] == "disk"
        finally:
            container.shutdown()


def response_names_backlog(response):
    return "backlog" in response.json_body["error"].lower()


class TestParkedSubmitIsSampled:
    def test_waited_submit_lands_one_201_sample_when_it_renders(self, registry, client):
        """A waited submit parks on the event loop: the gated request is
        the parked one, so its per-tenant sample must land at render time
        (status 201, the whole wait) instead of being skipped."""
        container = ServiceContainer("tp", handlers=2, registry=registry)
        container.enable_tenancy().register(TenantSpec(name="acme"))
        gate = threading.Event()
        container.deploy(work_config(gate))
        container.serve(port=0)
        box = {}

        def waited():
            box["response"] = client.request_raw(
                "POST", container.service_uri("work"), query={"wait": 10},
                body=b'{"x": -1}', headers={TENANT_HEADER: "acme"},
            )

        try:
            thread = threading.Thread(target=waited)
            thread.start()
            wait_until(lambda: container.service("work").jobs.list(), message="no job")
            threading.Event().wait(0.2)  # parked well past creation
            assert 'tenant="acme",status="201"' not in container.metrics.render()
            gate.set()
            thread.join(timeout=8)
            assert not thread.is_alive()
            assert box["response"].status == 201
            assert box["response"].json_body["state"] == "DONE"
            page = container.metrics.render()
            assert 'mc_tenant_requests_total{tenant="acme",status="201"} 1' in page
            assert 'mc_tenant_request_seconds_count{tenant="acme"} 1' in page
            seconds = float(next(
                line for line in page.splitlines()
                if line.startswith('mc_tenant_request_seconds_sum{tenant="acme"}')
            ).split()[-1])
            assert seconds >= 0.2  # the full duration, not just up to the park
        finally:
            gate.set()
            container.shutdown()


class TestCrashSafeAccounting:
    def _container(self, registry, tmp_path):
        container = ServiceContainer(
            "tdur", handlers=1, registry=registry, journal_dir=tmp_path)
        tenants = container.enable_tenancy()
        container.deploy(work_config())
        return container, tenants

    def test_balances_survive_a_cold_restart(self, registry, client, tmp_path):
        first, tenants = self._container(registry, tmp_path)
        created = submit(client, first.service_uri("work"), "acme")
        wait_done(client, created.json_body["uri"])
        wait_until(lambda: tenants.usage("acme")["cpu"] > 0 or None,
                   timeout=5, interval=0.01, message="cpu never charged")
        before = tenants.usage("acme")
        first.crash()

        second, recovered = self._container(registry, tmp_path)
        try:
            assert recovered.usage("acme") == before
        finally:
            second.shutdown()

    def test_balances_survive_compaction_then_restart(self, registry, client, tmp_path):
        first, tenants = self._container(registry, tmp_path)
        created = submit(client, first.service_uri("work"), "acme")
        wait_done(client, created.json_body["uri"])
        wait_until(lambda: tenants.usage("acme")["cpu"] > 0 or None,
                   timeout=5, interval=0.01, message="cpu never charged")
        tenants.charge("acme", disk=512)
        before = tenants.usage("acme")
        first.compact()
        first.crash()

        second, recovered = self._container(registry, tmp_path)
        try:
            assert recovered.usage("acme") == before
            # deltas journaled after the snapshot stack on top of it
            recovered.charge("acme", disk=10)
            assert recovered.usage("acme")["disk"] == before["disk"] + 10
        finally:
            second.shutdown()


class TestGatewayLimits:
    @pytest.fixture()
    def cell(self, registry):
        container = ServiceContainer("tgw-replica", handlers=2, registry=registry)
        container.deploy(work_config())
        gateway = ServiceGateway(registry=registry, name="tgw")
        gateway.add_replica(container.local_base)
        yield container, gateway
        gateway.shutdown()
        container.shutdown()

    def test_rate_limited_tenant_gets_429_with_retry_after(self, cell, client):
        _, gateway = cell
        tenants = gateway.enable_tenancy()
        tenants.register(TenantSpec(name="chatty", rate=0.001, burst=1.0))
        uri = gateway.service_uri("work")
        assert submit(client, uri, "chatty").status == 201
        shed = submit(client, uri, "chatty")
        assert shed.status == 429
        assert "chatty" in shed.json_body["error"]
        assert shed.json_body["details"]["reason"] == "rate"
        retry_after = float(shed.headers.get("Retry-After"))
        assert 0 < retry_after <= gateway.retry_after_cap
        # other tenants keep flowing
        assert submit(client, uri, "calm").status == 201

    def test_replica_quota_shed_is_negative_cached_at_the_gateway(
            self, registry, client):
        container = ServiceContainer("tnc-replica", handlers=2, registry=registry)
        replica_tenants = container.enable_tenancy()
        replica_tenants.register(TenantSpec(name="broke", cpu_quota=1.0))
        replica_tenants.charge("broke", cpu=5.0)
        container.deploy(work_config())
        gateway = ServiceGateway(registry=registry, name="tnc")
        gateway.add_replica(container.local_base)
        gateway.enable_tenancy()
        try:
            uri = gateway.service_uri("work")
            first = submit(client, uri, "broke")
            assert first.status == 429  # forwarded: the replica shed it
            assert first.json_body["details"]["quota"] == "cpu"
            assert gateway.tenant_gate.suspended_for("broke") > 0
            second = submit(client, uri, "broke")
            assert second.status == 429  # shed here, without a forward
            assert second.json_body["details"]["reason"] == "suspended"
            # in-quota tenants still reach the replica
            assert submit(client, uri, "solvent").status == 201
        finally:
            gateway.shutdown()
            container.shutdown()
