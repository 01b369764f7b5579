"""Every registered metric family renders — and failures are counted.

A family that is registered but never renders is invisible breakage: the
result cache's ``mc_cache_lookups_total`` / ``mc_cache_removals_total``
collectors called ``cache.stats()`` on a property, raised ``TypeError``
on every scrape, and the registry swallowed it, so neither family ever
appeared on any ``/metrics`` page. Two guards against a repeat:

- on a fully loaded container (journal + cache + tenancy + a blob + one
  job per state), a journaled WMS with one run, a gateway with two
  replicas, a journaled catalogue and the PaaS front door, every
  registered family name renders at least one sample;
- a collector or scrape hook that raises still never breaks the scrape,
  but shows up as ``mc_metrics_collector_errors_total{family}`` on the
  same page.
"""

import threading

import pytest

from repro.catalogue import CatalogueService
from repro.container import ServiceContainer
from repro.gateway import ServiceGateway
from repro.http.client import ClientError, RestClient
from repro.http.registry import TransportRegistry
from repro.observability import parse_metrics
from repro.paas import PlatformService
from repro.runtime.metrics import COLLECTOR_ERRORS, MetricsRegistry
from repro.tenancy import TenantSpec
from repro.workflow.wms import WorkflowManagementService
from tests.durability.test_participants import workflow_document
from tests.waiters import wait_until

TENANT = {"X-Tenant": "acme"}


def work_config(gate: threading.Event):
    """Doubles ``x``; negative inputs block on ``gate``, zero fails."""

    def run(x):
        if x < 0:
            gate.wait(10)
        if x == 0:
            raise ValueError("zero is not welcome")
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


def scrape(host):
    """The host's ``/metrics`` page as served, parsed."""
    response = host.registry.request("GET", f"{host.base_uri}/metrics")
    assert response.status == 200
    return parse_metrics(response.body.decode())


def assert_every_family_renders(host, idle=()):
    """Each registered family has a sample on the served page; ``idle``
    names event counters whose event this fixture cannot cause."""
    page = scrape(host)
    registered = {family.name for family in host.metrics.families()}
    silent = sorted(
        name for name in registered - set(idle)
        if name not in page or not page[name].samples
    )
    assert silent == []
    assert COLLECTOR_ERRORS not in page
    return page


class TestEveryFamilyRenders:
    def test_fully_loaded_container(self, tmp_path):
        gate = threading.Event()
        container = ServiceContainer(
            "loaded", handlers=1, registry=TransportRegistry(), journal_dir=tmp_path,
            cache=True)
        tenants = container.enable_tenancy()
        tenants.register(TenantSpec("acme", cpu_quota=3600.0, disk_quota=1 << 30))
        container.deploy(work_config(gate))
        client = RestClient(container.registry).with_headers(TENANT)
        uri = container.service_uri("work")
        try:
            container.blobs.put_bytes(b"one blob")
            done = client.post(uri, {"x": 1})
            wait_until(lambda: client.get(done["uri"])["state"] == "DONE")
            assert client.post(uri, {"x": 1})["id"] == done["id"]  # hit
            assert client.post(uri, {"x": 1})["id"] == done["id"]  # hit
            failed = client.post(uri, {"x": 0})
            wait_until(lambda: client.get(failed["uri"])["state"] == "FAILED")
            running = client.post(uri, {"x": -1})  # holds the only handler
            wait_until(lambda: client.get(running["uri"])["state"] == "RUNNING")
            client.post(uri, {"x": 2})  # WAITING behind it
            cancelled = client.post(uri, {"x": 3})
            client.delete(cancelled["uri"])  # CANCELLED while queued; DELETE drops it

            # the replica-side gate attributes but never sheds
            page = assert_every_family_renders(container, idle={"mc_tenant_shed_total"})
            states = {s.labels["state"]: s.value for s in page["mc_jobs"].samples}
            assert states == {"DONE": 1, "FAILED": 1, "RUNNING": 1, "WAITING": 1}
            lookups = {s.labels["outcome"]: s.value
                       for s in page["mc_cache_lookups_total"].samples}
            assert lookups == {"hit": 2, "coalesced": 0, "miss": 5}
            removals = {s.labels["reason"]: s.value
                        for s in page["mc_cache_removals_total"].samples}
            assert removals == {"evicted": 0, "expired": 0, "invalidated": 1}
            assert page["mc_journal_append_failures_total"].total() == 0
        finally:
            gate.set()
            container.shutdown(wait=False)

    def test_journaled_wms_with_one_run(self, tmp_path):
        wms = WorkflowManagementService(
            "loaded-wms", registry=TransportRegistry(), journal_dir=tmp_path)
        client = RestClient(wms.registry)
        try:
            created = client.post(f"{wms.base_uri}/workflows", workflow_document("double"))
            run = client.post(created["service_uri"], {"n": 4})
            wait_until(lambda: client.get(run["uri"])["state"] == "DONE")
            page = assert_every_family_renders(wms)
            assert page["mc_journal_records_total"].total() >= 6
        finally:
            wms.shutdown()

    def test_gateway_with_two_replicas(self):
        registry = TransportRegistry()
        gate = threading.Event()
        gate.set()
        replicas = [ServiceContainer(name, registry=registry, cache=True) for name in ("r0", "r1")]
        gateway = ServiceGateway(registry=registry, name="loaded-gw")
        gateway.enable_tenancy().register(
            TenantSpec("acme", rate=1.0, burst=1.0, cpu_quota=3600.0, disk_quota=1 << 30))
        client = RestClient(registry).with_headers(TENANT)
        try:
            for replica in replicas:
                replica.deploy(work_config(gate))
                gateway.add_replica(replica.base_uri, replica_id=replica.name)
            job = client.post(gateway.service_uri("work"), {"x": 1})
            wait_until(lambda: client.get(job["uri"])["state"] == "DONE")
            with pytest.raises(ClientError):  # over the token bucket: shed
                for _ in range(3):
                    client.post(gateway.service_uri("work"), {"x": 1})
            assert_every_family_renders(gateway)
        finally:
            gateway.shutdown()
            for replica in replicas:
                replica.shutdown(wait=False)

    def test_journaled_catalogue_with_a_dead_entry(self, tmp_path):
        registry = TransportRegistry()
        container = ServiceContainer("listed", registry=registry)
        catalogue = CatalogueService(registry=registry, journal_dir=tmp_path)
        client = RestClient(registry, base=catalogue.local_base)
        try:
            for name in ("alive", "dead"):
                container.deploy({**work_config(threading.Event()),
                                  "description": {"name": name, "inputs": {}, "outputs": {}}})
                client.post("/services", payload={"uri": container.service_uri(name)})
            container.undeploy("dead")
            client.post("/ping")
            page = assert_every_family_renders(catalogue)
            assert page["mc_catalogue_entries"].value(status="up") == 1
            assert page["mc_catalogue_entries"].value(status="down") == 1
            assert page["mc_journal_records_total"].total() == 2
        finally:
            catalogue.shutdown()
            container.shutdown()

    def test_paas_front_door_after_a_sign_up(self):
        paas = PlatformService()
        try:
            client = RestClient(paas.registry, base=paas.local_base)
            client.post("/tenants", payload={"name": "lab", "owner": "CN=alice"})
            page = assert_every_family_renders(paas)
            assert page["mc_http_requests_total"].total() >= 1
        finally:
            paas.shutdown()


class TestCollectorErrorsAreCounted:
    def test_broken_collector_is_counted_and_the_page_stays_intact(self):
        metrics = MetricsRegistry("errors")
        metrics.counter("mc_fine_total", "A healthy family.").inc()
        metrics.collector("mc_broken", "Raises at scrape time.", "gauge", lambda: 1 / 0)
        metrics.collector("mc_zebra", "Sorts after the error counter.", "gauge", lambda: 7)
        page = parse_metrics(metrics.render())
        assert "mc_broken" not in page
        assert page["mc_fine_total"].total() == 1
        assert page["mc_zebra"].total() == 7
        assert page[COLLECTOR_ERRORS].value(family="mc_broken") == 1
        assert parse_metrics(metrics.render())[COLLECTOR_ERRORS].value(family="mc_broken") == 2

    def test_broken_scrape_hook_is_counted(self):
        metrics = MetricsRegistry("errors")

        def flush_samples():
            raise RuntimeError("buffer gone")

        metrics.on_scrape(flush_samples)
        page = parse_metrics(metrics.render())
        errors = page[COLLECTOR_ERRORS]
        assert [s.value for s in errors.samples] == [1]
        assert "flush_samples" in errors.samples[0].labels["family"]
