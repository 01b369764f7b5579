"""The gateway's ``/status`` aggregate over a live two-replica fleet."""

import json

import pytest

from repro.container import ServiceContainer
from repro.gateway import CircuitBreaker, ServiceGateway
from repro.http.registry import TransportRegistry
from repro.observability import gateway_status, parse_metrics
from tests.waiters import wait_for_state, wait_until

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
def fleet():
    registry = TransportRegistry()
    replicas = []
    for name in ("status-a", "status-b"):
        container = ServiceContainer(name, handlers=2, registry=registry)
        container.deploy(_ADD)
        replicas.append(container)
    gateway = ServiceGateway(registry=registry, name="status-gw",
                             policy="round-robin")
    for container in replicas:
        gateway.add_replica(container.local_base)
    yield registry, gateway, replicas
    gateway.shutdown()
    for container in replicas:
        container.shutdown()


def _submit(registry, gateway, count=6):
    for index in range(count):
        response = registry.request(
            "POST", f"{gateway.base_uri}/services/add",
            body=json.dumps({"a": index, "b": 1}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 201
        wait_for_state(
            lambda uri=response.json_body["uri"]:
                registry.request("GET", uri).json_body)


def _status(registry, gateway):
    response = registry.request("GET", f"{gateway.base_uri}/status")
    assert response.status == 200
    return response.json_body


class TestStatusAggregation:
    def test_document_shape(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway)
        document = _status(registry, gateway)
        assert document["gateway"] == "status-gw"
        assert document["policy"] == "round-robin"
        assert isinstance(document["retry_budget"], (int, float))
        assert len(document["replicas"]) == 2
        platform = document["platform"]
        assert platform["replicas_total"] == 2
        assert platform["replicas_healthy"] == 2

    def test_every_replica_scraped_and_counted(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway)
        document = _status(registry, gateway)
        per_replica = 0.0
        for report in document["replicas"]:
            assert report["scrape"] == "ok"
            assert report["state"] == "HEALTHY"
            assert report["metrics"]["requests_total"] > 0
            per_replica += report["metrics"]["requests_total"]
        assert document["platform"]["requests_total"] == per_replica

    def test_platform_percentiles_come_from_merged_buckets(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway)
        latency = _status(registry, gateway)["platform"]["submit_latency_seconds"]
        assert set(latency) == {"p50", "p90", "p99"}
        assert 0.0 < latency["p50"] <= latency["p90"] <= latency["p99"]

    def test_job_states_summed_across_fleet(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway, count=4)
        # job-state gauges flip DONE asynchronously with the client's view
        wait_until(
            lambda: _status(registry, gateway)["platform"]["jobs"].get("DONE") == 4,
            message="platform job-state aggregate never reached 4 DONE",
        )

    def test_error_rate_reflects_server_errors_only(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway, count=3)
        # 4xx traffic must not count as platform errors
        for replica in fleet[2]:
            assert registry.request(
                "GET", f"{replica.local_base}/services/missing").status == 404
        document = _status(registry, gateway)
        assert document["platform"]["error_rate"] == 0.0

    def test_unscrapable_replica_is_reported_not_omitted(self, fleet):
        registry, gateway, replicas = fleet
        _submit(registry, gateway, count=2)
        dark = ServiceContainer("status-dark", registry=registry,
                                observability=False)
        try:
            dark.deploy(_ADD)
            gateway.add_replica(dark.local_base)
            document = _status(registry, gateway)
            assert len(document["replicas"]) == 3
            by_url = {r["url"]: r for r in document["replicas"]}
            report = by_url[dark.local_base.rstrip("/")] \
                if dark.local_base.rstrip("/") in by_url else by_url[dark.local_base]
            assert report["scrape"].startswith("error:")
            assert "metrics" not in report
            # the healthy pair still aggregates
            assert document["platform"]["requests_total"] > 0
        finally:
            dark.shutdown()

    def test_status_route_matches_helper(self, fleet):
        registry, gateway, _ = fleet
        _submit(registry, gateway, count=1)
        over_http = _status(registry, gateway)
        in_process = gateway_status(gateway)
        # scrape counters move between the two calls; compare the stable shape
        assert over_http.keys() == in_process.keys()
        assert (over_http["platform"]["replicas_total"]
                == in_process["platform"]["replicas_total"])


def test_breaker_state_gauge_follows_the_breaker():
    registry = TransportRegistry()
    now = [0.0]
    gateway = ServiceGateway(registry=registry, name="gauge-gw")
    try:
        replica = gateway.add_replica("local://nowhere")
        replica.breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: now[0])

        def gauge():
            page = registry.request("GET", f"{gateway.base_uri}/metrics").body.decode()
            [sample] = parse_metrics(page)["mc_gateway_breaker_state"].samples
            assert sample.labels == {"replica": replica.id}
            return sample.value

        assert gauge() == 0  # closed
        replica.breaker.record_failure()
        assert gauge() == 1  # open
        now[0] += 6.0
        assert gauge() == 2  # half-open
    finally:
        gateway.shutdown()
