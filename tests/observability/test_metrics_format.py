"""Exposition-format conformance for ``GET /metrics``, over every transport.

One parametrized fixture serves the same loaded container two ways —
in-process ``local://`` and over the event-loop TCP server — and the
same assertions run against each: correct content type,
strictly parseable exposition text, valid names, HELP/TYPE headers for
every family, enough metric families to be useful, monotone counters
across scrapes, and label escaping that survives the wire.
"""

import json
import re

import pytest

from repro.container import ServiceContainer
from repro.http.registry import TransportRegistry
from repro.observability import METRICS_CONTENT_TYPE, parse_metrics
from tests.waiters import wait_for_state

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_SERVICE = {
    "description": {
        "name": "add",
        "inputs": {
            "a": {"schema": {"type": "number"}},
            "b": {"schema": {"type": "number"}},
        },
        "outputs": {"sum": {"schema": {"type": "number"}}},
    },
    "adapter": "python",
    "config": {"callable": lambda a, b: {"sum": a + b}},
}

TRANSPORTS = ("local", "eventloop")


class Endpoint:
    """One container reachable at ``base`` through ``registry``."""

    def __init__(self, container, registry, base):
        self.container = container
        self.registry = registry
        self.base = base

    def get(self, path, **kwargs):
        return self.registry.request("GET", self.base + path, **kwargs)

    def submit(self, a, b):
        return self.registry.request(
            "POST",
            f"{self.base}/services/add",
            body=json.dumps({"a": a, "b": b}).encode(),
            headers={"Content-Type": "application/json"},
        )

    def scrape(self):
        response = self.get("/metrics")
        assert response.status == 200
        return response


@pytest.fixture(params=TRANSPORTS)
def endpoint(request):
    registry = TransportRegistry()
    container = ServiceContainer(f"fmt-{request.param}", registry=registry)
    container.deploy(_SERVICE)
    if request.param == "local":
        base = container.local_base
    else:
        server = container.serve()
        base = server.base_url
    point = Endpoint(container, registry, base)
    # generate representative load before any scrape: successes, a 404,
    # and a validation failure, so the counters have labelled children
    for index in range(3):
        response = point.submit(index, 1)
        assert response.status == 201
        wait_for_state(lambda uri=response.json_body["uri"]: point.get(uri[len(base):]).json_body)
    assert point.get("/services/missing").status == 404
    bad = registry.request(
        "POST",
        f"{base}/services/add",
        body=b'{"a": "not a number"}',
        headers={"Content-Type": "application/json"},
    )
    assert bad.status == 422
    yield point
    container.shutdown()


def test_content_type_is_prometheus_004(endpoint):
    response = endpoint.scrape()
    assert response.headers.get("Content-Type") == METRICS_CONTENT_TYPE


def test_page_parses_strictly_with_enough_families(endpoint):
    families = parse_metrics(endpoint.scrape().body.decode())
    assert len(families) >= 12, sorted(families)


def test_every_family_has_valid_name_help_and_type(endpoint):
    families = parse_metrics(endpoint.scrape().body.decode())
    for name, family in families.items():
        assert _NAME_RE.match(name), name
        assert family.kind in ("counter", "gauge", "histogram"), (name, family.kind)
        assert family.help, f"{name} has no HELP text"
        for sample in family.samples:
            assert _NAME_RE.match(sample.name), sample.name


def test_request_counters_saw_the_load(endpoint):
    families = parse_metrics(endpoint.scrape().body.decode())
    requests = families["mc_http_requests_total"]
    assert requests.value(method="POST", status="201") >= 3
    assert requests.value(method="GET", status="404") >= 1
    assert requests.value(method="POST", status="422") >= 1
    latency = families["mc_http_request_seconds"]
    assert latency.series("_count", method="POST") >= 4


def test_counters_are_monotone_across_scrapes(endpoint):
    def counter_values(families):
        values = {}
        for name, family in families.items():
            if family.kind == "counter":
                values[name] = family.total()
            elif family.kind == "histogram":
                for sample in family.samples:
                    if sample.name.endswith("_count") and not sample.labels:
                        values[sample.name] = sample.value
        return values

    before = counter_values(parse_metrics(endpoint.scrape().body.decode()))
    response = endpoint.submit(100, 1)
    assert response.status == 201
    after = counter_values(parse_metrics(endpoint.scrape().body.decode()))
    for name, value in before.items():
        assert after.get(name, 0) >= value, f"counter {name} went backwards"
    assert after["mc_http_requests_total"] > before["mc_http_requests_total"]


def test_histogram_buckets_are_cumulative_and_match_count(endpoint):
    families = parse_metrics(endpoint.scrape().body.decode())
    latency = families["mc_http_request_seconds"]
    for method in ("GET", "POST"):
        buckets = latency.buckets(method=method)
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), f"{method} buckets not cumulative"
        assert counts[-1] == latency.series("_count", method=method)


def test_label_escaping_survives_the_wire(endpoint):
    nasty = 'quote:" slash:\\ newline:\n done'
    family = endpoint.container.metrics.counter(
        "mc_escape_probe_total", "escaping probe", labels=("value",)
    )
    family.labels(nasty).inc(3)
    families = parse_metrics(endpoint.scrape().body.decode())
    assert families["mc_escape_probe_total"].value(value=nasty) == 3


def test_in_flight_gauge_settles_to_zero(endpoint):
    families = parse_metrics(endpoint.scrape().body.decode())
    # the scrape itself is in flight while it renders; the middleware
    # increments before the handler runs, so the gauge reads >= 1 here
    assert families["mc_http_requests_in_flight"].value() >= 1


def test_metrics_disabled_container_serves_404():
    registry = TransportRegistry()
    container = ServiceContainer("fmt-off", registry=registry, observability=False)
    try:
        assert container.metrics is None and container.tracer is None
        response = registry.request("GET", f"{container.local_base}/metrics")
        assert response.status == 404
    finally:
        container.shutdown()
