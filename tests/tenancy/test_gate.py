"""TenantGate: attribution, rate limits, concurrency caps, suspensions."""

import json

import pytest

from repro.http.app import DeferredResponse, RestApp
from repro.http.messages import Request, Response
from repro.http.registry import TransportRegistry
from repro.runtime.metrics import MetricsRegistry
from repro.tenancy import TenantGate, TenantRegistry, TenantSpec, TokenBucket
from repro.tenancy.registry import DEFAULT_TENANT, TENANT_HEADER


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _app_with_gate(gate):
    registry = TransportRegistry()
    app = RestApp("gate-test")
    app.add_middleware(gate)
    app.route("POST", "/services/{name}", lambda request, name: Response.json(
        {"tenant": request.context.get("tenant")}, status=201))
    app.route("GET", "/services/{name}", lambda request, name: Response.json(
        {"tenant": request.context.get("tenant")}))
    base = registry.bind_local("gate-test", app)
    return registry, base


def _post(registry, base, tenant=None):
    headers = {TENANT_HEADER: tenant} if tenant else {}
    return registry.request("POST", f"{base}/services/work", headers=headers,
                            body=b"{}")


def test_token_bucket_refill():
    clock = _Clock()
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
    assert bucket.try_take() == (True, 0.0)
    assert bucket.try_take() == (True, 0.0)
    ok, wait = bucket.try_take()
    assert not ok and wait > 0
    clock.now += 0.5  # one token refilled at 2/s
    assert bucket.try_take() == (True, 0.0)


def test_attribution_header_then_default():
    gate = TenantGate(TenantRegistry(), enforce=False)
    registry, base = _app_with_gate(gate)
    response = _post(registry, base, tenant="acme")
    assert response.json_body["tenant"] == "acme"
    response = _post(registry, base)
    assert response.json_body["tenant"] == DEFAULT_TENANT


def test_attribution_prefers_resolved_identity():
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="acme"))
    tenants.assign("alice", "acme")
    gate = TenantGate(tenants, enforce=False)

    class _Identity:
        anonymous = False
        id = "alice"

    request = Request(method="POST", path="/services/work")
    request.context["identity"] = _Identity()
    request.headers.set(TENANT_HEADER, "spoofed")
    assert gate.resolve(request) == "acme"


def test_rate_limit_answers_429_with_retry_after_naming_tenant():
    clock = _Clock()
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="chatty", rate=1.0, burst=1.0))
    gate = TenantGate(tenants, enforce=True, clock=clock)
    registry, base = _app_with_gate(gate)
    assert _post(registry, base, tenant="chatty").status == 201
    response = _post(registry, base, tenant="chatty")
    assert response.status == 429
    assert "chatty" in response.json_body["error"]
    assert response.json_body["details"]["reason"] == "rate"
    assert float(response.headers.get("Retry-After")) > 0
    # an unlimited tenant is untouched
    assert _post(registry, base, tenant="calm").status == 201
    # tokens refill with the clock
    clock.now += 2.0
    assert _post(registry, base, tenant="chatty").status == 201


def test_quota_shed_and_gets_are_exempt():
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="broke", cpu_quota=1.0))
    tenants.charge("broke", cpu=2.0)
    gate = TenantGate(tenants, enforce=True)
    registry, base = _app_with_gate(gate)
    response = _post(registry, base, tenant="broke")
    assert response.status == 429
    assert response.json_body["details"]["reason"] == "quota"
    # reads are never shed — only submits burn quota
    read = registry.request("GET", f"{base}/services/work",
                            headers={TENANT_HEADER: "broke"})
    assert read.status == 200


def test_concurrency_cap():
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="t", max_concurrent=1))
    gate = TenantGate(tenants, enforce=True)
    # simulate a request parked inside the handler
    with gate._lock:
        gate._in_flight["t"] = 1
    registry, base = _app_with_gate(gate)
    response = _post(registry, base, tenant="t")
    assert response.status == 429
    assert response.json_body["details"]["reason"] == "concurrency"
    with gate._lock:
        gate._in_flight.pop("t")
    assert _post(registry, base, tenant="t").status == 201


def test_suspension_expires():
    clock = _Clock()
    gate = TenantGate(TenantRegistry(), enforce=True, clock=clock)
    registry, base = _app_with_gate(gate)
    gate.suspend("noisy", ttl=5.0)
    response = _post(registry, base, tenant="noisy")
    assert response.status == 429
    assert response.json_body["details"]["reason"] == "suspended"
    clock.now += 6.0
    assert _post(registry, base, tenant="noisy").status == 201


def test_retry_after_capped():
    gate = TenantGate(TenantRegistry(), enforce=True)
    gate.suspend("t", ttl=10_000.0)
    assert gate.suspended_for("t") <= TenantGate.RETRY_AFTER_CAP + 0.01
    error = gate._shed("t", "rate", retry_after=9_999.0)
    assert error.retry_after == TenantGate.RETRY_AFTER_CAP


def test_gate_metrics_flush_on_scrape():
    metrics = MetricsRegistry("gate-metrics")
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="limited", rate=0.001, burst=1.0))
    gate = TenantGate(tenants, metrics=metrics, enforce=True)
    registry, base = _app_with_gate(gate)
    assert _post(registry, base, tenant="limited").status == 201
    assert _post(registry, base, tenant="limited").status == 429
    page = metrics.render()
    assert 'mc_tenant_requests_total{tenant="limited",status="201"} 1' in page
    assert 'mc_tenant_requests_total{tenant="limited",status="429"} 1' in page
    assert 'mc_tenant_shed_total{tenant="limited",reason="rate"} 1' in page
    assert 'mc_tenant_request_seconds_count{tenant="limited"} 2' in page


def test_deferred_response_is_sampled_when_it_renders():
    """A handler that parks (a waited submit is the gated request itself)
    still lands exactly one per-tenant sample — at render time, with the
    rendered status — and gives its concurrency token back at the park."""
    metrics = MetricsRegistry("gate-deferred")
    tenants = TenantRegistry()
    tenants.register(TenantSpec(name="t", max_concurrent=1))
    gate = TenantGate(tenants, metrics=metrics, enforce=True)
    app = RestApp("gate-deferred")
    app.add_middleware(gate)

    def parks(request, name):
        raise DeferredResponse(
            render=lambda: Response.json({}, status=201), park=lambda resume: None, timeout=1.0
        )

    app.route("POST", "/services/{name}", parks)
    request = Request(method="POST", path="/services/work")
    request.headers.set(TENANT_HEADER, "t")
    with pytest.raises(DeferredResponse) as parked:
        app.handle(request)
    assert gate._in_flight == {}
    assert 'tenant="t"' not in metrics.render()
    assert parked.value.render().status == 201
    page = metrics.render()
    assert 'mc_tenant_requests_total{tenant="t",status="201"} 1' in page
    assert 'mc_tenant_request_seconds_count{tenant="t"} 1' in page
