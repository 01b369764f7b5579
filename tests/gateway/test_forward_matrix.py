"""The gateway's forwarding outcome matrix: route class × replica behaviour.

Two stub replicas sit behind a gateway over the in-process transport.
``r0`` misbehaves in one of nine ways, ``r1`` is healthy, and a policy
that always prefers the first candidate sends every spread route to
``r0`` first. Each cell asserts what the client sees and what the
attempt left behind: no in-flight slot held, no half-open probe permit
outstanding, and exactly one breaker outcome per request that went out.
"""

import itertools

import pytest

from repro.faults import FaultInjectingTransport, FaultPlan, Scenario
from repro.gateway import BreakerState, CircuitBreaker, ReplicaSet, ServiceGateway
from repro.http.app import RestApp
from repro.http.client import IDEMPOTENCY_KEY_HEADER
from repro.http.messages import HttpError, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import Transport

DIGEST = "d" * 64
_counter = itertools.count()

#: route class -> (method, gateway path, headers, status when all is well)
ROUTES = {
    "spread-read": ("GET", "/services/svc", {}, 200),
    "pinned-get": ("GET", "/services/svc/jobs/r0.j1", {}, 200),
    "pinned-delete": ("DELETE", "/services/svc/jobs/r0.j1", {}, 204),
    "blob-get": ("GET", f"/blobs/{DIGEST}", {}, 200),
    "blob-get-sole-copy": ("GET", f"/blobs/{DIGEST}", {}, 200),
    "blob-upload": ("POST", "/blobs", {}, 201),
    "submit": ("POST", "/services/svc", {}, 201),
    "keyed-submit": ("POST", "/services/svc", {IDEMPOTENCY_KEY_HEADER: "k1"}, 201),
}

BEHAVIOURS = (
    "connect-refused", "dropped", "500", "503", "404", "429",
    "slots-taken", "breaker-open", "breaker-half-open",
)

#: Client-visible status per cell; "ok" is the route's all-is-well status
#: (answered by r1, or by r0 itself as the half-open probe).
_READ = {"connect-refused": "ok", "dropped": "ok", "500": "ok", "503": "ok", "404": 404,
         "429": 429, "slots-taken": "ok", "breaker-open": "ok", "breaker-half-open": "ok"}
_ONCE = {"connect-refused": 502, "dropped": 502, "500": 500, "503": 503, "404": 404,
         "429": 429, "slots-taken": 429, "breaker-open": 503, "breaker-half-open": "ok"}
EXPECTED = {
    "spread-read": _READ,
    "pinned-get": _ONCE,
    "pinned-delete": _ONCE,
    # a 404 from one replica only means *it* holds no copy
    "blob-get": dict(_READ, **{"404": "ok"}),
    # r1 answers 404: while r0 (the holder) cannot be asked, "absent" is unknown
    "blob-get-sole-copy": {"connect-refused": 503, "dropped": 503, "500": 503, "503": 503,
                           "404": 404, "429": 429, "slots-taken": 429, "breaker-open": 503,
                           "breaker-half-open": "ok"},
    # an upload is sent once, but a replica that refuses admission is skipped
    "blob-upload": dict(_ONCE, **{"slots-taken": "ok", "breaker-open": "ok"}),
    # no key: only a request that provably never left may go elsewhere
    "submit": dict(_READ, **{"dropped": 502, "500": 500, "503": 503}),
    # with a key: a drop pins the key to r0 (every replay drops too), 5xx moves on
    "keyed-submit": dict(_READ, **{"dropped": 503}),
}


class FirstCandidate:
    def choose(self, candidates, key=None):
        return candidates[0]


class CountingBreaker(CircuitBreaker):
    """Counts reported outcomes; the clock is the test's to move."""

    def __init__(self):
        self.now = 0.0
        self.outcomes = 0
        super().__init__(failure_threshold=1, reset_timeout=10.0, clock=lambda: self.now)

    def record_success(self):
        self.outcomes += 1
        super().record_success()

    def record_failure(self):
        self.outcomes += 1
        super().record_failure()


class CountingTransport(Transport):
    """Counts the requests the gateway sends towards each replica."""

    def __init__(self, inner):
        self.inner = inner
        self.schemes = inner.schemes
        self.sent = {}

    def request(self, method, url, headers=None, body=b""):
        authority = url.split("/")[2]
        self.sent[authority] = self.sent.get(authority, 0) + 1
        return self.inner.request(method, url, headers=headers, body=body)


def stub_replica(name, mode):
    """A replica-shaped app; ``mode["status"]`` (or ``mode["blob_status"]``
    on blob reads) replaces the normal answer with that error."""
    app = RestApp(name)

    def route(method, template, status, document, override="status"):
        def handler(request, **_params):
            injected = mode.get(override)
            if injected:
                raise HttpError(injected, "injected", retry_after=2 if injected in (429, 503) else None)
            if document is None:
                return Response(status=status)
            return Response.json(document, status=status)

        app.route(method, template, handler)

    base = f"local://{name}"
    job = {"id": "j1", "uri": f"{base}/services/svc/jobs/j1", "state": "DONE"}
    route("GET", "/services/{name}", 200, {"name": "svc", "uri": f"{base}/services/svc"})
    route("POST", "/services/{name}", 201, job)
    route("GET", "/services/{name}/jobs/{job_id}", 200, job)
    route("DELETE", "/services/{name}/jobs/{job_id}", 204, None)
    route("POST", "/blobs", 201, {"$blob": DIGEST, "uri": f"{base}/blobs/{DIGEST}"})
    route("GET", "/blobs/{digest}", 200, {"held": True}, override="blob_status")
    return app


class Cell:
    """Gateway → (bad, good) stub replicas, with r0 misbehaving as asked."""

    def __init__(self, behaviour):
        suffix = next(_counter)
        self.registry = TransportRegistry()
        self.names = [f"mx{suffix}-bad", f"mx{suffix}-good"]
        self.modes = [{}, {}]
        for name, mode in zip(self.names, self.modes):
            self.registry.bind_local(name, stub_replica(name, mode))
        kind = {"connect-refused": "connect-refused", "dropped": "drop"}.get(behaviour)
        scenarios = [Scenario(kind, 1.0, target=f"local://{self.names[0]}/")] if kind else []
        self.transport = CountingTransport(
            FaultInjectingTransport(self.registry.local, FaultPlan(0, scenarios))
        )
        self.registry.add_transport(self.transport)
        self.gateway = ServiceGateway(
            registry=self.registry,
            name=f"mx{suffix}-gw",
            replicas=ReplicaSet(registry=self.registry, max_in_flight=1),
            policy=FirstCandidate(),
        )
        self.replicas = []
        for name in self.names:
            replica = self.gateway.add_replica(f"local://{name}")
            replica.breaker = CountingBreaker()
            self.replicas.append(replica)
        bad = self.replicas[0]
        if behaviour.isdigit():
            self.modes[0]["status"] = self.modes[0]["blob_status"] = int(behaviour)
        elif behaviour == "slots-taken":
            assert bad.acquire_slot()
        elif behaviour.startswith("breaker"):
            bad.breaker.record_failure()
            if behaviour == "breaker-half-open":
                bad.breaker.now += bad.breaker.reset_timeout + 1
                assert bad.breaker.state is BreakerState.HALF_OPEN
            bad.breaker.outcomes = 0


@pytest.fixture()
def make_cell(request):
    def factory(behaviour):
        cell = Cell(behaviour)
        request.addfinalizer(cell.gateway.shutdown)
        return cell

    return factory


@pytest.mark.parametrize("behaviour", BEHAVIOURS)
@pytest.mark.parametrize("route", ROUTES)
def test_forward_outcome(make_cell, route, behaviour):
    cell = make_cell(behaviour)
    gateway, (bad, good) = cell.gateway, cell.replicas
    method, path, headers, ok_status = ROUTES[route]
    if route == "blob-get-sole-copy":
        cell.modes[1]["blob_status"] = 404

    response = cell.registry.request(method, gateway.base_uri + path, headers=headers, body=b"{}")

    expected = EXPECTED[route][behaviour]
    assert response.status == (ok_status if expected == "ok" else expected)
    if response.status in (429, 503):
        retry_after = response.headers.get("Retry-After")
        assert retry_after is not None, "shed without a Retry-After hint"
        assert 0 < float(retry_after) <= gateway.retry_after_cap
    if behaviour == "slots-taken":
        bad.release_slot()
    for replica, name in zip(cell.replicas, cell.names):
        assert replica.in_flight == 0, f"{replica.id} still holds an in-flight slot"
        assert replica.breaker.outcomes == cell.transport.sent.get(name, 0), (
            f"{replica.id}: breaker outcomes != requests sent"
        )
        breaker = replica.breaker
        wedged = breaker.state is BreakerState.HALF_OPEN and not breaker.allow()
        assert not wedged, f"{replica.id} leaked its half-open probe permit"
    if behaviour == "breaker-half-open":
        assert cell.transport.sent.get(cell.names[0]) == 1, "the probe never went out"
        assert bad.breaker.state is BreakerState.CLOSED
