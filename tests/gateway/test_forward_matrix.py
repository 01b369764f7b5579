"""The gateway's forwarding outcome matrix: route class × replica behaviour.

Two stub replicas sit behind a gateway over the in-process transport.
``r0`` misbehaves in one of nine ways, ``r1`` is healthy, and a policy
that always prefers the first candidate sends every spread route to
``r0`` first. Each cell asserts what the client sees and what the
attempt left behind: no in-flight slot held, no half-open probe permit
outstanding, and exactly one breaker outcome per request that went out.

A waited submit (``POST …?wait=``) is one more route class of the same
matrix — the query rides the one forward path — and, because it holds its
attempt open for the wait, gets two cells of its own against real
replicas: a duplicate key and a dropped connection, both *mid-wait*.

A submit that references blobs the gateway advertised has one candidate
more, ahead of the policy's pick: the replica holding the bytes. The last
section runs those rows against real replicas whose jobs read the blob.
"""

import hashlib
import itertools
import json
import threading
import time

import pytest

from repro.container import ServiceContainer
from repro.core.api import MAX_LONG_POLL, SubmitLedger
from repro.faults import FaultInjectingTransport, FaultPlan, Scenario
from repro.gateway import BreakerState, CircuitBreaker, ReplicaSet, ServiceGateway
from repro.gateway.idempotency import IdempotencyCache
from repro.http.app import RestApp
from repro.http.client import IDEMPOTENCY_KEY_HEADER
from repro.http.messages import HttpError, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import HttpTransport, Transport
from tests.gateway.test_replay_binding import DropResponses
from tests.waiters import wait_for_state, wait_until

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
    "waited-keyed-submit": ("POST", "/services/svc?wait=0.2", {IDEMPOTENCY_KEY_HEADER: "k1"}, 201),
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
# the wait changes when the replica answers, not what the gateway does with it
EXPECTED["waited-keyed-submit"] = EXPECTED["keyed-submit"]


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
    """Counts (and lists) the requests sent towards each authority."""

    def __init__(self, inner):
        self.inner = inner
        self.schemes = inner.schemes
        self.sent = {}
        self.requests = []

    def request(self, method, url, headers=None, body=b""):
        authority = url.split("/")[2]
        self.sent[authority] = self.sent.get(authority, 0) + 1
        self.requests.append(f"{method} {url}")
        return self.inner.request(method, url, headers=headers, body=body)


def stub_replica(name, mode):
    """A replica-shaped app; ``mode["status"]`` (or ``mode["blob_status"]``
    on blob reads) replaces the normal answer with that error."""
    app = RestApp(name)

    def route(method, template, status, document, override="status"):
        def handler(request, **_params):
            mode.setdefault("queries", []).append(dict(request.query))
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
    if "?" in path:
        seen = [query for mode in cell.modes for query in mode.get("queries", [])]
        assert seen or response.status != ok_status
        assert all(query == {"wait": "0.2"} for query in seen), "the wait was not forwarded"


def test_the_three_timeouts_are_ordered():
    """A waited submit may hold its attempt for MAX_LONG_POLL: a duplicate
    key must be able to out-wait it on the reservation (gateway) or the
    ledger claim (replica), and the transport must not give up first."""
    assert MAX_LONG_POLL < IdempotencyCache().pending_timeout
    assert MAX_LONG_POLL < SubmitLedger().pending_timeout
    assert MAX_LONG_POLL < HttpTransport().timeout


# ------------------------------------------------------- mid-wait, for real


@pytest.fixture()
def waited_cell(request):
    """Gateway → two real replicas whose ``hold`` job runs until released."""
    registry = TransportRegistry()
    suffix = next(_counter)
    release = threading.Event()
    request.addfinalizer(release.set)
    containers = []
    for letter in ("a", "b"):
        container = ServiceContainer(f"wq-{letter}{suffix}", handlers=2, registry=registry)
        container.deploy({
            "description": {
                "name": "hold",
                "inputs": {"x": {"schema": {"type": "number"}}},
                "outputs": {"y": {"schema": {"type": "number"}}},
            },
            "adapter": "python",
            "config": {"callable": lambda x: {"y": 2 * x if release.wait(20) else -1}},
        })
        containers.append(container)
        request.addfinalizer(container.shutdown)
    gateway = ServiceGateway(registry=registry, name=f"wq-gw{suffix}")
    for container in containers:
        gateway.add_replica(container.local_base)
    request.addfinalizer(gateway.shutdown)
    return registry, gateway, containers, release


def _held_jobs(containers):
    return [job for container in containers for job in container.service("hold").jobs.list()]


def _waited_submit(registry, gateway, key, box):
    box.append(registry.request(
        "POST", gateway.service_uri("hold") + "?wait=10",
        headers={IDEMPOTENCY_KEY_HEADER: key}, body=b'{"x": 21}',
    ))


def test_duplicate_key_mid_wait_gets_the_first_attempts_201(waited_cell):
    registry, gateway, containers, release = waited_cell
    answers = []
    first = threading.Thread(target=_waited_submit, args=(registry, gateway, "wq-dup", answers))
    first.start()
    wait_until(lambda: _held_jobs(containers), message="the first attempt created no job")
    duplicate = threading.Thread(target=_waited_submit, args=(registry, gateway, "wq-dup", answers))
    duplicate.start()
    time.sleep(0.2)
    # both are still waiting: the first on its job, the duplicate on the
    # first's reservation — not racing it into a second job
    assert first.is_alive() and duplicate.is_alive()
    assert gateway.idempotency.pending_count == 1
    assert len(_held_jobs(containers)) == 1
    release.set()
    for thread in (first, duplicate):
        thread.join(timeout=8)
        assert not thread.is_alive()
    assert [response.status for response in answers] == [201, 201]
    assert answers[0].body == answers[1].body
    job = answers[0].json_body
    # the settled document is what was rewritten and stored, as for a GET
    assert job["state"] == "DONE" and job["results"] == {"y": 42}
    assert job["uri"].startswith(gateway.base_uri) and job["id"][:3] in ("r0.", "r1.")
    assert answers[1].headers.get("Location") == job["uri"]
    assert len(_held_jobs(containers)) == 1
    assert gateway.idempotency.pending_count == 0


def test_dropped_mid_wait_retries_on_the_bound_replica(waited_cell):
    registry, gateway, containers, release = waited_cell
    # the replica creates the job, waits it out, and the 201 is lost on the
    # wire: ambiguous, so the key is bound and the retry goes back to the
    # same replica, whose ledger answers with the one job (waiting again
    # if it had to)
    dropper = DropResponses(registry.local, r"POST local://wq-[ab]\d+/services/hold\?wait=10$")
    registry.add_transport(dropper)
    answers = []
    thread = threading.Thread(target=_waited_submit, args=(registry, gateway, "wq-drop", answers))
    thread.start()
    wait_until(lambda: _held_jobs(containers), message="the dropped attempt created no job")
    time.sleep(0.1)  # mid-wait
    release.set()
    thread.join(timeout=8)
    assert not thread.is_alive()
    assert dropper.delivered == 1
    (response,) = answers
    assert response.status == 201
    assert response.json_body["state"] == "DONE"
    (job,) = _held_jobs(containers)  # jobs created == 1
    owner = "r0" if containers[0].service("hold").jobs.list() else "r1"
    assert response.json_body["id"] == f"{owner}.{job.id}"
    assert len(job._observers) == 0


# ------------------------------------------------------- data-home placement


class Prefer:
    """The policy's pick is the named replica whenever it is a candidate."""

    def __init__(self, replica_id):
        self.id = replica_id

    def choose(self, candidates, key=None):
        return next((c for c in candidates if c.id == self.id), candidates[0])


class BlobCell:
    """Gateway → three real replicas (r0, r1, r2) whose ``sink`` job reads
    every blob it is handed; the policy's own pick is r2 throughout."""

    def __init__(self, request):
        suffix = next(_counter)
        self.registry = TransportRegistry()
        self.transport = CountingTransport(self.registry.local)
        self.registry.add_transport(self.transport)
        self.release = threading.Event()
        request.addfinalizer(self.release.set)

        def consume(context, refs):
            # parked until the test says go, so an obstacle on the holder
            # can be lifted between placement and staging
            self.release.wait(10)
            return {"digests": [hashlib.sha256(context.fetch_file(ref)).hexdigest() for ref in refs]}

        self.containers = []
        for index in range(3):
            container = ServiceContainer(f"dh{suffix}-{index}", handlers=2, registry=self.registry)
            container.deploy({
                "description": {
                    "name": "sink",
                    "inputs": {"refs": {"schema": {"type": "array"}}},
                    "outputs": {"digests": {"schema": {"type": "array"}}},
                },
                "adapter": "python",
                "config": {"callable": consume},
            })
            self.containers.append(container)
            request.addfinalizer(container.shutdown)
        self.gateway = ServiceGateway(
            registry=self.registry,
            name=f"dh{suffix}-gw",
            replicas=ReplicaSet(registry=self.registry, max_in_flight=1),
            policy=Prefer("r2"),
        )
        self.replicas = [self.gateway.add_replica(c.local_base) for c in self.containers]
        request.addfinalizer(self.gateway.shutdown)

    def put(self, index, content):
        """``content`` stored on replica ``index``; the reference is the one
        the gateway advertises for that copy."""
        manifest = self.containers[index].blobs.put_bytes(content)
        return {
            "$blob": manifest.digest,
            "$file": f"{self.gateway.base_uri}/blobs/r{index}.{manifest.digest}",
            "size": manifest.size,
        }

    def submit(self, refs, headers=None):
        body = refs if isinstance(refs, bytes) else json.dumps({"refs": refs}).encode()
        return self.registry.request(
            "POST", self.gateway.service_uri("sink"), headers=headers or {}, body=body
        )

    def finish(self, response):
        """Let the job run; its terminal document, fetched through the gateway."""
        assert response.status == 201, response.body
        self.release.set()
        uri = response.json_body["uri"]
        return wait_for_state(lambda: self.registry.request("GET", uri).json_body)

    def manifest_fetches(self):
        bases = tuple(c.local_base for c in self.containers)
        return [r for r in self.transport.requests if r.endswith("/manifest") and r[4:].startswith(bases)]


@pytest.fixture()
def blob_cell(request):
    return BlobCell(request)


def test_blob_job_runs_where_the_bytes_are(blob_cell):
    cell, gateway = blob_cell, blob_cell.gateway
    content = b"data home " * 30_000
    # the real thing: uploaded through the gateway, which places it on r0
    gateway.policy.id = "r0"
    uploaded = cell.registry.request("POST", gateway.base_uri + "/blobs", body=content)
    reference = uploaded.json_body
    assert reference["$file"].startswith(f"{gateway.base_uri}/blobs/r0.")
    gateway.policy.id = "r2"

    job = cell.finish(cell.submit([reference]))

    assert job["id"].startswith("r0."), "the job went to the policy's pick, away from its blob"
    assert job["state"] == "DONE" and job["results"] == {"digests": [reference["$blob"]]}
    assert cell.manifest_fetches() == [], "a job on the holder staged its own blob"
    assert gateway.data_home_stats == {"home": 1, "fallback": 0}
    # a submit without blobs has no home: the policy places it, nothing is counted
    assert cell.finish(cell.submit([]))["id"].startswith("r2.")
    assert gateway.data_home_stats == {"home": 1, "fallback": 0}
    scraped = cell.registry.request("GET", gateway.base_uri + "/metrics").text_body
    assert 'mc_gateway_data_home_total{outcome="home"} 1' in scraped
    assert 'mc_gateway_data_home_total{outcome="fallback"} 0' in scraped
    assert cell.registry.request("GET", gateway.base_uri + "/status").json_body["data_home"] == {
        "home": 1, "fallback": 0,
    }


@pytest.mark.parametrize("obstacle", ["saturated", "breaker-open", "down", "draining"])
def test_home_that_cannot_take_the_job_falls_through_to_the_policy(blob_cell, obstacle):
    cell, gateway, holder = blob_cell, blob_cell.gateway, blob_cell.replicas[0]
    reference = cell.put(0, b"stage me " * 30_000)
    clock = [0.0]
    if obstacle == "saturated":
        assert holder.acquire_slot()
    elif obstacle == "breaker-open":
        holder.breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=lambda: clock[0])
        holder.breaker.record_failure()
    elif obstacle == "down":
        while holder.state.value != "DOWN":
            holder.record_probe(False)
    else:
        gateway.drain("r0")

    response = cell.submit([reference])

    assert response.status == 201
    assert response.json_body["id"].startswith("r2."), "a preference must not pin"
    # the holder comes back (a draining one never stopped serving its blobs)
    # and the job, parked so far, stages from it through the gateway
    if obstacle == "saturated":
        holder.release_slot()
    elif obstacle == "breaker-open":
        clock[0] += 11.0
    elif obstacle == "down":
        holder.record_probe(True)
    job = cell.finish(response)
    assert job["state"] == "DONE" and job["results"] == {"digests": [reference["$blob"]]}
    assert any(cell.containers[0].local_base in fetch for fetch in cell.manifest_fetches())
    assert cell.containers[2].blobs.exists(reference["$blob"])
    assert gateway.data_home_stats == {"home": 0, "fallback": 1}
    assert all(replica.in_flight == 0 for replica in cell.replicas)


@pytest.mark.parametrize("larger_first", [True, False])
def test_home_is_the_replica_holding_the_most_referenced_bytes(blob_cell, larger_first):
    cell = blob_cell
    small = cell.put(0, b"s" * 70_000)
    large = cell.put(1, b"L" * 200_000)
    refs = [large, small] if larger_first else [small, large]

    job = cell.finish(cell.submit(refs))

    assert job["id"].startswith("r1.")
    assert job["state"] == "DONE" and job["results"] == {"digests": [ref["$blob"] for ref in refs]}
    # only the smaller blob moved
    assert cell.containers[1].blobs.exists(small["$blob"])
    assert not cell.containers[0].blobs.exists(large["$blob"])


@pytest.mark.parametrize("kind", ["bare-digest", "foreign-uri", "malformed-json"])
def test_only_references_the_gateway_advertised_name_a_home(blob_cell, kind):
    cell, gateway = blob_cell, blob_cell.gateway
    reference = cell.put(0, b"not advertised " * 10_000)
    digest = reference["$blob"]
    if kind == "bare-digest":
        reference["$file"] = f"{gateway.base_uri}/blobs/{digest}"
    elif kind == "foreign-uri":
        reference["$file"] = f"{cell.containers[0].local_base}/blobs/{digest}"
    body = json.dumps({"refs": [reference]}).encode()

    response = cell.submit(body[:-2] if kind == "malformed-json" else body)

    submits = [r for r in cell.transport.requests if r.startswith("POST ") and "/services/sink" in r]
    assert submits[-1] == f"POST {cell.containers[2].local_base}/services/sink"
    assert gateway.data_home_stats == {"home": 0, "fallback": 0}
    if kind == "malformed-json":
        assert response.status == 400
    else:
        assert cell.finish(response)["results"] == {"digests": [digest]}


def test_idempotency_key_binding_beats_the_data_home(blob_cell):
    cell, gateway = blob_cell, blob_cell.gateway
    reference = cell.put(0, b"bound elsewhere " * 10_000)
    # an earlier, ambiguous attempt may have created this key's job on r1
    gateway.idempotency.bind("dh-key", "r1")

    job = cell.finish(cell.submit([reference], headers={IDEMPOTENCY_KEY_HEADER: "dh-key"}))

    assert job["id"].startswith("r1.")
    assert job["state"] == "DONE"
    assert gateway.data_home_stats == {"home": 0, "fallback": 1}
    jobs = [job for c in cell.containers for job in c.service("sink").jobs.list()]
    assert len(jobs) == 1


def test_retired_holder_resolves_to_its_handoff_successor(blob_cell):
    cell, gateway = blob_cell, blob_cell.gateway
    content = b"moved with its replica " * 10_000
    reference = cell.put(0, content)
    cell.containers[1].blobs.put_bytes(content)  # the successor's copy
    gateway.retire("r0", successor_id="r1")
    assert gateway.replicas.get("r0") is None

    job = cell.finish(cell.submit([reference]))

    assert job["id"].startswith("r1.")
    assert job["state"] == "DONE" and job["results"] == {"digests": [reference["$blob"]]}
    assert cell.manifest_fetches() == []
    assert gateway.data_home_stats == {"home": 1, "fallback": 0}
