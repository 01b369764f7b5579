"""Blob resources through the gateway: rewriting, pinning, resolution."""

import hashlib
import time

import pytest

from repro.container import ServiceContainer
from repro.gateway import ServiceGateway
from repro.gateway.breaker import BreakerState, CircuitBreaker
from repro.gateway.replicaset import Replica, ReplicaSet
from repro.gateway.routing import decode_blob_ref, rewrite_uri
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry

GATEWAY = "http://gw:9000"


def sha(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


class TestBlobRefs:
    def test_bare_digest_has_no_prefix(self):
        assert decode_blob_ref("a" * 64) == (None, "a" * 64)

    def test_prefixed_ref_decodes(self):
        assert decode_blob_ref(f"r1.{'a' * 64}") == ("r1", "a" * 64)

    def test_blob_uri_rewritten_with_replica_prefix(self):
        replica = Replica("r1", "http://backend-1:8001", CircuitBreaker())
        digest = "b" * 64
        uri = f"http://backend-1:8001/blobs/{digest}"
        assert rewrite_uri(uri, replica, GATEWAY) == f"{GATEWAY}/blobs/r1.{digest}"

    def test_manifest_uri_keeps_its_tail(self):
        replica = Replica("r1", "http://backend-1:8001", CircuitBreaker())
        digest = "b" * 64
        uri = f"http://backend-1:8001/blobs/{digest}/manifest"
        assert rewrite_uri(uri, replica, GATEWAY) == f"{GATEWAY}/blobs/r1.{digest}/manifest"


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def cell(registry):
    containers = [
        ServiceContainer(f"gwb{i}", handlers=2, registry=registry) for i in range(2)
    ]
    replica_set = ReplicaSet(registry=registry)
    gateway = ServiceGateway(registry=registry, name="gwb", replicas=replica_set)
    for container in containers:
        gateway.add_replica(container.local_base)
    yield gateway, containers
    gateway.shutdown()
    for container in containers:
        container.shutdown()


@pytest.fixture()
def client(registry):
    return RestClient(registry)


class TestGatewayBlobRoutes:
    def test_upload_through_gateway_rewrites_reference(self, cell, client):
        gateway, containers = cell
        content = b"gateway upload" * 100
        response = client.request_raw(
            "POST", gateway.base_uri + "/blobs", body=content
        )
        assert response.status == 201
        reference = response.json_body
        assert reference["$blob"] == sha(content)
        # the $file URI points back at the gateway with a replica prefix
        assert reference["$file"].startswith(gateway.base_uri + "/blobs/")
        public_ref = reference["$file"].rsplit("/", 1)[1]
        replica_id, digest = decode_blob_ref(public_ref)
        assert digest == sha(content)
        assert replica_id is not None
        # exactly one replica holds it
        holders = [c for c in containers if c.blobs.exists(digest)]
        assert len(holders) == 1
        assert response.headers.get("Location") == reference["$file"]

    def test_prefixed_get_pins_to_owner(self, cell, client):
        gateway, containers = cell
        content = b"pinned fetch" * 50
        created = client.request_raw("POST", gateway.base_uri + "/blobs", body=content)
        uri = created.json_body["$file"]
        fetched = client.request_raw("GET", uri)
        assert fetched.status == 200
        assert fetched.body == content
        assert fetched.headers.get("ETag") == f'"{sha(content)}"'

    def test_range_passes_through(self, cell, client):
        gateway, _containers = cell
        content = b"0123456789" * 300
        created = client.request_raw("POST", gateway.base_uri + "/blobs", body=content)
        uri = created.json_body["$file"]
        ranged = client.request_raw("GET", uri, headers={"Range": "bytes=100-199"})
        assert ranged.status == 206
        assert ranged.body == content[100:200]
        assert ranged.headers.get("Content-Range") == f"bytes 100-199/{len(content)}"

    def test_bare_digest_resolves_across_replicas(self, cell, client):
        gateway, containers = cell
        content = b"somewhere in the pool" * 40
        # place the blob directly on the second replica, bypassing the gateway
        manifest = containers[1].blobs.put_bytes(content)
        response = client.request_raw(
            "GET", f"{gateway.base_uri}/blobs/{manifest.digest}"
        )
        assert response.status == 200
        assert response.body == content

    def test_manifest_through_gateway(self, cell, client):
        gateway, _containers = cell
        content = b"manifested" * 64
        created = client.request_raw("POST", gateway.base_uri + "/blobs", body=content)
        manifest = client.get(created.json_body["$file"] + "/manifest")
        assert manifest["digest"] == sha(content)
        assert manifest["size"] == len(content)

    def test_unknown_digest_is_404_everywhere(self, cell, client):
        gateway, _containers = cell
        response = client.request_raw("GET", f"{gateway.base_uri}/blobs/{'0' * 64}")
        assert response.status == 404

    def test_bare_digest_is_not_absent_while_its_holder_cannot_be_asked(self, cell, registry):
        gateway, containers = cell
        content = b"only on the second replica" * 40
        digest = containers[1].blobs.put_bytes(content).digest
        holder = gateway.replicas.get("r1")
        for _ in range(holder.breaker.failure_threshold):
            holder.breaker.record_failure()
        unknown = registry.request("GET", f"{gateway.base_uri}/blobs/{digest}")
        # r0 said 404, r1 was never asked: a 404 here would stop consumers retrying
        assert unknown.status == 503
        assert 0 < float(unknown.headers.get("Retry-After")) <= gateway.retry_after_cap
        holder.breaker.record_success()
        found = registry.request("GET", f"{gateway.base_uri}/blobs/{digest}")
        assert found.status == 200
        assert found.body == content

    @pytest.mark.parametrize("method,path", [("POST", "/blobs"), ("PUT", "/blobs/{digest}")])
    def test_unpinned_upload_may_be_the_half_open_probe(self, registry, method, path):
        container = ServiceContainer("gwb-probe", handlers=2, registry=registry)
        gateway = ServiceGateway(
            registry=registry,
            name="gwb-probe-gw",
            replicas=ReplicaSet(registry=registry, breaker_failures=1, breaker_reset=0.05),
        )
        try:
            replica = gateway.add_replica(container.local_base)
            replica.breaker.record_failure()
            time.sleep(0.06)
            content = b"probe upload"
            response = registry.request(
                method, gateway.base_uri + path.format(digest=sha(content)), body=content
            )
            assert response.status == 201
            assert replica.breaker.state is BreakerState.CLOSED
            assert replica.in_flight == 0
            assert registry.request("GET", gateway.base_uri + "/services").status == 200
        finally:
            gateway.shutdown()
            container.shutdown()

    def test_put_with_digest_verifies(self, cell, client):
        gateway, containers = cell
        content = b"verified via gateway"
        bad = client.request_raw(
            "PUT", f"{gateway.base_uri}/blobs/{sha(b'not this')}", body=content
        )
        assert bad.status == 422
        ok = client.request_raw(
            "PUT", f"{gateway.base_uri}/blobs/{sha(content)}", body=content
        )
        assert ok.status == 201
        assert any(c.blobs.exists(sha(content)) for c in containers)

    def test_job_results_rewrite_blob_uris(self, cell, client):
        """A job document's blob reference comes back gateway-addressed."""
        gateway, containers = cell

        def produce(context):
            return {"data": context.store_blob(b"workflow bytes" * 20)}

        for container in containers:
            container.deploy(
                {
                    "description": {
                        "name": "emit",
                        "inputs": {},
                        "outputs": {"data": {"schema": {"type": "object"}}},
                    },
                    "adapter": "python",
                    "config": {"callable": produce},
                }
            )
        created = client.post(gateway.service_uri("emit"), payload={})
        from tests.container.conftest import wait_done

        job = wait_done(client, created["uri"])
        assert job["state"] == "DONE"
        reference = job["results"]["data"]
        assert reference["$file"].startswith(gateway.base_uri + "/blobs/")
        # the digest field itself is never prefixed — it names the content
        assert reference["$blob"] == sha(b"workflow bytes" * 20)
        # and the gateway-addressed URI serves the bytes
        fetched = client.request_raw("GET", reference["$file"])
        assert fetched.status == 200
        assert fetched.body == b"workflow bytes" * 20
