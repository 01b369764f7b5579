"""The blob REST surface every container mounts: upload, ranged GET, manifest."""

import hashlib
import json

import pytest

from repro.container import ServiceContainer
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry


def sha(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def container(registry):
    instance = ServiceContainer("blob-rest", handlers=2, registry=registry)
    yield instance
    instance.shutdown()


@pytest.fixture()
def client(registry):
    return RestClient(registry)


def upload(client, container, content, content_type="application/octet-stream"):
    return client.request_raw(
        "POST",
        container.base_uri + "/blobs",
        body=content,
        headers={"Content-Type": content_type},
    )


class TestUpload:
    def test_post_returns_blob_reference(self, client, container):
        content = b"hello blob world" * 100
        response = upload(client, container, content, content_type="text/plain")
        assert response.status == 201
        reference = response.json_body
        assert reference["$blob"] == sha(content)
        assert reference["size"] == len(content)
        assert reference["contentType"] == "text/plain"
        assert reference["$file"] == f"{container.base_uri}/blobs/{sha(content)}"
        assert response.headers.get("Location") == reference["$file"]

    def test_put_verifies_claimed_digest(self, client, container):
        content = b"verified upload"
        ok = client.request_raw(
            "PUT", f"{container.base_uri}/blobs/{sha(content)}", body=content
        )
        assert ok.status == 201
        bad = client.request_raw(
            "PUT", f"{container.base_uri}/blobs/{sha(b'other')}", body=content
        )
        assert bad.status == 422
        assert not container.blobs.exists(sha(b"other"))

    def test_stats_resource(self, client, container):
        upload(client, container, b"counted")
        stats = client.get(container.base_uri + "/blobs")
        assert stats["blobs"] == 1
        assert stats["bytes"] == len(b"counted")


class TestDownload:
    def test_get_streams_whole_blob(self, client, container):
        content = bytes(range(256)) * 50
        digest = upload(client, container, content).json_body["$blob"]
        response = client.request_raw("GET", f"{container.base_uri}/blobs/{digest}")
        assert response.status == 200
        assert response.body == content
        assert response.headers.get("Accept-Ranges") == "bytes"
        assert response.headers.get("ETag") == f'"{digest}"'

    def test_ranged_get(self, client, container):
        content = b"0123456789" * 1000
        digest = upload(client, container, content).json_body["$blob"]
        response = client.request_raw(
            "GET",
            f"{container.base_uri}/blobs/{digest}",
            headers={"Range": "bytes=500-1499"},
        )
        assert response.status == 206
        assert response.body == content[500:1500]
        assert response.headers.get("Content-Range") == f"bytes 500-1499/{len(content)}"

    def test_manifest_resource(self, client, container):
        content = b"m" * (container.blobs.chunk_size + 17)
        digest = upload(client, container, content).json_body["$blob"]
        manifest = client.get(f"{container.base_uri}/blobs/{digest}/manifest")
        assert manifest["digest"] == digest
        assert manifest["size"] == len(content)
        assert sum(size for _d, size in manifest["chunks"]) == len(content)
        assert len(manifest["chunks"]) == 2

    def test_missing_blob_404(self, client, container):
        response = client.request_raw("GET", f"{container.base_uri}/blobs/{'0' * 64}")
        assert response.status == 404


class TestTcpStreaming:
    """The same surface over a real socket: bodies stream, never buffer."""

    def test_round_trip_over_tcp(self, registry):
        container = ServiceContainer("blob-tcp", handlers=2, registry=registry)
        server = container.serve(port=0)
        try:
            client = RestClient(TransportRegistry(), base=server.base_url)
            content = json.dumps(list(range(5000))).encode() * 3
            created = client.request_raw("POST", "/blobs", body=content)
            assert created.status == 201
            digest = created.json_body["$blob"]
            fetched = client.request_raw("GET", f"/blobs/{digest}")
            assert fetched.body == content
            ranged = client.request_raw(
                "GET", f"/blobs/{digest}", headers={"Range": "bytes=10-99"}
            )
            assert ranged.status == 206
            assert ranged.body == content[10:100]
        finally:
            container.shutdown()
