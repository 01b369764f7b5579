"""Table 1 conformance over every transport.

The normative resource/method matrix, exercised against a container over
a real HTTP socket and over the in-process ``local://`` transport. Every
test runs identically against both: they must be observably the same
wire protocol — status codes, headers, hierarchy, sync and async modes.
"""

import json
import time

import pytest

from repro.container import ServiceContainer
from repro.http.registry import TransportRegistry
from repro.http.transport import HttpTransport
from tests.waiters import wait_for_state


@pytest.fixture(scope="module", params=["http", "local"])
def conformance_cell(request):
    """One served container + the transport under test: ``(transport, url)``.

    ``http`` is the TCP server, ``local`` the in-process transport.
    """
    registry = TransportRegistry()
    container = ServiceContainer(f"conformance-{request.param}", handlers=2, registry=registry)

    def work(context, text, delay=0.0):
        deadline = time.time() + delay
        while time.time() < deadline:
            if context.cancelled:
                return {"upper": ""}
            time.sleep(0.005)
        blob = context.store_file(text.encode() * 10, name="blob.txt", content_type="text/plain")
        return {"upper": text.upper(), "blob": blob}

    container.deploy(
        {
            "description": {
                "name": "work",
                "title": "Uppercase worker",
                "inputs": {
                    "text": {"schema": {"type": "string"}},
                    "delay": {"schema": {"type": "number"}, "required": False, "default": 0},
                },
                "outputs": {"upper": {"schema": {"type": "string"}}, "blob": {"schema": True}},
            },
            "adapter": "python",
            "config": {"callable": work},
        }
    )
    if request.param == "http":
        server = container.serve()
        transport = HttpTransport(timeout=10)
        base = server.base_url
    else:
        transport = registry.local
        base = container.local_base
    yield transport, base + "/services/work"
    container.shutdown()


@pytest.fixture()
def served(conformance_cell):
    return conformance_cell[1]


@pytest.fixture()
def http(conformance_cell):
    """The transport under test (named for the original HTTP-only suite)."""
    return conformance_cell[0]


def _json(response):
    return json.loads(response.body)


class TestServiceResource:
    def test_get_returns_description(self, served, http):
        response = http.request("GET", served)
        assert response.status == 200
        assert "json" in response.headers.get("Content-Type")
        document = _json(response)
        assert document["name"] == "work"
        assert document["uri"] == served
        assert "text" in document["inputs"]
        assert "upper" in document["outputs"]

    def test_post_creates_job_201_with_location(self, served, http):
        response = http.request(
            "POST", served, body=json.dumps({"text": "hi"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 201
        location = response.headers.get("Location")
        assert location.startswith(served + "/jobs/")
        body = _json(response)
        assert body["uri"] == location
        assert body["state"] in ("WAITING", "RUNNING", "DONE")

    def test_post_malformed_json_400(self, served, http):
        response = http.request("POST", served, body=b"{nope")
        assert response.status == 400

    def test_post_invalid_params_422_with_details(self, served, http):
        response = http.request("POST", served, body=json.dumps({"text": 3}).encode())
        assert response.status == 422
        assert "details" in _json(response)


class TestJobResource:
    def _submit(self, served, http, **inputs):
        response = http.request("POST", served, body=json.dumps(inputs).encode())
        return _json(response)

    def _wait(self, http, job_uri, timeout=10.0):
        return wait_for_state(lambda: _json(http.request("GET", job_uri)), timeout=timeout)

    def test_async_lifecycle_waiting_to_done(self, served, http):
        created = self._submit(served, http, text="abc", delay=0.2)
        assert created["state"] in ("WAITING", "RUNNING")
        assert "results" not in created
        done = self._wait(http, created["uri"])
        assert done["state"] == "DONE"
        assert done["results"]["upper"] == "ABC"
        assert done["started"] >= done["created"]
        assert done["finished"] >= done["started"]

    def test_unknown_job_404(self, served, http):
        assert http.request("GET", served + "/jobs/j-ghost").status == 404

    def test_delete_cancels_running_job(self, served, http):
        created = self._submit(served, http, text="x", delay=10)
        response = http.request("DELETE", created["uri"])
        assert response.status == 204
        assert http.request("GET", created["uri"]).status == 404

    def test_delete_done_job_destroys_files(self, served, http):
        created = self._submit(served, http, text="abc")
        done = self._wait(http, created["uri"])
        file_uri = done["results"]["blob"]["$file"]
        assert http.request("GET", file_uri).status == 200
        assert http.request("DELETE", created["uri"]).status == 204
        assert http.request("GET", file_uri).status == 404


class TestFileResource:
    def _done_job(self, served, http):
        response = http.request("POST", served, body=json.dumps({"text": "abc"}).encode())
        created = _json(response)
        return wait_for_state(
            lambda: _json(http.request("GET", created["uri"])), states=("DONE",)
        )

    def test_full_content(self, served, http):
        job = self._done_job(served, http)
        response = http.request("GET", job["results"]["blob"]["$file"])
        assert response.status == 200
        assert response.body == b"abc" * 10
        assert response.headers.get("Content-Type") == "text/plain"
        assert response.headers.get("Accept-Ranges") == "bytes"

    def test_partial_content(self, served, http):
        job = self._done_job(served, http)
        response = http.request(
            "GET", job["results"]["blob"]["$file"], headers={"Range": "bytes=3-5"}
        )
        assert response.status == 206
        assert response.body == b"abc"
        assert response.headers.get("Content-Range") == "bytes 3-5/30"

    def test_unsatisfiable_range_416(self, served, http):
        job = self._done_job(served, http)
        response = http.request(
            "GET", job["results"]["blob"]["$file"], headers={"Range": "bytes=500-"}
        )
        assert response.status == 416

    def test_file_hierarchy_is_per_job(self, served, http):
        first = self._done_job(served, http)
        second = self._done_job(served, http)
        file_id = second["results"]["blob"]["$file"].rsplit("/", 1)[1]
        crossed = f"{served}/jobs/{first['id']}/files/{file_id}"
        assert http.request("GET", crossed).status == 404


class TestMethodMatrix:
    @pytest.mark.parametrize(
        ("method", "suffix", "expected"),
        [
            ("DELETE", "", 405),
            ("PUT", "", 405),
            ("POST", "/jobs/j-1", 405),
            ("PUT", "/jobs/j-1", 405),
            ("DELETE", "/jobs/j-1/files/f-1", 405),
            ("POST", "/jobs/j-1/files/f-1", 405),
            ("GET", "/nonsense", 404),
        ],
    )
    def test_off_matrix_combinations(self, served, http, method, suffix, expected):
        response = http.request(method, served + suffix)
        assert response.status == expected
        if expected == 405:
            assert "allow" in json.loads(response.body).get("details", {})
