"""Long-poll (``?wait=``) and request-correlation tests over both transports."""

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.client import ServiceProxy
from repro.container import ServiceContainer
from repro.http.app import RestApp
from repro.http.client import IDEMPOTENCY_KEY_HEADER, ClientError, RestClient
from repro.http.messages import Response
from repro.runtime.context import REQUEST_ID_HEADER

from .conftest import add_service_config


def deploy_sleeper(container):
    def sleeper(context, delay):
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            if context.cancelled:
                return {"result": 0}
            time.sleep(0.005)
        return {"result": delay}

    container.deploy(
        {
            "description": {
                "name": "sleeper",
                "inputs": {"delay": {"schema": {"type": "number"}}},
                "outputs": {"result": {"schema": {"type": "number"}}},
            },
            "adapter": "python",
            "config": {"callable": sleeper},
        }
    )


def waited_submit(client, base, delay, wait, headers=None):
    """``POST /services/sleeper?wait=``: the raw response and how long it took."""
    started = time.monotonic()
    response = client.request_raw(
        "POST", f"{base}/services/sleeper", query={"wait": wait},
        body=b'{"delay": %g}' % delay, headers=headers,
    )
    return response, time.monotonic() - started


def only_job(container):
    """The sleeper's single job, once the submit under test has created it."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        jobs = container.service("sleeper").jobs.list()
        if jobs:
            assert len(jobs) == 1
            return jobs[0]
        time.sleep(0.005)
    raise AssertionError("the submit never created its job")


class LongPollContract:
    """The ``?wait=`` contract, run against one transport."""

    def base(self, container):
        raise NotImplementedError

    def test_longpoll_returns_at_transition_not_at_timeout(self, container, client):
        deploy_sleeper(container)
        base = self.base(container)
        created = client.post(f"{base}/services/sleeper", payload={"delay": 0.3})
        started = time.monotonic()
        job = client.get(created["uri"], query={"wait": 10})
        elapsed = time.monotonic() - started
        assert job["state"] == "DONE"
        assert elapsed < 5  # released by the transition, nowhere near the wait

    def test_longpoll_expires_with_current_state(self, container, client):
        deploy_sleeper(container)
        base = self.base(container)
        created = client.post(f"{base}/services/sleeper", payload={"delay": 30})
        started = time.monotonic()
        job = client.get(created["uri"], query={"wait": 0.2})
        elapsed = time.monotonic() - started
        assert job["state"] in ("WAITING", "RUNNING")
        assert elapsed >= 0.15
        client.delete(created["uri"])

    def test_invalid_wait_is_a_bad_request(self, container, client):
        container.deploy(add_service_config())
        base = self.base(container)
        created = client.post(f"{base}/services/add", payload={"a": 1, "b": 2})
        for bad in ("soon", "-1"):
            with pytest.raises(ClientError) as info:
                client.get(created["uri"], query={"wait": bad})
            assert info.value.status == 400

    def test_client_handle_waits_via_longpoll(self, container, registry):
        deploy_sleeper(container)
        base = self.base(container)
        proxy = ServiceProxy(f"{base}/services/sleeper", registry)
        handle = proxy.submit(delay=0.3)
        assert handle.wait(timeout=10).representation["state"] == "DONE"
        # the long-poll capability was observed, not assumed
        assert handle.long_poll_supported is not False


    def test_expired_longpolls_leave_no_observer_on_the_job(self, container, client):
        release = threading.Event()
        container.deploy(add_service_config(
            config={"callable": lambda a, b: {"sum": a + b if release.wait(30) else -1}}
        ))
        created = client.post(f"{self.base(container)}/services/add", payload={"a": 1, "b": 2})
        job = container.service("add").jobs.get(created["id"])
        while job.state.value != "RUNNING":
            time.sleep(0.005)
        before = len(job._observers)  # the platform's own: job manager (+ cache)
        # 200 polls that all expire (25 at a time: the server's timer wheel
        # rounds each wait up to its 50 ms tick)
        with ThreadPoolExecutor(max_workers=25) as pool:
            polls = [
                pool.submit(client.get, created["uri"], query={"wait": 0.01})
                for _ in range(200)
            ]
            assert {poll.result(timeout=30)["state"] for poll in polls} == {"RUNNING"}
        assert len(job._observers) == before
        release.set()
        assert client.get(created["uri"], query={"wait": 10})["state"] == "DONE"
        assert len(job._observers) == 0  # terminal is final: nothing left to tell

    # ---- the POST half: submit-and-wait ------------------------------------

    def test_waited_submit_answers_at_transition_with_results(self, container, client):
        deploy_sleeper(container)
        response, elapsed = waited_submit(client, self.base(container), delay=0.3, wait=10)
        assert response.status == 201
        job = response.json_body
        assert response.headers.get("Location") == job["uri"]
        assert job["state"] == "DONE"
        assert job["results"] == {"result": 0.3}
        assert 0.25 <= elapsed < 5  # released by the transition, nowhere near the wait
        assert len(only_job(container)._observers) == 0

    def test_waited_submit_expires_with_current_state(self, container, client):
        deploy_sleeper(container)
        response, elapsed = waited_submit(client, self.base(container), delay=30, wait=0.2)
        assert response.status == 201
        job = response.json_body
        assert response.headers.get("Location") == job["uri"]
        assert job["state"] in ("WAITING", "RUNNING")
        assert "results" not in job
        assert 0.15 <= elapsed < 5
        client.delete(job["uri"])

    def test_invalid_wait_on_submit_is_a_bad_request_and_creates_no_job(self, container, client):
        deploy_sleeper(container)
        for bad in ("abc", "-1"):
            response, _ = waited_submit(client, self.base(container), delay=0, wait=bad)
            assert response.status == 400
        assert container.service("sleeper").jobs.list() == []

    def test_waited_submit_of_an_already_terminal_job_does_not_wait(self, container, client):
        # sync mode: the service hands back a finished job
        container.deploy(add_service_config(mode="sync"))
        started = time.monotonic()
        response = client.request_raw(
            "POST", f"{self.base(container)}/services/add", query={"wait": 10},
            body=b'{"a": 1, "b": 2}',
        )
        assert response.status == 201
        assert response.json_body["results"] == {"sum": 3}
        assert time.monotonic() - started < 5

    def test_keyed_replay_with_wait_waits_on_the_original_job(self, container, client):
        deploy_sleeper(container)
        base = self.base(container)
        headers = {IDEMPOTENCY_KEY_HEADER: "replay-1"}
        first, _ = waited_submit(client, base, delay=0.4, wait=0, headers=headers)
        assert first.status == 201 and first.json_body["state"] in ("WAITING", "RUNNING")
        assert first.headers.get("Idempotent-Replay") is None
        replay, elapsed = waited_submit(client, base, delay=0.4, wait=10, headers=headers)
        assert replay.status == 201
        assert replay.headers.get("Idempotent-Replay") == "true"
        assert replay.json_body["id"] == first.json_body["id"]
        assert replay.json_body["state"] == "DONE"
        assert elapsed < 5
        assert len(container.service("sleeper").jobs.list()) == 1

    def test_delete_during_waited_submit_answers_cancelled(self, container, client):
        deploy_sleeper(container)
        base = self.base(container)
        box = {}

        def submit():
            box["response"], box["elapsed"] = waited_submit(client, base, delay=30, wait=10)

        thread = threading.Thread(target=submit)
        thread.start()
        job = only_job(container)
        time.sleep(0.1)  # the POST is waiting on the job now
        client.delete(f"{base}/services/sleeper/jobs/{job.id}")
        thread.join(timeout=8)
        assert not thread.is_alive()
        assert box["response"].status == 201
        assert box["response"].json_body["state"] == "CANCELLED"
        assert box["elapsed"] < 5
        assert len(job._observers) == 0

    def test_proxy_call_is_one_round_trip(self, container, registry):
        deploy_sleeper(container)
        sent = []
        original = registry.request

        def recording(method, url, **kwargs):
            sent.append((method, url))
            return original(method, url, **kwargs)

        registry.request = recording
        proxy = ServiceProxy(f"{self.base(container)}/services/sleeper", registry)
        assert proxy(delay=0.2) == {"result": 0.2}
        assert [method for method, _ in sent] == ["POST"]
        assert "wait=" in sent[0][1]
        # a handle that came back terminal never asks again
        handle = proxy.submit(wait=5, delay=0.05)
        assert handle.result() == {"result": 0.05}
        assert handle.wait().state.value == "DONE"
        assert [method for method, _ in sent] == ["POST", "POST"]


class TestLongPollLocalTransport(LongPollContract):
    def base(self, container):
        return container.base_uri


class TestLongPollHttpTransport(LongPollContract):
    @pytest.fixture(autouse=True)
    def _serve(self, container):
        server = container.serve(port=0)
        yield
        server.stop()

    def base(self, container):
        return container.base_uri

    def test_parked_submits_do_not_pin_handler_threads(self, registry, client):
        # one server handler thread, several concurrent waited submits: if a
        # parked POST pinned the worker, the second could not even be
        # accepted and none of them would see its job finish
        container = ServiceContainer("one-thread", handlers=4, registry=registry)
        deploy_sleeper(container)
        server = container.serve(port=0, handler_threads=1)
        try:
            results = []

            def submit():
                results.append(waited_submit(client, container.base_uri, delay=0.4, wait=10))

            threads = [threading.Thread(target=submit) for _ in range(3)]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=8)
            assert not any(thread.is_alive() for thread in threads)
            assert [response.json_body["state"] for response, _ in results] == ["DONE"] * 3
            # they waited side by side, not one after the other
            assert time.monotonic() - started < 1.1
        finally:
            server.stop()
            container.shutdown()


class TestRequestCorrelation:
    def test_client_supplied_id_reaches_job_representation(self, container, client):
        container.deploy(add_service_config())
        created = client.request_json(
            "POST",
            f"{container.base_uri}/services/add",
            payload={"a": 1, "b": 2},
            headers={REQUEST_ID_HEADER: "trace-xyz"},
        )
        assert created["request_id"] == "trace-xyz"
        job = client.get(created["uri"], query={"wait": 5})
        assert job["request_id"] == "trace-xyz"

    def test_request_id_echoed_on_every_response(self, container, client):
        container.deploy(add_service_config())
        response = client.request_raw(
            "GET",
            f"{container.base_uri}/services/add",
            headers={REQUEST_ID_HEADER: "echo-me"},
        )
        assert response.headers.get(REQUEST_ID_HEADER) == "echo-me"

    def test_server_generates_id_when_client_sends_none(self, container, client):
        container.deploy(add_service_config())
        response = client.request_raw("POST", f"{container.base_uri}/services/add",
                                      body=b'{"a": 1, "b": 2}')
        generated = response.headers.get(REQUEST_ID_HEADER)
        assert generated and generated.startswith("r-")
        assert response.json_body["request_id"] == generated

    def test_request_id_in_job_manager_log_records(self, container, client, caplog):
        container.deploy(add_service_config())
        with caplog.at_level(logging.INFO, logger="repro.container.jobmanager"):
            created = client.request_json(
                "POST",
                f"{container.base_uri}/services/add",
                payload={"a": 2, "b": 3},
                headers={REQUEST_ID_HEADER: "log-trace-7"},
            )
            job = client.get(created["uri"], query={"wait": 5})
        assert job["state"] == "DONE"
        correlated = [record for record in caplog.records if "log-trace-7" in record.getMessage()]
        assert correlated, "job manager log lines must carry the request id"


class TestFallbackAgainstLegacyServer:
    """A server that ignores ``?wait=`` (the paper's plain polling server)."""

    @pytest.fixture()
    def legacy_base(self, registry):
        app = RestApp("legacy")
        calls = {"count": 0}

        def get_job(request, job_id):
            calls["count"] += 1
            state = "DONE" if calls["count"] >= 3 else "WAITING"
            document = {"id": job_id, "state": state}
            if state == "DONE":
                document["results"] = {"answer": 42}
            return Response.json(document)

        def submit(request):
            # ignores ?wait=: answers WAITING at once, as the paper's server did
            return Response.created(
                f"{base}/services/old/jobs/1",
                {"id": "1", "state": "WAITING", "uri": f"{base}/services/old/jobs/1"},
            )

        app.route("GET", "/services/old/jobs/{job_id}", get_job)
        app.route("POST", "/services/old", submit)
        base = registry.bind_local("legacy", app)
        yield base
        registry.unbind_local("legacy")

    def test_handle_degrades_to_backoff_polling(self, legacy_base, registry):
        from repro.client.client import JobHandle

        handle = JobHandle(f"{legacy_base}/services/old/jobs/1", RestClient(registry))
        handle.wait(timeout=10)
        assert handle.representation["state"] == "DONE"
        assert handle.long_poll_supported is False
        assert handle.result()["answer"] == 42

    def test_waited_submit_falls_back_to_polling(self, legacy_base, registry):
        proxy = ServiceProxy(f"{legacy_base}/services/old", registry)
        handle = proxy.submit(wait=5)
        assert handle.state.value == "WAITING"  # the wait was ignored, not honoured
        assert handle.result(timeout=10) == {"answer": 42}
        assert handle.long_poll_supported is False
        # and the one-call form still gets there
        assert proxy(timeout=10) == {"answer": 42}
