"""HTTP/1.1 keep-alive, pooled-socket reconnects and Retry-After handling."""

import time

import pytest

from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.client import (
    IDEMPOTENCY_KEY_HEADER,
    RestClient,
    parse_retry_after,
)
from repro.http.messages import Response
from repro.http.registry import TransportRegistry
from repro.http.transport import HttpTransport, TransportError


def ping_app() -> RestApp:
    app = RestApp("keepalive")
    app.route("GET", "/ping", lambda request: Response.json({"pong": True}))
    app.route("POST", "/jobs", lambda request: Response.json({"created": True}, status=201))
    return app


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self):
        server = RestServer(ping_app()).start()
        transport = HttpTransport()
        try:
            for _ in range(10):
                response = transport.request("GET", f"{server.base_url}/ping")
                assert response.status == 200
            assert server.connections_accepted == 1
        finally:
            transport.close()
            server.stop()

    def test_keep_alive_disabled_opens_a_connection_per_request(self):
        server = RestServer(ping_app()).start()
        transport = HttpTransport(keep_alive=False)
        try:
            for _ in range(3):
                assert transport.request("GET", f"{server.base_url}/ping").status == 200
            assert server.connections_accepted == 3
        finally:
            transport.close()
            server.stop()

    def test_registry_default_transport_reuses_connections(self):
        server = RestServer(ping_app()).start()
        registry = TransportRegistry()
        try:
            for _ in range(5):
                assert registry.request("GET", f"{server.base_url}/ping").status == 200
            assert server.connections_accepted == 1
        finally:
            server.stop()

    def test_stale_pooled_socket_reconnects_transparently(self):
        first = RestServer(ping_app()).start()
        port = first.port
        transport = HttpTransport()
        try:
            assert transport.request("GET", f"{first.base_url}/ping").status == 200
            first.stop()  # the pooled socket is now stale
            second = RestServer(ping_app(), port=port).start()
            try:
                # the transport notices the dead socket and retries once on
                # a fresh connection instead of surfacing the reset
                response = transport.request("GET", f"{second.base_url}/ping")
                assert response.status == 200
                assert second.connections_accepted == 1
            finally:
                second.stop()
        finally:
            transport.close()

    def test_stale_socket_post_without_key_is_not_replayed(self):
        first = RestServer(ping_app()).start()
        port = first.port
        transport = HttpTransport()
        try:
            assert transport.request("POST", f"{first.base_url}/jobs").status == 201
            first.stop()  # the pooled socket is now stale
            second = RestServer(ping_app(), port=port).start()
            try:
                # the failure is ambiguous (the old server may have processed
                # the request), so a keyless POST surfaces it instead of
                # silently creating a possible duplicate
                with pytest.raises(TransportError):
                    transport.request("POST", f"{second.base_url}/jobs")
            finally:
                second.stop()
        finally:
            transport.close()

    def test_stale_socket_post_with_idempotency_key_is_replayed(self):
        first = RestServer(ping_app()).start()
        port = first.port
        transport = HttpTransport()
        try:
            assert transport.request("POST", f"{first.base_url}/jobs").status == 201
            first.stop()
            second = RestServer(ping_app(), port=port).start()
            try:
                response = transport.request(
                    "POST", f"{second.base_url}/jobs", headers={IDEMPOTENCY_KEY_HEADER: "ik-1"}
                )
                assert response.status == 201
            finally:
                second.stop()
        finally:
            transport.close()


class TestParseRetryAfter:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [("0", 0.0), ("3", 3.0), (" 2.5 ", 2.5), ("-1", None), ("soon", None), (None, None)],
    )
    def test_seconds_form_only(self, value, expected):
        assert parse_retry_after(value) == expected

    def test_http_date_form_is_ignored(self):
        assert parse_retry_after("Fri, 31 Dec 1999 23:59:59 GMT") is None


class FlakyApp:
    """Answers 503 + Retry-After a configurable number of times, then 200."""

    def __init__(self, failures: int, retry_after: str = "0.02"):
        self.remaining = failures
        self.retry_after = retry_after
        self.calls = 0

    def handle(self, request):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            response = Response.json({"error": "busy"}, status=503)
            if self.retry_after is not None:
                response.headers.set("Retry-After", self.retry_after)
            return response
        return Response.json({"ok": True})


def bind_flaky(registry: TransportRegistry, flaky: FlakyApp) -> str:
    app = RestApp("flaky")
    app.route("GET", "/work", flaky.handle)
    app.route("POST", "/work", flaky.handle)
    return registry.bind_local(f"flaky-{id(flaky)}", app)


class TestClientHonoursRetryAfter:
    def test_get_retries_after_the_advertised_delay(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=2)
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=5.0)
        assert client.get(f"{base}/work") == {"ok": True}
        assert flaky.calls == 3

    def test_total_wait_is_capped_by_a_monotonic_deadline(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=10_000, retry_after="0.05")
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=0.15)
        started = time.monotonic()
        response = client.request_raw("GET", f"{base}/work")
        elapsed = time.monotonic() - started
        assert response.status == 503  # still failing when the budget ran out
        assert elapsed < 2.0
        assert flaky.calls >= 2  # but it did retry while the budget lasted

    def test_missing_retry_after_means_no_retry(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=5, retry_after=None)
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=5.0)
        assert client.request_raw("GET", f"{base}/work").status == 503
        assert flaky.calls == 1

    def test_plain_post_is_not_replayed(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=5)
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=5.0)
        assert client.request_raw("POST", f"{base}/work").status == 503
        assert flaky.calls == 1

    def test_post_with_idempotency_key_is_replayed(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=1)
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=5.0)
        response = client.request_raw(
            "POST", f"{base}/work", headers={IDEMPOTENCY_KEY_HEADER: "ik-1"}
        )
        assert response.status == 200
        assert flaky.calls == 2

    def test_retry_shorter_than_advertised_delay_is_skipped(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=5, retry_after="30")
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=0.2)
        started = time.monotonic()
        assert client.request_raw("GET", f"{base}/work").status == 503
        elapsed = time.monotonic() - started
        assert flaky.calls == 1  # no retry before the server said it's ready
        assert elapsed < 1.0  # and no pointless truncated wait either

    def test_zero_cap_disables_retry_entirely(self):
        registry = TransportRegistry()
        flaky = FlakyApp(failures=5)
        base = bind_flaky(registry, flaky)
        client = RestClient(registry, retry_after_cap=0.0)
        assert client.request_raw("GET", f"{base}/work").status == 503
        assert flaky.calls == 1
