"""Tests for the REST kernel, the two transports and the JSON client.

The central property — identical REST semantics over sockets and in
process — is exercised by running the same scenario matrix against both
transports.
"""

import pytest

from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.client import ClientError, RestClient, join_url
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import TransportError


def build_demo_app():
    """A tiny app exercising the kernel features handlers rely on."""
    app = RestApp("demo")

    def echo(request):
        return Response.json(
            {
                "method": request.method,
                "query": request.query,
                "body": request.json if request.body else None,
                "agent": request.headers.get("X-Agent"),
            }
        )

    def boom(request):
        raise RuntimeError("handler exploded")

    def teapot(request):
        raise HttpError(418 if False else 409, "conflicting state", details={"k": 1})

    def item(request, item_id):
        return Response.json({"item": item_id})

    app.route("GET", "/echo", echo)
    app.route("POST", "/echo", echo)
    app.route("GET", "/boom", boom)
    app.route("GET", "/conflict", teapot)
    app.route("GET", "/items/{item_id}", item)
    return app


@pytest.fixture(params=["local", "http"])
def client(request):
    """The same demo app behind both transports."""
    app = build_demo_app()
    registry = TransportRegistry()
    if request.param == "local":
        base = registry.bind_local("demo", app)
        yield RestClient(registry, base=base)
    else:
        with RestServer(app) as server:
            yield RestClient(registry, base=server.base_url)


class TestBothTransports:
    def test_get_with_query(self, client):
        data = client.get("/echo", query={"q": "matrix inversion", "n": 4})
        assert data["method"] == "GET"
        assert data["query"] == {"q": "matrix inversion", "n": "4"}

    def test_post_json_round_trip(self, client):
        data = client.post("/echo", payload={"values": [1, 2, 3], "nested": {"a": True}})
        assert data["body"] == {"values": [1, 2, 3], "nested": {"a": True}}

    def test_default_headers_are_sent(self, client):
        tagged = client.with_headers({"X-Agent": "workflow-engine"})
        assert tagged.get("/echo")["agent"] == "workflow-engine"

    def test_path_variables(self, client):
        assert client.get("/items/i-42") == {"item": "i-42"}

    def test_404_raises_client_error(self, client):
        with pytest.raises(ClientError) as info:
            client.get("/missing")
        assert info.value.status == 404

    def test_405_reports_allowed_methods(self, client):
        with pytest.raises(ClientError) as info:
            client.delete("/echo")
        assert info.value.status == 405
        # HEAD rides along with GET (the router answers HEAD via GET routes)
        assert info.value.details == {"allow": ["GET", "HEAD", "POST"]}

    def test_http_error_envelope_preserved(self, client):
        with pytest.raises(ClientError) as info:
            client.get("/conflict")
        assert info.value.status == 409
        assert info.value.message == "conflicting state"
        assert info.value.details == {"k": 1}

    def test_unhandled_exception_becomes_500(self, client):
        with pytest.raises(ClientError) as info:
            client.get("/boom")
        assert info.value.status == 500
        assert "internal server error" in info.value.message


class TestMiddleware:
    def test_middleware_can_short_circuit(self):
        app = build_demo_app()

        def deny(request, call_next):
            if request.headers.get("X-Pass") != "yes":
                raise HttpError(403, "forbidden by middleware")
            return call_next(request)

        app.add_middleware(deny)
        assert app.handle(Request.from_target("GET", "/echo")).status == 403
        allowed = app.handle(Request.from_target("GET", "/echo", headers={"X-Pass": "yes"}))
        assert allowed.status == 200

    def test_middleware_order_outermost_first(self):
        app = RestApp()
        trace = []
        app.route("GET", "/", lambda request: Response.json(trace + ["handler"]))

        def make(layer):
            def middleware(request, call_next):
                trace.append(layer)
                return call_next(request)

            return middleware

        app.add_middleware(make("outer"))
        app.add_middleware(make("inner"))
        response = app.handle(Request.from_target("GET", "/"))
        assert response.json_body == ["outer", "inner", "handler"]

    def test_middleware_can_mutate_context(self):
        app = RestApp()
        app.route("GET", "/", lambda request: Response.json(request.context.get("user")))

        def attach(request, call_next):
            request.context["user"] = "alice"
            return call_next(request)

        app.add_middleware(attach)
        assert app.handle(Request.from_target("GET", "/")).json_body == "alice"


class TestRegistry:
    def test_unknown_scheme_raises(self):
        with pytest.raises(TransportError, match="no transport"):
            TransportRegistry().request("GET", "ftp://host/x")

    def test_unbound_local_authority_raises(self):
        with pytest.raises(TransportError, match="no local application"):
            TransportRegistry().request("GET", "local://ghost/x")

    def test_rebinding_authority_rejected(self):
        registry = TransportRegistry()
        registry.bind_local("a", RestApp())
        with pytest.raises(ValueError, match="already bound"):
            registry.bind_local("a", RestApp())

    def test_unbind_then_rebind(self):
        registry = TransportRegistry()
        registry.bind_local("a", RestApp())
        registry.unbind_local("a")
        assert registry.bind_local("a", build_demo_app()) == "local://a"
        assert RestClient(registry, base="local://a").get("/items/1") == {"item": "1"}

    def test_http_transport_connection_refused(self):
        registry = TransportRegistry(http_timeout=0.5)
        with pytest.raises(TransportError):
            # port 1 on loopback is essentially never listening
            registry.request("GET", "http://127.0.0.1:1/x")


class TestJoinUrl:
    @pytest.mark.parametrize(
        ("base", "path", "expected"),
        [
            ("http://h/services/add", "jobs/1", "http://h/services/add/jobs/1"),
            ("http://h/services/add/", "/jobs/1", "http://h/services/add/jobs/1"),
            ("http://h", "", "http://h"),
            ("http://h/a", "http://other/b", "http://other/b"),
            ("local://c/services/x", "files/f1", "local://c/services/x/files/f1"),
        ],
    )
    def test_join(self, base, path, expected):
        assert join_url(base, path) == expected


class TestServerDetails:
    def test_server_assigns_ephemeral_port(self):
        with RestServer(build_demo_app()) as server:
            assert server.port != 0
            assert server.base_url.startswith("http://127.0.0.1:")

    def test_double_start_rejected(self):
        server = RestServer(build_demo_app())
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = RestServer(build_demo_app()).start()
        server.stop()
        server.stop()

    def test_concurrent_requests(self):
        from concurrent.futures import ThreadPoolExecutor

        app = build_demo_app()
        registry = TransportRegistry()
        with RestServer(app) as server:
            client = RestClient(registry, base=server.base_url)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda i: client.get(f"/items/{i}"), range(32)))
        assert [r["item"] for r in results] == [str(i) for i in range(32)]
