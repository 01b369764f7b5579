"""Tests for the catalogue and its REST service."""

import sys
import threading

import pytest

from repro.catalogue import Catalogue, CatalogueService
from repro.catalogue.catalogue import CatalogueError
from repro.container import ServiceContainer
from repro.http.client import ClientError, RestClient
from repro.http.messages import Response
from repro.http.registry import TransportRegistry
from repro.http.transport import Transport, TransportError


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def container(registry):
    instance = ServiceContainer("cat-test", handlers=2, registry=registry)
    for name, title, description, tags in (
        ("invert", "Matrix inversion", "Error-free inversion of ill-conditioned matrices", None),
        ("simplex", "LP solver", "Linear programming with the simplex method", None),
        ("xray", "Scattering curves", "X-ray scattering for carbon nanostructures", None),
    ):
        instance.deploy(
            {
                "description": {
                    "name": name,
                    "title": title,
                    "description": description,
                    "inputs": {"task": {"schema": True}},
                    "outputs": {"result": {"schema": True}},
                },
                "adapter": "python",
                "config": {"callable": lambda task: {"result": task}},
            }
        )
    yield instance
    instance.shutdown()


@pytest.fixture()
def catalogue(registry):
    instance = Catalogue(registry)
    yield instance
    instance.close()


class TestPublication:
    def test_publish_fetches_description(self, catalogue, container):
        entry = catalogue.publish(container.service_uri("invert"), tags=["cas", "linear-algebra"])
        assert entry.name == "invert"
        assert entry.tags == {"cas", "linear-algebra"}

    def test_publish_unreachable_uri_fails(self, catalogue):
        with pytest.raises(CatalogueError, match="cannot retrieve"):
            catalogue.publish("local://nowhere/services/x")

    def test_publish_non_service_uri_fails(self, catalogue, container):
        # the container index returns JSON without a 'name'
        with pytest.raises(CatalogueError, match="did not return a service description"):
            catalogue.publish(container.base_uri + "/services")

    def test_unpublish(self, catalogue, container):
        uri = container.service_uri("invert")
        catalogue.publish(uri)
        catalogue.unpublish(uri)
        assert catalogue.search("inversion") == []
        with pytest.raises(CatalogueError):
            catalogue.entry(uri)

    def test_unpublish_unknown(self, catalogue):
        with pytest.raises(CatalogueError, match="not published"):
            catalogue.unpublish("local://x/services/y")

    def test_republish_updates(self, catalogue, container):
        uri = container.service_uri("invert")
        catalogue.publish(uri, tags=["old"])
        entry = catalogue.publish(uri, tags=["new"])
        assert entry.tags == {"new"}
        assert len(catalogue.entries()) == 1


class TestSearch:
    @pytest.fixture(autouse=True)
    def _published(self, catalogue, container):
        catalogue.publish(container.service_uri("invert"), tags=["cas"])
        catalogue.publish(container.service_uri("simplex"), tags=["optimization"])
        catalogue.publish(container.service_uri("xray"), tags=["physics"])

    def test_full_text_search(self, catalogue):
        hits = catalogue.search("matrix inversion")
        assert hits[0]["name"] == "invert"

    def test_snippet_highlights_terms(self, catalogue):
        hits = catalogue.search("simplex")
        assert "**simplex**" in hits[0]["snippet"].lower()

    def test_tag_filter(self, catalogue):
        hits = catalogue.search("", tag="physics")
        assert [hit["name"] for hit in hits] == ["xray"]

    def test_tag_filter_combined_with_query(self, catalogue):
        assert catalogue.search("linear", tag="physics") == []
        hits = catalogue.search("linear", tag="optimization")
        assert hits and hits[0]["name"] == "simplex"

    def test_search_in_tags(self, catalogue):
        hits = catalogue.search("optimization")
        assert any(hit["name"] == "simplex" for hit in hits)

    def test_availability_filter(self, catalogue, container):
        container.undeploy("xray")
        catalogue.ping_all()
        hits = catalogue.search("", available_only=True)
        names = [hit["name"] for hit in hits]
        assert "xray" not in names
        assert {"invert", "simplex"} <= set(names)
        # without the filter the dead service still appears, marked
        all_hits = {hit["name"]: hit for hit in catalogue.search("")}
        assert all_hits["xray"]["available"] is False

    def test_limit(self, catalogue):
        assert len(catalogue.search("", limit=2)) == 2

    def test_user_tagging_updates_index(self, catalogue, container):
        uri = container.service_uri("invert")
        catalogue.add_tags(uri, ["hilbert-special"])
        hits = catalogue.search("hilbert-special")
        assert hits and hits[0]["name"] == "invert"


class TestMonitoring:
    def test_ping_updates_availability(self, catalogue, container):
        uri = container.service_uri("invert")
        catalogue.publish(uri)
        assert catalogue.ping(uri) is True
        container.undeploy("invert")
        assert catalogue.ping(uri) is False
        assert catalogue.entry(uri).last_ping is not None

    def test_pinger_thread_lifecycle(self, catalogue, container):
        import time

        catalogue.publish(container.service_uri("invert"))
        catalogue.start_pinger(interval=0.05)
        with pytest.raises(RuntimeError):
            catalogue.start_pinger(interval=0.05)
        time.sleep(0.2)
        catalogue.stop_pinger()
        assert catalogue.entry(container.service_uri("invert")).last_ping is not None
        catalogue.stop_pinger()  # idempotent


class TestPersistence:
    def test_crash_and_reopen_keeps_entries_tags_and_search_hits(self, registry, container, tmp_path):
        first = CatalogueService(registry=registry, journal_dir=tmp_path)
        client = RestClient(registry, base=first.local_base)
        invert, simplex, xray = (container.service_uri(n) for n in ("invert", "simplex", "xray"))
        client.post("/services", payload={"uri": invert, "tags": ["cas"]})
        client.post("/services", payload={"uri": simplex})
        client.post("/services/tags", payload={"uri": simplex, "tags": ["lp"]})
        client.post("/services", payload={"uri": xray, "tags": ["physics"]})
        client.delete(f"/services?uri={xray}")
        listing = client.get("/services")
        hits = {query: client.get("/search", query={"q": query})["hits"]
                for query in ("inversion", "lp", "scattering")}
        first.crash()

        second = CatalogueService(registry=registry, journal_dir=tmp_path)
        try:
            client = RestClient(registry, base=second.local_base)
            assert client.get("/services") == listing
            for query, expected in hits.items():
                assert client.get("/search", query={"q": query})["hits"] == expected
            assert hits["inversion"][0]["name"] == "invert"
            assert hits["lp"][0]["name"] == "simplex"
            assert hits["scattering"] == []
            assert second.catalogue.entry(invert).tags == {"cas"}
            assert second.catalogue.entry(simplex).tags == {"lp"}
            assert second.recovery_warnings == []
        finally:
            second.shutdown()


class ListSpine:
    """A state-spine stand-in: hands ``records`` to the participant's
    restore, then collects what it journals into the same list."""

    def __init__(self, records=()):
        self.records = list(records)

    def register(self, types, sections, restore, export, collectors=None, close=None):
        restore({}, list(self.records))
        return self.records.append


class TestConcurrentJournaling:
    def test_racing_tags_and_republishes_journal_in_state_order(self, registry, container):
        catalogue = Catalogue(registry)
        spine = ListSpine()
        catalogue.join(spine)
        uri = container.service_uri("invert")
        catalogue.publish(uri)

        def replayed():
            fresh = Catalogue(registry)
            fresh.join(ListSpine(spine.records))
            return {entry.uri: entry.tags for entry in fresh.entries()}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(100):
                barrier = threading.Barrier(4)

                def change(worker):
                    barrier.wait(timeout=30)
                    if worker == 0:
                        catalogue.publish(uri, tags=[f"fresh-{round_}"])
                    else:
                        catalogue.add_tags(uri, [f"r{round_}-w{worker}"])

                threads = [threading.Thread(target=change, args=(w,)) for w in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                # the last record per URI is the live entry: a record
                # journaled out of order would fold to a stale one
                assert replayed() == {uri: catalogue.entry(uri).tags}, round_
        finally:
            sys.setswitchinterval(interval)


class TestLifecycle:
    def test_shutdown_stops_pinger_and_probe_pool(self, registry, container):
        earlier = set(threading.enumerate())

        def catalogue_threads():
            return [thread.name for thread in threading.enumerate()
                    if thread not in earlier
                    and thread.name.startswith(("catalogue-pinger", "catalogue-probe"))]

        service = CatalogueService(registry=registry)
        service.catalogue.publish(container.service_uri("invert"))
        service.catalogue.start_pinger(interval=0.05)
        RestClient(registry, base=service.local_base).post("/ping")
        assert len(catalogue_threads()) == 1 + Catalogue.PROBE_WORKERS
        service.shutdown()
        assert catalogue_threads() == []
        with pytest.raises(TransportError):
            RestClient(registry, base=service.local_base).get("/services")


class BarrierTransport(Transport):
    """Serves service descriptions on ``stub://``; once armed, every probe
    waits at a barrier, so a round completes only if probes overlap."""

    schemes = ("stub",)

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties)
        self.armed = False

    def request(self, method, url, headers=None, body=b""):
        if self.armed:
            self.barrier.wait(timeout=30)  # a broken barrier fails the probe
        return Response.json({"name": url.rsplit("/", 1)[-1]})


class TestPooledPing:
    def test_ping_endpoint_probes_in_parallel(self, registry):
        transport = BarrierTransport(Catalogue.PROBE_WORKERS)
        registry.add_transport(transport)
        service = CatalogueService(registry=registry)
        try:
            uris = [f"stub://lab/services/s{index}" for index in range(Catalogue.PROBE_WORKERS)]
            for uri in uris:
                service.catalogue.publish(uri)
            transport.armed = True
            availability = RestClient(registry, base=service.local_base).post("/ping")
            assert availability == {uri: True for uri in uris}
            assert not transport.barrier.broken
        finally:
            service.shutdown()


class TestRestService:
    @pytest.fixture()
    def rest(self, registry):
        service = CatalogueService("cat", registry=registry)
        yield RestClient(registry, base=service.local_base)
        service.shutdown()

    def test_publish_search_unpublish_cycle(self, rest, container):
        uri = container.service_uri("invert")
        created = rest.post("/services", payload={"uri": uri, "tags": ["cas"]})
        assert created["uri"] == uri
        hits = rest.get("/search", query={"q": "inversion"})["hits"]
        assert hits[0]["uri"] == uri
        listing = rest.get("/services")
        assert len(listing) == 1
        rest.delete(f"/services?uri={uri}")
        assert rest.get("/search", query={"q": "inversion"})["hits"] == []

    def test_publish_without_uri_is_400(self, rest):
        with pytest.raises(ClientError) as info:
            rest.post("/services", payload={})
        assert info.value.status == 400

    def test_publish_unreachable_is_422(self, rest):
        with pytest.raises(ClientError) as info:
            rest.post("/services", payload={"uri": "local://ghost/services/x"})
        assert info.value.status == 422

    def test_tagging_endpoint(self, rest, container):
        uri = container.service_uri("simplex")
        rest.post("/services", payload={"uri": uri})
        updated = rest.post("/services/tags", payload={"uri": uri, "tags": ["lp"]})
        assert "lp" in updated["tags"]

    def test_ping_endpoint(self, rest, container):
        uri = container.service_uri("xray")
        rest.post("/services", payload={"uri": uri})
        availability = rest.post("/ping")
        assert availability == {uri: True}

    def test_serve_over_http(self, registry, container):
        service = CatalogueService(registry=registry)
        server = service.serve()
        try:
            client = RestClient(registry, base=server.base_url)
            client.post("/services", payload={"uri": container.service_uri("invert")})
            hits = client.get("/search", query={"q": "matrices"})["hits"]
            assert hits
            assert "mc_catalogue_entries" in client.get("/metrics")
        finally:
            service.shutdown()

    @pytest.mark.parametrize("payload", [
        {"uri": "local://x/services/y", "tags": "lp"},
        {"uri": "local://x/services/y", "tags": 5},
        {"uri": "local://x/services/y", "tags": ["ok", 5]},
        {"uri": 5},
        [],
    ])
    @pytest.mark.parametrize("path", ["/services", "/services/tags"])
    def test_malformed_publication_is_400(self, rest, path, payload):
        with pytest.raises(ClientError) as info:
            rest.post(path, payload=payload)
        assert info.value.status == 400
        assert rest.get("/services") == []

    def test_string_tags_never_split_into_letters(self, rest, container):
        uri = container.service_uri("simplex")
        rest.post("/services", payload={"uri": uri, "tags": ["lp"]})
        with pytest.raises(ClientError):
            rest.post("/services/tags", payload={"uri": uri, "tags": "abc"})
        assert rest.get("/services")[0]["tags"] == ["lp"]

    @pytest.mark.parametrize("limit", ["abc", "-1", "0", "1.5", ""])
    def test_bad_limit_is_400(self, rest, limit):
        with pytest.raises(ClientError) as info:
            rest.get("/search", query={"q": "x", "limit": limit})
        assert info.value.status == 400

    def test_limit_is_honoured(self, rest, container):
        for name in ("invert", "simplex", "xray"):
            rest.post("/services", payload={"uri": container.service_uri(name)})
        assert len(rest.get("/search", query={"limit": "2"})["hits"]) == 2
