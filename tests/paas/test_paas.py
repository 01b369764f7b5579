"""Tests for the hosted PaaS layer (the paper's future work, implemented)."""

import sys

import pytest

from repro.client import ServiceProxy
from repro.http.client import ClientError, RestClient
from repro.http.registry import TransportRegistry
from repro.paas import PaasError, Platform, PlatformService
from repro.paas.platform import Quota

PY = sys.executable


def double_config(name="double"):
    return {
        "description": {
            "name": name,
            "title": "Doubler",
            "description": "Doubles an integer from a plain executable.",
            "inputs": {"n": {"schema": {"type": "integer"}}},
            "outputs": {"doubled": {"schema": {"type": "integer"}}},
        },
        "adapter": "command",
        "config": {
            "command": f"{PY} -c \"import sys; print(int(sys.argv[1]) * 2)\" {{n}}",
            "outputs": {"doubled": {"stdout": True, "json": True}},
        },
    }


def python_config():
    return {
        "description": {"name": "evil", "inputs": {}, "outputs": {}},
        "adapter": "python",
        "config": {"callable": "os:system"},
    }


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def platform(registry):
    instance = Platform(registry=registry)
    yield instance
    instance.shutdown()


class TestTenancy:
    def test_create_tenant_provisions_container_and_certificate(self, platform):
        tenant = platform.create_tenant("lab-a", "CN=alice")
        assert tenant.container.base_uri.startswith("local://")
        assert platform.ca.verify(tenant.certificate) == "CN=alice"
        assert platform.tenant("lab-a") is tenant

    def test_duplicate_tenant_rejected(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        with pytest.raises(PaasError, match="already exists"):
            platform.create_tenant("lab-a", "CN=bob")

    def test_bad_tenant_name_rejected(self, platform):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            platform.create_tenant("bad name!", "CN=alice")

    def test_delete_tenant_requires_owner(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        with pytest.raises(PaasError, match="does not own"):
            platform.delete_tenant("lab-a", "CN=mallory")
        platform.delete_tenant("lab-a", "CN=alice")
        with pytest.raises(PaasError, match="no tenant"):
            platform.tenant("lab-a")

    def test_tenants_are_isolated_containers(self, platform, registry):
        tenant_a = platform.create_tenant("lab-a", "CN=alice")
        tenant_b = platform.create_tenant("lab-b", "CN=bob")
        platform.deploy_service("lab-a", double_config(), "CN=alice")
        assert tenant_a.service_count == 1
        assert tenant_b.service_count == 0
        assert tenant_a.container.base_uri != tenant_b.container.base_uri


class TestHostedDeployment:
    def test_deploy_and_invoke(self, platform, registry):
        platform.create_tenant("lab-a", "CN=alice")
        uri = platform.deploy_service("lab-a", double_config(), "CN=alice")
        proxy = ServiceProxy(uri, registry)
        assert proxy(n=21, timeout=60)["doubled"] == 42

    def test_non_owner_cannot_deploy(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        with pytest.raises(PaasError, match="does not own"):
            platform.deploy_service("lab-a", double_config(), "CN=mallory")

    def test_python_adapter_forbidden_for_tenants(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        with pytest.raises(PaasError, match="not available to hosted tenants"):
            platform.deploy_service("lab-a", python_config(), "CN=alice")

    def test_quota_enforced(self, platform):
        platform.create_tenant("lab-a", "CN=alice", quota=Quota(max_services=2))
        platform.deploy_service("lab-a", double_config("s1"), "CN=alice")
        platform.deploy_service("lab-a", double_config("s2"), "CN=alice")
        with pytest.raises(PaasError, match="quota"):
            platform.deploy_service("lab-a", double_config("s3"), "CN=alice")
        platform.undeploy_service("lab-a", "s1", "CN=alice")
        platform.deploy_service("lab-a", double_config("s3"), "CN=alice")

    def test_deployment_publishes_to_shared_catalogue(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        platform.create_tenant("lab-b", "CN=bob")
        platform.deploy_service("lab-a", double_config(), "CN=alice")
        hits = platform.search("doubles integer")
        assert hits and hits[0]["name"] == "double"
        assert "tenant:lab-a" in hits[0]["tags"]
        assert platform.search("doubles", tenant_name="lab-b") == []

    def test_undeploy_removes_from_catalogue(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        platform.deploy_service("lab-a", double_config(), "CN=alice")
        platform.undeploy_service("lab-a", "double", "CN=alice")
        assert platform.search("doubles") == []

    def test_delete_tenant_cleans_catalogue(self, platform):
        platform.create_tenant("lab-a", "CN=alice")
        platform.deploy_service("lab-a", double_config(), "CN=alice")
        platform.delete_tenant("lab-a", "CN=alice")
        assert platform.search("doubles") == []


class TestPlatformRestInterface:
    @pytest.fixture()
    def rest(self, registry):
        service = PlatformService(Platform(registry=registry))
        yield RestClient(registry, base=service.local_base), service.platform
        service.shutdown()

    def test_signup_returns_certificate_once(self, rest):
        client, _ = rest
        created = client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        assert created["name"] == "lab-a"
        assert created["certificate"]
        fetched = client.get("/tenants/lab-a")
        assert "certificate" not in fetched

    def test_full_hosted_lifecycle_over_rest(self, rest, registry):
        client, platform = rest
        created = client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        credentials = {"X-Client-Certificate": created["certificate"]}
        authed = client.with_headers(credentials)
        deployed = authed.post("/tenants/lab-a/services", payload=double_config())
        proxy = ServiceProxy(deployed["uri"], registry)
        assert proxy(n=5, timeout=60)["doubled"] == 10
        hits = client.get("/search", query={"q": "doubler"})["hits"]
        assert hits
        authed.delete("/tenants/lab-a/services/double")
        authed.delete("/tenants/lab-a")
        assert client.get("/tenants") == []

    def test_management_without_certificate_is_401(self, rest):
        client, _ = rest
        client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        with pytest.raises(ClientError) as info:
            client.post("/tenants/lab-a/services", payload=double_config())
        assert info.value.status == 401

    def test_foreign_certificate_is_403(self, rest):
        client, platform = rest
        client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        mallory = client.with_headers(
            {"X-Client-Certificate": platform.ca.issue("CN=mallory").to_token()}
        )
        with pytest.raises(ClientError) as info:
            mallory.post("/tenants/lab-a/services", payload=double_config())
        assert info.value.status == 403

    def test_forged_certificate_is_401(self, rest):
        from repro.security import CertificateAuthority

        client, _ = rest
        client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        forged = client.with_headers(
            {"X-Client-Certificate": CertificateAuthority("CN=Evil").issue("CN=alice").to_token()}
        )
        with pytest.raises(ClientError) as info:
            forged.post("/tenants/lab-a/services", payload=double_config())
        assert info.value.status == 401

    def test_bad_config_is_422(self, rest):
        client, platform = rest
        created = client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        authed = client.with_headers({"X-Client-Certificate": created["certificate"]})
        with pytest.raises(ClientError) as info:
            authed.post("/tenants/lab-a/services", payload={"description": {"name": "x"}})
        assert info.value.status == 422

    def test_unknown_tenant_404(self, rest):
        client, _ = rest
        with pytest.raises(ClientError) as info:
            client.get("/tenants/ghost")
        assert info.value.status == 404

    def test_quota_in_signup(self, rest):
        client, platform = rest
        created = client.post(
            "/tenants",
            payload={"name": "lab-a", "owner": "CN=alice", "quota": {"max_services": 1}},
        )
        authed = client.with_headers({"X-Client-Certificate": created["certificate"]})
        authed.post("/tenants/lab-a/services", payload=double_config("s1"))
        with pytest.raises(ClientError) as info:
            authed.post("/tenants/lab-a/services", payload=double_config("s2"))
        assert info.value.status == 403

    def test_signup_cannot_raise_its_quota(self, rest):
        client, platform = rest
        with pytest.raises(ClientError) as info:
            client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice",
                                             "quota": {"handlers": 3}})
        assert info.value.status == 403
        assert platform.tenants == []  # refused before any container was built
        # an operator may still grant more
        assert platform.create_tenant("lab-a", "CN=alice", quota=Quota(handlers=3)).quota.handlers == 3

    @pytest.mark.parametrize("payload", [
        [],
        {"name": "lab-a", "owner": "CN=alice", "quota": []},
        {"name": "lab-a", "owner": "CN=alice", "quota": {"handlers": None}},
        {"name": "lab-a", "owner": "CN=alice", "quota": {"handlers": "many"}},
        {"name": "lab-a", "owner": "CN=alice", "quota": {"handlers": 0}},
        {"name": 5, "owner": "CN=alice"},
        {"name": "bad name!", "owner": "CN=alice"},
    ])
    def test_malformed_signup_is_400(self, rest, payload):
        client, platform = rest
        with pytest.raises(ClientError) as info:
            client.post("/tenants", payload=payload)
        assert info.value.status == 400
        assert platform.tenants == []

    def test_undeploy_unknown_service_is_404(self, rest):
        client, _ = rest
        created = client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        authed = client.with_headers({"X-Client-Certificate": created["certificate"]})
        with pytest.raises(ClientError) as info:
            authed.delete("/tenants/lab-a/services/ghost")
        assert info.value.status == 404

    def test_unexpected_deploy_failure_is_a_500_not_a_422(self, rest, monkeypatch):
        client, platform = rest
        created = client.post("/tenants", payload={"name": "lab-a", "owner": "CN=alice"})
        authed = client.with_headers({"X-Client-Certificate": created["certificate"]})

        def broken(*args, **kwargs):
            raise RuntimeError("a platform bug")

        monkeypatch.setattr(platform, "deploy_service", broken)
        with pytest.raises(ClientError) as info:
            authed.post("/tenants/lab-a/services", payload=double_config())
        assert info.value.status == 500
