"""The PaaS core: tenants, quotas, hosted deployment, shared catalogue."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.catalogue import Catalogue
from repro.container import ServiceContainer
from repro.container.config import ServiceConfig
from repro.core.description import check_service_name
from repro.core.errors import ConfigurationError, ServiceError
from repro.http.registry import TransportRegistry
from repro.security.pki import Certificate, CertificateAuthority

#: Adapters a hosted tenant may use. The Python adapter would execute
#: tenant-supplied code inside the platform process, so it is excluded;
#: command/cluster/grid run work in separate processes or on substrates.
HOSTED_ADAPTERS = frozenset({"command", "cluster", "grid"})


class PaasError(ServiceError):
    """Tenancy or quota violation."""

    http_status = 403


@dataclass
class Quota:
    """Per-tenant resource limits."""

    max_services: int = 10
    handlers: int = 2

    def __post_init__(self) -> None:
        if self.max_services < 1 or self.handlers < 1:
            raise ConfigurationError("quota values must be >= 1")


@dataclass(eq=False)
class Tenant:
    """One hosted account: an isolated container plus its credentials."""

    name: str
    owner_dn: str
    container: ServiceContainer
    certificate: Certificate
    quota: Quota = field(default_factory=Quota)

    @property
    def service_count(self) -> int:
        return len(self.container.services)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "owner": self.owner_dn,
            "base_uri": self.container.base_uri,
            "services": [s.name for s in self.container.services],
            "quota": {
                "max_services": self.quota.max_services,
                "handlers": self.quota.handlers,
            },
        }


class Platform:
    """Hosts tenants, enforces quotas, shares a catalogue."""

    def __init__(
        self,
        registry: TransportRegistry | None = None,
        ca: CertificateAuthority | None = None,
        name: str = "mathcloud-paas",
    ):
        self.name = name
        self.registry = registry or TransportRegistry()
        self.ca = ca or CertificateAuthority(f"CN={name} CA")
        self.catalogue = Catalogue(self.registry)
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- tenancy

    def create_tenant(
        self, name: str, owner_dn: str, quota: Quota | None = None
    ) -> Tenant:
        """Provision a tenant: container + owner certificate."""
        check_service_name(name)  # same alphabet rules as service names
        if not owner_dn:
            raise PaasError("a tenant needs an owner distinguished name")
        with self._lock:
            if name in self._tenants:
                raise PaasError(f"tenant {name!r} already exists")
            quota = quota or Quota()
            container = ServiceContainer(
                f"{self.name}-{name}", handlers=quota.handlers, registry=self.registry
            )
            tenant = Tenant(
                name=name,
                owner_dn=owner_dn,
                container=container,
                certificate=self.ca.issue(owner_dn),
                quota=quota,
            )
            self._tenants[name] = tenant
        return tenant

    def delete_tenant(self, name: str, caller_dn: str) -> None:
        tenant = self.tenant(name)
        self._authorize(tenant, caller_dn)
        for service in list(tenant.container.services):
            self._unpublish_quietly(tenant, service.name)
        tenant.container.shutdown()
        with self._lock:
            del self._tenants[name]

    def tenant(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise PaasError(f"no tenant {name!r}")
        return tenant

    @property
    def tenants(self) -> list[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def shutdown(self) -> None:
        for tenant in self.tenants:
            tenant.container.shutdown()
        with self._lock:
            self._tenants.clear()
        self.catalogue.close()

    # ----------------------------------------------------------- deployment

    def _authorize(self, tenant: Tenant, caller_dn: str) -> None:
        if caller_dn != tenant.owner_dn:
            raise PaasError(
                f"{caller_dn!r} does not own tenant {tenant.name!r}"
            )

    def deploy_service(
        self, tenant_name: str, config: dict[str, Any], caller_dn: str
    ) -> str:
        """Deploy a JSON service configuration into a tenant's container.

        Returns the public service URI. Enforces ownership, the hosted
        adapter allow-list and the tenant's service quota.
        """
        tenant = self.tenant(tenant_name)
        self._authorize(tenant, caller_dn)
        parsed = ServiceConfig.from_dict(config)
        if parsed.adapter not in HOSTED_ADAPTERS:
            raise PaasError(
                f"adapter {parsed.adapter!r} is not available to hosted tenants "
                f"(allowed: {sorted(HOSTED_ADAPTERS)})"
            )
        if tenant.service_count >= tenant.quota.max_services:
            raise PaasError(
                f"tenant {tenant.name!r} is at its quota of "
                f"{tenant.quota.max_services} services"
            )
        tenant.container.deploy(parsed)
        uri = tenant.container.service_uri(parsed.name)
        self.catalogue.publish(uri, tags=["paas", f"tenant:{tenant.name}"])
        return uri

    def undeploy_service(self, tenant_name: str, service_name: str, caller_dn: str) -> None:
        tenant = self.tenant(tenant_name)
        self._authorize(tenant, caller_dn)
        self._unpublish_quietly(tenant, service_name)
        tenant.container.undeploy(service_name)

    def _unpublish_quietly(self, tenant: Tenant, service_name: str) -> None:
        from repro.catalogue.catalogue import CatalogueError

        try:
            self.catalogue.unpublish(tenant.container.service_uri(service_name))
        except CatalogueError:
            pass

    # ------------------------------------------------------------ discovery

    def search(self, query: str, tenant_name: str | None = None) -> list[dict[str, Any]]:
        tag = f"tenant:{tenant_name}" if tenant_name else None
        return self.catalogue.search(query, tag=tag)
