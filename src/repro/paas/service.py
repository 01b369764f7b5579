"""The PaaS management interface, itself a RESTful web application.

=================  =======  ==========================================
path               method   action
=================  =======  ==========================================
/tenants           GET      list tenants
/tenants           POST     sign up: ``{"name", "owner"}`` → tenant +
                            owner certificate token
/tenants/{t}       GET      tenant details
/tenants/{t}       DELETE   delete tenant (owner only)
/tenants/{t}/services  POST deploy a JSON service config (owner only)
/tenants/{t}/services/{s}  DELETE  undeploy (owner only)
/search            GET      shared catalogue search (?q=&tenant=)
/metrics           GET      Prometheus text
=================  =======  ==========================================

A sign-up may ask for a ``quota`` at or below the default, never above
it (``403``); a body or ``quota`` that is not a JSON object is a ``400``.

Management calls authenticate with the tenant's owner certificate (the
``X-Client-Certificate`` header issued at sign-up).
"""

from __future__ import annotations

from repro.catalogue.catalogue import CatalogueError
from repro.core.errors import ConfigurationError, ServiceError
from repro.http.messages import HttpError, Request, Response
from repro.observability import RestHost
from repro.paas.platform import PaasError, Platform, Quota
from repro.security.errors import AuthenticationError
from repro.security.middleware import CERTIFICATE_HEADER
from repro.security.pki import Certificate


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise HttpError(400, f"{what} must be a JSON object")
    return value


def _signup_quota(spec: object) -> Quota:
    """The quota a sign-up asks for: at most the default in every field,
    because the platform starts a tenant's handler threads eagerly and an
    anonymous caller must not choose how many (operators pass a larger
    quota to :meth:`Platform.create_tenant`)."""
    spec = _object(spec, "'quota'")
    default = Quota()
    try:
        quota = Quota(
            max_services=int(spec.get("max_services", default.max_services)),
            handlers=int(spec.get("handlers", default.handlers)),
        )
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise HttpError(400, f"bad quota: {exc}") from exc
    if quota.max_services > default.max_services or quota.handlers > default.handlers:
        raise HttpError(403, f"a sign-up may lower its quota, never raise it above {default}")
    return quota


class PlatformService(RestHost):
    """A :class:`Platform` served as a REST application."""

    def __init__(self, platform: Platform | None = None, name: str = "paas"):
        self.platform = platform or Platform()
        super().__init__(name, self.platform.registry, observability=True)
        self.app.route("GET", "/tenants", self._list_tenants)
        self.app.route("POST", "/tenants", self._create_tenant)
        self.app.route("GET", "/tenants/{tenant}", self._get_tenant)
        self.app.route("DELETE", "/tenants/{tenant}", self._delete_tenant)
        self.app.route("POST", "/tenants/{tenant}/services", self._deploy)
        self.app.route("DELETE", "/tenants/{tenant}/services/{service}", self._undeploy)
        self.app.route("GET", "/search", self._search)

    def shutdown(self) -> None:
        """Stop serving, then shut the platform's tenants down."""
        self._unpublish()
        self.platform.shutdown()

    # ----------------------------------------------------------- internals

    def _caller_dn(self, request: Request) -> str:
        token = request.headers.get(CERTIFICATE_HEADER)
        if not token:
            raise HttpError(401, "management calls need an owner certificate")
        try:
            return self.platform.ca.verify(Certificate.from_token(token))
        except AuthenticationError as exc:
            raise HttpError(401, str(exc)) from exc

    # ------------------------------------------------------------- handlers

    def _list_tenants(self, request: Request) -> Response:
        return Response.json([tenant.to_json() for tenant in self.platform.tenants])

    def _create_tenant(self, request: Request) -> Response:
        body = _object(request.json, "a sign-up")
        name, owner = body.get("name", ""), body.get("owner", "")
        if not isinstance(name, str) or not isinstance(owner, str):
            raise HttpError(400, "'name' and 'owner' must be strings")
        quota = _signup_quota(body.get("quota", {}))
        try:
            tenant = self.platform.create_tenant(name, owner, quota=quota)
        except (PaasError, ConfigurationError) as exc:
            raise HttpError(exc.http_status, str(exc)) from exc
        document = tenant.to_json()
        # the sign-up response is the only place the certificate appears
        document["certificate"] = tenant.certificate.to_token()
        return Response.created(f"/tenants/{tenant.name}", document)

    def _get_tenant(self, request: Request, tenant: str) -> Response:
        try:
            return Response.json(self.platform.tenant(tenant).to_json())
        except PaasError as exc:
            raise HttpError(404, str(exc)) from exc

    def _delete_tenant(self, request: Request, tenant: str) -> Response:
        caller = self._caller_dn(request)
        try:
            self.platform.delete_tenant(tenant, caller)
        except PaasError as exc:
            raise HttpError(exc.http_status, str(exc)) from exc
        return Response.no_content()

    def _deploy(self, request: Request, tenant: str) -> Response:
        caller = self._caller_dn(request)
        try:
            uri = self.platform.deploy_service(tenant, request.json, caller)
        except PaasError as exc:
            raise HttpError(exc.http_status, str(exc)) from exc
        except (ServiceError, CatalogueError) as exc:  # ConfigurationError and friends
            raise HttpError(422, str(exc)) from exc
        return Response.created(uri, {"uri": uri})

    def _undeploy(self, request: Request, tenant: str, service: str) -> Response:
        caller = self._caller_dn(request)
        try:
            self.platform.undeploy_service(tenant, service, caller)
        except PaasError as exc:
            raise HttpError(exc.http_status, str(exc)) from exc
        except ServiceError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.no_content()

    def _search(self, request: Request) -> Response:
        hits = self.platform.search(
            request.query.get("q", ""), tenant_name=request.query.get("tenant") or None
        )
        return Response.json({"hits": hits})
