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
=================  =======  ==========================================

Management calls authenticate with the tenant's owner certificate (the
``X-Client-Certificate`` header issued at sign-up).
"""

from __future__ import annotations

from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.messages import HttpError, Request, Response
from repro.paas.platform import PaasError, Platform, Quota
from repro.security.errors import AuthenticationError
from repro.security.middleware import CERTIFICATE_HEADER
from repro.security.pki import Certificate


class PlatformService:
    """Wraps a :class:`Platform` in a REST application."""

    def __init__(self, platform: Platform | None = None):
        self.platform = platform or Platform()
        self.app = RestApp("paas")
        self.app.route("GET", "/tenants", self._list_tenants)
        self.app.route("POST", "/tenants", self._create_tenant)
        self.app.route("GET", "/tenants/{tenant}", self._get_tenant)
        self.app.route("DELETE", "/tenants/{tenant}", self._delete_tenant)
        self.app.route("POST", "/tenants/{tenant}/services", self._deploy)
        self.app.route("DELETE", "/tenants/{tenant}/services/{service}", self._undeploy)
        self.app.route("GET", "/search", self._search)

    def bind_local(self, authority: str = "paas") -> str:
        return self.platform.registry.bind_local(authority, self.app)

    def serve(self, host: str = "127.0.0.1", port: int = 0, **server_options: object) -> RestServer:
        return RestServer(self.app, host=host, port=port, **server_options).start()

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
        body = request.json
        name, owner = body.get("name", ""), body.get("owner", "")
        quota_spec = body.get("quota", {})
        try:
            quota = Quota(
                max_services=int(quota_spec.get("max_services", 10)),
                handlers=int(quota_spec.get("handlers", 2)),
            )
            tenant = self.platform.create_tenant(name, owner, quota=quota)
        except (PaasError, ValueError) as exc:
            raise HttpError(getattr(exc, "http_status", 400), str(exc)) from exc
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
        except Exception as exc:  # ConfigurationError and friends
            raise HttpError(422, str(exc)) from exc
        return Response.created(uri, {"uri": uri})

    def _undeploy(self, request: Request, tenant: str, service: str) -> Response:
        caller = self._caller_dn(request)
        try:
            self.platform.undeploy_service(tenant, service, caller)
        except PaasError as exc:
            raise HttpError(exc.http_status, str(exc)) from exc
        except Exception as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.no_content()

    def _search(self, request: Request) -> Response:
        hits = self.platform.search(
            request.query.get("q", ""), tenant_name=request.query.get("tenant") or None
        )
        return Response.json({"hits": hits})
