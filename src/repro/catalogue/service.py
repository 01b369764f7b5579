"""The catalogue as a RESTful web application.

=========  ==============================  =================================
Path       GET                             POST / DELETE
=========  ==============================  =================================
/search    ranked hits (?q=&tag=&available=)
/services  all published entries           POST publish {uri, tags} /
                                           DELETE ?uri= unpublish
/services/tags                             POST add tags {uri, tags}
/ping                                      POST re-ping all services
=========  ==============================  =================================
"""

from __future__ import annotations

from repro.catalogue.catalogue import Catalogue, CatalogueError
from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry


class CatalogueService:
    """Wraps a :class:`Catalogue` in a REST application."""

    def __init__(self, catalogue: Catalogue | None = None, registry: TransportRegistry | None = None):
        self.catalogue = catalogue or Catalogue(registry)
        self.app = RestApp("catalogue")
        self.app.route("GET", "/search", self._search)
        self.app.route("GET", "/services", self._list)
        self.app.route("POST", "/services", self._publish)
        self.app.route("DELETE", "/services", self._unpublish)
        self.app.route("POST", "/services/tags", self._tag)
        self.app.route("POST", "/ping", self._ping)
        self.app.route("GET", "/ui", self._ui)

    def bind_local(self, authority: str = "catalogue") -> str:
        """Expose in process on the catalogue's own registry."""
        return self.catalogue.registry.bind_local(authority, self.app)

    def serve(self, host: str = "127.0.0.1", port: int = 0, **server_options: object) -> RestServer:
        return RestServer(self.app, host=host, port=port, **server_options).start()

    # ------------------------------------------------------------- handlers

    def _search(self, request: Request) -> Response:
        hits = self.catalogue.search(
            query=request.query.get("q", ""),
            tag=request.query.get("tag") or None,
            available_only=request.query.get("available", "").lower() in ("1", "true", "yes"),
            limit=int(request.query.get("limit", "20")),
        )
        return Response.json({"query": request.query.get("q", ""), "hits": hits})

    def _list(self, request: Request) -> Response:
        return Response.json([entry.to_json() for entry in self.catalogue.entries()])

    def _publish(self, request: Request) -> Response:
        body = request.json
        uri = body.get("uri", "")
        if not uri:
            raise HttpError(400, "publication needs a 'uri'")
        try:
            entry = self.catalogue.publish(uri, tags=body.get("tags", []))
        except CatalogueError as exc:
            raise HttpError(422, str(exc)) from exc
        return Response.created(entry.uri, entry.to_json())

    def _unpublish(self, request: Request) -> Response:
        uri = request.query.get("uri", "")
        if not uri:
            raise HttpError(400, "unpublish needs a ?uri= parameter")
        try:
            self.catalogue.unpublish(uri)
        except CatalogueError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.no_content()

    def _tag(self, request: Request) -> Response:
        body = request.json
        try:
            entry = self.catalogue.add_tags(body.get("uri", ""), body.get("tags", []))
        except CatalogueError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.json(entry.to_json())

    def _ping(self, request: Request) -> Response:
        return Response.json(self.catalogue.ping_all())

    def _ui(self, request: Request) -> Response:
        from repro.catalogue.webui import render_search_page

        query = request.query.get("q", "")
        hits = self.catalogue.search(query) if query else []
        return Response.html(render_search_page(query, hits))
