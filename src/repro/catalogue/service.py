"""The catalogue as a RESTful web application.

==============  ==========================  ================================
Path            GET                         POST / DELETE
==============  ==========================  ================================
/search         ranked hits (?q=&tag=&available=&limit=)
/services       all published entries       POST publish {uri, tags} /
                                            DELETE ?uri= unpublish
/services/tags                              POST add tags {uri, tags}
/ping                                       POST probe all services (one
                                            pooled round)
/ui             search page (?q=)
/metrics        Prometheus text
==============  ==========================  ================================

``tags`` is a list of strings and ``limit`` a positive integer; anything
else answers ``400``. With ``journal_dir`` the entries and their tags
survive a crash (the catalogue is a :class:`~repro.durability.StateSpine`
participant); availability is re-probed, not journaled.
"""

from __future__ import annotations

from pathlib import Path
from repro.catalogue.catalogue import Catalogue, CatalogueError
from repro.durability import StateSpine
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.observability import RestHost


def _publication(request: Request) -> tuple[str, list[str]]:
    """The ``uri`` and ``tags`` of a publish or tag body, checked."""
    body = request.json
    if not isinstance(body, dict):
        raise HttpError(400, "expected a JSON object")
    uri, tags = body.get("uri", ""), body.get("tags", [])
    if not uri or not isinstance(uri, str):
        raise HttpError(400, "expected a 'uri' string")
    if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
        raise HttpError(400, "'tags' must be a list of strings")
    return uri, tags


class CatalogueService(RestHost):
    """A :class:`Catalogue` served as a REST application."""

    def __init__(
        self,
        name: str = "catalogue",
        registry: TransportRegistry | None = None,
        journal_dir: "str | Path | None" = None,
    ):
        super().__init__(name, registry, observability=True)
        self.catalogue = Catalogue(self.registry)
        self.state = StateSpine(journal_dir, metrics=self.metrics)
        #: The catalogue's write-ahead journal (``None`` when volatile).
        self.journal = self.state.journal
        self.catalogue.join(self.state)
        #: Corruption tolerated while replaying the journal, if any.
        self.recovery_warnings: list[str] = self.state.recovery_warnings
        self.app.route("GET", "/search", self._search)
        self.app.route("GET", "/services", self._list)
        self.app.route("POST", "/services", self._publish)
        self.app.route("DELETE", "/services", self._withdraw)
        self.app.route("POST", "/services/tags", self._tag)
        self.app.route("POST", "/ping", self._ping)
        self.app.route("GET", "/ui", self._ui)

    def shutdown(self) -> None:
        """Stop serving, then the pinger and probe pool, then the journal."""
        self._unpublish()
        self.state.close()

    def crash(self) -> None:
        """Simulate a cold stop: the journal closes first. Rebuild by
        constructing a fresh service over the same ``journal_dir``."""
        self.state.crash()
        self._unpublish()

    def compact(self) -> None:
        self.state.compact()

    # ------------------------------------------------------------- handlers

    def _search(self, request: Request) -> Response:
        query = request.query.get("q", "")
        try:
            limit = int(request.query.get("limit", "20"))
        except ValueError:
            limit = 0
        if limit < 1:
            raise HttpError(400, "?limit= must be a positive integer")
        hits = self.catalogue.search(
            query=query,
            tag=request.query.get("tag") or None,
            available_only=request.query.get("available", "").lower() in ("1", "true", "yes"),
            limit=limit,
        )
        return Response.json({"query": query, "hits": hits})

    def _list(self, request: Request) -> Response:
        return Response.json([entry.to_json() for entry in self.catalogue.entries()])

    def _publish(self, request: Request) -> Response:
        uri, tags = _publication(request)
        try:
            entry = self.catalogue.publish(uri, tags=tags)
        except CatalogueError as exc:
            raise HttpError(422, str(exc)) from exc
        return Response.created(entry.uri, entry.to_json())

    def _withdraw(self, request: Request) -> Response:
        uri = request.query.get("uri", "")
        if not uri:
            raise HttpError(400, "unpublish needs a ?uri= parameter")
        try:
            self.catalogue.unpublish(uri)
        except CatalogueError as exc:
            raise HttpError(404, str(exc)) from exc
        return Response.no_content()

    def _tag(self, request: Request) -> Response:
        uri, tags = _publication(request)
        try:
            entry = self.catalogue.add_tags(uri, tags)
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
