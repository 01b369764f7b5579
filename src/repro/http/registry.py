"""Transport registry: resolve absolute URIs to transports.

Service URIs flow freely through the platform — catalogue entries, workflow
blocks, job representations all carry them. The registry is the single
place that decides *how* to reach a URI: ``http://`` URIs go over sockets,
``local://`` URIs go in process. A registry with an HTTP transport is the
default, so code that only ever talks to remote services needs no setup.
"""

from __future__ import annotations

from typing import Mapping

from repro.http.app import RestApp
from repro.http.messages import BodySpool, Response
from repro.http.transport import HttpTransport, LocalTransport, Transport, TransportError


class TransportRegistry:
    """Routes requests to the transport that owns the URI scheme."""

    def __init__(self, http_timeout: float = 30.0):
        self.local = LocalTransport()
        self.http = HttpTransport(timeout=http_timeout)
        self._extra: list[Transport] = []

    def add_transport(self, transport: Transport) -> None:
        """Register an additional transport (consulted before the built-ins)."""
        self._extra.append(transport)

    def bind_local(self, authority: str, app: RestApp) -> str:
        """Expose an in-process app; returns its ``local://`` base URI."""
        return self.local.bind(authority, app)

    def unbind_local(self, authority: str) -> None:
        self.local.unbind(authority)

    def transport_for(self, url: str) -> Transport:
        """Pick the transport owning ``url``'s scheme.

        Raises :class:`TransportError` for unknown schemes.
        """
        for transport in (*self._extra, self.local, self.http):
            if transport.handles(url):
                return transport
        raise TransportError(f"no transport for URI {url!r}")

    def request(
        self,
        method: str,
        url: str,
        headers: Mapping[str, str] | None = None,
        body: "bytes | BodySpool" = b"",
    ) -> Response:
        """Send one request to an absolute ``url`` via the owning transport."""
        return self.transport_for(url).request(method, url, headers=headers, body=body)
