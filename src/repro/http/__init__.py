"""Minimal HTTP/REST substrate (stand-in for Jersey/Jetty).

This subpackage implements, from scratch on the standard library, everything
MathCloud's service container needs from its HTTP stack:

- an HTTP message model (:mod:`repro.http.messages`),
- a URI-template router (:mod:`repro.http.router`),
- a REST application kernel with middleware (:mod:`repro.http.app`),
- the TCP server, a selectors-based event loop
  (:mod:`repro.http.eventloop`; import :class:`RestServer` from this
  package),
- client transports — real sockets and in-process — behind one interface
  (:mod:`repro.http.transport`), resolved by URI through a registry
  (:mod:`repro.http.registry`),
- a small JSON-aware REST client (:mod:`repro.http.client`).

The same application object can be served over TCP or called in process;
the REST semantics are identical on both paths.
"""

from repro.http.app import DEFER_CAPABILITY, DeferredResponse, RestApp
from repro.http.client import ClientError, RestClient
from repro.http.messages import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    ProtocolError,
    Request,
    RequestParser,
    Response,
    serialize_response,
)
from repro.http.registry import TransportRegistry
from repro.http.router import Router
from repro.http.eventloop import RestServer
from repro.http.transport import ConnectError, HttpTransport, LocalTransport, Transport, TransportError

__all__ = [
    "ClientError",
    "ConnectError",
    "TransportError",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFER_CAPABILITY",
    "DeferredResponse",
    "HttpError",
    "ProtocolError",
    "RequestParser",
    "serialize_response",
    "HttpTransport",
    "LocalTransport",
    "Request",
    "Response",
    "RestApp",
    "RestClient",
    "RestServer",
    "Router",
    "Transport",
    "TransportRegistry",
]
