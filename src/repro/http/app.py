"""REST application kernel.

A :class:`RestApp` owns a router and a middleware chain and turns a
:class:`~repro.http.messages.Request` into a
:class:`~repro.http.messages.Response`. It is transport-agnostic: the same
instance can be served over TCP by :class:`~repro.http.RestServer`
(the event loop of :mod:`repro.http.eventloop`) or called in process through
:class:`~repro.http.transport.LocalTransport`.
"""

from __future__ import annotations

import logging
import traceback
from typing import Callable, Protocol

from repro.http.messages import HttpError, Request, Response
from repro.http.router import Handler, Router
from repro.runtime.context import REQUEST_ID_HEADER, RequestContext, activate_context

logger = logging.getLogger(__name__)

#: ``request.context`` key under which a non-blocking server installs its
#: deferral capability. Present ⇒ the handler may park the request with
#: ``raise request.context[DEFER_CAPABILITY](render, park, timeout)``
#: instead of blocking its thread; absent (local transport) ⇒ handlers
#: block as they always did.
DEFER_CAPABILITY = "http.defer"


class DeferredResponse(Exception):
    """Control-flow signal: the response will be produced later.

    A handler that would otherwise block a thread (the ``?wait=``
    long-poll) raises one of these through the middleware chain. The
    event-loop server catches it, parks the connection, and produces the
    response when the handler's ``park``-registered trigger fires or the
    timeout expires:

    - ``render`` — zero-argument callable building the final
      :class:`Response` from current state; invoked exactly once, off the
      event loop, at resume time.
    - ``park`` — called by the server with its (idempotent, thread-safe)
      ``resume`` trigger; the handler wires that trigger to whatever it is
      waiting on (a job's transition observers).
    - ``timeout`` — seconds after which the server resumes regardless.
    """

    def __init__(
        self,
        render: Callable[[], Response],
        park: Callable[[Callable[[], None]], None],
        timeout: float,
    ):
        super().__init__("response deferred")
        self.render = render
        self.park = park
        self.timeout = timeout


class Middleware(Protocol):
    """Wraps request handling; used for security and instrumentation.

    A middleware receives the request and a ``call_next`` continuation and
    must return a response — either by invoking the continuation (possibly
    after mutating ``request.context``) or by short-circuiting.
    """

    def __call__(self, request: Request, call_next: Callable[[Request], Response]) -> Response: ...


class RestApp:
    """A routed REST application with middleware and uniform error handling.

    Handler exceptions become JSON error responses: :class:`HttpError` keeps
    its status; anything else is logged and reported as a 500 without
    leaking the traceback to the client.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self.router = Router()
        self._middleware: list[Middleware] = []

    def route(self, method: str, template: str, handler: Handler) -> None:
        """Register a handler; see :meth:`repro.http.router.Router.add`."""
        self.router.add(method, template, handler)

    def add_middleware(self, middleware: Middleware) -> None:
        """Append ``middleware``; the first added runs outermost."""
        self._middleware.append(middleware)

    def handle(self, request: Request) -> Response:
        """Process one request through middleware, router and handler.

        Every request gets a correlation id — the client's ``X-Request-Id``
        when supplied, a generated one otherwise. The id is exposed as
        ``request.context["request_id"]``, activated as the thread's
        current :class:`~repro.runtime.context.RequestContext`, and echoed
        on the response (including error responses), so one id follows a
        request across every layer it touches.
        """
        context = RequestContext.from_header(request.headers.get(REQUEST_ID_HEADER))
        request.context.setdefault("request_id", context.request_id)
        with activate_context(context):
            try:
                response = self._call_chain(request, 0)
            except DeferredResponse as deferred:
                # the handler parked itself; wrap its render so the
                # resumed response still gets kernel error handling and
                # the correlation id, then let the server catch it
                deferred.render = self._finishing_render(
                    deferred.render, request, context.request_id
                )
                raise
            except HttpError as error:
                response = error.to_response()
            except Exception:  # noqa: BLE001 - the kernel must never propagate
                logger.error(
                    "unhandled error in %s %s %s [request %s]\n%s",
                    self.name,
                    request.method,
                    request.path,
                    context.request_id,
                    traceback.format_exc(),
                )
                response = HttpError(500, "internal server error").to_response()
        return self._finalize(response, request, context.request_id)

    def _finalize(self, response: Response, request: Request, request_id: str) -> Response:
        response.headers.set(REQUEST_ID_HEADER, request_id)
        if request.method == "HEAD" and (response.body or response.stream is not None):
            # the HEAD contract over every transport: GET's headers and
            # Content-Length, no body bytes
            if response.stream is not None:
                response.headers.set("Content-Length", str(response.content_length or 0))
                closer = getattr(response.stream, "close", None)
                if closer is not None:
                    closer()
                response.stream = None
                response.content_length = None
            else:
                response.headers.set("Content-Length", str(len(response.body)))
                response.body = b""
        return response

    def _finishing_render(
        self, render: Callable[[], Response], request: Request, request_id: str
    ) -> Callable[[], Response]:
        """Wrap a deferred render with the kernel's error/finalize steps."""

        def finished() -> Response:
            try:
                response = render()
            except HttpError as error:
                response = error.to_response()
            except Exception:  # noqa: BLE001 - the kernel must never propagate
                logger.error(
                    "unhandled error rendering deferred %s %s %s [request %s]\n%s",
                    self.name,
                    request.method,
                    request.path,
                    request_id,
                    traceback.format_exc(),
                )
                response = HttpError(500, "internal server error").to_response()
            return self._finalize(response, request, request_id)

        return finished

    def _call_chain(self, request: Request, index: int) -> Response:
        if index < len(self._middleware):
            middleware = self._middleware[index]
            return middleware(request, lambda req: self._call_chain(req, index + 1))
        return self.router.dispatch(request)

    def __repr__(self) -> str:
        return f"RestApp({self.name!r}, routes={len(self.router)})"
