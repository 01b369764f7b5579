"""A transport wrapper that injects connection-level faults.

Wraps any :class:`~repro.http.transport.Transport` and consults the plan
once per request. The four transport fault kinds map onto the failure
classes the rest of the platform distinguishes:

- ``connect-refused`` → :class:`ConnectError` *without* forwarding: the
  server provably never saw the request (the gateway may re-route it).
- ``partial-write`` → plain :class:`TransportError` *without* forwarding:
  the connection died mid-send, the framing never completed — but the
  caller cannot know that, so the error is deliberately ambiguous.
- ``drop`` → the request IS forwarded (side effects happen on the
  server), then :class:`TransportError`: the response was lost on the
  wire. This is the scenario that separates correct idempotent-replay
  handling from duplicate-job bugs.
- ``delay`` → sleep a seeded delay, then forward normally (latency and
  jitter without failure).
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.faults.plan import TRANSPORT_KINDS, FaultPlan
from repro.http.messages import BodySpool, Response
from repro.http.transport import ConnectError, Transport, TransportError


class FaultInjectingTransport(Transport):
    """Injects plan-scheduled faults in front of an inner transport."""

    def __init__(self, inner: Transport, plan: FaultPlan, site: str = "transport"):
        self.inner = inner
        self.plan = plan
        self.site = site
        self.schemes = inner.schemes

    def request(
        self,
        method: str,
        url: str,
        headers: Mapping[str, str] | None = None,
        body: "bytes | BodySpool" = b"",
    ) -> Response:
        fault = self.plan.decide(self.site, subject=f"{method.upper()} {url}", kinds=TRANSPORT_KINDS)
        if fault is None:
            return self.inner.request(method, url, headers=headers, body=body)
        if fault.kind == "connect-refused":
            raise ConnectError(f"injected connect-refused: {method} {url}")
        if fault.kind == "partial-write":
            raise TransportError(f"injected partial write: {method} {url}")
        if fault.kind == "drop":
            # the request reaches the server; only the response is lost
            self.inner.request(method, url, headers=headers, body=body)
            raise TransportError(f"injected mid-request drop: {method} {url}")
        # delay: seeded latency, then the real exchange
        time.sleep(fault.delay)
        return self.inner.request(method, url, headers=headers, body=body)
