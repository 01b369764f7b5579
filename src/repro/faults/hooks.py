"""Plan-driven hooks for the runtime pool and the TCP server.

:class:`WorkerStallHook` is assigned to an
:class:`~repro.runtime.pool.ExecutorPool`'s ``task_hook``: each task
about to run may be stalled by a seeded delay, simulating a handler
thread wedged on slow I/O. :class:`ServerDropHook` is passed to
:class:`~repro.http.RestServer` as ``fault_hook``: a request may
have its connection severed before any response bytes go out, which is
what a crashing server looks like to a keep-alive client.
"""

from __future__ import annotations

import time

from repro.faults.plan import FaultPlan
from repro.http.messages import Request


class WorkerStallHook:
    """Stall pool workers per the plan's ``worker-stall`` scenarios."""

    def __init__(self, plan: FaultPlan, site: str = "pool"):
        self.plan = plan
        self.site = site

    def __call__(self, pool_name: str) -> None:
        fault = self.plan.decide(self.site, subject=pool_name, kinds={"worker-stall"})
        if fault is not None:
            time.sleep(fault.delay)


class ServerDropHook:
    """Sever connections per the plan's ``server-drop*`` scenarios.

    Returns ``"drop"`` to make the server close the socket without
    answering, ``"drop-mid-write"`` to close it after a partial response
    (the torn-response variant a client cannot tell from a server crash
    mid-send); any other return lets the request proceed (after an
    optional seeded delay).
    """

    def __init__(self, plan: FaultPlan, site: str = "server"):
        self.plan = plan
        self.site = site

    def __call__(self, request: Request) -> "str | None":
        subject = f"{request.method} {request.path}"
        fault = self.plan.decide(
            self.site,
            subject=subject,
            kinds={"server-drop", "server-drop-mid-write", "delay"},
        )
        if fault is None:
            return None
        if fault.kind == "server-drop":
            return "drop"
        if fault.kind == "server-drop-mid-write":
            return "drop-mid-write"
        time.sleep(fault.delay)
        return None
