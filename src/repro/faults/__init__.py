"""Deterministic fault injection for the gateway/container stack.

Everything here is seed-driven: a :class:`FaultPlan` compiles a list of
:class:`Scenario` declarations plus one integer seed into per-site PRNG
streams, so the exact same fault schedule replays from the same seed — a
failing chaos run is a one-line repro command, not a shrug.

The plan is threaded through the platform's existing seams:

- :class:`FaultInjectingTransport` wraps any client transport and injects
  connect-refused, mid-request drops, partial writes and response delays;
- :class:`WorkerStallHook` plugs into :class:`repro.runtime.ExecutorPool`
  (``task_hook``) to stall handler threads;
- :class:`ServerDropHook` plugs into :class:`repro.http.RestServer`
  (``fault_hook``) to sever connections before the response goes out, or
  mid-write after a partial response (``server-drop-mid-write``);
- :class:`CrashController` crashes and restarts gateway replicas, and
  :class:`BatchNodeChaos` kills and restores batch cluster nodes, both on
  a deterministic operation clock.
"""

from repro.faults.controller import BatchNodeChaos, CrashController
from repro.faults.hooks import ServerDropHook, WorkerStallHook
from repro.faults.plan import Fault, FaultEvent, FaultPlan, Scenario
from repro.faults.transport import FaultInjectingTransport

__all__ = [
    "BatchNodeChaos",
    "CrashController",
    "Fault",
    "FaultEvent",
    "FaultInjectingTransport",
    "FaultPlan",
    "Scenario",
    "ServerDropHook",
    "WorkerStallHook",
]
