"""The six workloads: what each sends, why it exists, and its seeded inputs.

Everything the stack receives is generated here from ``--seed``; the stack
itself never sees the seed. A workload's op stream is unbounded (a run
measures for a fixed time, not a fixed count) and deterministic: op ``i``
of seed ``s`` is the same bytes in every process. Values are unique within
a stream unless the workload says otherwise, so the result cache and the
workflow engine's memo only ever hit where a workload means them to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

#: Tenants and their fair-share weights; ops are attributed 2:1.
TENANTS = (("acme", 2.0), ("beta", 1.0))

#: ``cache_sweep``: size of the hot input set and the share of ops drawn from it.
HOT_VALUES = 64
HOT_SHARE = 0.9

#: ``blob_roundtrip``: bytes per uploaded artifact.
BLOB_BYTES = 4 * 1024 * 1024

#: ``open_loop_gateway``: offered rates (ops/s). The reference rung is what the
#: end-to-end latencies are measured at; the ladder is walked by the traced
#: run to find the highest rate that still meets the latency limit.
OPEN_LOOP_LADDER = (160, 240, 320, 480)
OPEN_LOOP_REFERENCE = 240
#: An open-loop rung passes when this share of its scheduled ops finishes
#: within the limit, counted from the due time, and the generator itself
#: was never later than the limit.
SLO_LIMIT_S = 0.050
SLO_SHARE = 0.95

#: Each request of op ``id`` carries ``X-Request-Id: <id>.<step>``; this is the
#: job submit's, which the traced run's submit budget is joined on.
SUBMIT_RID_SUFFIX = ".s"

#: Tail percentiles a workload may report, highest first.
TAIL_MENU = (99, 95, 90, 75)


def pick_tail(expected_samples: int, beyond: int = 10) -> int:
    """The highest percentile of the menu with at least ``beyond`` samples
    expected above it (choosing-metrics §1)."""
    for percentile in TAIL_MENU:
        if expected_samples * (100 - percentile) / 100 >= beyond:
            return percentile
    return TAIL_MENU[-1]


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line, copied verbatim into BENCHMARK.json.
    why: str
    #: Which published URL of the stack the ops go to.
    target: str
    #: Which op the load generator runs (see loadgen.OPS).
    op: str
    #: Ops in the shortest window a percentile is taken over on the 2-core
    #: reference box — a 10 s run (one stratum of it, where the op has
    #: strata), or one rung of the open-loop ladder; fixes ``tail``.
    expected_samples: int
    #: Verified ops run after the stack is up and before timing starts.
    warmup_ops: int
    open_loop: bool = False

    @property
    def tail(self) -> int:
        return pick_tail(self.expected_samples)


WORKLOADS = (
    Workload(
        "lifecycle_direct",
        "Closed loop, 2 clients, unique x: POST work, GET ?wait, check y==2x, DELETE on replica r0's "
        "own URL. Every replica-side plane on, gateway bypassed, cache only misses.",
        target="r0", op="lifecycle", expected_samples=9500, warmup_ops=200,
    ),
    Workload(
        "lifecycle_gateway",
        "The same op through the gateway URL: adds select/forward/rewrite and the outbound transport. "
        "A gateway change must move this and leave lifecycle_direct flat.",
        target="gateway", op="lifecycle", expected_samples=4200, warmup_ops=200,
    ),
    Workload(
        "cache_sweep",
        "Through the gateway, no DELETE, 90% of inputs from 64 hot values filled in set-up: cache hits "
        "answer without a job, misses pay register+journal. Shows a hit-path gain that taxes misses.",
        target="gateway", op="cached", expected_samples=4000, warmup_ops=HOT_VALUES,
    ),
    Workload(
        "open_loop_gateway",
        "Open loop, seeded Poisson arrivals at a fixed rate over 2 connections, latency from the due "
        "time: independent users build the queueing delay two closed-loop clients never do.",
        target="gateway", op="lifecycle", expected_samples=300, warmup_ops=200, open_loop=True,
    ),
    Workload(
        "workflow_fanout",
        "Closed loop, 2 clients: POST composite 'fan' (4 branches x 2 chained work blocks via the "
        "gateway, one gather script), check out==16n, DELETE. Engine per-block cost and WMS journal.",
        target="wms", op="workflow", expected_samples=300, warmup_ops=30,
    ),
    Workload(
        "blob_roundtrip",
        "Closed loop, 2 clients, through the gateway: upload a unique 4 MiB blob, run sink on its ref, "
        "check digest+size, download and re-hash, DELETE. Byte-heavy use of the http/gateway layers.",
        target="gateway", op="blob", expected_samples=60, warmup_ops=6,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


class Op(NamedTuple):
    """One generated operation: everything the client sends for it."""

    #: Unique per stream; sent as ``Idempotency-Key`` and, suffixed with the
    #: step, as ``X-Request-Id`` so traced spans can be joined per op.
    id: str
    tenant: str
    #: The input value the expected result is derived from.
    value: int
    #: The body of the op's first request.
    body: bytes


def _tenant(rng: random.Random) -> str:
    return TENANTS[0][0] if rng.random() < 2 / 3 else TENANTS[1][0]


def _base(rng: random.Random) -> int:
    # wide enough that two seeds never share values, small enough that
    # 16 * value stays an exact JSON integer
    return rng.getrandbits(36) << 12


def hot_values(seed: int) -> list[int]:
    """``cache_sweep``'s hot inputs (disjoint from its fresh ones)."""
    base = _base(random.Random(f"cache_sweep:{seed}"))
    return [base - 1 - index for index in range(HOT_VALUES)]


def ops(workload: Workload, seed: int) -> Iterator[Op]:
    """The workload's op stream for ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    base = _base(rng)
    hot = hot_values(seed) if workload.op == "cached" else []
    index = 0
    while True:
        op_id = f"{workload.name[:2]}{seed}-{index}"
        tenant = _tenant(rng)
        if workload.op == "lifecycle":
            value = base + index
            body = json.dumps({"x": value}).encode()
        elif workload.op == "cached":
            # set-up fills the hot set with the first HOT_VALUES ops
            if index < HOT_VALUES:
                value = hot[index]
            elif rng.random() < HOT_SHARE:
                value = rng.choice(hot)
            else:
                value = base + index
            body = json.dumps({"x": value}).encode()
        elif workload.op == "workflow":
            # even n: the fan's first-stage inputs n±1, n±3 are odd and its
            # second-stage inputs even, 32 apart from the next op's, so no
            # inner submit ever repeats (no memo or cache hit inside a run)
            value = 2 * (base + 16 * index)
            body = json.dumps({"n": value}).encode()
        elif workload.op == "blob":
            value = index
            body = rng.randbytes(BLOB_BYTES)
        else:
            raise ValueError(f"unknown op kind {workload.op!r}")
        yield Op(op_id, tenant, value, body)
        index += 1


def schedule(seed: int, rate: int, seconds: float) -> list[float]:
    """Arrival offsets (seconds from the start) of a Poisson process at
    ``rate`` per second, conditioned on exactly ``rate`` arrivals in every
    whole second: given their count, Poisson arrivals are uniform on the
    interval, so bursts and gaps stay random while every seed offers the
    same load — otherwise the ±2 % a seed moves the op count by would show
    up as latency."""
    rng = random.Random(f"schedule:{seed}:{rate}")
    offsets: list[float] = []
    second = 0
    while second < seconds:
        width = min(1.0, seconds - second)
        offsets += sorted(second + rng.random() * width for _ in range(round(rate * width)))
        second += 1
    return offsets
