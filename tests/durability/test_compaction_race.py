"""Compaction racing live traffic: nothing appended mid-compaction is lost.

``compact()`` is *cut, export, write, unlink*. Between those steps the
container keeps serving: jobs finish, jobs are deleted, blobs are pinned,
tenants are charged. The races are driven deterministically — the racing
operations run *inside* the compacting thread, from wrappers around
``Journal.cut`` (after the cut, before any export) and ``Journal.snapshot``
(after every export, before the write) — never with sleeps.

Whatever the step, after ``crash()`` + rebuild every job's recovered
state equals its last live state, no deleted job exists, pins match and
balances match to the unit: records appended after the cut survive the
unlink, and records the export already reflects fold exactly once.
"""

import threading

import pytest

from repro.batch.cluster import Cluster, ComputeNode
from repro.batch.job import BatchJob
from repro.container import ServiceContainer
from repro.durability import Journal
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from tests.waiters import wait_until

TENANT = {"X-Tenant": "acme"}


def work_config(gate: threading.Event):
    """Doubles ``x``; negative inputs block on ``gate`` first."""

    def run(x):
        if x < 0:
            assert gate.wait(10)
        return {"y": x * 2}

    return {
        "description": {
            "name": "work",
            "inputs": {"x": {"schema": {"type": "number"}}},
            "outputs": {"y": {"schema": {"type": "number"}}},
        },
        "adapter": "python",
        "config": {"callable": run},
    }


def start(directory, gate):
    container = ServiceContainer(
        "race", registry=TransportRegistry(), journal_dir=directory, cache=True)
    container.enable_tenancy()
    container.deploy(work_config(gate))
    return container


def observed(container):
    """Everything compaction must carry across a restart."""
    return {
        "jobs": {job.id: (job.state.value, job.results)
                 for job in container.service("work").jobs.list()},
        "pins": {record["digest"]: sorted(container.blobs.pins(record["digest"]))
                 for record in container.blobs.export() if record["event"] == "commit"},
        "disk": {tenant: container.tenancy.usage(tenant)["disk"]
                 for tenant in container.tenancy.tenants()},
        "cpu": {tenant: pytest.approx(container.tenancy.usage(tenant)["cpu"], abs=1e-9)
                for tenant in container.tenancy.tenants()},
    }


def race(monkeypatch, step, operations):
    """Run ``operations`` inside the next compaction: right after the cut
    (``step == "cut"``) or right before the snapshot write (``"snapshot"``)."""
    original = getattr(Journal, step)

    def racing(journal, *args):
        if step == "snapshot":
            operations()
        result = original(journal, *args)
        if step == "cut":
            operations()
        return result

    monkeypatch.setattr(Journal, step, racing)


@pytest.mark.parametrize("step", ["cut", "snapshot"])
def test_traffic_racing_compaction_survives_a_cold_restart(tmp_path, monkeypatch, step):
    gate = threading.Event()
    first = start(tmp_path, gate)
    client = RestClient(first.registry).with_headers(TENANT)
    uri = first.service_uri("work")
    blob = first.blobs.put_bytes(b"input of a queued job").digest
    released = first.blobs.put_bytes(b"input of a deleted job").digest
    first.blobs.pin(released, "job:released")
    first.tenancy.charge("acme", cpu=0.5, disk=64)

    blocked = client.post(uri, {"x": -3})
    doomed = client.post(uri, {"x": 4})
    wait_until(lambda: client.get(doomed["uri"])["state"] == "DONE")
    wait_until(lambda: client.get(blocked["uri"])["state"] == "RUNNING")

    def traffic():
        gate.set()  # the live job finishes: a client can read DONE {'y': -6}
        wait_until(lambda: client.get(blocked["uri"])["state"] == "DONE")
        client.delete(doomed["uri"])
        first.blobs.pin(blob, "job:queued")
        first.blobs.unpin(released, "job:released")
        first.tenancy.charge("acme", cpu=0.25, disk=-16)
        first.tenancy.charge("beta", disk=5)

    race(monkeypatch, step, traffic)
    first.compact()
    live = observed(first)
    assert live["jobs"] == {blocked["id"]: ("DONE", {"y": -6})}
    assert live["pins"] == {blob: ["job:queued"], released: []}
    assert live["disk"] == {"acme": 48, "beta": 5}
    first.crash()

    # a re-executed job would block here forever: recovery must restore
    # DONE from the journal, not run the work again
    second = start(tmp_path, threading.Event())
    try:
        assert observed(second) == live
        assert second.recovery_warnings == []
    finally:
        second.shutdown(wait=False)


@pytest.mark.parametrize("step", ["cut", "snapshot"])
def test_cluster_job_finishing_mid_compaction_is_not_lost(tmp_path, monkeypatch, step):
    first = Cluster(nodes=[ComputeNode("n1")], name="race", journal_dir=tmp_path)
    before = first.qsub(BatchJob(name="before", command=["echo", "before"]))
    first.wait(before, timeout=10)
    during = []

    def traffic():
        during.append(first.qsub(BatchJob(name="during", command=["echo", "during"])))
        first.wait(during[0], timeout=10)

    race(monkeypatch, step, traffic)
    first.compact()
    first.crash()

    second = Cluster(nodes=[ComputeNode("n1")], name="race", journal_dir=tmp_path)
    try:
        assert {job.id: (job.state.value, job.stdout) for job in second.jobs()} == {
            before: ("COMPLETED", "before\n"),
            during[0]: ("COMPLETED", "during\n"),
        }
    finally:
        second.shutdown()
