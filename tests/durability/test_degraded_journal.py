"""Degraded mode: a journal that cannot append never breaks processing,
and every dropped record is counted where an operator can scrape it.

The state spine's single best-effort append is the one place a journal
failure is swallowed. With the disk full (``Journal.append`` raising
``OSError(ENOSPC)``) clients still get their 201/200 and jobs still
reach ``DONE``; ``mc_journal_append_failures_total`` on the host's
``/metrics`` reads the number of records that never reached the disk
(the cluster, which has no ``/metrics``, exposes the same integer as
``cluster.state.append_failures``).
"""

import errno

import pytest

from repro.batch.cluster import Cluster, ComputeNode
from repro.batch.job import BatchJob
from repro.container import ServiceContainer
from repro.durability import Journal, StateSpine
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from repro.observability import parse_metrics
from repro.workflow.wms import WorkflowManagementService
from tests.durability.test_participants import workflow_document
from tests.waiters import wait_until


@pytest.fixture()
def disk_full(monkeypatch):
    refused = []

    def append(journal, record):
        refused.append(record)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Journal, "append", append)
    return refused


def append_failures(host):
    page = host.registry.request("GET", f"{host.base_uri}/metrics").body.decode()
    return parse_metrics(page)["mc_journal_append_failures_total"].total()


def test_container_keeps_serving_and_counts_dropped_records(tmp_path, disk_full):
    container = ServiceContainer("full", registry=TransportRegistry(), journal_dir=tmp_path)
    container.deploy({
        "description": {
            "name": "work",
            "inputs": {"x": {"schema": {"type": "number"}}},
            "outputs": {"y": {"schema": {"type": "number"}}},
        },
        "adapter": "python",
        "config": {"callable": lambda x: {"y": 2 * x}},
    })
    client = RestClient(container.registry)
    try:
        response = client.request_raw(
            "POST", container.service_uri("work"), body=b'{"x": 3}',
            headers={"Content-Type": "application/json"})
        assert response.status == 201
        uri = response.json_body["uri"]
        settled = wait_until(lambda: client.get(uri)["state"] == "DONE" and client.get(uri))
        assert settled["results"] == {"y": 6}
        assert client.request_raw("GET", uri).status == 200
        # created, running, done — none reached the disk, all were counted
        assert [record["event"] for record in disk_full] == ["created", "running", "done"]
        assert append_failures(container) == 3
    finally:
        container.shutdown()


def test_wms_run_completes_and_counts_dropped_records(tmp_path, disk_full):
    wms = WorkflowManagementService("full-wms", registry=TransportRegistry(), journal_dir=tmp_path)
    client = RestClient(wms.registry)
    try:
        created = client.post(f"{wms.base_uri}/workflows", workflow_document("double"))
        run = client.post(created["service_uri"], {"n": 4})
        wait_until(lambda: client.get(run["uri"])["state"] == "DONE")
        assert client.get(run["uri"])["results"] == {"out": 8}
        assert append_failures(wms) == len(disk_full) >= 4
    finally:
        wms.shutdown()


def test_cluster_job_completes_and_counts_dropped_records(tmp_path, disk_full):
    cluster = Cluster(nodes=[ComputeNode("n1")], name="full", journal_dir=tmp_path)
    try:
        job = cluster.wait(cluster.qsub(BatchJob(name="hi", command=["echo", "hi"])), timeout=10)
        assert job.stdout == "hi\n"
        assert cluster.state.append_failures == len(disk_full) == 2
    finally:
        cluster.shutdown()


def test_volatile_spine_hands_out_no_sink():
    spine = StateSpine()
    assert spine.register(("job",), ("services",), lambda sections, records: None, dict) is None
    assert spine.journal is None and spine.recovery_warnings == []
    spine.compact()  # nothing to do, nothing to raise
    spine.close()
