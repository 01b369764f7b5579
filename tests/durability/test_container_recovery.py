"""Container kill-and-rebuild: the journal carries the job table across.

The acceptance shape from the issue: a container with completed, running
and queued jobs is torn down mid-run and reconstructed from its journal.
Every completed job still serves its result (including ``?wait=``
long-polls), in-flight jobs re-run (idempotent adapters) or fail as
interrupted (non-idempotent ones), and recovered ``Idempotency-Key``
bindings answer replays with the original job.
"""

import threading
import time

import pytest

from repro.container import ServiceContainer
from repro.container.adapters.python_adapter import PythonAdapter
from repro.container.jobmanager import INTERRUPTED_ERROR
from repro.http.client import IDEMPOTENCY_KEY_HEADER, RestClient
from tests.waiters import wait_until


def work_config(gate: threading.Event):
    """Doubles ``x``; negative inputs block on ``gate`` first."""

    def run(x):
        if x < 0:
            gate.wait(10)
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


def submit(client, uri, x, key):
    response = client.request_raw(
        "POST",
        uri,
        body=f'{{"x": {x}}}'.encode(),
        headers={IDEMPOTENCY_KEY_HEADER: key, "Content-Type": "application/json"},
    )
    assert response.status == 201
    return response.json_body


def wait_state(client, uri, states, timeout=10.0):
    def reached():
        job = client.get(uri)
        return job if job["state"] in states else None

    return wait_until(reached, timeout=timeout, interval=0.01,
                      message=f"{uri} never reached {states}")


class TestKillAndRebuild:
    def test_mixed_job_table_survives_a_cold_restart(self, tmp_path, registry):
        gate = threading.Event()
        client = RestClient(registry)
        first = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        uri = first.service_uri("work")

        done = submit(client, uri, 21, "k-done")
        wait_state(client, done["uri"], {"DONE"})
        running = submit(client, uri, -1, "k-running")  # blocks on the gate
        wait_state(client, running["uri"], {"RUNNING"})
        queued = submit(client, uri, 3, "k-queued")  # single handler: stays queued
        assert client.get(queued["uri"])["state"] == "WAITING"

        first.crash()
        gate.set()  # whatever the dead incarnation still does is not persisted

        second = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            assert second.recovery_warnings == []
            # completed: result intact, and ?wait= answers immediately
            start = time.monotonic()
            recovered = client.get(done["uri"], query={"wait": 5})
            assert time.monotonic() - start < 1.0
            assert recovered["state"] == "DONE"
            assert recovered["results"] == {"y": 42}
            # in-flight: the python adapter is idempotent, so both re-run
            assert wait_state(client, running["uri"], {"DONE"})["results"] == {"y": -2}
            assert wait_state(client, queued["uri"], {"DONE"})["results"] == {"y": 6}
        finally:
            second.shutdown()

    def test_replayed_key_binds_to_the_recovered_job(self, tmp_path, registry):
        gate = threading.Event()
        gate.set()
        client = RestClient(registry)
        first = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        acked = submit(client, first.service_uri("work"), 5, "k-replay")
        wait_state(client, acked["uri"], {"DONE"})
        first.crash()

        second = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            response = client.request_raw(
                "POST",
                second.service_uri("work"),
                body=b'{"x": 5}',
                headers={IDEMPOTENCY_KEY_HEADER: "k-replay", "Content-Type": "application/json"},
            )
            assert response.status == 201
            assert response.json_body["id"] == acked["id"]
            assert response.headers.get("Idempotent-Replay") == "true"
        finally:
            second.shutdown()

    def test_non_idempotent_adapter_fails_in_flight_jobs_as_interrupted(
        self, tmp_path, registry, monkeypatch
    ):
        gate = threading.Event()
        client = RestClient(registry)
        first = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        uri = first.service_uri("work")
        done = submit(client, uri, 1, "k1")
        wait_state(client, done["uri"], {"DONE"})
        pending = submit(client, uri, -1, "k2")
        wait_state(client, pending["uri"], {"RUNNING"})
        first.crash()
        gate.set()

        # a side-effecting adapter must not silently re-run half-done work
        monkeypatch.setattr(PythonAdapter, "idempotent", False)
        second = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            assert client.get(done["uri"])["state"] == "DONE"
            failed = client.get(pending["uri"])
            assert failed["state"] == "FAILED"
            assert failed["error"] == INTERRUPTED_ERROR
            assert failed["recoverable"] == "interrupted"
        finally:
            second.shutdown()

    def test_deleted_jobs_stay_deleted(self, tmp_path, registry):
        gate = threading.Event()
        gate.set()
        client = RestClient(registry)
        first = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        acked = submit(client, first.service_uri("work"), 7, "k-del")
        wait_state(client, acked["uri"], {"DONE"})
        client.delete(acked["uri"])
        first.crash()

        second = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            response = client.request_raw("GET", acked["uri"])
            assert response.status == 404
        finally:
            second.shutdown()

    def test_compaction_bounds_the_journal_without_losing_jobs(self, tmp_path, registry):
        gate = threading.Event()
        gate.set()
        client = RestClient(registry)
        first = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        uri = first.service_uri("work")
        acked = [submit(client, uri, n, f"k{n}") for n in range(5)]
        for job in acked:
            wait_state(client, job["uri"], {"DONE"})
        first.compact()
        segment_count = len(list(tmp_path.glob("segment-*.waj")))
        assert len(list(tmp_path.glob("snapshot-*.waj"))) == 1
        assert segment_count == 0  # everything the snapshot covers is gone
        first.crash()

        second = ServiceContainer("dur", handlers=2, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            for n, job in enumerate(acked):
                recovered = client.get(job["uri"])
                assert recovered["state"] == "DONE"
                assert recovered["results"] == {"y": n * 2}
        finally:
            second.shutdown()


class TestShutdownSatellite:
    def test_shutdown_without_wait_marks_queued_jobs_interrupted(self, registry):
        """The satellite fix: ``shutdown(wait=False)`` used to leave queued
        jobs in WAITING forever; now they fail as interrupted."""
        gate = threading.Event()
        container = ServiceContainer("vol", handlers=1, registry=registry)
        container.deploy(work_config(gate))
        client = RestClient(registry)
        uri = container.service_uri("work")
        blocker = submit(client, uri, -1, "s1")
        wait_state(client, blocker["uri"], {"RUNNING"})
        queued = submit(client, uri, 2, "s2")
        container.shutdown(wait=False)
        gate.set()
        job = container.service("work").jobs.get(queued["id"])
        assert job.state.value == "FAILED"
        assert job.error == INTERRUPTED_ERROR
        assert job.extra["recoverable"] == "interrupted"

    def test_interruption_is_journaled(self, tmp_path, registry):
        gate = threading.Event()
        first = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        first.deploy(work_config(gate))
        client = RestClient(registry)
        uri = first.service_uri("work")
        blocker = submit(client, uri, -1, "s1")
        wait_state(client, blocker["uri"], {"RUNNING"})
        queued = submit(client, uri, 2, "s2")
        first.shutdown(wait=False)
        gate.set()

        second = ServiceContainer("dur", handlers=1, registry=registry, journal_dir=tmp_path)
        second.deploy(work_config(gate))
        try:
            # the FAILED(interrupted) verdict was persisted before close:
            # recovery must not resurrect and re-run the job
            recovered = client.get(queued["uri"])
            assert recovered["state"] == "FAILED"
            assert recovered["error"] == INTERRUPTED_ERROR
        finally:
            second.shutdown()
