"""Participant conformance kit: one suite over every journal vocabulary.

Seven planes write to a write-ahead journal — jobs, result cache, blob
pins, tenant usage (all four under a container), workflows + runs (the
WMS), batch jobs (the cluster) and catalogue entries (the catalogue
service). Each registers with its host's state
spine and owns its record vocabulary; this kit holds them all to the
same contract. A case supplies fixtures only: how to open its host over
a directory, how to read the plane's state back through the host's
public surface, a script of live operations, and a **golden** snapshot
section plus record list in the on-disk format — written out literally,
because the format is frozen: a directory written by any earlier version
of this repo must keep recovering.

The checks, per vocabulary:

(a) the golden section + records recover to the expected state;
(b) what compaction exports, alone in a fresh directory, reproduces the
    live plane;
(c) replaying records the section already reflects changes nothing —
    the precondition of cut-then-export compaction (usage deltas are
    sums, and pass through their record numbers);
(d) a record of an unregistered type, or with no type at all, costs one
    recovery warning each and never an exception;
(e) a torn tail still yields the plane its intact prefix.

Everything goes through the hosts' constructors and the raw ``Journal``,
so check (a) runs unchanged against any version that reads the format.
"""

import contextlib
import shutil

import pytest

from repro.batch.cluster import BATCH_INTERRUPTED_REASON, Cluster, ComputeNode
from repro.batch.job import BatchJob
from repro.blob import BlobStore
from repro.cache import ResultCache
from repro.catalogue import CatalogueService
from repro.container import ServiceContainer
from repro.durability import Journal
from repro.http.app import RestApp
from repro.http.client import RestClient
from repro.http.messages import Response
from repro.http.registry import TransportRegistry
from repro.workflow.wms import WorkflowManagementService
from tests.waiters import wait_until

BLOB = b"golden blob"
BLOB_DIGEST = "b9c5de384486f63ec4bce574e21ced2be71368048f46df2f3789371aea7a9f80"
LOST_DIGEST = "f" * 64  # journaled, but no manifest on disk


def write_journal(directory, section, records):
    """A journal directory holding ``section`` as its snapshot and
    ``records`` in a segment replayed on top of it."""
    journal = Journal(directory)
    if section is not None:
        journal.snapshot(section)
    for record in records:
        journal.append(record)
    journal.close()


def read_journal(directory):
    journal = Journal(directory)
    recovery = journal.recover()
    journal.close()
    return recovery


class ContainerCase:
    """The four vocabularies a service container hosts share one host:
    journal + cache + tenancy + blob store, one deterministic service."""

    def prepare(self, directory):
        """Files the golden records refer to (only blobs have any)."""

    def open(self, directory):
        host = ServiceContainer(
            "kit", registry=TransportRegistry(), journal_dir=directory,
            cache=ResultCache(ttl=None),
        )
        host.enable_tenancy()
        host.deploy({
            "description": {
                "name": "work",
                "inputs": {"x": {"schema": {"type": "number"}}},
                "outputs": {"y": {"schema": {"type": "number"}}},
            },
            "adapter": "python",
            "config": {"callable": lambda x: {"y": 2 * x}},
        })
        wait_until(lambda: all(job.state.terminal for job in self.jobs(host)),
                   message="recovered jobs never settled")
        return host

    @staticmethod
    def jobs(host):
        return host.service("work").jobs.list()

    @staticmethod
    def submit(host, x):
        client = RestClient(host.registry)
        job = client.post(host.service_uri("work"), {"x": x})
        wait_until(lambda: client.get(job["uri"])["state"] == "DONE")
        return job


def job_records(job_id, x, *, key=None):
    """created → running → done for ``work(x)``, as the container writes them."""
    created = {"type": "job", "event": "created", "service": "work", "id": job_id,
               "inputs": {"x": x}, "created": 1790658301.25, "request_id": f"r-{job_id}"}
    if key:
        created["key"] = key
    return [
        created,
        {"type": "job", "event": "running", "service": "work", "id": job_id,
         "started": 1790658301.5},
        {"type": "job", "event": "done", "service": "work", "id": job_id,
         "results": {"y": 2 * x}, "finished": 1790658301.75},
    ]


def done_document(job_id, x):
    return {"id": job_id, "state": "DONE", "inputs": {"x": x}, "created": 1790658301.25,
            "request_id": f"r-{job_id}", "started": 1790658301.5, "finished": 1790658301.75,
            "results": {"y": 2 * x}}


class JobCase(ContainerCase):
    section = {"services": {"work": {
        "j-done": {**done_document("j-done", 1), "key": "k1", "extra": {"tenant": "acme"}},
        "j-inflight": {"id": "j-inflight", "state": "WAITING", "inputs": {"x": 3},
                       "created": 1790658301.25},
        "j-doomed": done_document("j-doomed", 2),
    }}}
    records = [
        *job_records("j-late", 5, key="k2"),
        {"type": "job", "event": "deleted", "service": "work", "id": "j-doomed"},
        {"type": "job", "event": "created", "service": "work", "id": "j-failed",
         "inputs": {"x": 7}, "created": 1790658302.0, "extra": {"tenant": "acme"}},
        {"type": "job", "event": "running", "service": "work", "id": "j-failed",
         "started": 1790658302.25},
        {"type": "job", "event": "failed", "service": "work", "id": "j-failed",
         "error": "boom", "finished": 1790658302.5, "extra": {"tenant": "acme"}},
        {"type": "job", "event": "created", "service": "work", "id": "j-cancelled",
         "inputs": {"x": 9}, "created": 1790658303.0},
        {"type": "job", "event": "cancelled", "service": "work", "id": "j-cancelled",
         "finished": 1790658303.25},
    ]
    expected = {
        "j-done": ("DONE", {"y": 2}, None, "k1"),
        # in flight at the crash, idempotent adapter: re-executed
        "j-inflight": ("DONE", {"y": 6}, None, None),
        "j-late": ("DONE", {"y": 10}, None, "k2"),
        "j-failed": ("FAILED", None, "boom", None),
        "j-cancelled": ("CANCELLED", None, None, None),
    }

    def state(self, host):
        return {job.id: (job.state.value, job.results, job.error, job.idempotency_key)
                for job in self.jobs(host)}

    def script(self, host):
        self.submit(host, 1)
        doomed = self.submit(host, 2)
        RestClient(host.registry).delete(doomed["uri"])


class CacheCase(ContainerCase):
    section = {
        "services": {"work": {"j-a": done_document("j-a", 1)}},
        "cache": [{"service": "work", "fp": "a" * 64, "id": "j-a", "stored": 1790658301.75}],
    }
    records = [
        *job_records("j-c", 3),
        {"type": "cache", "service": "work", "fp": "c" * 64, "id": "j-c",
         "stored": 1790658302.0},
        # an entry outliving its job is inert: the job was deleted
        *job_records("j-d", 4),
        {"type": "cache", "service": "work", "fp": "d" * 64, "id": "j-d",
         "stored": 1790658302.5},
        {"type": "job", "event": "deleted", "service": "work", "id": "j-d"},
    ]
    expected = [("a" * 64, "j-a"), ("c" * 64, "j-c")]

    def state(self, host):
        return sorted((entry["fp"], entry["id"]) for entry in host.cache.export())

    def script(self, host):
        self.submit(host, 1)
        self.submit(host, 2)


class BlobCase(ContainerCase):
    section = {"blobs": [
        {"type": "blob", "event": "commit", "digest": BLOB_DIGEST, "size": len(BLOB)},
        {"type": "blob", "event": "pin", "digest": BLOB_DIGEST, "owner": "job:keep"},
        {"type": "blob", "event": "pin", "digest": BLOB_DIGEST, "owner": "job:gone"},
    ]}
    records = [
        {"type": "blob", "event": "unpin", "digest": BLOB_DIGEST, "owner": "job:gone"},
        {"type": "blob", "event": "pin", "digest": BLOB_DIGEST, "owner": "job:late"},
        # a pin whose bytes never reached the disk is dropped, not resurrected
        {"type": "blob", "event": "commit", "digest": LOST_DIGEST, "size": 3},
        {"type": "blob", "event": "pin", "digest": LOST_DIGEST, "owner": "job:late"},
    ]
    expected = {BLOB_DIGEST: ["job:keep", "job:late"]}

    def prepare(self, directory):
        assert BlobStore(directory / "blobs").put_bytes(BLOB).digest == BLOB_DIGEST

    def state(self, host):
        return {
            record["digest"]: sorted(host.blobs.pins(record["digest"]))
            for record in host.blobs.export() if record["event"] == "commit"
        }

    def script(self, host):
        kept = host.blobs.put_bytes(b"kept").digest
        host.blobs.put_bytes(b"unpinned")
        host.blobs.pin(kept, "job:one")
        host.blobs.pin(kept, "job:two")
        host.blobs.unpin(kept, "job:one")


class UsageCase(ContainerCase):
    section = {"usage": [{"tenant": "acme", "cpu": 1.5, "disk": 10}]}
    records = [
        {"tenant": "acme", "cpu": 0.25, "disk": 0, "type": "usage"},
        {"tenant": "beta", "cpu": 0.0, "disk": 7, "type": "usage"},
        {"tenant": "acme", "cpu": 0, "disk": -4, "type": "usage"},
    ]
    expected = {"acme": {"cpu": 1.75, "disk": 6}, "beta": {"cpu": 0.0, "disk": 7}}

    def state(self, host):
        usage = {tenant: host.tenancy.usage(tenant) for tenant in host.tenancy.tenants()}
        return {tenant: held for tenant, held in usage.items() if any(held.values())}

    def script(self, host):
        host.tenancy.charge("acme", cpu=0.5, disk=100)
        host.tenancy.charge("beta", cpu=0.125)
        host.tenancy.charge("acme", disk=-40)


def workflow_document(name):
    return {
        "name": name, "title": "", "description": "",
        "blocks": [
            {"id": "n", "kind": "input", "name": "n", "type": "number", "required": True},
            {"id": "twice", "kind": "script", "code": "out = n * 2",
             "inputs": ["n"], "outputs": ["out"]},
            {"id": "out", "kind": "output", "name": "out", "type": "number"},
        ],
        "edges": ["n.value -> twice.n", "twice.out -> out.value"],
    }


ALL_DONE = {"n": "DONE", "twice": "DONE", "out": "DONE"}


class WorkflowCase:
    section = {
        "workflows": {"double": workflow_document("double"), "gone": workflow_document("gone")},
        "runs": {
            "double": {"j-r1": {"id": "j-r1", "state": "DONE", "inputs": {"n": 4},
                                "created": 1790658314.25, "finished": 1790658314.5,
                                "results": {"out": 8}, "blocks": ALL_DONE}},
            "gone": {"j-g1": {"id": "j-g1", "state": "DONE", "inputs": {"n": 1},
                              "created": 1790658314.25, "finished": 1790658314.5,
                              "results": {"out": 2}, "blocks": ALL_DONE}},
        },
    }
    records = [
        # undeploying a workflow drops its runs: the two types fold together
        {"type": "workflow", "event": "undeployed", "name": "gone"},
        {"type": "run", "event": "created", "workflow": "double", "id": "j-r2",
         "inputs": {"n": 5}, "created": 1790658315.0, "key": "k-r2"},
        {"type": "run", "event": "block", "workflow": "double", "id": "j-r2",
         "block": "n", "outputs": {"value": 5}},
        {"type": "run", "event": "block", "workflow": "double", "id": "j-r2",
         "block": "twice", "outputs": {"out": 10}},
        {"type": "run", "event": "block", "workflow": "double", "id": "j-r2",
         "block": "out", "outputs": {}},
        {"type": "run", "event": "done", "workflow": "double", "id": "j-r2",
         "results": {"out": 10}, "finished": 1790658315.5, "blocks": ALL_DONE},
        # in flight at the crash: resumes from its checkpointed frontier
        {"type": "run", "event": "created", "workflow": "double", "id": "j-r3",
         "inputs": {"n": 6}, "created": 1790658316.0},
        {"type": "run", "event": "block", "workflow": "double", "id": "j-r3",
         "block": "n", "outputs": {"value": 6}},
    ]
    expected = {"double": {
        "j-r1": ("DONE", {"out": 8}),
        "j-r2": ("DONE", {"out": 10}),
        "j-r3": ("DONE", {"out": 12}),
    }}

    def prepare(self, directory):
        pass

    def open(self, directory):
        host = WorkflowManagementService(
            "kit-wms", registry=TransportRegistry(), journal_dir=directory)
        wait_until(lambda: all(job.state.terminal for jobs in self.runs(host).values()
                               for job in jobs),
                   message="recovered runs never settled")
        return host

    @staticmethod
    def runs(host):
        return {name: host.composite(name).jobs.list() for name in host.workflows}

    def state(self, host):
        return {name: {job.id: (job.state.value, job.results) for job in jobs}
                for name, jobs in self.runs(host).items()}

    def script(self, host):
        client = RestClient(host.registry)
        created = client.post(f"{host.base_uri}/workflows", workflow_document("double"))
        job = client.post(created["service_uri"], {"n": 4})
        wait_until(lambda: client.get(job["uri"])["state"] == "DONE")


def batch_document(job_id, word):
    return {"id": job_id, "name": word, "submitted": 1790658314.5,
            "resources": {"nodes": 1, "ppn": 1, "walltime": 3600.0},
            "command": ["echo", word]}


class BatchCase:
    section = {"jobs": {"1.kit": {
        **batch_document("1.kit", "one"), "state": "COMPLETED", "started": 1790658314.75,
        "finished": 1790658315.0, "exit_status": 0, "stdout": "one\n"}}}
    records = [
        {"type": "batch", "event": "submitted", "id": "2.kit",
         "job": batch_document("2.kit", "two")},
        {"type": "batch", "event": "finished", "id": "2.kit", "state": "COMPLETED",
         "finished": 1790658316.0, "started": 1790658315.75, "exit_status": 0,
         "stdout": "two\n"},
        # an in-process callable cannot be rebuilt from a journal
        {"type": "batch", "event": "submitted", "id": "3.kit",
         "job": {"id": "3.kit", "name": "fn", "submitted": 1790658316.5,
                 "resources": {"nodes": 1, "ppn": 1, "walltime": 60.0}, "function": True}},
        # acknowledged, never finished: requeued and run
        {"type": "batch", "event": "submitted", "id": "4.kit",
         "job": batch_document("4.kit", "four")},
    ]
    expected = {
        "1.kit": ("COMPLETED", "one\n", ""),
        "2.kit": ("COMPLETED", "two\n", ""),
        "3.kit": ("FAILED", "", BATCH_INTERRUPTED_REASON),
        "4.kit": ("COMPLETED", "four\n", ""),
    }

    def prepare(self, directory):
        pass

    def open(self, directory):
        host = Cluster(nodes=[ComputeNode("n1")], name="kit", journal_dir=directory)
        wait_until(lambda: all(job.state.terminal for job in host.jobs()),
                   message="recovered batch jobs never settled")
        return host

    def state(self, host):
        return {job.id: (job.state.value, job.stdout, job.failure_reason)
                for job in host.jobs()}

    def script(self, host):
        for word in ("alpha", "beta"):
            host.wait(host.qsub(BatchJob(name=word, command=["echo", word])), timeout=10)


def catalogue_entry(name, tags, published_at=1790658314.5):
    return {"uri": f"local://described/services/{name}",
            "description": {"name": name, "title": f"The {name} service"},
            "tags": tags, "published_at": published_at}


class CatalogueCase:
    section = {"catalogue": [catalogue_entry("keep", ["cas"]), catalogue_entry("gone", [])]}
    records = [
        # tagging rewrites the whole entry
        {"type": "catalogue", "event": "put", "entry": catalogue_entry("keep", ["cas", "exact"])},
        {"type": "catalogue", "event": "drop", "uri": "local://described/services/gone"},
        {"type": "catalogue", "event": "put",
         "entry": catalogue_entry("late", ["physics"], 1790658315.0)},
    ]
    expected = {
        "local://described/services/keep": ("keep", ["cas", "exact"], 1790658314.5),
        "local://described/services/late": ("late", ["physics"], 1790658315.0),
    }

    def prepare(self, directory):
        pass

    def open(self, directory):
        # every local://described/services/<name> describes itself
        app = RestApp("described")
        app.route("GET", "/services/{name}",
                  lambda request, name: Response.json({"name": name, "title": f"The {name} service"}))
        registry = TransportRegistry()
        registry.bind_local("described", app)
        return CatalogueService("kit-catalogue", registry=registry, journal_dir=directory)

    def state(self, host):
        hits = {hit["uri"] for hit in host.catalogue.search("service", limit=100)}
        return {entry.uri: (entry.name, sorted(entry.tags), entry.published_at)
                for entry in host.catalogue.entries() if entry.uri in hits}

    def script(self, host):
        client = RestClient(host.registry, base=host.local_base)
        for name, tags in (("alpha", ["x"]), ("beta", []), ("gamma", ["y"])):
            client.post("/services", {"uri": f"local://described/services/{name}", "tags": tags})
        client.post("/services/tags", {"uri": "local://described/services/beta", "tags": ["z"]})
        client.delete("/services?uri=local://described/services/gamma")


CASES = [JobCase(), CacheCase(), BlobCase(), UsageCase(), WorkflowCase(), BatchCase(),
         CatalogueCase()]


@pytest.mark.parametrize("case", CASES, ids=lambda case: type(case).__name__)
class TestParticipantConformance:
    @contextlib.contextmanager
    def cold_start(self, case, directory, section, records, *, torn=0):
        """The host, started over a directory holding ``section`` + ``records``."""
        directory.mkdir()
        case.prepare(directory)
        write_journal(directory, section, records)
        if torn:
            segment = max(directory.glob("segment-*.waj"))
            segment.write_bytes(segment.read_bytes()[:-torn])
        host = case.open(directory)
        try:
            yield host
        finally:
            host.crash()

    def recovered(self, case, *args, **kwargs):
        """The plane's state and the host's recovery warnings after a cold start."""
        with self.cold_start(case, *args, **kwargs) as host:
            return case.state(host), list(host.recovery_warnings)

    def test_golden_section_and_records_recover(self, case, tmp_path):
        with self.cold_start(case, tmp_path / "golden", case.section, case.records) as host:
            assert case.state(host) == case.expected

    def test_export_reproduces_the_live_plane_and_replay_is_idempotent(self, case, tmp_path):
        origin = tmp_path / "origin"
        first = case.open(origin)
        try:
            case.script(first)
            live = case.state(first)
        finally:
            first.crash()
        assert live, "the script must leave state worth recovering"
        journaled = read_journal(origin).records

        second = case.open(origin)
        try:
            assert case.state(second) == live  # records alone
            second.compact()
        finally:
            second.crash()
        exported = read_journal(origin).snapshot

        def start(name, records):
            directory = tmp_path / name
            if (origin / "blobs").exists():
                shutil.copytree(origin / "blobs", directory / "blobs")
            else:
                directory.mkdir()
            write_journal(directory, exported, records)
            host = case.open(directory)
            try:
                return case.state(host)
            finally:
                host.crash()

        assert start("export-only", []) == live
        # every journaled record is already reflected in the export
        assert start("export-and-records", journaled) == live

    def test_unknown_and_untyped_records_cost_one_warning_each(self, case, tmp_path):
        clean, baseline = self.recovered(case, tmp_path / "clean", case.section, case.records)
        strangers = [
            {"type": "martian", "payload": 1},
            {"type": "martian", "payload": 2},
            {"payload": "no type at all"},
        ]
        state, warnings = self.recovered(
            case, tmp_path / "strange", case.section, [*strangers, *case.records])
        assert state == clean == case.expected
        added = warnings[len(baseline):]
        assert len(added) == 2, added
        assert any("martian" in line for line in added)
        assert any("without a type" in line for line in added)

    def test_torn_tail_keeps_the_intact_prefix(self, case, tmp_path):
        prefix, baseline = self.recovered(
            case, tmp_path / "prefix", case.section, case.records[:-1])
        state, warnings = self.recovered(
            case, tmp_path / "torn", case.section, case.records, torn=3)
        assert state == prefix
        assert len(warnings) == len(baseline) + 1
        assert "truncated" in warnings[0]
