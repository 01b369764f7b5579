"""Tests for the workflow management service and composite services."""

import time

import pytest

from repro.client import ServiceProxy
from repro.http.client import ClientError, RestClient
from repro.workflow.jsonio import workflow_to_json
from repro.workflow.wms import WorkflowManagementService

from tests.workflow.conftest import diamond_workflow
from tests.waiters import wait_until


@pytest.fixture()
def wms(registry, container):
    service = WorkflowManagementService("wms", registry=registry)
    yield service
    service.shutdown()


def wait_terminal(client, job_uri, timeout=15.0):
    def terminal():
        job = client.get(job_uri)
        return job if job["state"] in ("DONE", "FAILED", "CANCELLED") else None

    return wait_until(terminal, timeout=timeout, interval=0.01, message=job_uri)


class TestCompositeService:
    def test_workflow_published_as_service(self, wms, container, registry):
        wms.deploy_workflow(diamond_workflow(container))
        proxy = ServiceProxy(wms.service_uri("diamond"), registry)
        description = proxy.describe()
        assert description.name == "diamond"
        assert description.input("n").schema == {"type": "number"}
        assert "composite" in description.tags

    def test_composite_execution_via_rest(self, wms, container, registry):
        wms.deploy_workflow(diamond_workflow(container))
        proxy = ServiceProxy(wms.service_uri("diamond"), registry)
        assert proxy(n=4, timeout=15)["result"] == (4 + 1) + (4 * 2)

    def test_waited_submit_answers_with_the_finished_instance(self, wms, container, registry):
        # composite services are mounted by the same mount_service: the
        # POST half of ?wait= comes with it
        wms.deploy_workflow(diamond_workflow(container))
        response = RestClient(registry).request_raw(
            "POST", wms.service_uri("diamond"), query={"wait": 10}, body=b'{"n": 4}'
        )
        assert response.status == 201
        job = response.json_body
        assert response.headers.get("Location") == job["uri"]
        assert job["state"] == "DONE"
        assert job["results"] == {"result": 13}
        assert all(state == "DONE" for state in job["blocks"].values())

    def test_instance_uri_shows_block_states(self, wms, container, registry):
        wms.deploy_workflow(diamond_workflow(container))
        client = RestClient(registry)
        created = client.post(wms.service_uri("diamond"), payload={"n": 2})
        job = wait_terminal(client, created["uri"])
        assert job["state"] == "DONE"
        assert set(job["blocks"]) == set(diamond_workflow(container).blocks)
        assert all(state == "DONE" for state in job["blocks"].values())

    def test_failing_workflow_job_reports_block_errors(self, wms, container, registry):
        from repro.workflow.model import InputBlock, OutputBlock, ServiceBlock, Workflow, DataType

        workflow = Workflow("failing")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        bad = ServiceBlock("bad", uri=container.service_uri("broken"))
        bad.introspect(registry)
        workflow.add(bad)
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "bad.x")
        workflow.connect("bad.y", "out.value")
        wms.deploy_workflow(workflow)
        client = RestClient(registry)
        created = client.post(wms.service_uri("failing"), payload={"n": 1})
        job = wait_terminal(client, created["uri"])
        assert job["state"] == "FAILED"
        assert "numerical instability" in job["error"]
        assert job["blocks"]["bad"] == "FAILED"
        assert job["blocks"]["out"] == "SKIPPED"

    def test_invalid_inputs_rejected(self, wms, container, registry):
        wms.deploy_workflow(diamond_workflow(container))
        client = RestClient(registry)
        with pytest.raises(ClientError) as info:
            client.post(wms.service_uri("diamond"), payload={"n": "NaN"})
        assert info.value.status == 422

    def test_cancel_running_instance(self, wms, container, registry):
        from repro.workflow.model import ConstBlock, InputBlock, OutputBlock, ServiceBlock, Workflow, DataType

        workflow = Workflow("slow-wf")
        workflow.add(InputBlock("n", type=DataType.NUMBER))
        workflow.add(ConstBlock("d", value=10))
        slow = ServiceBlock("s", uri=container.service_uri("slow"))
        slow.introspect(registry)
        workflow.add(slow)
        workflow.add(OutputBlock("out"))
        workflow.connect("n.value", "s.x")
        workflow.connect("d.value", "s.delay")
        workflow.connect("s.x", "out.value")
        wms.deploy_workflow(workflow)
        client = RestClient(registry)
        created = client.post(wms.service_uri("slow-wf"), payload={"n": 1})
        time.sleep(0.2)
        client.delete(created["uri"])
        with pytest.raises(ClientError) as info:
            client.get(created["uri"])
        assert info.value.status == 404


class TestSubWorkflows:
    def test_composite_service_used_inside_another_workflow(self, wms, container, registry):
        """Dividing complex workflows into sub-workflows (paper §4)."""
        from repro.workflow.model import InputBlock, OutputBlock, ServiceBlock, Workflow, DataType

        wms.deploy_workflow(diamond_workflow(container))
        outer = Workflow("outer")
        outer.add(InputBlock("m", type=DataType.NUMBER))
        inner = ServiceBlock("inner", uri=wms.service_uri("diamond"))
        inner.introspect(registry)
        outer.add(inner)
        neg = ServiceBlock("neg", uri=container.service_uri("neg"))
        neg.introspect(registry)
        outer.add(neg)
        outer.add(OutputBlock("res", type=DataType.NUMBER))
        outer.connect("m.value", "inner.n")
        outer.connect("inner.result", "neg.x")
        outer.connect("neg.minus", "res.value")
        wms.deploy_workflow(outer)
        proxy = ServiceProxy(wms.service_uri("outer"), registry)
        assert proxy(m=4, timeout=20)["res"] == -((4 + 1) + (4 * 2))


class TestWmsRestInterface:
    def test_crud_cycle(self, wms, container, registry):
        client = RestClient(registry, base=wms.base_uri)
        document = workflow_to_json(diamond_workflow(container))
        created = client.post("/workflows", payload=document)
        assert created["id"] == "diamond"
        listing = client.get("/workflows")
        assert [entry["id"] for entry in listing] == ["diamond"]
        fetched = client.get("/workflows/diamond")
        assert fetched["name"] == "diamond"
        assert any(b["kind"] == "service" for b in fetched["blocks"])
        client.delete("/workflows/diamond")
        assert client.get("/workflows") == []
        with pytest.raises(ClientError):
            client.get("/workflows/diamond")

    def test_upload_executes(self, wms, container, registry):
        client = RestClient(registry, base=wms.base_uri)
        client.post("/workflows", payload=workflow_to_json(diamond_workflow(container)))
        created = client.post(wms.service_uri("diamond"), payload={"n": 1})
        assert wait_terminal(client, created["uri"])["results"]["result"] == 4

    def test_put_replaces_workflow(self, wms, container, registry):
        client = RestClient(registry, base=wms.base_uri)
        document = workflow_to_json(diamond_workflow(container))
        client.post("/workflows", payload=document)
        for block in document["blocks"]:
            if block["id"] == "two":
                block["value"] = 100
        client.put("/workflows/diamond", payload=document)
        created = client.post(wms.service_uri("diamond"), payload={"n": 1})
        assert wait_terminal(client, created["uri"])["results"]["result"] == (1 + 1) + 100

    def test_put_name_mismatch_409(self, wms, container, registry):
        client = RestClient(registry, base=wms.base_uri)
        document = workflow_to_json(diamond_workflow(container))
        client.post("/workflows", payload=document)
        with pytest.raises(ClientError) as info:
            client.put("/workflows/other-name", payload=document)
        assert info.value.status == 409

    def test_invalid_document_is_422(self, wms, registry):
        client = RestClient(registry, base=wms.base_uri)
        with pytest.raises(ClientError) as info:
            client.post("/workflows", payload={"name": "w", "blocks": [{"id": "x", "kind": "alien"}]})
        assert info.value.status == 422

    def test_duplicate_deploy_is_422(self, wms, container, registry):
        client = RestClient(registry, base=wms.base_uri)
        document = workflow_to_json(diamond_workflow(container))
        client.post("/workflows", payload=document)
        with pytest.raises(ClientError) as info:
            client.post("/workflows", payload=document)
        assert info.value.status == 422


class TestDelegation:
    def test_wms_calls_services_on_behalf_of_user(self, registry, container):
        """The paper's delegation use case end to end (Fig. 3)."""
        from repro.security import CertificateAuthority, client_headers
        from repro.workflow.model import InputBlock, OutputBlock, ServiceBlock, Workflow, DataType

        ca = CertificateAuthority()
        container.enable_security(ca)
        # redeploy 'add' with a policy: only alice, with wms as trusted proxy
        container.undeploy("add")
        container.deploy(
            {
                "description": {
                    "name": "add",
                    "inputs": {
                        "a": {"schema": {"type": "number"}},
                        "b": {"schema": {"type": "number"}},
                    },
                    "outputs": {"sum": {"schema": {"type": "number"}}},
                },
                "adapter": "python",
                "config": {"callable": lambda a, b: {"sum": a + b}},
                "security": {"allow": ["CN=alice"], "proxies": ["CN=wms"]},
            }
        )
        wms_cert = ca.issue("CN=wms")
        wms = WorkflowManagementService(
            "sec-wms", registry=registry, credentials=client_headers(certificate=wms_cert)
        )
        try:
            workflow = Workflow("sum-wf")
            workflow.add(InputBlock("a", type=DataType.NUMBER))
            workflow.add(InputBlock("b", type=DataType.NUMBER))
            add_block = ServiceBlock(
                "adder",
                uri=container.service_uri("add"),
            )
            # introspect with alice's credentials (the service is locked)
            alice_headers = client_headers(certificate=ca.issue("CN=alice"))
            add_block.description = ServiceProxy(
                container.service_uri("add"), registry, headers=alice_headers
            ).describe()
            add_block._build_ports(add_block.description)
            workflow.add(add_block)
            workflow.add(OutputBlock("total", type=DataType.NUMBER))
            workflow.connect("a.value", "adder.a")
            workflow.connect("b.value", "adder.b")
            workflow.connect("adder.sum", "total.value")
            wms.deploy_workflow(workflow)

            # alice invokes the composite service; WMS must reach 'add' as
            # proxy acting on her behalf
            proxy = ServiceProxy(wms.service_uri("sum-wf"), registry, headers=alice_headers)
            # the composite submit must see alice: wire a policy on the WMS
            # side too so request.context carries her identity
            from repro.security import AccessPolicy, SecurityMiddleware

            wms.app.add_middleware(
                SecurityMiddleware(ca, policy_resolver=lambda path: AccessPolicy())
            )
            assert proxy(a=2, b=3, timeout=15)["total"] == 5

            # bob cannot: wms would proxy, but bob is not on the allow list
            bob_headers = client_headers(certificate=ca.issue("CN=bob"))
            bob_proxy = ServiceProxy(wms.service_uri("sum-wf"), registry, headers=bob_headers)
            from repro.client import JobFailedError

            with pytest.raises(JobFailedError, match="403|allow list"):
                bob_proxy(a=1, b=1, timeout=15)
        finally:
            wms.shutdown()
