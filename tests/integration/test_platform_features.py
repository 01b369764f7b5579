"""Tests for the deployment-from-files, catalogue UI and instance pages."""

import json
import sys
import time

import pytest

from repro.catalogue import CatalogueService
from repro.client import ServiceProxy
from repro.container import ServiceContainer
from repro.core.errors import ConfigurationError
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from tests.waiters import wait_for_state


@pytest.fixture()
def registry():
    return TransportRegistry()


def write_config(directory, name, command="echo 1", outputs=None):
    config = {
        "description": {
            "name": name,
            "title": f"Service {name}",
            "inputs": {"n": {"schema": {"type": "integer"}, "required": False, "default": 1}},
            "outputs": {"out": {"schema": True}},
        },
        "adapter": "command",
        "config": {
            "command": command,
            "outputs": outputs or {"out": {"stdout": True, "strip": True}},
        },
    }
    (directory / f"{name}.json").write_text(json.dumps(config))


class TestDeployDirectory:
    def test_deploys_all_json_files_in_name_order(self, registry, tmp_path):
        for name in ("alpha", "beta", "gamma"):
            write_config(tmp_path, name)
        container = ServiceContainer("startup", handlers=2, registry=registry)
        try:
            deployed = container.deploy_directory(tmp_path)
            assert [s.name for s in deployed] == ["alpha", "beta", "gamma"]
            proxy = ServiceProxy(container.service_uri("beta"), registry)
            assert proxy(n=1, timeout=30)["out"] == "1"
        finally:
            container.shutdown()

    def test_bad_file_aborts_with_file_name(self, registry, tmp_path):
        write_config(tmp_path, "alpha")
        (tmp_path / "broken.json").write_text("{not json")
        container = ServiceContainer("startup2", handlers=2, registry=registry)
        try:
            with pytest.raises(ConfigurationError, match="broken.json"):
                container.deploy_directory(tmp_path)
            # alpha (sorted before broken) is already deployed
            assert [s.name for s in container.services] == ["alpha"]
        finally:
            container.shutdown()

    def test_non_directory_rejected(self, registry, tmp_path):
        container = ServiceContainer("startup3", handlers=2, registry=registry)
        try:
            with pytest.raises(ConfigurationError, match="not a directory"):
                container.deploy_directory(tmp_path / "missing")
        finally:
            container.shutdown()

    def test_non_json_files_ignored(self, registry, tmp_path):
        write_config(tmp_path, "alpha")
        (tmp_path / "notes.txt").write_text("ignore me")
        container = ServiceContainer("startup4", handlers=2, registry=registry)
        try:
            assert len(container.deploy_directory(tmp_path)) == 1
        finally:
            container.shutdown()


class TestCatalogueWebUi:
    @pytest.fixture()
    def setup(self, registry):
        container = ServiceContainer("ui-test", handlers=2, registry=registry)
        container.deploy(
            {
                "description": {
                    "name": "invert",
                    "title": "Matrix inversion",
                    "description": "Error-free inversion of ill-conditioned matrices",
                    "inputs": {"m": {"schema": True}},
                    "outputs": {"r": {"schema": True}},
                },
                "adapter": "python",
                "config": {"callable": lambda m: {"r": m}},
            }
        )
        service = CatalogueService("cat-ui", registry=registry)
        service.catalogue.publish(container.service_uri("invert"), tags=["cas"])
        yield RestClient(registry, base=service.local_base), container
        service.shutdown()
        container.shutdown()

    def test_empty_page_prompts_for_query(self, setup):
        client, _ = setup
        page = client.get("/ui")
        assert "Enter a query" in page
        assert "<form" in page

    def test_results_page_highlights_terms(self, setup):
        client, _ = setup
        page = client.get("/ui", query={"q": "inversion"})
        assert "Matrix inversion" in page
        assert "<em>" in page  # highlighted term
        assert 'class="tag"' in page

    def test_no_results_message(self, setup):
        client, _ = setup
        page = client.get("/ui", query={"q": "quantum teleportation"})
        assert "No services match" in page

    def test_unavailable_badge(self, setup):
        client, container = setup
        container.undeploy("invert")
        # ping, then search
        client.request_raw("POST", "/ping")
        page = client.get("/ui", query={"q": "inversion"})
        assert "unavailable" in page

    def test_query_is_escaped(self, setup):
        client, _ = setup
        page = client.get("/ui", query={"q": "<script>alert(1)</script>"})
        assert "<script>alert" not in page


class TestWorkflowInstancePage:
    def test_instance_page_shows_block_states(self, registry):
        from repro.workflow.model import InputBlock, OutputBlock, ScriptBlock, Workflow
        from repro.workflow.wms import WorkflowManagementService

        wms = WorkflowManagementService("ui-wms", registry=registry)
        try:
            workflow = Workflow("pagey")
            workflow.add(InputBlock("n"))
            workflow.add(ScriptBlock("s", code="y = n", input_names=["n"], output_names=["y"]))
            workflow.add(OutputBlock("out"))
            workflow.connect("n.value", "s.n")
            workflow.connect("s.y", "out.value")
            wms.deploy_workflow(workflow)

            client = RestClient(registry)
            created = client.post(wms.service_uri("pagey"), payload={"n": 1})
            wait_for_state(lambda: client.get(created["uri"]), states=("DONE", "FAILED"))
            page = client.get(created["uri"] + "/ui")
            assert "pagey" in page
            assert "DONE" in page
            assert page.count("<tr") >= 4  # header + 3 blocks
        finally:
            wms.shutdown()

    def test_instance_page_unknown_job_404(self, registry):
        from repro.workflow.model import ConstBlock, OutputBlock, Workflow
        from repro.workflow.wms import WorkflowManagementService
        from repro.http.client import ClientError

        wms = WorkflowManagementService("ui-wms2", registry=registry)
        try:
            workflow = Workflow("tiny")
            workflow.add(ConstBlock("c", value=1))
            workflow.add(OutputBlock("out"))
            workflow.connect("c.value", "out.value")
            wms.deploy_workflow(workflow)
            client = RestClient(registry)
            with pytest.raises(ClientError) as info:
                client.get(wms.service_uri("tiny") + "/jobs/j-ghost/ui")
            assert info.value.status == 404
        finally:
            wms.shutdown()
