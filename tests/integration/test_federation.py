"""A full MathCloud federation in one test: every platform component
working together across organizational boundaries.

Topology:

- container "org-a" over HTTP: CAS + arithmetic services, secured;
- container "org-b" in-process: grid-backed curve service;
- a catalogue indexing both;
- a WMS composing services from both containers into one workflow,
  deployed as a composite service and invoked with delegation.
"""

import numpy as np
import pytest

from repro.apps.cas.service import cas_service_config
from repro.apps.xray import default_q_grid
from repro.apps.xray.services import curve_service_config
from repro.apps.xray.structures import small_library
from repro.batch import Cluster, ComputeNode
from repro.catalogue import Catalogue
from repro.client import ServiceProxy
from repro.container import ServiceContainer
from repro.grid import GridBroker, GridSite, VirtualOrganization
from repro.http.registry import TransportRegistry
from repro.security import AccessPolicy, CertificateAuthority, client_headers
from repro.workflow.model import (
    DataType,
    InputBlock,
    OutputBlock,
    ScriptBlock,
    ServiceBlock,
    Workflow,
)
from repro.workflow.wms import WorkflowManagementService


@pytest.fixture(scope="module")
def federation():
    registry = TransportRegistry()
    ca = CertificateAuthority("CN=Federation CA")

    org_a = ServiceContainer("org-a", handlers=4, registry=registry)
    org_a.deploy(cas_service_config(name="cas", packaging="python"))
    org_a.deploy(
        {
            "description": {
                "name": "scale",
                "inputs": {
                    "values": {"schema": {"type": "array"}},
                    "factor": {"schema": {"type": "number"}},
                },
                "outputs": {"scaled": {"schema": {"type": "array"}}},
            },
            "adapter": "python",
            "config": {"callable": lambda values, factor: {"scaled": [v * factor for v in values]}},
        }
    )
    server_a = org_a.serve()

    org_b = ServiceContainer("org-b", handlers=4, registry=registry)
    site = GridSite("fed-ce", supported_vos={"mathcloud"}, slots=4)
    broker = GridBroker(sites=[site])
    broker.add_vo(VirtualOrganization("mathcloud", members={"CN=org-b"}))
    org_b.register_resource("egi", broker)
    org_b.deploy(
        curve_service_config(backend="grid", broker="egi", vo="mathcloud", owner="CN=org-b")
    )

    catalogue = Catalogue(registry)
    wms = WorkflowManagementService("fed-wms", registry=registry)

    yield {
        "registry": registry,
        "ca": ca,
        "org_a": org_a,
        "server_a": server_a,
        "org_b": org_b,
        "broker": broker,
        "catalogue": catalogue,
        "wms": wms,
    }
    catalogue.close()
    wms.shutdown()
    broker.shutdown()
    org_b.shutdown()
    org_a.shutdown()


def test_catalogue_spans_transports(federation):
    catalogue = federation["catalogue"]
    # org-a published by its public HTTP URI, org-b by its local URI
    catalogue.publish(federation["server_a"].base_url + "/services/cas", tags=["cas"])
    catalogue.publish(federation["org_b"].service_uri("xray-curve"), tags=["physics"])
    hits = catalogue.search("matrix operations exact")
    assert any(hit["name"] == "cas" for hit in hits)
    availability = catalogue.ping_all()
    assert all(availability.values())


def test_cross_container_workflow(federation):
    """One workflow spanning an HTTP container and a grid-backed service."""
    registry = federation["registry"]
    wms = federation["wms"]
    q_grid = [float(v) for v in default_q_grid(points=12)]
    spec = small_library()[3]  # a small sphere: fast grid job

    workflow = Workflow("fed-flow", title="Cross-organization analysis")
    workflow.add(InputBlock("factor", type=DataType.NUMBER))

    curve_block = ServiceBlock("curve", uri=federation["org_b"].service_uri("xray-curve"))
    curve_block.introspect(registry)
    workflow.add(curve_block)
    workflow.add(
        ScriptBlock(
            "unpack",
            code="values = curve_payload['curve']",
            input_names=["curve_payload"],
            output_names=["values"],
        )
    )
    scale_block = ServiceBlock(
        "scale", uri=federation["server_a"].base_url + "/services/scale"
    )
    scale_block.introspect(registry)
    workflow.add(scale_block)
    workflow.add(OutputBlock("scaled_curve", type=DataType.ARRAY))

    from repro.workflow.model import ConstBlock

    workflow.add(ConstBlock("spec", value=spec.to_json()))
    workflow.add(ConstBlock("grid", value=q_grid))
    workflow.connect("spec.value", "curve.spec")
    workflow.connect("grid.value", "curve.q")
    workflow.connect("curve.curve", "unpack.curve_payload")
    workflow.connect("unpack.values", "scale.values")
    workflow.connect("factor.value", "scale.factor")
    workflow.connect("scale.scaled", "scaled_curve.value")
    workflow.validate()

    wms.deploy_workflow(workflow)
    proxy = ServiceProxy(wms.service_uri("fed-flow"), registry)
    results = proxy(factor=2.0, timeout=300)
    scaled = results["scaled_curve"]
    assert len(scaled) == len(q_grid)

    # cross-check against local computation
    from repro.apps.xray import build_structure, debye_curve

    expected = 2.0 * debye_curve(build_structure(spec), np.array(q_grid))
    assert np.allclose(scaled, expected, rtol=1e-9)
    # the grid really executed the curve job
    site_cluster = federation["broker"].sites[0].cluster
    assert any(job.state.terminal for job in site_cluster.jobs())


def test_security_spans_the_federation(federation):
    """Delegation across organizations: a WMS workflow calls a secured
    service on behalf of the submitting user."""
    registry = federation["registry"]
    ca = federation["ca"]
    org_a = federation["org_a"]
    org_a.enable_security(ca)
    org_a.set_policy(
        "scale", AccessPolicy(allow={"CN=alice"}, proxies={"CN=fed-wms"})
    )

    wms = WorkflowManagementService(
        "sec-fed-wms",
        registry=registry,
        credentials=client_headers(certificate=ca.issue("CN=fed-wms")),
    )
    try:
        from repro.security import SecurityMiddleware

        wms.app.add_middleware(SecurityMiddleware(ca, policy_resolver=lambda p: AccessPolicy()))

        workflow = Workflow("secure-scale")
        workflow.add(InputBlock("values", type=DataType.ARRAY))
        alice_headers = client_headers(certificate=ca.issue("CN=alice"))
        block = ServiceBlock("scale", uri=org_a.service_uri("scale"))
        block.description = ServiceProxy(
            org_a.service_uri("scale"), registry, headers=alice_headers
        ).describe()
        block._build_ports(block.description)
        workflow.add(block)
        from repro.workflow.model import ConstBlock

        workflow.add(ConstBlock("two", value=2.0))
        workflow.add(OutputBlock("scaled", type=DataType.ARRAY))
        workflow.connect("values.value", "scale.values")
        workflow.connect("two.value", "scale.factor")
        workflow.connect("scale.scaled", "scaled.value")
        wms.deploy_workflow(workflow)

        alice_proxy = ServiceProxy(wms.service_uri("secure-scale"), registry, headers=alice_headers)
        assert alice_proxy(values=[1, 2], timeout=60)["scaled"] == [2.0, 4.0]

        from repro.client import JobFailedError

        mallory_headers = client_headers(certificate=ca.issue("CN=mallory"))
        mallory_proxy = ServiceProxy(
            wms.service_uri("secure-scale"), registry, headers=mallory_headers
        )
        with pytest.raises(JobFailedError, match="403|allow list"):
            mallory_proxy(values=[1], timeout=60)
    finally:
        wms.shutdown()
