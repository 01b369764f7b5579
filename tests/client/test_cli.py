"""Tests for the command-line client."""

import io
import json

import pytest

from repro.catalogue import CatalogueService
from repro.client.cli import main, parse_header, parse_parameter
from repro.container import ServiceContainer
from repro.http.registry import TransportRegistry


@pytest.fixture()
def registry():
    return TransportRegistry()


@pytest.fixture()
def container(registry):
    instance = ServiceContainer("cli-test", handlers=2, registry=registry)

    def echo(context, value):
        return {
            "echoed": value,
            "blob": context.store_file(b"cli-file", name="b.txt", content_type="text/plain"),
        }

    instance.deploy(
        {
            "description": {
                "name": "echo",
                "title": "Echo service",
                "inputs": {"value": {"schema": True}},
                "outputs": {"echoed": {"schema": True}, "blob": {"schema": True}},
            },
            "adapter": "python",
            "config": {"callable": echo},
        }
    )
    yield instance
    instance.shutdown()


def run_cli(registry, *argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(list(argv), registry=registry, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestParsers:
    def test_parameter_json_value(self):
        assert parse_parameter("n=4") == ("n", 4)
        assert parse_parameter("flag=true") == ("flag", True)
        assert parse_parameter("xs=[1,2]") == ("xs", [1, 2])

    def test_parameter_string_fallback(self):
        assert parse_parameter("mode=block") == ("mode", "block")

    def test_parameter_requires_equals(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_parameter("oops")

    def test_header_parsing(self):
        assert parse_header("X-A: value") == ("X-A", "value")


class TestCommands:
    def test_describe(self, container, registry):
        code, out, _ = run_cli(registry, "describe", container.service_uri("echo"))
        assert code == 0
        assert json.loads(out)["name"] == "echo"

    def test_submit_wait_and_result(self, container, registry):
        code, out, _ = run_cli(
            registry, "submit", container.service_uri("echo"), "-p", "value=41", "--wait"
        )
        assert code == 0
        job = json.loads(out)
        assert job["state"] == "DONE"
        assert job["results"]["echoed"] == 41

    def test_submit_inputs_json(self, container, registry):
        code, out, _ = run_cli(
            registry,
            "submit",
            container.service_uri("echo"),
            "--inputs-json",
            '{"value": {"nested": true}}',
            "--wait",
        )
        assert json.loads(out)["results"]["echoed"] == {"nested": True}

    def test_status_and_result_commands(self, container, registry):
        _, out, _ = run_cli(registry, "submit", container.service_uri("echo"), "-p", "value=1")
        job_uri = json.loads(out)["uri"]
        code, out, _ = run_cli(registry, "result", job_uri)
        assert code == 0
        assert json.loads(out)["echoed"] == 1
        code, out, _ = run_cli(registry, "status", job_uri)
        assert json.loads(out)["state"] == "DONE"

    def test_cancel_command(self, container, registry):
        _, out, _ = run_cli(registry, "submit", container.service_uri("echo"), "-p", "value=1")
        job_uri = json.loads(out)["uri"]
        code, out, _ = run_cli(registry, "cancel", job_uri)
        assert code == 0
        assert "cancelled" in out

    def test_fetch_to_stdout_and_file(self, container, registry, tmp_path):
        _, out, _ = run_cli(
            registry, "submit", container.service_uri("echo"), "-p", "value=1", "--wait"
        )
        file_uri = json.loads(out)["results"]["blob"]["$file"]
        code, out, _ = run_cli(registry, "fetch", file_uri)
        assert out == "cli-file"
        target = tmp_path / "out.bin"
        code, out, _ = run_cli(registry, "fetch", file_uri, "-o", str(target))
        assert code == 0
        assert target.read_bytes() == b"cli-file"

    def test_search_command(self, container, registry):
        catalogue = CatalogueService("cat", registry=registry)
        catalogue.catalogue.publish(container.service_uri("echo"), tags=["demo"])
        code, out, _ = run_cli(registry, "search", catalogue.local_base, "echo", "--tag", "demo")
        catalogue.shutdown()
        assert code == 0
        hits = json.loads(out)["hits"]
        assert hits and hits[0]["name"] == "echo"

    def test_error_exit_codes(self, container, registry):
        code, _, err = run_cli(registry, "describe", "local://nowhere/services/x")
        assert code == 2
        assert "error" in err

    def test_headers_forwarded(self, container, registry):
        # secured service rejects anonymous: exercise -H round trip
        from repro.security import CertificateAuthority, client_headers

        ca = CertificateAuthority()
        container.enable_security(ca)
        container.deploy(
            {
                "description": {"name": "locked", "inputs": {}, "outputs": {}},
                "adapter": "python",
                "config": {"callable": lambda: {}},
                "security": {"allow": ["CN=alice"]},
            }
        )
        code, _, err = run_cli(registry, "describe", container.service_uri("locked"))
        assert code == 2 and "401" in err
        token = client_headers(certificate=ca.issue("CN=alice"))["X-Client-Certificate"]
        code, out, _ = run_cli(
            registry,
            "-H",
            f"X-Client-Certificate:{token}",
            "describe",
            container.service_uri("locked"),
        )
        assert code == 0
        assert json.loads(out)["name"] == "locked"
