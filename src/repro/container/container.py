"""The service container: deployment, publication and serving.

A :class:`ServiceContainer` owns one REST application, one job manager,
one durable-state spine and any number of deployed services. It can
publish itself two ways at once (both inherited from
:class:`~repro.observability.RestHost`):

- in process — the container binds itself into a
  :class:`~repro.http.registry.TransportRegistry` under
  ``local://<name>`` at construction, so its services are immediately
  reachable by other components sharing the registry;
- over TCP — :meth:`serve` starts a :class:`~repro.http.RestServer`
  and switches advertised service URIs to the public ``http://`` address.

Everything that journals — the job manager, the blob store, the result
cache, the tenant registry — registers with the container's
:class:`~repro.durability.StateSpine` as a participant; compaction,
``/metrics`` collectors and shutdown iterate that registry.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

from repro.blob import BlobStore, mount_blob_store
from repro.cache import ResultCache
from repro.container.adapters import create_adapter
from repro.container.config import ServiceConfig
from repro.container.jobmanager import INTERRUPTED_ERROR, JobManager
from repro.container.service import DeployedService
from repro.container.webui import render_index_page, render_service_page
from repro.core.api import SubmitLedger, mount_service, unmount_service
from repro.core.errors import ConfigurationError
from repro.core.jobs import Job, JobState, job_document, restore_job
from repro.durability import StateSpine
from repro.http.messages import HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.observability import RestHost, instrument_container
from repro.security.authz import AccessPolicy
from repro.security.identity import IdentityBroker
from repro.security.middleware import SecurityMiddleware
from repro.security.pki import CertificateAuthority


class ServiceContainer(RestHost):
    """Everest: builds, deploys and publishes computational web services."""

    def __init__(
        self,
        name: str = "everest",
        handlers: int = 4,
        registry: TransportRegistry | None = None,
        journal_dir: "str | Path | None" = None,
        journal_fsync: str = "batch",
        cache: "ResultCache | bool | None" = None,
        observability: bool = True,
    ):
        super().__init__(name, registry, observability)
        self.job_manager = JobManager(handlers=handlers, name=name)
        self.job_manager.tracer = self.tracer
        # the result cache is opt-in: POST-creates-a-new-job is the REST
        # contract unless the operator asks for content-addressed reuse.
        # Explicit bool checks: an *empty* ResultCache is falsy (len == 0)
        # yet must still be adopted
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache: "ResultCache | None" = cache
        self._services: dict[str, DeployedService] = {}
        self._resources: dict[str, Any] = {}
        self._policies: dict[str, AccessPolicy] = {}
        self._lock = threading.Lock()
        self._security: SecurityMiddleware | None = None
        #: Tenant registry + gate, set by :meth:`enable_tenancy`.
        self.tenancy = None
        self.tenant_gate = None
        # the blob data plane: durable beside the journal when one exists,
        # a temp directory (cleaned up on shutdown) otherwise
        release = None
        if journal_dir is not None:
            blob_dir = Path(journal_dir) / "blobs"
        else:
            blob_tmp = tempfile.TemporaryDirectory(prefix=f"{name}-blobs-")
            blob_dir, release = Path(blob_tmp.name), blob_tmp.cleanup
        self.blobs = BlobStore(blob_dir)
        # the one place planes are wired: with a journal directory the
        # spine has already read whatever history is there, and each join
        # hands its plane its own share (deploy() consumes the recovered
        # jobs and cache entries per service). Shutdown actions run in
        # this order, after the job manager has drained
        self.state = StateSpine(journal_dir, journal_fsync, self.metrics)
        #: The container's write-ahead journal (``None`` when volatile).
        self.journal = self.state.journal
        self.job_manager.join(self.state, self._job_tables)
        if self.cache is not None:
            self.cache.join(self.state)
        self.blobs.join(self.state, release)
        mount_blob_store(self.app, self.blobs, base_uri=lambda: self.base_uri)
        self.app.route("GET", "/", self._index)
        self.app.route("GET", "/services", self._index)
        self.app.route("GET", "/ui", self._index_ui)
        if self.metrics is not None:
            instrument_container(self)

    def shutdown(self, wait: bool = True) -> None:
        """Stop serving and the handler pool (deployed services stay queryable
        in process until the interpreter exits).

        Without ``wait`` the handler pool is released immediately and any
        queued-but-unstarted jobs are marked interrupted rather than left
        dangling in ``WAITING``.
        """
        self._unpublish()
        self.job_manager.shutdown(wait=wait)
        self.state.close()

    # ----------------------------------------------------------- durability

    @property
    def recovery_warnings(self) -> list[str]:
        """Corruption (and unclaimed record types) tolerated at recovery."""
        return self.state.recovery_warnings

    def crash(self) -> None:
        """Simulate a cold stop: nothing after this call is persisted.

        The journal closes first — transitions the dying object graph
        still makes are lost, exactly as a real crash would lose them —
        then serving stops without draining or marking anything. Rebuild
        by constructing a fresh container over the same ``journal_dir``.
        """
        self.state.crash()
        self.job_manager.crash()
        self._unpublish()

    def compact(self) -> None:
        """Snapshot every participant's current state into the journal and
        drop the segments the snapshot covers."""
        self.state.compact()

    def _job_tables(self) -> dict[str, dict[str, dict]]:
        return {
            service.name: {job.id: job_document(job) for job in service.jobs.list()}
            for service in self.services
        }

    # ------------------------------------------------------------- security

    def enable_security(
        self,
        ca: CertificateAuthority,
        identity_broker: IdentityBroker | None = None,
    ) -> None:
        """Protect every service with the common security mechanism.

        Per-service policies come from each configuration's ``security``
        block; services without one remain open.
        """
        if self._security is not None:
            raise RuntimeError("security is already enabled")
        self._security = SecurityMiddleware(
            ca, identity_broker=identity_broker, policy_resolver=self._policy_for
        )
        self.app.add_middleware(self._security)

    # -------------------------------------------------------------- tenancy

    def enable_tenancy(self, registry=None, max_backlog_total: int = 256):
        """Meter and fair-share this container's capacity across tenants.

        Wires the registry's usage deltas through the write-ahead journal
        (and adopts any balances replayed from it), replaces the FIFO
        hand-off to the handler pool with a :class:`FairShareQueue`, and
        adds a :class:`TenantGate` that attributes every request to its
        billing tenant. The gate does not *enforce* here — quota and
        backlog checks live in ``DeployedService.submit`` where they can
        reject before a job exists; rate limits belong to the gateway.

        Call after :meth:`enable_security` (middleware runs in add order,
        and the gate attributes by the identity security resolved).
        Returns the registry so callers can declare tenants on it.
        """
        from repro.tenancy import FairShareQueue, TenantGate, TenantRegistry
        from repro.tenancy.gate import instrument_tenancy

        if self.tenancy is not None:
            raise RuntimeError("tenancy is already enabled")
        registry = registry or TenantRegistry()
        registry.join(self.state)
        self.tenancy = registry
        self.job_manager.transition_observers.append(registry.charge_job)
        self.job_manager.admission = FairShareQueue(
            registry, max_backlog_total=max_backlog_total)
        self.tenant_gate = TenantGate(registry, metrics=self.metrics, enforce=False)
        self.app.add_middleware(self.tenant_gate)
        if self.metrics is not None:
            instrument_tenancy(self.metrics, registry,
                               admission=self.job_manager.admission, container=self)
        return registry

    def set_policy(self, service_name: str, policy: AccessPolicy | None) -> None:
        """Set or clear a deployed service's access policy at runtime
        (the administrator's allow/deny/proxy lists, paper §3.4)."""
        with self._lock:
            if service_name not in self._services:
                raise ConfigurationError(f"no service {service_name!r} deployed")
            if policy is None:
                self._policies.pop(service_name, None)
            else:
                self._policies[service_name] = policy

    def _policy_for(self, path: str) -> AccessPolicy | None:
        if not path.startswith("/services/"):
            return None
        service_name = path[len("/services/") :].split("/", 1)[0]
        return self._policies.get(service_name)

    # ------------------------------------------------------------ resources

    def register_resource(self, name: str, resource: Any) -> None:
        """Attach a named backend (a Cluster, a GridBroker, a callable) that
        service configurations may reference."""
        with self._lock:
            if name in self._resources:
                raise ConfigurationError(f"resource {name!r} already registered")
            self._resources[name] = resource

    def resource(self, name: str) -> Any:
        with self._lock:
            if name not in self._resources:
                raise KeyError(name)
            return self._resources[name]

    # ----------------------------------------------------------- deployment

    def deploy(self, config: ServiceConfig | dict[str, Any]) -> DeployedService:
        """Deploy a service from its configuration and publish it."""
        if isinstance(config, dict):
            config = ServiceConfig.from_dict(config)
        with self._lock:
            if config.name in self._services:
                raise ConfigurationError(f"service {config.name!r} is already deployed")
        adapter = create_adapter(config.adapter)
        adapter.configure(config.config, self)
        service = DeployedService(
            config=config,
            adapter=adapter,
            job_manager=self.job_manager,
            registry=self.registry,
            base_uri_fn=lambda name=config.name: self.service_uri(name),
            resources=self,
            cache=self.cache,
            blobs=self.blobs,
            blob_base_fn=lambda: self.base_uri,
        )
        ledger = self._recover_service(service, adapter)
        base_path = f"/services/{config.name}"
        mount_service(
            self.app,
            base_path,
            service,
            base_uri=lambda name=config.name: self.service_uri(name),
            ledger=ledger,
            tracer=self.tracer,
        )
        self.app.route("GET", f"{base_path}/ui", self._make_ui_handler(service))
        with self._lock:
            self._services[config.name] = service
            if config.policy is not None:
                self._policies[config.name] = config.policy
        return service

    def deploy_directory(self, path: "str | Path") -> list[DeployedService]:
        """Deploy every ``*.json`` service configuration in a directory.

        The paper's container reads its deployment set "at startup from
        configuration files"; this is that startup step, usable any time.
        Files are processed in name order; the first bad file aborts the
        call (already-deployed services from the same call stay deployed,
        and the error names the offending file).
        """
        directory = Path(path)
        if not directory.is_dir():
            raise ConfigurationError(f"{directory} is not a directory")
        deployed: list[DeployedService] = []
        for config_path in sorted(directory.glob("*.json")):
            try:
                deployed.append(self.deploy(ServiceConfig.from_file(config_path)))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{config_path.name}: {exc}") from exc
        return deployed

    def undeploy(self, name: str) -> None:
        with self._lock:
            service = self._services.pop(name, None)
            self._policies.pop(name, None)
        if service is None:
            raise ConfigurationError(f"no service {name!r} deployed")
        unmount_service(self.app, f"/services/{name}")

    def service(self, name: str) -> DeployedService:
        with self._lock:
            if name not in self._services:
                raise KeyError(name)
            return self._services[name]

    @property
    def services(self) -> list[DeployedService]:
        with self._lock:
            return list(self._services.values())

    def _recover_service(self, service: DeployedService, adapter: Any) -> SubmitLedger:
        """Rebuild a deploying service's job table from the journal replay.

        Completed jobs come back with their results and stay addressable
        (including ``?wait=`` long-polls, which return immediately on a
        terminal job); in-flight jobs are re-enqueued when the adapter is
        idempotent, otherwise failed as interrupted. Recovered
        ``Idempotency-Key`` bindings are seeded into the returned submit
        ledger so post-restart replays bind to their original jobs.
        """
        ledger = SubmitLedger()
        recovered = self.job_manager.take_recovered(service.name)
        requeue: list[Job] = []
        done: set[str] = set()  # recovered DONE: the only jobs a cache entry may point at
        for document in recovered.values():
            job = restore_job(service.name, document)
            if job.state is JobState.DONE and service.cacheable:
                done.add(job.id)
            if not job.state.terminal:
                if getattr(adapter, "idempotent", False):
                    requeue.append(job)
                else:
                    job.try_interrupt(INTERRUPTED_ERROR)
                    self.job_manager.adopt(job)
            service.jobs.add(job)
            if job.idempotency_key:
                ledger.store(job.idempotency_key, job.id)
        # enqueue after the store is fully seeded, so a re-run completing
        # instantly cannot race a not-yet-registered sibling's key lookup
        for job in requeue:
            self._register_recovered_inflight(service, job)
            service.requeue(job)
        if self.cache is not None:
            self.cache.rehydrate(service.name, done.__contains__)
        return ledger

    def _register_recovered_inflight(self, service: DeployedService, job: Job) -> None:
        """Put a re-enqueued job back into the single-flight index.

        Without this a submit arriving right after a cold restart would
        miss and start a second execution of a fingerprint the recovered
        job is already re-running — violating the cache's no-concurrent-
        duplicate guarantee across the crash boundary.
        """
        if self.cache is None or not service.cacheable:
            return
        fingerprint = service._fingerprint(job.inputs)
        if fingerprint is not None:
            self.cache.register(fingerprint, service.name, job)

    # ------------------------------------------------------------- handlers

    def _index(self, request: Request) -> Response:
        entries = [
            {
                "name": service.name,
                "title": service.description.title,
                "uri": self.service_uri(service.name),
            }
            for service in self.services
        ]
        return Response.json({"container": self.name, "services": entries})

    def _index_ui(self, request: Request) -> Response:
        descriptions = [service.description for service in self.services]
        return Response.html(render_index_page(self.name, descriptions))

    def _make_ui_handler(self, service: DeployedService) -> Callable[[Request], Response]:
        def handler(request: Request) -> Response:
            page = render_service_page(service.description, self.service_uri(service.name))
            return Response.html(page)

        return handler
