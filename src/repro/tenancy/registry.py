"""Tenant accounts: weights, quotas, and crash-safe usage metering.

A *tenant* is the accounting principal of the platform — usually one
authenticated identity or one VO.  The registry answers three questions
on the hot path: who does this request bill to, is that account inside
its quotas, and how much has it consumed.  Usage is metered in two
currencies:

- **CPU-seconds** — wall time of finished jobs (charged once, on the
  terminal transition) and batch reservations (``walltime × nodes ×
  ppn``);
- **disk-bytes** — blob bytes pinned on behalf of the tenant's jobs,
  refunded when the pins are released.

Every delta is journaled as ``{"tenant": t, "cpu": dc, "disk": dd,
"type": "usage", "n": k}`` through the owning process's durability
journal before it is applied in memory (:meth:`TenantRegistry.join`
registers the vocabulary with the container's state spine).  Replay is a
pure sum — deltas commute and associate, so segment order cannot change
the recovered balance — and the *charge* side clamps refunds to the
balance actually held, so the running sums themselves never go negative,
not merely the reported values.  Sums are not idempotent, so each record
carries its number ``n`` and :meth:`TenantRegistry.export` stamps the
last number it covers on every row: replay on top of a snapshot skips
the records the snapshot already reflects (compaction exports *after*
cutting the journal, so such records exist).  Records without a number,
written before numbering existed, always apply.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Request header naming the billing tenant when no authenticated
#: identity is present (demos, examples, trusted perimeters).
TENANT_HEADER = "X-Tenant"

#: Account that absorbs unattributed traffic.  It exists so metering is
#: total — every job bills *someone* — while staying unlimited unless a
#: deployment registers an explicit spec for it.
DEFAULT_TENANT = "public"


@dataclass(frozen=True)
class TenantSpec:
    """Declared shape of one tenant account.

    ``weight`` steers the fair-share queue (2.0 drains twice as fast as
    1.0); ``priority`` is a strict class — higher classes dequeue first
    regardless of weight.  ``None`` quotas/limits mean unlimited.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    cpu_quota: float | None = None
    disk_quota: int | None = None
    rate: float | None = None
    burst: float = 8.0
    max_concurrent: int | None = None
    max_backlog: int = 64

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.max_backlog < 1:
            raise ValueError(f"tenant {self.name!r}: max_backlog must be >= 1")


def apply_usage_event(table: dict, record: Mapping) -> None:
    """Fold one ``{"type": "usage"}`` journal record into ``table``.

    The table maps tenant name to raw signed sums.  Addition commutes,
    so any replay order yields the same balances — the property the
    hypothesis suite pins down.
    """
    tenant = record.get("tenant")
    if not tenant:
        return
    entry = table.setdefault(str(tenant), {"cpu": 0.0, "disk": 0})
    entry["cpu"] += float(record.get("cpu", 0.0) or 0.0)
    entry["disk"] += int(record.get("disk", 0) or 0)


class TenantRegistry:
    """Tenant specs plus journaled usage balances.

    ``journal_fn`` receives each usage record *before* it is applied, in
    the same dict shape ``apply_usage_event`` consumes; :meth:`join` points
    it at the container's state spine so balances ride the write-ahead
    journal.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._specs: dict[str, TenantSpec] = {}
        self._assignments: dict[str, str] = {}
        self._usage: dict[str, dict] = {}
        #: Journal sink for ``{"type": "usage"}`` records (``None`` while
        #: volatile); called under the registry lock, so record numbers
        #: reach the journal in order.
        self.journal_fn: "Callable[[dict], None] | None" = None
        self._recorded = 0  # number of the last usage record journaled

    # -- declaration -------------------------------------------------

    def register(self, spec: TenantSpec) -> TenantSpec:
        with self._lock:
            self._specs[spec.name] = spec
        return spec

    def assign(self, identity: str, tenant: str) -> None:
        """Bill requests authenticated as ``identity`` to ``tenant``."""
        with self._lock:
            self._assignments[identity] = tenant

    def adopt_vo(self, vo, **spec_kwargs) -> TenantSpec:
        """Register a VO as one tenant and bill all its members to it."""
        spec = TenantSpec(name=vo.name, **spec_kwargs)
        with self._lock:
            self._specs[spec.name] = spec
            for member in vo.members:
                self._assignments[member] = spec.name
        return spec

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(set(self._specs) | set(self._usage))

    def spec(self, tenant: str) -> TenantSpec:
        """Spec for ``tenant``; unknown tenants get an implicit default
        (weight 1, class 0, unlimited) so accounting stays total."""
        with self._lock:
            spec = self._specs.get(tenant)
        return spec if spec is not None else TenantSpec(name=tenant)

    def resolve_identity(self, identity: str) -> str:
        """Tenant billed for ``identity`` — an explicit assignment, a
        tenant registered under the identity's own name, or default."""
        with self._lock:
            tenant = self._assignments.get(identity)
            if tenant is None:
                tenant = identity if identity in self._specs else None
        return tenant if tenant is not None else DEFAULT_TENANT

    # -- metering ----------------------------------------------------

    def charge(self, tenant: str, cpu: float = 0.0, disk: int = 0) -> None:
        """Apply (and journal) a signed usage delta.

        Refunds are clamped to the balance held so the raw sums stay
        non-negative even if a release races a crash-recovery replay
        that never saw the matching charge.
        """
        with self._lock:
            entry = self._usage.setdefault(tenant, {"cpu": 0.0, "disk": 0})
            if cpu < 0:
                cpu = -min(-cpu, entry["cpu"])
            if disk < 0:
                disk = -min(-disk, entry["disk"])
            if not cpu and not disk:
                return
            if self.journal_fn is not None:
                self._recorded += 1
                self.journal_fn({"tenant": tenant, "cpu": cpu, "disk": disk,
                                 "type": "usage", "n": self._recorded})
            entry["cpu"] += cpu
            entry["disk"] += disk

    def usage(self, tenant: str) -> dict:
        with self._lock:
            entry = self._usage.get(tenant, {"cpu": 0.0, "disk": 0})
            return {"cpu": max(0.0, entry["cpu"]),
                    "disk": max(0, entry["disk"])}

    def over_cpu(self, tenant: str) -> bool:
        spec = self.spec(tenant)
        if spec.cpu_quota is None:
            return False
        return self.usage(tenant)["cpu"] >= spec.cpu_quota

    def over_disk(self, tenant: str, incoming: int = 0) -> bool:
        spec = self.spec(tenant)
        if spec.disk_quota is None:
            return False
        return self.usage(tenant)["disk"] + incoming > spec.disk_quota

    def over_quota(self, tenant: str) -> bool:
        return self.over_cpu(tenant) or self.over_disk(tenant)

    def charge_job(self, job: Any, state: Any) -> None:
        """Job-transition observer: bill the adapter run's wall time to
        the job's tenant, exactly once — on the terminal transition
        (recovery restores terminal jobs directly, without re-firing it)."""
        tenant = job.extra.get("tenant")
        if state.terminal and tenant and job.started and job.finished:
            self.charge(tenant, cpu=max(0.0, job.finished - job.started))

    # -- durability --------------------------------------------------

    def join(self, spine: Any) -> None:
        """Register the usage vocabulary (records and snapshot section
        ``usage``) with the container's state spine and adopt whatever
        balances it recovered."""
        self.journal_fn = spine.register(
            ("usage",), ("usage",), self._restore, lambda: {"usage": self.export()})

    def _restore(self, sections: Mapping[str, Any], records: list[dict]) -> None:
        rows = sections.get("usage") or []
        covered = max((row.get("n", 0) for row in rows), default=0)
        # unnumbered records predate numbering: always apply
        fresh = [record for record in records if record.get("n", covered + 1) > covered]
        with self._lock:
            for record in [*rows, *fresh]:
                apply_usage_event(self._usage, record)
            self._recorded = max(self._recorded, covered, *(r.get("n", 0) for r in fresh))

    def recover(self, table: Mapping[str, Mapping] | None) -> None:
        """Adopt balances folded out of the journal by
        ``apply_usage_event`` (snapshot plus replayed records)."""
        if not table:
            return
        with self._lock:
            for tenant, entry in table.items():
                mine = self._usage.setdefault(tenant, {"cpu": 0.0, "disk": 0})
                mine["cpu"] += float(entry.get("cpu", 0.0))
                mine["disk"] += int(entry.get("disk", 0))

    def export(self) -> list[dict]:
        """Balances in journal-record shape, for snapshot compaction; each
        row carries the number of the last usage record it reflects."""
        with self._lock:
            return [
                {"tenant": tenant, "cpu": entry["cpu"], "disk": entry["disk"],
                 "n": self._recorded}
                for tenant, entry in sorted(self._usage.items())
            ]

    # -- reporting ---------------------------------------------------

    def standings(self) -> list[dict]:
        """One row per known tenant: spec, usage, and quota headroom."""
        rows = []
        for tenant in self.tenants():
            spec = self.spec(tenant)
            used = self.usage(tenant)
            rows.append({
                "tenant": tenant,
                "weight": spec.weight,
                "priority": spec.priority,
                "cpu_used": round(used["cpu"], 6),
                "cpu_quota": spec.cpu_quota,
                "disk_used": used["disk"],
                "disk_quota": spec.disk_quota,
                "over_quota": self.over_quota(tenant),
            })
        return rows
