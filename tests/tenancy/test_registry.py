"""TenantRegistry: specs, attribution, metering, journal round-trips."""

import pytest

from repro.grid.vo import VirtualOrganization
from repro.tenancy import TenantRegistry, TenantSpec, apply_usage_event
from repro.tenancy.registry import DEFAULT_TENANT


def test_unknown_tenant_gets_implicit_default_spec():
    registry = TenantRegistry()
    spec = registry.spec("nobody")
    assert spec.weight == 1.0
    assert spec.cpu_quota is None
    assert not registry.over_quota("nobody")


def test_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(name="bad", weight=0.0)
    with pytest.raises(ValueError):
        TenantSpec(name="bad", max_backlog=0)


def test_identity_resolution_precedence():
    registry = TenantRegistry()
    registry.register(TenantSpec(name="acme"))
    registry.assign("alice", "acme")
    assert registry.resolve_identity("alice") == "acme"
    # a tenant registered under the identity's own name
    registry.register(TenantSpec(name="bob"))
    assert registry.resolve_identity("bob") == "bob"
    assert registry.resolve_identity("stranger") == DEFAULT_TENANT


def test_adopt_vo_bills_members_to_the_vo():
    registry = TenantRegistry()
    vo = VirtualOrganization("climate", members=["alice", "bob"])
    spec = registry.adopt_vo(vo, weight=3.0, cpu_quota=100.0)
    assert spec.name == "climate"
    assert registry.resolve_identity("alice") == "climate"
    assert registry.resolve_identity("bob") == "climate"
    assert registry.spec("climate").weight == 3.0


def test_charge_and_quota_checks():
    registry = TenantRegistry()
    registry.register(TenantSpec(name="t", cpu_quota=10.0, disk_quota=100))
    registry.charge("t", cpu=4.0, disk=60)
    assert registry.usage("t") == {"cpu": 4.0, "disk": 60}
    assert not registry.over_cpu("t")
    assert registry.over_disk("t", incoming=50)  # 60 + 50 > 100
    assert not registry.over_disk("t", incoming=40)
    registry.charge("t", cpu=6.0)
    assert registry.over_cpu("t")
    assert registry.over_quota("t")


def test_refunds_clamped_to_balance():
    registry = TenantRegistry()
    registry.charge("t", disk=10)
    registry.charge("t", disk=-50)  # over-refund: clamped, never negative
    assert registry.usage("t") == {"cpu": 0.0, "disk": 0}
    registry.charge("t", cpu=-1.0)
    assert registry.usage("t")["cpu"] == 0.0


def test_journal_fn_sees_every_applied_delta():
    records = []
    registry = TenantRegistry()
    registry.journal_fn = records.append
    registry.charge("t", cpu=2.0, disk=5)
    registry.charge("t", disk=-5)
    registry.charge("t")  # zero delta: not journaled
    assert records == [
        {"tenant": "t", "cpu": 2.0, "disk": 5, "type": "usage", "n": 1},
        {"tenant": "t", "cpu": 0, "disk": -5, "type": "usage", "n": 2},
    ]
    # replaying the journaled deltas reproduces the balance exactly
    table = {}
    for record in records:
        apply_usage_event(table, record)
    replayed = TenantRegistry()
    replayed.recover(table)
    assert replayed.usage("t") == registry.usage("t")


def test_export_round_trips_through_recover():
    registry = TenantRegistry()
    registry.charge("a", cpu=1.5, disk=10)
    registry.charge("b", cpu=0.5)
    table = {}
    for record in registry.export():
        apply_usage_event(table, record)
    fresh = TenantRegistry()
    fresh.recover(table)
    assert fresh.usage("a") == registry.usage("a")
    assert fresh.usage("b") == registry.usage("b")


def test_standings_report():
    registry = TenantRegistry()
    registry.register(TenantSpec(name="t", weight=2.0, priority=1, cpu_quota=1.0))
    registry.charge("t", cpu=2.0)
    (row,) = [r for r in registry.standings() if r["tenant"] == "t"]
    assert row["weight"] == 2.0
    assert row["priority"] == 1
    assert row["over_quota"] is True
    assert row["cpu_used"] == 2.0
