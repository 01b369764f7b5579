"""Property tests for the tenancy plane.

Three families of invariants:

- **fair-share convergence** — over a long saturated run, each tenant's
  dispatch share converges to its weight's share of the total, and in
  any window no backlogged in-quota tenant is starved for longer than
  the stride bound allows;
- **quota arithmetic** — usage accounting is a sum of signed deltas, so
  replaying the journal in *any* order (crash-recovery never promises
  arrival order) must land on the same balances, and balances never go
  negative no matter how refunds interleave;
- **token bucket** — admitted request rate never exceeds rate × elapsed
  + burst for any arrival pattern.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jobs import Job
from repro.tenancy import (
    AdmissionEntry,
    FairShareQueue,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    apply_usage_event,
)

weights = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)


def _offer(queue, tenant):
    queue.offer(AdmissionEntry(tenant=tenant, job=Job(service="w", inputs={}),
                               execute=lambda: {}, enqueued=time.time()))


class TestFairShareConvergence:
    @given(data=st.data(), n_tenants=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_shares_converge_to_weight_ratios(self, data, n_tenants):
        """Saturated backlogs: dispatch counts match weight ratios within
        one stride round of slack per tenant."""
        registry = TenantRegistry()
        names = [f"t{i}" for i in range(n_tenants)]
        tenant_weights = {}
        for name in names:
            weight = data.draw(weights, label=f"weight[{name}]")
            tenant_weights[name] = weight
            registry.register(TenantSpec(name=name, weight=weight, max_backlog=10_000))
        rounds = 120
        queue = FairShareQueue(registry, max_backlog_total=100_000)
        for name in names:
            for _ in range(rounds * n_tenants):
                _offer(queue, name)
        dispatched = {name: 0 for name in names}
        draws = rounds * n_tenants
        for _ in range(draws):
            entry = queue.take()
            dispatched[entry.tenant] += 1
        total_weight = sum(tenant_weights.values())
        for name in names:
            expected = draws * tenant_weights[name] / total_weight
            # stride error is bounded by one dispatch per tenant per
            # competitor; n_tenants of slack is generous and stable
            assert abs(dispatched[name] - expected) <= n_tenants + 1, (
                dispatched, tenant_weights)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_no_backlogged_tenant_starves(self, seed):
        """Under random churn, a backlogged in-quota tenant always gets a
        dispatch within ``total_weight / own_weight`` rounds (+1 slack)."""
        rng = random.Random(seed)
        registry = TenantRegistry()
        specs = {}
        for i in range(3):
            weight = rng.choice([0.5, 1.0, 2.0, 4.0])
            specs[f"t{i}"] = weight
            registry.register(TenantSpec(name=f"t{i}", weight=weight,
                                         max_backlog=10_000))
        queue = FairShareQueue(registry, max_backlog_total=100_000)
        waited = {name: 0 for name in specs}
        total_weight = sum(specs.values())
        for _ in range(400):
            if rng.random() < 0.6:
                _offer(queue, rng.choice(list(specs)))
            entry = queue.take()
            if entry is None:
                continue
            backlogs = queue.backlogs()
            for name in specs:
                if name == entry.tenant:
                    waited[name] = 0
                elif backlogs.get(name, 0) > 0:
                    waited[name] += 1
                    bound = total_weight / specs[name] + 1
                    assert waited[name] <= bound, (name, waited, specs)
                else:
                    waited[name] = 0


deltas = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=-1000, max_value=1000),
    ),
    min_size=1, max_size=40,
)


class TestQuotaArithmetic:
    @given(events=deltas, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_replay_is_order_independent(self, events, seed):
        """Journal replay is a pure sum: any permutation of the usage
        records lands on identical balances."""
        records = [
            {"tenant": tenant, "cpu": cpu, "disk": disk}
            for tenant, cpu, disk in events
        ]
        forward: dict = {}
        for record in records:
            apply_usage_event(forward, record)
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        replayed: dict = {}
        for record in shuffled:
            apply_usage_event(replayed, record)
        for tenant in forward:
            assert abs(forward[tenant]["cpu"] - replayed[tenant]["cpu"]) < 1e-6
            assert forward[tenant]["disk"] == replayed[tenant]["disk"]

    @given(events=deltas)
    @settings(max_examples=80, deadline=None)
    def test_balances_never_negative(self, events):
        """Live charging clamps refunds, so no interleaving of charges
        and over-refunds drives a balance below zero."""
        registry = TenantRegistry()
        for tenant, cpu, disk in events:
            registry.charge(tenant, cpu=cpu, disk=disk)
            usage = registry.usage(tenant)
            assert usage["cpu"] >= 0.0
            assert usage["disk"] >= 0

    @given(events=deltas)
    @settings(max_examples=60, deadline=None)
    def test_journaled_deltas_reproduce_live_balance(self, events):
        """What the journal captured replays to exactly what the live
        registry holds — the crash-recovery contract."""
        journal: list = []
        registry = TenantRegistry()
        registry.journal_fn = journal.append
        for tenant, cpu, disk in events:
            registry.charge(tenant, cpu=cpu, disk=disk)
        table: dict = {}
        for record in journal:
            apply_usage_event(table, record)
        recovered = TenantRegistry()
        recovered.recover(table)
        for tenant in {t for t, _, _ in events}:
            live = registry.usage(tenant)
            back = recovered.usage(tenant)
            assert abs(live["cpu"] - back["cpu"]) < 1e-6
            assert live["disk"] == back["disk"]


class TestTokenBucket:
    @given(
        rate=st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
        burst=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
        gaps=st.lists(st.floats(min_value=0.0, max_value=2.0,
                                allow_nan=False), min_size=1, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_admitted_rate_bounded(self, rate, burst, gaps):
        now = [0.0]
        bucket = TokenBucket(rate=rate, burst=burst, clock=lambda: now[0])
        admitted = 0
        for gap in gaps:
            now[0] += gap
            ok, wait = bucket.try_take()
            if ok:
                admitted += 1
            else:
                assert wait > 0
        # ceiling: the initial burst plus refill over elapsed time
        assert admitted <= burst + rate * now[0] + 1e-6
