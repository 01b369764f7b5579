"""Unit tests for the ResultCache: LRU/TTL tiers and single-flight."""

import threading

import pytest

from repro.cache import CacheClosedError, ResultCache
from repro.core.jobs import Job, JobState


def make_job(service="svc", **inputs):
    return Job(service=service, inputs=inputs)


def finish(job, results=None):
    job.mark_running()
    job.mark_done(results or {"out": 1})


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDoneTier:
    def test_miss_register_done_then_hit(self):
        cache = ResultCache()
        assert cache.claim("fp1") == ("miss", None)
        job = make_job()
        cache.register("fp1", "svc", job)
        finish(job)
        kind, job_id = cache.claim("fp1")
        assert (kind, job_id) == ("hit", job.id)
        assert cache.stats.hits == 1
        assert "fp1" in cache

    def test_inflight_claim_coalesces(self):
        cache = ResultCache()
        cache.claim("fp1")
        job = make_job()
        cache.register("fp1", "svc", job)
        kind, job_id = cache.claim("fp1")
        assert (kind, job_id) == ("coalesced", job.id)
        assert cache.stats.coalesced == 1

    def test_failed_job_never_cached(self):
        cache = ResultCache()
        cache.claim("fp1")
        job = make_job()
        cache.register("fp1", "svc", job)
        job.mark_running()
        job.mark_failed("boom")
        assert cache.claim("fp1") == ("miss", None)
        assert len(cache) == 0

    def test_cancelled_job_never_cached(self):
        cache = ResultCache()
        cache.claim("fp1")
        job = make_job()
        cache.register("fp1", "svc", job)
        job.mark_cancelled()
        assert cache.claim("fp1") == ("miss", None)

    def test_ttl_boundary_expires_exactly_at_ttl(self):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        cache.claim("fp1")
        job = make_job()
        cache.register("fp1", "svc", job)
        finish(job)
        clock.advance(9.999)
        assert cache.claim("fp1")[0] == "hit"
        clock.advance(0.001)  # age == ttl: expired (>= boundary)
        assert cache.claim("fp1") == ("miss", None)
        assert cache.stats.expirations == 1
        cache.release("fp1")

    def test_ttl_none_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(ttl=None, clock=clock)
        cache.claim("fp1")
        job = make_job()
        cache.register("fp1", "svc", job)
        finish(job)
        clock.advance(10**9)
        assert cache.claim("fp1")[0] == "hit"

    def test_lru_eviction_at_capacity_boundary(self):
        cache = ResultCache(capacity=2)
        jobs = {}
        for fp in ("a", "b", "c"):
            cache.claim(fp)
            jobs[fp] = make_job()
            cache.register(fp, "svc", jobs[fp])
            finish(jobs[fp])
        # capacity 2: the oldest ("a") was evicted, "b" and "c" remain
        assert len(cache) == 2
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_hit_refreshes_lru_position(self):
        cache = ResultCache(capacity=2)
        jobs = {}
        for fp in ("a", "b"):
            cache.claim(fp)
            jobs[fp] = make_job()
            cache.register(fp, "svc", jobs[fp])
            finish(jobs[fp])
        assert cache.claim("a")[0] == "hit"  # touch "a": now "b" is oldest
        cache.claim("c")
        job = make_job()
        cache.register("c", "svc", job)
        finish(job)
        assert "a" in cache
        assert "b" not in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl=0)


class TestSingleFlight:
    def test_waiter_attaches_after_register(self):
        cache = ResultCache()
        assert cache.claim("fp")[0] == "miss"
        job = make_job()
        results = []

        def waiter():
            results.append(cache.claim("fp"))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.register("fp", "svc", job)
        thread.join(timeout=5)
        assert results == [("coalesced", job.id)]

    def test_waiter_inherits_miss_on_release(self):
        cache = ResultCache()
        assert cache.claim("fp")[0] == "miss"
        results = []

        def waiter():
            results.append(cache.claim("fp"))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.release("fp")
        thread.join(timeout=5)
        assert results == [("miss", None)]

    def test_pending_timeout_degrades_to_miss(self):
        cache = ResultCache(pending_timeout=0.05)
        assert cache.claim("fp")[0] == "miss"
        # the owner never resolves; a second claimant times out to a miss
        assert cache.claim("fp") == ("miss", None)

    def test_close_fails_pending_waiters(self):
        cache = ResultCache()
        assert cache.claim("fp")[0] == "miss"
        outcome = []

        def waiter():
            try:
                outcome.append(cache.claim("fp"))
            except CacheClosedError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.close()
        thread.join(timeout=5)
        assert len(outcome) == 1
        assert isinstance(outcome[0], CacheClosedError)
        with pytest.raises(CacheClosedError):
            cache.claim("other")

    def test_concurrent_claims_one_owner(self):
        cache = ResultCache()
        job = make_job()
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def contender():
            barrier.wait()
            kind, job_id = cache.claim("fp")
            if kind == "miss":
                cache.register("fp", "svc", job)
            with lock:
                outcomes.append(kind)

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes.count("miss") == 1
        assert outcomes.count("coalesced") == 7


class TestInvalidation:
    def test_invalidate_done_entry(self):
        cache = ResultCache()
        cache.claim("fp")
        job = make_job()
        cache.register("fp", "svc", job)
        finish(job)
        assert cache.invalidate_job(job.id) is True
        assert cache.claim("fp") == ("miss", None)
        assert cache.stats.invalidations == 1

    def test_invalidate_inflight_entry(self):
        cache = ResultCache()
        cache.claim("fp")
        job = make_job()
        cache.register("fp", "svc", job)
        assert cache.invalidate_job(job.id) is True
        assert cache.claim("fp") == ("miss", None)
        # the job finishing later must not resurrect the dropped entry
        finish(job)
        assert len(cache) == 0

    def test_invalidate_unknown_job(self):
        assert ResultCache().invalidate_job("nope") is False


class TestRehydration:
    def test_seed_and_export_roundtrip(self):
        clock = FakeClock()
        cache = ResultCache(ttl=100.0, clock=clock)
        assert cache.seed("fp", "svc", "job-1", clock.now) is True
        assert cache.claim("fp") == ("hit", "job-1")
        records = cache.export()
        assert records == [{"service": "svc", "fp": "fp", "id": "job-1", "stored": clock.now}]

    def test_seed_respects_ttl_across_outage(self):
        clock = FakeClock()
        cache = ResultCache(ttl=10.0, clock=clock)
        assert cache.seed("fp", "svc", "job-1", clock.now - 11.0) is False
        assert "fp" not in cache

    def test_seed_never_overwrites(self):
        cache = ResultCache()
        cache.claim("fp")
        job = make_job()
        cache.register("fp", "svc", job)
        assert cache.seed("fp", "svc", "other", 0) is False

    def test_journal_fn_called_on_promotion(self):
        records = []
        cache = ResultCache()
        cache.journal_fn = records.append
        cache.claim("fp")
        job = make_job()
        cache.register("fp", "svc", job)
        finish(job)
        assert len(records) == 1
        record = records[0]
        assert record["type"] == "cache"
        assert (record["service"], record["fp"], record["id"]) == ("svc", "fp", job.id)
