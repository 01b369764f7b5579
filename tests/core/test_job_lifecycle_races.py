"""Lifecycle race tests: concurrent transitions, waiters and cancellation.

The job state machine is hammered from multiple threads the way the REST
layer drives it: handler threads marking progress, a DELETE cancelling
concurrently, long-poll waiters blocked on :meth:`Job.wait`.
"""

import threading

import pytest

from repro.container.jobmanager import JobManager
from repro.core.errors import JobStateError
from repro.core.jobs import Job, JobState


def make_job():
    return Job(service="svc", inputs={})


class TestConcurrentWaiters:
    def test_single_transition_releases_all_waiters(self):
        job = make_job()
        released = []
        barrier = threading.Barrier(9)

        def waiter():
            barrier.wait(timeout=5)
            released.append(job.wait(timeout=10))

        threads = [threading.Thread(target=waiter) for _ in range(8)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=5)  # all waiter threads are about to block
        job.mark_running()
        job.mark_done({"answer": 1})
        for thread in threads:
            thread.join(timeout=10)
        assert released == [True] * 8

    def test_wait_returns_immediately_when_already_terminal(self):
        job = make_job()
        job.mark_running()
        job.mark_failed("broken")
        assert job.wait(timeout=0) is True

    def test_wait_times_out_on_nonterminal_job(self):
        job = make_job()
        assert job.wait(timeout=0.05) is False
        assert job.state is JobState.WAITING

    def test_nonterminal_transition_does_not_release_wait(self):
        job = make_job()
        job.mark_running()
        assert job.wait(timeout=0.05) is False


class TestCancelRaces:
    def test_cancel_racing_mark_running(self):
        """Whichever side loses must fail loudly, never corrupt the state."""
        for _ in range(50):
            job = make_job()
            barrier = threading.Barrier(2)
            errors = []

            def runner():
                barrier.wait(timeout=5)
                try:
                    job.mark_running()
                except JobStateError:
                    errors.append("running-lost")

            def canceller():
                barrier.wait(timeout=5)
                try:
                    job.mark_cancelled()
                except JobStateError:
                    errors.append("cancel-lost")

            threads = [threading.Thread(target=runner), threading.Thread(target=canceller)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            if "cancel-lost" in errors:
                # cancel hit the WAITING→RUNNING window's far side only if
                # RUNNING is not cancellable — but it is, so cancel never loses
                pytest.fail("cancel must succeed from WAITING and RUNNING")
            assert job.state is JobState.CANCELLED
            assert job.cancel_event.is_set()

    def test_cancel_racing_mark_done_exactly_one_wins(self):
        for _ in range(50):
            job = make_job()
            job.mark_running()
            barrier = threading.Barrier(2)
            outcomes = []

            def finisher():
                barrier.wait(timeout=5)
                outcomes.append(("done", job.try_finish(lambda: (JobState.DONE, {"ok": 1}))))

            def canceller():
                barrier.wait(timeout=5)
                try:
                    job.mark_cancelled()
                    outcomes.append(("cancelled", True))
                except JobStateError:
                    outcomes.append(("cancelled", False))

            threads = [threading.Thread(target=finisher), threading.Thread(target=canceller)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            winners = [kind for kind, won in outcomes if won]
            assert len(winners) == 1
            assert job.state in (JobState.DONE, JobState.CANCELLED)
            if job.state is JobState.DONE:
                assert job.results == {"ok": 1}

    def test_cancel_while_queued_is_skipped_by_the_handler(self):
        manager = JobManager(handlers=1, name="race-test")
        gate = threading.Event()
        blocker = make_job()
        queued = make_job()
        try:
            manager.enqueue(blocker, lambda: gate.wait(5) and {})
            manager.enqueue(queued, lambda: {"unexpected": True})
            queued.mark_cancelled()  # the DELETE arrives before a handler frees up
            gate.set()
            assert blocker.wait(timeout=10)
            deadline_stats = None
            for _ in range(1000):
                deadline_stats = manager.stats
                if deadline_stats.queued == 0 and deadline_stats.running == 0:
                    break
                threading.Event().wait(0.005)
            assert queued.state is JobState.CANCELLED
            assert queued.results is None  # the thunk never ran to completion
        finally:
            gate.set()
            manager.shutdown()


class TestTransitionObservers:
    def test_observer_sees_each_transition_in_order(self):
        job = make_job()
        seen = []
        job.subscribe(lambda observed, state: seen.append(state))
        job.mark_running()
        job.mark_done({})
        assert seen == [JobState.RUNNING, JobState.DONE]

    def test_late_subscriber_fires_immediately_with_final_state(self):
        job = make_job()
        job.mark_running()
        job.mark_done({})
        seen = []
        job.subscribe(lambda observed, state: seen.append(state))
        assert seen == [JobState.DONE]

    def test_observer_may_read_the_job(self):
        """Observers run outside the job lock: reading must not deadlock."""
        job = make_job()
        snapshots = []
        job.subscribe(lambda observed, state: snapshots.append(observed.representation()))
        job.mark_running()
        job.mark_failed("nope")
        assert [snapshot["state"] for snapshot in snapshots] == ["RUNNING", "FAILED"]

    def test_unsubscribe_removes_only_that_observer(self):
        job = make_job()
        kept, dropped = [], []
        job.subscribe(lambda observed, state: kept.append(state))
        unsubscribe = job.subscribe(lambda observed, state: dropped.append(state))
        job.mark_running()
        unsubscribe()
        unsubscribe()  # idempotent
        job.mark_done({})
        assert kept == [JobState.RUNNING, JobState.DONE]
        assert dropped == [JobState.RUNNING]

    def test_terminal_transition_drops_every_observer(self):
        """Terminal is final: observers (and whatever they hold — a parked
        request, its connection) must not live as long as the job."""
        job = make_job()
        seen = []
        unsubscribe = job.subscribe(lambda observed, state: seen.append(state))
        job.mark_cancelled()
        assert seen == [JobState.CANCELLED]
        assert job._observers == []
        unsubscribe()  # a no-op once dropped
        # a late subscriber fires once and is not kept either
        job.subscribe(lambda observed, state: seen.append(state))
        assert seen == [JobState.CANCELLED, JobState.CANCELLED]
        assert job._observers == []
