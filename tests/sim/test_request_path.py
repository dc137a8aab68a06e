"""Regression tests for the request-path fixes (PR 3).

Three bugs, each with a deterministic trace-replay scenario that failed
before the fix:

* **dangling joiner** — a failed prefetch popped ``pending[item]`` without
  triggering the event, so a demand request already joined to it suspended
  forever (and vanished from the metrics),
* **pending-event overwrite** — re-planning an item that already had a
  fetch pending replaced the completion event, orphaning the first event's
  joiners,
* **warmup-boundary leakage** — requests/fetches *issued* before
  ``warmup_time`` but completing after it were recorded with their
  pre-warmup ``t0`` (inflated access/retrieval times).
"""

import tempfile
from pathlib import Path

import pytest

from repro.des.events import Event
from repro.prefetch import PrefetchController
from repro.sim import SimulationConfig
from repro.sim.simulation import Simulation
from repro.workload import TraceRecord, WorkloadSpec, save_trace


def write_trace(tmp_path, records, name="trace.jsonl"):
    path = tmp_path / name
    save_trace(records, path)
    return path


def make_sim(trace_path, **overrides):
    defaults = dict(
        workload=WorkloadSpec(num_clients=1, request_rate=10.0,
                              catalog_size=50),
        bandwidth=1.0,
        cache_capacity=10,
        predictor="markov",
        policy="none",
        duration=30.0,
        warmup=0.0,
        seed=1,
        trace_path=str(trace_path),
    )
    defaults.update(overrides)
    return Simulation(SimulationConfig(**defaults))


class FailingPrefetchOrigin:
    """Origin wrapper whose *prefetch* fetches fail after ``delay``.

    The delay matters: it opens the window in which a demand request can
    join the doomed pending fetch.
    """

    def __init__(self, origin, env, *, delay=0.5):
        self._origin = origin
        self._env = env
        self.delay = delay

    def size_of(self, item):
        return self._origin.size_of(item)

    def fetch(self, item, *, kind, client):
        if str(kind) == "prefetch" or kind == "prefetch":
            ev = Event(self._env)
            ev.fail(RuntimeError(f"prefetch of {item!r} aborted"),
                    delay=self.delay)
            return ev
        return self._origin.fetch(item, kind=kind, client=client)


class RaisingPrefetchOrigin(FailingPrefetchOrigin):
    """Origin wrapper whose *prefetch* fetches raise when issued."""

    def fetch(self, item, *, kind, client):
        if kind == "prefetch":
            raise RuntimeError(f"prefetch of {item!r} cannot be issued")
        return self._origin.fetch(item, kind=kind, client=client)


def scripted_plan(monkeypatch, script):
    """Replace the request path's plan with a deterministic per-call script.

    ``script`` maps the 1-based plan-call index to the candidate list to
    return; unlisted calls return [].  This reproduces controller choices
    (e.g. re-choosing an item whose fetch is still pending) without
    depending on predictor/policy internals.  Every simulation here has
    one controller, so the script is patched onto the class.
    """
    calls = {"n": 0}

    def plan(controller, *, now, load):
        calls["n"] += 1
        return list(script.get(calls["n"], []))

    monkeypatch.setattr(PrefetchController, "_plan", plan)
    return calls


class TestDanglingJoinerDeadlock:
    def test_joiner_of_failed_prefetch_falls_back_to_demand(self, tmp_path, monkeypatch):
        # Request 7 at t=1 triggers a prefetch of 8 that will fail at
        # t~1.5; the request for 8 at t=1.2 joins the pending fetch.
        # Before the fix the joiner was orphaned: never resumed, never
        # recorded -> requests == 2.  After it, the joiner recovers with a
        # demand fetch and all 3 requests complete.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=7, size=0.01),
            TraceRecord(time=1.2, client=0, item=8, size=0.01),
            TraceRecord(time=3.0, client=0, item=9, size=0.01),
        ])
        sim = make_sim(path)
        sim.origin = FailingPrefetchOrigin(sim.origin, sim.env, delay=0.5)
        scripted_plan(monkeypatch, {1: [(8, 1.0)]})
        out = sim.run()
        assert out.metrics.requests == 3
        # the fallback demand fetch really happened (7, 8 and 9 are misses)
        assert out.link_demand_fetches == 3
        # and the joiner's access time spans join + fallback, not zero
        assert out.metrics.mean_access_time > 0.0

    def test_multiple_joiners_share_one_recovery_fetch(self, tmp_path, monkeypatch):
        # Two requests join the doomed prefetch of item 8; on failure the
        # first woken joiner issues the recovery demand fetch and the
        # second joins it — one transfer, not one per joiner.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=7, size=0.01),
            TraceRecord(time=1.1, client=0, item=8, size=0.01),
            TraceRecord(time=1.2, client=0, item=8, size=0.01),
            TraceRecord(time=5.0, client=0, item=9, size=0.01),
        ])
        sim = make_sim(path)
        sim.origin = FailingPrefetchOrigin(sim.origin, sim.env, delay=0.5)
        scripted_plan(monkeypatch, {1: [(8, 1.0)]})
        out = sim.run()
        assert out.metrics.requests == 4
        # demand transfers: item 7, ONE shared recovery of 8, item 9
        assert out.link_demand_fetches == 3

    def test_failed_prefetch_without_joiners_is_silent(self, tmp_path, monkeypatch):
        # No request ever joins the doomed prefetch: the failure must not
        # crash the run (an unwaited failed event would be re-raised by the
        # environment) nor leak a pending entry.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=7, size=0.01),
            TraceRecord(time=5.0, client=0, item=9, size=0.01),
        ])
        sim = make_sim(path)
        sim.origin = FailingPrefetchOrigin(sim.origin, sim.env, delay=0.5)
        scripted_plan(monkeypatch, {1: [(8, 1.0)]})
        out = sim.run()
        assert out.metrics.requests == 2

    def test_prefetch_that_raises_when_issued_is_released(
        self, tmp_path, monkeypatch
    ):
        # The prefetch of 8 planned at t=1 raises inside the fetch call:
        # it fails like an aborted one, at once, so no pending entry is
        # left for the request at t=1.2 to join and the run goes on.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=7, size=0.01),
            TraceRecord(time=1.2, client=0, item=8, size=0.01),
            TraceRecord(time=3.0, client=0, item=9, size=0.01),
        ])
        sim = make_sim(path)
        sim.origin = RaisingPrefetchOrigin(sim.origin, sim.env)
        released = []
        monkeypatch.setattr(
            PrefetchController, "on_fetch_failed",
            lambda controller, item: released.append(item),
        )
        scripted_plan(monkeypatch, {1: [(8, 1.0)]})
        out = sim.run()
        assert out.metrics.requests == 3
        assert released == [8]
        stats = sim.nodes[0].fetch_tables[0].stats
        assert (stats.prefetch_registered, stats.failures, stats.joins) == (1, 1, 0)
        assert out.link_demand_fetches == 3 and out.link_prefetch_fetches == 0


class TestPendingEventOverwrite:
    def test_replanned_pending_item_is_skipped(self, tmp_path, monkeypatch):
        # Item 9 is big (size 5 at bandwidth 1 -> slow prefetch).  Plan
        # call 1 (t~1) prefetches it; the request at t=1.5 joins the
        # pending fetch; plan call 2 (t~2, from the item-2 request)
        # re-chooses 9 while it is still pending.  Before the fix the
        # second plan overwrote pending[9], orphaning the joiner (3 of 4
        # requests recorded) and double-counting the prefetch.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=1, size=0.01),
            TraceRecord(time=1.5, client=0, item=9, size=5.0),
            TraceRecord(time=2.0, client=0, item=2, size=0.01),
            TraceRecord(time=15.0, client=0, item=3, size=0.01),
        ])
        sim = make_sim(path)
        calls = scripted_plan(monkeypatch, {1: [(9, 1.0)], 2: [(9, 1.0)]})
        out = sim.run()
        assert calls["n"] >= 3  # every request planned
        assert out.metrics.requests == 4
        # the duplicate selection was skipped, not double-counted ...
        assert out.metrics.prefetches_issued == 1
        # ... and no second prefetch transfer hit the link
        assert out.link_prefetch_fetches == 1

    def test_superseded_plan_keeps_controller_stats_consistent(self, tmp_path, monkeypatch):
        # The controller's own issue counter must agree with the collector
        # and the link when a planned item is skipped as already pending.
        path = write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=1, size=0.01),
            TraceRecord(time=2.0, client=0, item=2, size=0.01),
            TraceRecord(time=15.0, client=0, item=3, size=0.01),
        ])
        sim = make_sim(path)
        controller = sim.clients[0]
        scripted = {1: [(9, 1.0)], 2: [(9, 1.0)]}
        calls = {"n": 0}

        def plan(controller, *, now, load):
            calls["n"] += 1
            chosen = scripted.get(calls["n"], [])
            # mimic the real plan(): mark selections in-flight + count them
            for it, _p in chosen:
                controller._in_flight.add(it)
            controller.stats.prefetches_issued += len(chosen)
            return list(chosen)

        monkeypatch.setattr(PrefetchController, "_plan", plan)
        # make the prefetch of 9 slow enough to still be pending at plan 2
        sim.origin._size_map[9] = 5.0
        out = sim.run()
        assert out.metrics.prefetches_issued == 1
        assert controller.stats.prefetches_issued == 1  # superseded undone
        assert out.link_prefetch_fetches == 1


class TestWarmupBoundaryLeakage:
    def test_request_straddling_warmup_is_excluded(self, tmp_path):
        # warmup=10: the request issued at t=9 takes ~4s (size 4 at
        # bandwidth 1) and completes at ~13, inside the measurement
        # window.  Before the fix it was recorded with its pre-warmup t0
        # (access time ~4); now only the post-warmup request at t=12
        # counts.
        path = write_trace(tmp_path, [
            TraceRecord(time=9.0, client=0, item=1, size=4.0),
            TraceRecord(time=12.0, client=0, item=2, size=0.1),
        ])
        sim = make_sim(path, warmup=10.0, duration=30.0)
        out = sim.run()
        m = out.metrics
        assert m.requests == 1
        # only the small post-warmup fetch contributes to access time
        assert m.mean_access_time < 1.0
        # retrieval tally likewise excludes the straddling fetch
        assert sim.collector.demand_retrieval.count == 1

    def test_boundary_issue_time_still_counts(self, tmp_path):
        # A request issued exactly at warmup_time belongs to the window.
        path = write_trace(tmp_path, [
            TraceRecord(time=10.0, client=0, item=1, size=0.1),
        ])
        sim = make_sim(path, warmup=10.0, duration=20.0)
        assert sim.run().metrics.requests == 1

    def test_prefetch_retrieval_straddling_warmup_is_excluded(self, tmp_path, monkeypatch):
        # The prefetch issued at t~9 (plan after the first request) is
        # still in flight at the warmup boundary; its retrieval must not
        # enter the post-warmup tallies.
        path = write_trace(tmp_path, [
            TraceRecord(time=9.0, client=0, item=1, size=0.01),
            TraceRecord(time=14.0, client=0, item=2, size=0.01),
        ])
        sim = make_sim(path, warmup=10.0, duration=30.0)
        # prefetch of item 5: size from the spec fallback (1.0) at
        # bandwidth 1 -> completes ~10.01, after the boundary
        scripted_plan(monkeypatch, {1: [(5, 1.0)]})
        out = sim.run()
        assert sim.collector.prefetch_retrieval.count == 0
        assert out.metrics.requests == 1


class TestIssueTimeGating:
    def test_collector_gates_on_issue_time(self):
        from repro.des import Environment
        from repro.network import SharedLink
        from repro.sim.metrics import MetricsCollector

        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        collector = MetricsCollector(env, link, warmup_time=10.0)
        collector.arm_warmup()
        env.run(until=12.0)
        # measuring since the boundary at t=10
        assert collector.snapshot().elapsed == pytest.approx(2.0)
        # completion now, but issued pre-warmup: dropped
        collector.record_request(hit=False, access_time=7.0, issued_at=5.0)
        collector.record_retrieval(7.0, issued_at=5.0)
        # issued post-warmup: kept
        collector.record_request(hit=False, access_time=1.0, issued_at=11.0)
        collector.record_retrieval(1.0, issued_at=11.0)
        m = collector.finalize()
        assert m.requests == 1
        assert m.mean_access_time == pytest.approx(1.0)
        assert m.mean_demand_retrieval_time == pytest.approx(1.0)
