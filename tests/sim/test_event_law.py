"""The request path's event law: which heap pushes a request costs.

A request runs inline from its arrival, a miss that waits is a process
(``Environment.start``), a request's planned prefetches start from one
URGENT event and complete as callbacks on their fetch events, and a
fetch-table join event exists only once someone joined.  These tests count the kernel's heap pushes around a request on
a hand-built node, and pin the planning order the URGENT start keeps.
"""

from heapq import heappush

import pytest

from repro.des.environment import NORMAL, URGENT
from repro.network.link import SharedLink
from repro.network.messages import FetchResult
from repro.prefetch import PrefetchController
from repro.sim import SimulationConfig
from repro.sim.node import FetchTable, RequestPath
from repro.sim.simulation import Simulation
from repro.workload import TraceRecord, WorkloadSpec, save_trace


@pytest.fixture
def pushes(monkeypatch):
    """Every heap push of the kernel, as its ``(time, priority, eid,
    event)`` queue entry."""
    log = []

    def recording(queue, entry):
        log.append(entry)
        heappush(queue, entry)

    monkeypatch.setattr("repro.des.environment.heappush", recording)
    monkeypatch.setattr("repro.des.events.heappush", recording)
    return log


def scripted_plan(monkeypatch, script):
    """Plan call ``n`` (1-based) of the one controller returns
    ``script.get(n, [])``."""
    calls = {"n": 0}

    def plan(controller, *, now, load):
        calls["n"] += 1
        return list(script.get(calls["n"], []))

    monkeypatch.setattr(PrefetchController, "_plan", plan)


def hand_built(tmp_path, pushes):
    """One client on one proxy, its queue empty at t = 0, and a fresh
    :class:`RequestPath` for it; ``pushes`` is cleared of the build's.

    The trace only fixes item sizes (its one request lies past the run's
    end): item ``i`` has size ``i``, on a link of bandwidth 10.
    """
    path = tmp_path / "trace.jsonl"
    save_trace(
        [TraceRecord(time=500.0, client=0, item=i, size=float(i)) for i in range(1, 6)],
        path,
    )
    sim = Simulation(
        SimulationConfig(
            workload=WorkloadSpec(num_clients=1, request_rate=1.0, catalog_size=50),
            bandwidth=10.0,
            cache_capacity=10,
            predictor="markov",
            policy="none",
            duration=100.0,
            warmup=0.0,
            seed=1,
            trace_path=str(path),
        )
    )
    sim.env.run(until=0.0)
    assert len(sim.env) == 0
    del pushes[:]
    return sim, RequestPath(sim.nodes[0], 0, sim.clients[0])


def cache(sim, item):
    sim.clients[0].on_fetch_complete(item, now=0.0, size=float(item), prefetched=False)


class TestEventLaw:
    def test_cache_hit_pushes_only_the_next_arrival(self, tmp_path, pushes):
        sim, path = hand_built(tmp_path, pushes)
        cache(sim, 3)
        path.items = (iter([3]),)
        path.arrivals = iter([(5.0, 0)])
        path.variant_of_phase = (0,)
        sim.env.call_at(1.0, path.arrive, 0)
        del pushes[:]  # the arrival itself
        sim.env.step()  # the arrival: a hit
        assert len(pushes) == 1
        when, priority, _eid, event = pushes[0]
        assert (when, priority) == (5.0, NORMAL)
        assert event.callbacks == [path.arrive]
        assert sim.clients[0].stats.requests == 1

    def test_demand_miss_on_idle_link_pushes_timer_and_completion(
        self, tmp_path, pushes
    ):
        sim, path = hand_built(tmp_path, pushes)
        path.request(2)
        assert len(pushes) == 1  # the PS timer, armed by the fetch
        assert pushes[0][:2] == (0.2, NORMAL)
        sim.env.run()
        assert len(pushes) == 2
        when, priority, _eid, event = pushes[1]
        assert (when, priority) == (0.2, NORMAL)
        assert isinstance(event.value, FetchResult)  # the link's completion
        assert sim.clients[0].stats.requests == 1
        assert 2 in sim.clients[0].cache

    @pytest.mark.parametrize("k", [1, 3])
    def test_k_planned_prefetches_push_one_start_event(
        self, tmp_path, pushes, monkeypatch, k
    ):
        sim, path = hand_built(tmp_path, pushes)
        cache(sim, 5)
        scripted_plan(monkeypatch, {1: [(i, 0.9) for i in range(1, k + 1)]})
        path.request(5)  # a hit that plans k prefetches
        assert len(pushes) == 1
        assert pushes[0][:2] == (0.0, URGENT)
        assert len(path.table) == k  # registered at planning time
        sim.env.run()
        assert [entry[1] for entry in pushes].count(URGENT) == 1
        assert sim.nodes[0].link.prefetch_fetches == k
        assert len(path.table) == 0

    @pytest.mark.parametrize(
        "k, law",
        [
            # item i has size i on a link of bandwidth 10
            (1, [(0.0, "start"), (0.1, "timer"), (0.1, "completion")]),
            (
                3,
                [
                    (0.0, "start"),
                    # each arrival re-arms the timer for the head (item 1)
                    (0.1, "timer"), (0.2, "timer"), (0.3, "timer"),
                    # each completion arms the next head's timer
                    (0.3, "completion"), (0.5, "timer"),
                    (0.5, "completion"), (0.6, "timer"),
                    (0.6, "completion"),
                ],
            ),
        ],
    )
    def test_planned_prefetches_run_without_tasks(
        self, tmp_path, pushes, monkeypatch, k, law
    ):
        # A prefetch completes in a callback on its fetch event: no task
        # starts, and the heap sees only the plan's URGENT start, the PS
        # timers and the link completions.
        from repro.des.environment import Environment

        starts = []
        start = Environment.start

        def counting_start(env, generator):
            starts.append(generator)
            return start(env, generator)

        monkeypatch.setattr(Environment, "start", counting_start)
        sim, path = hand_built(tmp_path, pushes)
        cache(sim, 5)
        scripted_plan(monkeypatch, {1: [(i, 0.9) for i in range(1, k + 1)]})
        path.request(5)  # a hit that plans k prefetches
        sim.env.run()
        assert starts == []

        def kind(entry):
            if entry[1] == URGENT:
                return "start"
            return "completion" if isinstance(entry[3].value, FetchResult) else "timer"

        assert [(round(e[0], 12), kind(e)) for e in pushes] == law
        assert [e[1] for e in pushes] == [URGENT] + [NORMAL] * (len(law) - 1)
        assert sim.nodes[0].link.prefetch_fetches == k
        assert len(path.table) == 0
        assert all(i in sim.clients[0].cache for i in range(1, k + 1))
        assert sim.clients[0].stats.prefetches_completed == k

    def test_fetch_completing_without_joiner_pushes_no_table_event(self, pushes):
        from repro.des import Environment

        env = Environment()
        table = FetchTable(env)
        table.register("x", "demand")
        table.complete("x", "payload")
        table.register("y", "prefetch")
        table.fail("y", RuntimeError("aborted"))
        assert pushes == []
        table.register("z", "demand")
        joined = table.join("z")
        assert table.join("z") is joined  # one event, however many join
        assert pushes == []
        table.complete("z", "payload")
        assert [entry[3] for entry in pushes] == [joined]


class TestPlanningOrder:
    def test_joiners_woken_together_plan_before_any_prefetch_starts(
        self, tmp_path, monkeypatch
    ):
        # Item 9 takes 5 s on the link.  The requests at t = 2 and t = 3
        # join its demand fetch, so one join event wakes both; each plans
        # one prefetch.  Both plans must run before either prefetch
        # reaches the link: a load-reading policy would otherwise see the
        # first one's bytes in the second plan.
        path = tmp_path / "trace.jsonl"
        save_trace(
            [
                TraceRecord(time=1.0, client=0, item=9, size=5.0),
                TraceRecord(time=2.0, client=0, item=9, size=5.0),
                TraceRecord(time=3.0, client=0, item=9, size=5.0),
            ],
            path,
        )
        sim = Simulation(
            SimulationConfig(
                workload=WorkloadSpec(num_clients=1, request_rate=10.0, catalog_size=50),
                bandwidth=1.0,
                cache_capacity=10,
                predictor="markov",
                policy="none",
                duration=30.0,
                warmup=0.0,
                seed=1,
                trace_path=str(path),
            )
        )
        log = []
        calls = {"n": 0}
        script = {2: [(20, 0.9)], 3: [(21, 0.9)]}

        def plan(controller, *, now, load):
            calls["n"] += 1
            log.append(("plan", calls["n"]))
            return list(script.get(calls["n"], []))

        monkeypatch.setattr(PrefetchController, "_plan", plan)
        fetch = SharedLink.fetch

        def spy(self, *, item, size, kind, client):
            if kind == "prefetch":
                log.append(("fetch", item))
            return fetch(self, item=item, size=size, kind=kind, client=client)

        monkeypatch.setattr(SharedLink, "fetch", spy)
        out = sim.run()
        assert out.metrics.requests == 3
        assert sim.nodes[0].fetch_tables[0].stats.joins == 2
        assert log == [
            ("plan", 1),  # the fetching request, woken by the link
            ("plan", 2),  # the two joiners, woken by one join event
            ("plan", 3),
            ("fetch", 20),
            ("fetch", 21),
        ]
