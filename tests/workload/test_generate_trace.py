"""``generate_trace`` builds item sources only for clients that arrive.

The reference below is the eager loop ``generate_trace`` ran before: it
derives every client's streams and builds every client's item sources
before the first arrival.  Streams are keyed by name, so skipping the
sources of clients with no arrival in the horizon must leave every
record bit-identical; these specs are sparse (most clients never
arrive), phased, and heterogeneous through ``client_overrides``.
"""

import heapq

import pytest

from repro.des.rng import RandomStreams
from repro.workload.phases import PhaseSpec, arrival_times
from repro.workload.sessions import WorkloadSpec, entity_stream_names, generate_trace
from repro.workload.trace import TraceRecord


def eager_trace(spec, *, duration, seed):
    schedule = spec.make_schedule()
    n = spec.num_clients
    streams = RandomStreams(seed)
    streams.derive(entity_stream_names([f"client{c}" for c in range(n)], schedule))
    sizes = spec.make_sizes()
    size_rng = streams.get("sizes")
    arrivals = [
        arrival_times(
            schedule,
            spec.rate_of(c),
            streams.get(f"client{c}/arrivals"),
            horizon=duration,
        )
        for c in range(n)
    ]
    item_streams = [
        tuple(s.stream() for s in spec.make_phase_sources(c, streams, schedule))
        for c in range(n)
    ]
    heap = []

    def push_next(c):
        arrival = next(arrivals[c], None)
        if arrival is not None:
            heapq.heappush(heap, (arrival[0], c, arrival[1]))

    for c in range(n):
        push_next(c)
    records = []
    while heap:
        t, c, idx = heapq.heappop(heap)
        records.append(
            TraceRecord(
                time=t,
                client=c,
                item=next(item_streams[c][schedule.variant_of_phase[idx]]),
                size=float(sizes.sample(size_rng)),
            )
        )
        push_next(c)
    return records


SPECS = {
    "sparse": (
        WorkloadSpec(num_clients=3000, request_rate=300.0, catalog_size=200),
        2.0,
        7,
    ),
    "phased": (
        WorkloadSpec(
            num_clients=800,
            request_rate=60.0,
            catalog_size=120,
            phases=(
                PhaseSpec(duration=1.0),
                PhaseSpec(duration=2.0, rate_multiplier=4.0, popularity_shift=20),
                PhaseSpec(duration=1.5, rate_multiplier=0.25),
            ),
        ),
        9.0,
        13,
    ),
    "client-overrides": (
        WorkloadSpec(
            num_clients=1000,
            request_rate=50.0,
            catalog_size=100,
            client_overrides={
                **{
                    c: {"request_rate": 5.0, "catalog_size": 40 + c}
                    for c in range(0, 1000, 97)
                },
                500: {"follow_probability": 0.1, "zipf_exponent": 1.2},
            },
        ),
        4.0,
        11,
    ),
}


@pytest.mark.parametrize("name", SPECS)
def test_same_records_as_the_eager_loop(name):
    spec, duration, seed = SPECS[name]
    records = generate_trace(spec, duration=duration, seed=seed)
    assert records == eager_trace(spec, duration=duration, seed=seed)
    # sparse: most clients never arrive, which is what the lazy build skips
    assert 0 < len({r.client for r in records}) < spec.num_clients
