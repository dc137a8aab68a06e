"""Microbenchmark: raw DES event-loop throughput (timeouts processed/sec).

Unlike the other benches (which time whole paper artefacts) this pins the
*kernel* hot path in isolation, so future changes to ``des/environment.py``
or ``des/events.py`` have a stable perf baseline to compare against: a
single process yielding a long chain of timeouts measures exactly the
``timeout() → heap → run-loop dispatch → _resume`` cycle and nothing else.

Reference points (1-core container, Python 3.11): the seed event loop
processed ~0.77M timeouts/sec; the inlined run() loop + fast timeout path
of PR 1 lifted that to ~1.3M/sec (see PERFORMANCE.md).

Run:  pytest benchmarks/test_bench_event_loop.py --benchmark-only -s
"""

from __future__ import annotations

from repro.des.environment import Environment

#: Events per measured run — large enough that per-run setup is noise.
NUM_TIMEOUTS = 100_000


def _drain_timeout_chain() -> float:
    env = Environment()

    def ticker(env, count):
        for _ in range(count):
            yield env.timeout(1.0)

    env.start(ticker(env, NUM_TIMEOUTS))
    env.run()
    return env.now


def test_bench_event_loop_throughput(benchmark):
    final_time = benchmark.pedantic(
        _drain_timeout_chain, rounds=5, iterations=1, warmup_rounds=1
    )
    # The chain must actually have run to completion.
    assert final_time == float(NUM_TIMEOUTS)
    per_second = NUM_TIMEOUTS / benchmark.stats.stats.min
    print(f"\nevent-loop throughput: {per_second:,.0f} timeouts/sec (best round)")
