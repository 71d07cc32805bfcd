"""Observability overhead — instrumented hot paths vs the no-op default.

Every engine in the library carries ``repro.obs`` instrumentation
unconditionally; the design promise is that it costs *nothing* unless a
real :class:`MetricsRegistry` is passed (the default is the shared
:data:`NULL` no-op registry, whose metric calls are empty methods on
reusable singletons).

This bench runs the heaviest workload of the suite — a SimGraph build
on a 4,000-user corpus followed by a propagation sweep over the most
popular tweets — once per registry
variant, best-of-``ROUNDS`` to suppress scheduler noise, and asserts the
fully-recording registry stays within 5% of the no-op wall clock.
"""

from __future__ import annotations

import time

from repro.core import RetweetProfiles, SimGraphBuilder
from repro.core.propagation import PropagationEngine
from repro.obs import NULL, MetricsRegistry
from repro.synth import SynthConfig, generate_dataset
from repro.utils.tables import render_table

#: The largest bench corpus (paper sparsity with the cap below).
LARGE_CONFIG = SynthConfig(
    n_users=4000, tweets_alpha=1.2, min_tweets_per_user=2,
    max_tweets_per_user=250, seed=42,
)

MAX_INFLUENCERS = 6
TAU = 0.001
PROPAGATIONS = 300
ROUNDS = 3
OVERHEAD_CEILING = 0.05


def workload(dataset, profiles, seed_sets, metrics) -> float:
    """One full build + propagation pass; returns wall-clock seconds."""
    start = time.perf_counter()
    builder = SimGraphBuilder(
        tau=TAU, max_influencers=MAX_INFLUENCERS, metrics=metrics
    )
    simgraph = builder.build(dataset.follow_graph, profiles)
    engine = PropagationEngine(simgraph, metrics=metrics)
    for seeds in seed_sets:
        engine.propagate(seeds, popularity=len(seeds))
    return time.perf_counter() - start


def test_obs_overhead(benchmark, emit):
    dataset = generate_dataset(LARGE_CONFIG)
    profiles = RetweetProfiles(dataset.retweets())
    tweets = sorted(
        profiles.tweets(), key=profiles.popularity, reverse=True
    )[:PROPAGATIONS]
    seed_sets = [profiles.retweeters(t) for t in tweets]

    def measure():
        timings = {"off (NULL)": [], "on (MetricsRegistry)": []}
        registries = []
        for _ in range(ROUNDS):
            timings["off (NULL)"].append(
                workload(dataset, profiles, seed_sets, NULL)
            )
            registry = MetricsRegistry()
            timings["on (MetricsRegistry)"].append(
                workload(dataset, profiles, seed_sets, registry)
            )
            registries.append(registry)
        return timings, registries[-1]

    timings, registry = benchmark.pedantic(measure, rounds=1, iterations=1)
    t_off = min(timings["off (NULL)"])
    t_on = min(timings["on (MetricsRegistry)"])
    overhead = t_on / t_off - 1.0
    emit(render_table(
        ["registry", "best of 3 (ms)", "overhead"],
        [
            ["off (NULL)", f"{t_off * 1000:.0f}", "baseline"],
            ["on (MetricsRegistry)", f"{t_on * 1000:.0f}",
             f"{overhead:+.1%}"],
        ],
        title=f"obs overhead: {LARGE_CONFIG.n_users} users, "
              f"{PROPAGATIONS} propagations",
    ))
    # The enabled registry must have actually recorded the workload.
    snapshot = registry.snapshot()
    assert snapshot["counters"]["propagation.runs"] == PROPAGATIONS
    assert snapshot["counters"]["simgraph.edges_kept"] > 0
    assert overhead < OVERHEAD_CEILING, (
        f"metrics overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} acceptance ceiling"
    )
