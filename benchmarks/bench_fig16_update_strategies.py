"""Figure 16 — hits on the last 5% under four SimGraph update strategies.

Paper shape: *from scratch* (full rebuild at 95%) gives the best hits;
*crossfold* (2-hop reconstruction over the previous SimGraph) tracks it
almost perfectly at a fraction of the cost; *old SimGraph* and *SimGraph
updated* (weights only) coincide — topology matters more than weights.

Next to the wall-clock update cost, each strategy reports the pairs it
scored (``simgraph.pairs_scored`` plus ``maintenance.pairs_rescored``
from a registry on its builder): a deterministic work count, which is
what the delta-cheaper-than-rebuild assertion compares.
"""

import time

from repro.core import RetweetProfiles, SimGraphBuilder, SimGraphRecommender
from repro.core.update import STRATEGIES, apply_strategy
from repro.eval import evaluate_sweep, run_replay
from repro.obs import MetricsRegistry
from repro.utils.tables import render_table

K = 30


def test_fig16_update_strategies(benchmark, bench_dataset, bench_split,
                                 bench_targets, emit):
    mid = bench_split.slice_test(0.90, 0.95)
    last = bench_split.slice_test(0.95, 1.0)
    builder = SimGraphBuilder(tau=0.001)
    profiles = RetweetProfiles(bench_split.train)
    old = builder.build(bench_dataset.follow_graph, profiles)
    targets = bench_targets.all_users

    def run_strategy(name):
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        graph = apply_strategy(
            name, old, bench_dataset.follow_graph, bench_split.train, mid,
            builder=SimGraphBuilder(tau=0.001, metrics=registry),
        )
        update_cost = time.perf_counter() - t0
        counters = registry.snapshot()["counters"]
        pairs = counters.get("simgraph.pairs_scored", 0) + counters.get(
            "maintenance.pairs_rescored", 0
        )
        recommender = SimGraphRecommender(simgraph=graph)
        recommender.fit(bench_dataset, bench_split.train + mid, targets)
        result = run_replay(
            recommender, bench_dataset, bench_split.train + mid, last,
            targets, fitted=True,
        )
        metrics = evaluate_sweep(result, [K], bench_dataset.popularity)[0]
        return graph, metrics, update_cost, pairs

    # Benchmark the paper's headline: crossfold is the cheap good update.
    benchmark.pedantic(
        apply_strategy,
        args=("crossfold", old, bench_dataset.follow_graph,
              bench_split.train, mid),
        kwargs={"builder": builder},
        rounds=1,
        iterations=1,
    )

    rows = []
    hits = {}
    work = {}
    for name in STRATEGIES:
        graph, metrics, update_cost, pairs = run_strategy(name)
        hits[name] = metrics.hits
        work[name] = pairs
        rows.append([name, graph.edge_count, metrics.hits,
                     round(update_cost, 3), pairs])
    emit(render_table(
        ["strategy", "edges", f"hits@{K}", "update cost (s)", "pairs scored"],
        rows, title="Figure 16: hits on the last 5% per update strategy",
    ))
    # Crossfold tracks the full rebuild (within 15%).
    assert hits["crossfold"] >= 0.85 * hits["from scratch"]
    # Delta is from-scratch-exact (same edges, weights within round-off),
    # so its hits must coincide — scoring fewer pairs than the rebuild.
    assert hits["delta"] == hits["from scratch"]
    assert 0 < work["delta"] < work["from scratch"]
    # Stale topology with refreshed weights ~= stale graph (paper's
    # "surprisingly ... almost the exact same results").
    assert abs(hits["SimGraph updated"] - hits["old SimGraph"]) <= max(
        5, 0.15 * hits["old SimGraph"]
    )
    # No strategy beats the rebuild by a wide margin.
    best = max(hits.values())
    assert hits["from scratch"] >= 0.85 * best
