"""Ablation — the similarity threshold τ of the SimGraph construction.

Sweeps τ and reports graph density and mean edge weight.  Expected:
density falls monotonically with τ while the surviving edges' mean
similarity rises — the precision/reach dial of Definition 4.1.
"""

from repro.core import SimGraphBuilder
from repro.utils.tables import render_table

TAUS = [0.0005, 0.001, 0.005, 0.02]


def test_ablation_tau_sweep(benchmark, bench_dataset, bench_profiles, emit):
    builder = SimGraphBuilder(tau=TAUS[1])
    users = sorted(bench_profiles.users())[:50]

    def build_for_users():
        builder.build(bench_dataset.follow_graph, bench_profiles, users=users)

    benchmark(build_for_users)

    rows = []
    previous_edges = None
    previous_mean = None
    for tau in TAUS:
        graph = SimGraphBuilder(tau=tau).build(
            bench_dataset.follow_graph, bench_profiles
        )
        mean_sim = graph.mean_similarity()
        out_deg = graph.edge_count / max(graph.node_count, 1)
        rows.append([
            tau, graph.node_count, graph.edge_count,
            round(out_deg, 2), round(mean_sim, 5),
        ])
        if previous_edges is not None:
            assert graph.edge_count <= previous_edges
            assert mean_sim >= previous_mean
        previous_edges = graph.edge_count
        previous_mean = mean_sim
    emit(render_table(
        ["tau", "nodes", "edges", "mean out-degree", "mean similarity"],
        rows,
        title="Ablation: SimGraph density vs similarity threshold tau",
    ))
