"""Ablation — topic-merged profiles (paper §7 future work).

Merging tweets into "topic tweets" must densify the SimGraph edges of
low-activity users — the paper's predicted enhancement for small users —
while leaving the construction machinery untouched.
"""

from repro.core import SimGraphBuilder, merge_by_label, topic_profiles
from repro.utils.tables import render_table


def test_ablation_topic_merging(benchmark, bench_dataset, bench_split,
                                bench_profiles, bench_simgraph, emit):
    assignment = merge_by_label(bench_dataset)
    merged_profiles = benchmark.pedantic(
        topic_profiles,
        args=(bench_split.train, assignment),
        rounds=1,
        iterations=1,
    )
    merged_graph = SimGraphBuilder(tau=0.001).build(
        bench_dataset.follow_graph, merged_profiles
    )

    def small_user_degree(graph):
        thin = [
            u for u in graph.users.tolist()
            if bench_profiles.profile_size(u) < 5
        ]
        if not thin:
            return 0.0
        return sum(graph.influencer_count(u) for u in thin) / len(thin)

    raw_degree = small_user_degree(bench_simgraph)
    merged_degree = small_user_degree(merged_graph)
    emit(render_table(
        ["profiles", "nodes", "edges", "mean |F_u| of small users"],
        [
            ["raw tweets", bench_simgraph.node_count,
             bench_simgraph.edge_count, round(raw_degree, 2)],
            ["topic tweets", merged_graph.node_count,
             merged_graph.edge_count, round(merged_degree, 2)],
        ],
        title=(
            f"Ablation: topic merging ({assignment.topic_count} items "
            f"from {len(assignment.topic_of)} tweets)"
        ),
    ))
    # Small users gain influencers and coverage grows.
    assert merged_degree > raw_degree
    assert merged_graph.node_count >= bench_simgraph.node_count
