"""Table 4 — SimGraph characteristics.

Paper values: 1.15M nodes (half the crawl), 4.95M edges, mean similarity
0.0078, mean out-degree 5.9, diameter 21, mean smallest path 7.5 (double
the follow graph's 3.7).  Reproduced shape: a sub-population of the users
survives, in-degree flatter than the follow graph's, and the timed target
is the paper's per-user initialization cost (their Table 5: 311 ms/user
at crawl scale).
"""

from repro.core.simgraph import SimGraphBuilder
from repro.graph.metrics import degree_arrays
from repro.utils.tables import render_table


def test_table4_simgraph_characteristics(
    benchmark, bench_dataset, bench_profiles, sparse_simgraph, emit
):
    builder = SimGraphBuilder(tau=0.001)
    users = sorted(sparse_simgraph.users.tolist())[:50]

    def per_user_init():
        builder.build(bench_dataset.follow_graph, bench_profiles, users=users)

    benchmark(per_user_init)
    emit(render_table(
        ["feature", "value"],
        sparse_simgraph.table4_rows(sample_size=120, seed=0),
        title="Table 4: SimGraph characteristics",
    ))
    assert 0 < sparse_simgraph.node_count <= bench_dataset.user_count
    assert sparse_simgraph.mean_similarity() > 0.0
    # In-degree flatter than the follow graph's (paper §4.1).
    _, sim_in = degree_arrays(sparse_simgraph.topology())
    _, follow_in = degree_arrays(bench_dataset.follow_graph)
    sim_ratio = sim_in.max() / max(sim_in.mean(), 1e-9)
    follow_ratio = follow_in.max() / max(follow_in.mean(), 1e-9)
    assert sim_ratio < follow_ratio * 1.5
