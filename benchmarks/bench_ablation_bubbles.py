"""Ablation — information-bubble escape (paper §7 future work).

Identifies bubbles in the SimGraph backbone, measures the locality of
SimGraph recommendations, and sweeps the escape weight: the top-ranked
slice must become monotonically less local as the weight grows.
"""

from repro.analysis import (
    BubbleEscapeReranker,
    identify_bubbles,
    recommendation_locality,
)
from repro.graph import modularity
from repro.utils.tables import render_table

WEIGHTS = [0.0, 0.3, 0.7, 1.0]


def test_ablation_bubble_escape(benchmark, bench_dataset, bench_split,
                                bench_simgraph, replay_results, emit):
    bubbles = benchmark.pedantic(
        identify_bubbles, args=(bench_simgraph,), kwargs={"seed": 0},
        rounds=1, iterations=1,
    )
    q = modularity(bench_simgraph.topology(), bubbles.labels)
    recommendations = replay_results["SimGraph"].candidates
    audience = {}
    for event in bench_split.test:
        audience.setdefault(event.tweet, set()).add(event.user)
    overall = recommendation_locality(recommendations, bubbles, audience)

    rows = []
    localities = []
    for weight in WEIGHTS:
        reranker = BubbleEscapeReranker(bubbles, escape_weight=weight)
        reranked = reranker.rerank(list(recommendations), audience)
        top = reranked[: max(len(reranked) // 10, 1)]
        locality = recommendation_locality(top, bubbles, audience)
        localities.append(locality)
        rows.append([weight, round(locality, 3)])
    emit(render_table(
        ["escape weight", "top-decile locality"], rows,
        title=(
            f"Ablation: bubble escape ({bubbles.bubble_count} bubbles, "
            f"modularity {q:.3f}; overall locality {overall:.2f})"
        ),
    ))
    assert bubbles.bubble_count >= 2
    # Escaping reduces the locality of what gets ranked first.
    assert localities[-1] < localities[0]
    assert all(
        later <= earlier + 0.02
        for earlier, later in zip(localities, localities[1:])
    )
