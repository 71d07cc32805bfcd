"""Information bubbles and escape re-ranking (paper §7, future work).

Run:  python examples/bubble_analysis.py

Identifies bubbles in the SimGraph, measures how local the recommender's
output is, and shows the escape re-ranker trading raw score for
cross-bubble diversity.
"""

from repro import SimGraphRecommender, SynthConfig, generate_dataset
from repro.analysis import (
    BubbleEscapeReranker,
    identify_bubbles,
    recommendation_locality,
)
from repro.data import temporal_split
from repro.graph import modularity
from repro.utils.tables import render_table


def main() -> None:
    dataset = generate_dataset(SynthConfig(n_users=1200, seed=42))
    split = temporal_split(dataset)
    recommender = SimGraphRecommender()
    recommender.fit(dataset, split.train)
    simgraph = recommender.simgraph
    assert simgraph is not None

    bubbles = identify_bubbles(simgraph, seed=0)
    q = modularity(simgraph.topology(), bubbles.labels)
    sizes = sorted(bubbles.sizes().values(), reverse=True)
    print(f"SimGraph: {simgraph.node_count} users, {simgraph.edge_count} edges")
    print(f"bubbles found: {bubbles.bubble_count} (modularity {q:.3f})")
    print(f"largest bubbles: {sizes[:8]}")

    # Collect recommendations over a slice of the test stream.
    recommendations = []
    audience: dict[int, set[int]] = {}
    for event in split.test[: len(split.test) // 2]:
        recommendations.extend(recommender.on_event(event))
        audience.setdefault(event.tweet, set()).add(event.user)

    locality = recommendation_locality(recommendations, bubbles, audience)
    print(
        f"\n{len(recommendations)} recommendations; "
        f"{locality:.0%} stay inside the user's own bubble"
    )

    rows = []
    for weight in (0.0, 0.3, 0.7, 1.0):
        reranker = BubbleEscapeReranker(bubbles, escape_weight=weight)
        reranked = reranker.rerank(recommendations, audience)
        top = reranked[: max(len(reranked) // 10, 1)]
        top_locality = recommendation_locality(top, bubbles, audience)
        rows.append([weight, round(top_locality, 3), len(top)])
    print()
    print(render_table(
        ["escape weight", "top-decile locality", "recs"], rows,
        title="Escape re-ranking: locality of the best-ranked slice",
    ))


if __name__ == "__main__":
    main()
