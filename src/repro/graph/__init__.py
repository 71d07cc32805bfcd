"""Graph substrate: the array-backed follow graph, its metrics and
communities, the bipartite interaction graph and the social-graph
generator."""

from repro.graph.bipartite import Interaction, InteractionGraph
from repro.graph.communities import label_propagation_communities, modularity
from repro.graph.followgraph import FollowGraph
from repro.graph.generators import community_preferential_graph
from repro.graph.metrics import (
    GraphSummary,
    degree_arrays,
    hop_distances,
    path_length_sample,
    summarize_graph,
)

__all__ = [
    "FollowGraph",
    "label_propagation_communities",
    "modularity",
    "GraphSummary",
    "Interaction",
    "InteractionGraph",
    "community_preferential_graph",
    "degree_arrays",
    "hop_distances",
    "path_length_sample",
    "summarize_graph",
]
