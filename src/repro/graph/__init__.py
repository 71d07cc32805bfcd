"""Graph substrate: directed graph, array-backed follow graph, traversal,
metrics, bipartite interaction graph and social-graph generators."""

from repro.graph.bipartite import Interaction, InteractionGraph
from repro.graph.communities import label_propagation_communities, modularity
from repro.graph.digraph import DiGraph
from repro.graph.followgraph import FollowGraph
from repro.graph.generators import community_preferential_graph
from repro.graph.metrics import (
    GraphSummary,
    degree_arrays,
    path_length_sample,
    summarize_graph,
)
from repro.graph.traversal import (
    bfs_distances,
    k_hop_neighborhood,
    shortest_path_length,
)

__all__ = [
    "DiGraph",
    "FollowGraph",
    "label_propagation_communities",
    "modularity",
    "GraphSummary",
    "Interaction",
    "InteractionGraph",
    "bfs_distances",
    "community_preferential_graph",
    "degree_arrays",
    "k_hop_neighborhood",
    "path_length_sample",
    "shortest_path_length",
    "summarize_graph",
]
