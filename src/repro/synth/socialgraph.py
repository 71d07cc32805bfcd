"""Follow-graph generation for the synthetic corpus.

Thin orchestration over :func:`repro.graph.generators.
community_preferential_graph`: sample zipf out-degrees, then wire edges
with community bias so the graph is simultaneously heavy-tailed,
small-world and homophilous.
"""

from __future__ import annotations

import numpy as np

from repro.graph.followgraph import FollowGraph
from repro.graph.generators import community_preferential_graph
from repro.synth.config import SynthConfig
from repro.utils.powerlaw import sample_bounded_zipf
from repro.utils.rng import make_rng

__all__ = ["build_follow_graph", "sample_follow_edges", "sample_out_degrees"]


def sample_out_degrees(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Bounded-zipf target out-degrees, capped at ``n_users - 1``."""
    max_degree = min(config.max_out_degree, config.n_users - 1)
    return sample_bounded_zipf(
        rng,
        alpha=config.out_degree_alpha,
        x_min=min(config.min_out_degree, max_degree),
        x_max=max_degree,
        size=config.n_users,
    )


def build_follow_graph(
    config: SynthConfig,
    communities: np.ndarray,
    rng: int | np.random.Generator | None = None,
) -> FollowGraph:
    """Generate the follow graph for ``config`` and ``communities``.

    Out-degrees come from :func:`sample_out_degrees`; the edge-wiring
    combines preferential attachment with community bias.
    """
    rng = make_rng(rng)
    return community_preferential_graph(
        out_degrees=sample_out_degrees(config, rng),
        communities=[int(c) for c in communities],
        community_bias=config.community_bias,
        seed=rng,
    )


def sample_follow_edges(
    out_degrees: np.ndarray,
    communities: np.ndarray,
    community_bias: float,
    rng: np.random.Generator,
    attractiveness_tail: float = 0.8,
) -> tuple[np.ndarray, np.ndarray]:
    """Array-scale follow-edge sampler: ``(follow_src, follow_dst)``.

    The paper-scale counterpart of :func:`repro.graph.generators.
    community_preferential_graph`.  The loop version grows preferential
    weight edge by edge — O(edges) Python-level draws, minutes at a
    million users.  Here each node instead gets a *static* Zipf
    attractiveness ``(rank + 1) ** -attractiveness_tail`` over a random
    rank permutation (a Chung-Lu-style stand-in for preferential
    attachment: the realized in-degree distribution has the same
    heavy-tailed shape, without the sequential dependence), and all
    edges are drawn at once with cumulative-weight binary search —
    community-biased exactly like the loop version.  Self-loops and
    duplicate pairs are dropped afterwards and not redrawn, so realized
    out-degree falls short of target, most for the heaviest users: on
    the 2,000-user evaluation config 27,017 of 33,580 target follows
    survive (-19.5 %; -33.9 % among out-degree >= 100), and 4.9 % are
    lost at 100k users.  The loop version redraws and realizes every
    target follow.
    """
    n = len(out_degrees)
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    communities = np.asarray(communities, dtype=np.int64)
    total = int(out_degrees.sum())
    if n <= 1 or total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
    weights = (rng.permutation(n).astype(np.float64) + 1.0) ** (
        -attractiveness_tail
    )

    dst = np.empty(total, dtype=np.int64)
    in_community = rng.random(total) < community_bias

    global_cum = np.cumsum(weights)
    n_global = int((~in_community).sum())
    if n_global:
        draws = rng.random(n_global) * global_cum[-1]
        dst[~in_community] = np.minimum(
            np.searchsorted(global_cum, draws, side="right"), n - 1
        )

    member_order = np.argsort(communities, kind="stable")
    member_sorted = communities[member_order]
    boundaries = np.searchsorted(
        member_sorted, np.arange(communities.max() + 2)
    )
    biased = np.flatnonzero(in_community)
    biased_comm = communities[src[biased]]
    for label in np.unique(biased_comm):
        members = member_order[boundaries[label] : boundaries[label + 1]]
        lane = biased[biased_comm == label]
        if len(members) == 0 or len(lane) == 0:
            continue
        cum = np.cumsum(weights[members])
        draws = rng.random(len(lane)) * cum[-1]
        picks = np.minimum(
            np.searchsorted(cum, draws, side="right"), len(members) - 1
        )
        dst[lane] = members[picks]

    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    fresh = np.empty(len(src), dtype=bool)
    if len(src):
        fresh[0] = True
        np.logical_or(
            src[1:] != src[:-1], dst[1:] != dst[:-1], out=fresh[1:]
        )
    return src[fresh], dst[fresh]
