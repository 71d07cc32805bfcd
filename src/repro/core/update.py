"""Incremental SimGraph maintenance strategies (paper §6.3, Figure 16).

The experiment: a SimGraph is built after 90% of the retweet stream; the
90-95% slice then arrives, and we compare four ways of absorbing it before
evaluating on the final 5%:

* **from_scratch** — full rebuild on the follow graph with updated
  profiles (upper bound, most expensive);
* **old_simgraph** — keep the stale graph untouched (lower bound, free);
* **crossfold** — rerun the 2-hop construction *on the previous SimGraph*
  instead of the follow graph: finds new influential users reachable
  through similarity paths while refreshing weights, at a fraction of the
  rebuild cost;
* **update_weights** — keep the old topology, recompute edge weights only;
* **delta** — edge-identical to *from scratch* but driven by the
  profiles' dirty sets (:mod:`repro.core.delta`): only the affected
  region — dirty users, co-retweeters of weight-changed tweets and
  their exploration fringe — is rescored; everything else is copied
  through untouched.

The online service maintains with *delta* and *from scratch* only; the
other three serve the Figure 16 comparison, the examples and the
offline ``simgraph maintain`` command.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.delta import apply_delta
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.data.models import Retweet
from repro.graph.followgraph import FollowGraph

__all__ = [
    "from_scratch",
    "old_simgraph",
    "crossfold",
    "update_weights",
    "delta",
    "STRATEGIES",
    "UpdateStrategy",
    "apply_strategy",
]

#: Signature shared by all strategies: (old graph, follow graph, updated
#: profiles, builder) -> refreshed graph.
UpdateStrategy = Callable[
    [SimGraph, FollowGraph, RetweetProfiles, SimGraphBuilder],
    SimGraph,
]


def from_scratch(
    old: SimGraph,
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """Full rebuild from the follow graph (ignores ``old`` entirely)."""
    return builder.build(follow_graph, profiles)


def old_simgraph(
    old: SimGraph,
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """No maintenance: keep the stale similarity graph as-is."""
    return old


def crossfold(
    old: SimGraph,
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """2-hop exploration of the *previous SimGraph* with fresh profiles.

    New influential users two similarity-hops away become direct edges,
    densifying the graph, and every retained edge gets a recomputed
    weight — the strategy Figure 16 shows tracking *from scratch* almost
    perfectly at a much lower cost (it explores the SimGraph, whose
    out-degree is ~6, instead of the follow graph, whose 2-hop
    neighbourhoods are thousands of users).  The walk runs on the old
    graph's CSR arrays, its influencer rows as the out-edges.
    """
    return builder.build(old.topology(), profiles)


def update_weights(
    old: SimGraph,
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """Keep the old topology; recompute every edge weight.

    Edges whose refreshed similarity falls below τ are kept at their new
    (lower) weight: the experiment isolates *weight drift* from *topology
    drift*, and the paper finds topology is what matters.
    """
    from repro.core.similarity import similarity

    users, indptr, indices, _ = old.arrays()
    pairs = zip(np.repeat(users, np.diff(indptr)).tolist(), users[indices].tolist())
    weights = np.array(
        [similarity(profiles, u, v) for u, v in pairs], dtype=np.float64
    )
    return SimGraph(users, indptr, indices, weights, tau=old.tau)


def delta(
    old: SimGraph,
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """Dirty-set-driven rebuild, edge-identical to :func:`from_scratch`.

    Reads the profiles' dirty sets (everything added since the last
    :meth:`~repro.core.profiles.RetweetProfiles.mark_clean`), rescores
    only the affected region and copies every other row from ``old``.
    With an empty delta this is the identity.  See
    :func:`repro.core.delta.apply_delta` for the exactness argument.
    """
    refreshed, _ = apply_delta(old, follow_graph, profiles, builder)
    return refreshed


#: Name -> strategy map in the order Figure 16 plots them (the four
#: paper strategies plus the delta engine's from-scratch-equivalent).
STRATEGIES: dict[str, UpdateStrategy] = {
    "from scratch": from_scratch,
    "old SimGraph": old_simgraph,
    "crossfold": crossfold,
    "SimGraph updated": update_weights,
    "delta": delta,
}


def apply_strategy(
    name: str,
    old: SimGraph,
    follow_graph: FollowGraph,
    train: list[Retweet],
    extra: list[Retweet],
    builder: SimGraphBuilder | None = None,
) -> SimGraph:
    """Convenience: refresh ``old`` with strategy ``name``.

    ``train`` is the stream the old graph was built from; ``extra`` is the
    newly arrived slice (the 90-95% window in Figure 16).  The profiles
    are checkpointed between the two, so the dirty-set-driven strategies
    see exactly ``extra`` as the delta.
    """
    if name not in STRATEGIES:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        )
    if builder is None:
        builder = SimGraphBuilder(tau=old.tau)
    profiles = RetweetProfiles(train)
    profiles.mark_clean()
    profiles.extend(extra)
    return STRATEGIES[name](old, follow_graph, profiles, builder)
