"""Empirical convergence study (paper §5.3).

The paper proves convergence via diagonal dominance, then measures the
contraction factor on real data — *"we conducted an experimental study on
our dataset and show that the convergence of our model is bound to
‖A‖ = 0.91 — the worst case scenario"* — and motivates the §5.4
optimizations with the observed iteration counts.  This module reproduces
that study: per-tweet propagation iteration counts, the iteration-matrix
norms, and how both react to the similarity threshold τ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.linear import LinearSystem
from repro.core.profiles import RetweetProfiles
from repro.core.propagation import PropagationEngine
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.data.models import Retweet
from repro.graph.followgraph import FollowGraph

__all__ = ["ConvergenceStudy", "study_convergence", "norms_by_tau"]


@dataclass(frozen=True)
class ConvergenceStudy:
    """Measured convergence behaviour of one SimGraph."""

    #: Infinity norm of the Jacobi iteration matrix (paper: 0.91).
    iteration_norm: float
    #: Power-iteration estimate of the spectral radius (true asymptotic
    #: contraction factor; always <= the norm).
    spectral_radius: float
    #: Propagation iterations per sampled tweet.
    iterations: list[int]
    #: Probability updates per sampled tweet (work measure).
    updates: list[int]

    @property
    def mean_iterations(self) -> float:
        """Average iterations to fixpoint."""
        if not self.iterations:
            return 0.0
        return float(np.mean(self.iterations))

    @property
    def max_iterations(self) -> int:
        """Worst sampled tweet."""
        return max(self.iterations, default=0)

    def rows(self) -> list[tuple[str, object]]:
        """Report rows."""
        return [
            ("iteration-matrix norm ||A||", round(self.iteration_norm, 4)),
            ("spectral radius (est.)", round(self.spectral_radius, 4)),
            ("tweets sampled", len(self.iterations)),
            ("mean iterations", round(self.mean_iterations, 2)),
            ("max iterations", self.max_iterations),
            ("mean updates/tweet",
             round(float(np.mean(self.updates)) if self.updates else 0.0, 1)),
        ]


def study_convergence(
    simgraph: SimGraph,
    retweets: list[Retweet],
    max_tweets: int = 50,
) -> ConvergenceStudy:
    """Measure convergence over the ``max_tweets`` most retweeted tweets.

    Each sampled tweet is propagated from its full retweeter set with the
    exact (threshold-free) algorithm; iteration and update counts are the
    §5.3 evidence that motivated the paper's optimizations.
    """
    system = LinearSystem(simgraph)
    retweeters: dict[int, set[int]] = {}
    for retweet in retweets:
        retweeters.setdefault(retweet.tweet, set()).add(retweet.user)
    sampled = sorted(
        retweeters, key=lambda t: len(retweeters[t]), reverse=True
    )[:max_tweets]
    engine = PropagationEngine(simgraph)
    iterations: list[int] = []
    updates: list[int] = []
    for tweet in sampled:
        result = engine.propagate(retweeters[tweet])
        iterations.append(result.iterations)
        updates.append(result.updates)
    return ConvergenceStudy(
        iteration_norm=system.iteration_norm(),
        spectral_radius=system.spectral_radius_estimate(),
        iterations=iterations,
        updates=updates,
    )


def norms_by_tau(
    follow_graph: FollowGraph,
    profiles: RetweetProfiles,
    taus: list[float],
) -> list[tuple[float, float, float]]:
    """(tau, ||A||, spectral radius) for each threshold.

    Because each row of ``A`` is normalized by |F_u|, its off-diagonal
    mass is the *mean* similarity of the retained edges — so pruning weak
    edges with a higher τ can actually **raise** the contraction factor
    while keeping it strictly below 1 (every similarity is < 1, §5.3).
    What τ buys is fewer rows to touch per iteration, not a better
    per-iteration contraction; this is exactly why the paper adds the
    β/γ(t) thresholds on top of the convergence guarantee.
    """
    rows: list[tuple[float, float, float]] = []
    for tau in taus:
        simgraph = SimGraphBuilder(tau=tau).build(follow_graph, profiles)
        system = LinearSystem(simgraph)
        rows.append(
            (tau, system.iteration_norm(), system.spectral_radius_estimate())
        )
    return rows
