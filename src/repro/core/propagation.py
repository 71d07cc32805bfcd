"""The iterative propagation algorithm (paper Algorithm 1, §5).

Given a tweet's current retweeters ``D`` (probability pinned at 1), the
sharing probability of every other user,

.. math::  p(u, t) = \\frac{\\sum_{v \\in F_u} p(v, t) \\cdot sim(u, v)}{|F_u|},

is iterated to fixpoint over the SimGraph.  The implementation is
*frontier-based*: an iteration only recomputes users whose influential set
changed in the previous round — on a sparse graph this touches a tiny
subgraph rather than all of V, which is what makes per-message propagation
fast (§6.3 reports 38ms/message at paper scale).  A round computes
every new value from the previous round's values and applies them
together, so the order in which the graph lists a user's influencees
cannot change a result.

Threshold optimization (§5.4): when a user's probability change falls
below the policy's threshold, the value is still updated but is **not
propagated further** — exactly the paper's β / γ(t) semantics.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.simgraph import SimGraph
from repro.core.thresholds import NoThreshold, ThresholdPolicy
from repro.obs import NULL, MetricsRegistry

__all__ = ["PropagationResult", "PropagationEngine"]


class PropagationResult:
    """Outcome of one propagation run.

    ``probabilities`` is sparse: users absent from the map have p = 0.
    ``updates`` counts probability recomputations (the work metric used by
    the threshold ablation); ``converged`` is False when the iteration
    budget ran out first.

    The compiled engine passes its warm state (anything with a
    ``probabilities()`` method) in place of the map, which is then built
    on first read: a caller that works on the state's arrays never pays
    for the dict.  Results compare equal whichever way they were built.
    """

    __slots__ = ("_probabilities", "_state", "iterations", "updates", "converged")

    def __init__(self, probabilities, iterations: int, updates: int, converged: bool):
        if isinstance(probabilities, dict):
            self._probabilities, self._state = probabilities, None
        else:
            self._probabilities, self._state = None, probabilities
        self.iterations = iterations
        self.updates = updates
        self.converged = converged

    @property
    def probabilities(self) -> dict[int, float]:
        if self._probabilities is None:
            self._probabilities = self._state.probabilities()
        return self._probabilities

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropagationResult):
            return NotImplemented
        return (
            self.iterations == other.iterations
            and self.updates == other.updates
            and self.converged == other.converged
            and self.probabilities == other.probabilities
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"PropagationResult(probabilities={self.probabilities!r}, "
            f"iterations={self.iterations}, updates={self.updates}, "
            f"converged={self.converged})"
        )

    def score(self, user: int) -> float:
        """p(user, t), 0.0 when the propagation never reached the user."""
        return self.probabilities.get(user, 0.0)

    def nonseed_scores(self, seeds: Iterable[int]) -> dict[int, float]:
        """Probabilities of users outside ``seeds`` — the recommendees."""
        seed_set = set(seeds)
        return {
            user: p
            for user, p in self.probabilities.items()
            if user not in seed_set
        }


class PropagationEngine:
    """Runs Algorithm 1 over a fixed :class:`SimGraph`.

    Parameters
    ----------
    simgraph:
        The similarity graph to propagate over.
    threshold:
        Propagation-threshold policy (default: none, the exact algorithm).
    tolerance:
        Numerical convergence tolerance: changes below it count as "no
        change" for the stop test (Algorithm 1 line 11 compares floats).
    max_iterations:
        Hard iteration cap; the model provably converges (the system is
        diagonally dominant, §5.3) but a cap guards degenerate inputs.
    metrics:
        Observability registry; the default :data:`repro.obs.NULL`
        records nothing at ~zero cost.  A real registry collects the
        ``propagation`` span (with its ``solve`` fixpoint-loop child),
        run/iteration/update counters, β / γ(t) threshold-skip counts and
        frontier/seed-size histograms.
    """

    def __init__(
        self,
        simgraph: SimGraph,
        threshold: ThresholdPolicy | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
        metrics: MetricsRegistry | None = None,
    ):
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {max_iterations}"
            )
        self.simgraph = simgraph
        self.threshold = threshold if threshold is not None else NoThreshold()
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.metrics = metrics if metrics is not None else NULL
        self._last_state: dict[int, float] | None = None
        self._last_states: list[dict[int, float]] = []

    def take_state(self) -> dict[int, float] | None:
        """Warm state of the most recent :meth:`propagate`.

        For this engine that is simply the fixpoint probability dict;
        the CSR engine returns compiled arrays instead.  Both feed the
        next run's ``initial=`` — the uniform warm-cache contract.
        """
        return self._last_state

    def take_states(self) -> list[dict[int, float]]:
        """Per-task warm states of the most recent :meth:`propagate_many`."""
        return self._last_states

    def propagate_many(
        self,
        seed_sets: Sequence[Iterable[int]],
        popularities: Sequence[int | None] | None = None,
        initials: Sequence[Mapping[int, float] | None] | None = None,
    ) -> list[PropagationResult]:
        """Propagate a batch of independent tasks (sequentially here).

        Both engines run a batch as a loop over their one fixpoint, so
        call sites release a scheduler flush through one invocation on
        either backend and each task costs what a lone ``propagate``
        would.
        """
        if popularities is None:
            popularities = [None] * len(seed_sets)
        if initials is None:
            initials = [None] * len(seed_sets)
        if not len(seed_sets) == len(popularities) == len(initials):
            raise ValueError(
                f"propagate_many needs one popularity and one initial per "
                f"seed set, got {len(seed_sets)} seed sets, "
                f"{len(popularities)} popularities and {len(initials)} initials"
            )
        results = [
            self.propagate(seeds, popularity=popularity, initial=initial)
            for seeds, popularity, initial in zip(
                seed_sets, popularities, initials
            )
        ]
        self._last_states = [r.probabilities for r in results]
        return results

    def propagate(
        self,
        seeds: Iterable[int],
        popularity: int | None = None,
        initial: Mapping[int, float] | None = None,
    ) -> PropagationResult:
        """Compute p(·, t) given the retweeters ``seeds`` of tweet t.

        ``popularity`` feeds the threshold policy (defaults to the seed
        count, i.e. the tweet's current retweet count).  ``initial`` warm
        -starts non-seed probabilities from a previous run of the same
        tweet — the incremental path used when a new retweet arrives.
        """
        with self.metrics.span("propagation"):
            return self._propagate(seeds, popularity, initial)

    def _propagate(
        self,
        seeds: Iterable[int],
        popularity: int | None,
        initial: Mapping[int, float] | None,
    ) -> PropagationResult:
        metrics = self.metrics
        seed_set = {s for s in seeds if s is not None}
        if popularity is None:
            popularity = len(seed_set)
        beta = self.threshold.threshold_for(popularity)

        graph = self.simgraph
        probabilities: dict[int, float] = {}
        if initial:
            probabilities.update(
                (u, p) for u, p in initial.items() if u not in seed_set and p > 0.0
            )
        for seed in seed_set:
            probabilities[seed] = 1.0

        # Users whose value changed last round; their *influencees* are the
        # only candidates whose Def. 4.2 sum can change this round.  With a
        # warm start the old fixpoint is already consistent everywhere
        # except at the *newly pinned* seeds, so only those enter the
        # initial frontier — the incremental path that makes re-propagating
        # a tweet after each additional retweet cheap.
        if initial:
            new_seeds = {s for s in seed_set if initial.get(s, 0.0) != 1.0}
            frontier: set[int] = {s for s in new_seeds if s in graph}
        else:
            frontier = {s for s in seed_set if s in graph}
        # Users whose change once fell below the threshold stop propagating
        # "for any following iteration" (§5.4) — they stay muted even if a
        # later update pushes their delta back above β.
        muted: set[int] = set()
        iterations = 0
        updates = 0
        converged = True
        frontier_hist = metrics.histogram("propagation.frontier")
        with metrics.span("solve"):
            while frontier:
                if iterations >= self.max_iterations:
                    converged = False
                    break
                iterations += 1
                frontier_hist.observe(len(frontier))
                dirty: set[int] = set()
                for changed in frontier:
                    dirty.update(
                        u for u in graph.influenced(changed) if u not in seed_set
                    )
                if not dirty:
                    break
                new_values: dict[int, float] = {}
                next_frontier: set[int] = set()
                for user in dirty:
                    influencers = graph.influencers(user)
                    total = sum(
                        probabilities.get(v, 0.0) * sim for v, sim in influencers
                    )
                    new_p = total / len(influencers)
                    old_p = probabilities.get(user, 0.0)
                    delta = abs(new_p - old_p)
                    if delta <= self.tolerance:
                        continue
                    new_values[user] = new_p
                    updates += 1
                    if delta >= beta:
                        if user not in muted:
                            next_frontier.add(user)
                    elif beta > 0.0:
                        muted.add(user)
                probabilities.update(new_values)
                frontier = next_frontier
        metrics.counter("propagation.runs").inc()
        metrics.counter("propagation.iterations").inc(iterations)
        metrics.counter("propagation.updates").inc(updates)
        metrics.counter("propagation.threshold_skips").inc(len(muted))
        if not converged:
            metrics.counter("propagation.non_converged").inc()
        metrics.histogram("propagation.seeds").observe(len(seed_set))
        metrics.histogram("propagation.touched").observe(len(probabilities))
        self._last_state = probabilities
        return PropagationResult(
            probabilities=probabilities,
            iterations=iterations,
            updates=updates,
            converged=converged,
        )
