"""Compiled propagation backend: Algorithm 1 over flat CSR arrays.

:class:`CSRPropagationEngine` runs the exact frontier fixpoint of
:class:`~repro.core.propagation.PropagationEngine` — same muted
"stop propagating for any following iteration" rule (§5.4), same
tolerance stop test, same :class:`PropagationResult` — but every
iteration is a handful of numpy gathers and segment sums over a
:class:`~repro.core.csr.CSRSimGraph` instead of a Python loop over
dict adjacency.  Per-row influencer order is preserved by the
compilation and the segment sums accumulate in that order (in-order
``bincount`` / CSR matvec, never pairwise summation), so results are
bit-identical to the reference engine; the
differential harness (``tests/test_propagation_differential.py``) pins
both paths together.

Two extras the reference engine does not have:

* **warm-state arrays** — :meth:`CSRPropagationEngine.take_state`
  returns a :class:`CSRWarmState` (member positions + values over the
  compiled index) that feeds the next ``initial=`` without ever
  rebuilding a probability dict; the
  :class:`~repro.core.warmcache.WarmStateCache` stores these;
* **batched scoring** — :meth:`CSRPropagationEngine.propagate_many`
  advances a whole batch of released propagation tasks (e.g. a
  :meth:`~repro.core.scheduler.PostponedScheduler.flush`) through the
  fixpoint *jointly*: one sparse product per iteration computes every
  task's dirty set, one more scores them, with per-task β/γ(t)
  thresholds, mute masks and iteration budgets.

Select the backend with ``prop_backend="reference" | "csr" | "auto"`` on
:class:`~repro.core.recommender.SimGraphRecommender`,
:class:`~repro.service.engine.ServiceConfig` or the CLI — mirroring the
existing SimGraph ``backend=`` build knob.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.csr import CSRSimGraph, gather_ranges
from repro.core.propagation import PropagationEngine, PropagationResult
from repro.core.simgraph import SimGraph
from repro.core.thresholds import NoThreshold, ThresholdPolicy
from repro.obs import NULL, MetricsRegistry

__all__ = [
    "PROP_BACKENDS",
    "CSRWarmState",
    "CSRPropagationEngine",
    "make_propagation_engine",
]

#: Available propagation backends: ``reference`` is the pure-Python
#: frontier loop (:mod:`repro.core.propagation`); ``csr`` runs the same
#: fixpoint over compiled numpy CSR arrays; ``auto`` is a name for
#: ``csr``.  The differential suite pins both engines to identical
#: results.
PROP_BACKENDS = ("reference", "csr", "auto")
#: Backend names that stand for another one; every other name is itself.
PROP_ALIASES = {"auto": "csr"}


class CSRWarmState:
    """A propagation fixpoint in compiled form.

    ``indices``/``values`` hold the result membership over the compiled
    user index of ``graph``; ``extra`` holds the (rare) members outside
    the similarity graph — seeds and carried warm entries the graph
    never saw.  Passing one of these as ``initial=`` is exactly
    equivalent to passing the corresponding ``result.probabilities``
    dict, minus the dict round-trip.
    """

    __slots__ = ("graph", "indices", "values", "extra")

    def __init__(
        self,
        graph: CSRSimGraph,
        indices: np.ndarray,
        values: np.ndarray,
        extra: dict[int, float],
    ):
        self.graph = graph
        self.indices = indices
        self.values = values
        self.extra = extra

    def __len__(self) -> int:
        return len(self.indices) + len(self.extra)

    def __bool__(self) -> bool:
        # An empty state must behave like an empty ``initial`` mapping
        # (cold frontier), so truthiness follows content.
        return len(self) > 0


class CSRPropagationEngine:
    """Algorithm 1 compiled to flat arrays (drop-in for the reference).

    Parameters mirror :class:`~repro.core.propagation.PropagationEngine`
    exactly; ``csr`` optionally injects an already-compiled
    :class:`CSRSimGraph` (e.g. one whose weights were patched in place
    at maintenance time) so construction skips recompilation.
    """

    def __init__(
        self,
        simgraph: SimGraph,
        threshold: ThresholdPolicy | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
        metrics: MetricsRegistry | None = None,
        csr: CSRSimGraph | None = None,
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
        self.csr = csr if csr is not None else CSRSimGraph.from_simgraph(simgraph)
        self._last_state: CSRWarmState | None = None
        self._last_states: list[CSRWarmState] = []

    # ------------------------------------------------------------------
    # Single-task path (bit-identical to the reference engine)
    # ------------------------------------------------------------------
    def propagate(
        self,
        seeds: Iterable[int],
        popularity: int | None = None,
        initial: Mapping[int, float] | CSRWarmState | None = None,
    ) -> PropagationResult:
        """Compute p(·, t); see the reference engine for semantics.

        ``initial`` warm-starts from a previous fixpoint of the same
        tweet — either a probability mapping or a :class:`CSRWarmState`
        from :meth:`take_state` (the no-dict incremental path).
        """
        with self.metrics.span("propagation"):
            return self._propagate(seeds, popularity, initial)

    def take_state(self) -> CSRWarmState | None:
        """Compiled warm state of the most recent :meth:`propagate`."""
        return self._last_state

    def take_states(self) -> list[CSRWarmState]:
        """Per-task warm states of the most recent :meth:`propagate_many`."""
        return self._last_states

    def _load_task(self, seeds, popularity, initial):
        """Shared seed/warm-start decoding for both paths."""
        csr = self.csr
        seed_set = {s for s in seeds if s is not None}
        if popularity is None:
            popularity = len(seed_set)
        beta = self.threshold.threshold_for(popularity)
        index = csr.index
        seed_idx = np.fromiter(
            (index[s] for s in seed_set if s in index), dtype=np.int64
        )
        off_seeds = [s for s in seed_set if s not in index]
        n = csr.node_count
        # ``raw`` mirrors ``initial.get(u, 0.0)`` for in-graph users: the
        # value the warm-frontier test reads.  ``p`` only keeps entries
        # that pass the reference's ``p > 0 and not seed`` load filter.
        raw = np.zeros(n, dtype=np.float64)
        off_graph: dict[int, float] = {}
        if initial:
            if isinstance(initial, CSRWarmState):
                if initial.graph is not csr:
                    raise ValueError(
                        "warm state was compiled against a different "
                        "CSRSimGraph; cold-start or pass a mapping instead"
                    )
                raw[initial.indices] = initial.values
                off_items: Iterable[tuple[int, float]] = initial.extra.items()
            else:
                off_items = []
                for u, value in initial.items():
                    i = index.get(u)
                    if i is None:
                        off_items.append((u, value))
                    else:
                        raw[i] = value
            for u, value in off_items:
                if u not in seed_set and value > 0.0:
                    off_graph[u] = value
        seed_mask = np.zeros(n, dtype=bool)
        seed_mask[seed_idx] = True
        member = (raw > 0.0) & ~seed_mask
        p = np.where(member, raw, 0.0)
        p[seed_idx] = 1.0
        if initial:
            # Warm start: the old fixpoint is consistent everywhere
            # except at newly pinned seeds (reference: initial.get(s)
            # != 1.0), so only those enter the initial frontier.
            frontier = seed_idx[raw[seed_idx] != 1.0]
        else:
            frontier = seed_idx
        frontier = np.unique(frontier)
        return (
            seed_set, seed_idx, off_seeds, beta, p, member, seed_mask,
            off_graph, frontier,
        )

    def _finish_task(self, seed_idx, off_seeds, p, member, off_graph):
        """Build the result dict + warm state for one task."""
        csr = self.csr
        member = member.copy()
        member[seed_idx] = True
        idx = np.flatnonzero(member)
        probabilities = dict(
            zip(csr.users[idx].tolist(), p[idx].tolist())
        )
        extra = dict(off_graph)
        for s in off_seeds:
            extra[s] = 1.0
        probabilities.update(extra)
        state = CSRWarmState(csr, idx, p[idx], extra)
        return probabilities, state

    def _propagate(self, seeds, popularity, initial):
        metrics = self.metrics
        csr = self.csr
        (
            seed_set, seed_idx, off_seeds, beta, p, member, seed_mask,
            off_graph, frontier,
        ) = self._load_task(seeds, popularity, initial)
        inf_indptr = csr.inf_indptr
        inf_indices = csr.inf_indices
        inf_weights = csr.inf_weights
        out_indptr = csr.out_indptr
        out_indices = csr.out_indices
        muted = np.zeros(csr.node_count, dtype=bool)
        iterations = 0
        updates = 0
        converged = True
        frontier_hist = metrics.histogram("propagation.frontier")
        with metrics.span("solve"):
            while frontier.size:
                if iterations >= self.max_iterations:
                    converged = False
                    break
                iterations += 1
                frontier_hist.observe(int(frontier.size))
                flat, _, _ = gather_ranges(out_indptr, frontier)
                dirty = np.unique(out_indices[flat])
                if dirty.size:
                    dirty = dirty[~seed_mask[dirty]]
                if dirty.size == 0:
                    break
                # Every dirty user has >= 1 influencer (it reached the
                # dirty set through one), so no segment is empty.  The
                # segment sums use ``bincount``, which accumulates
                # strictly in input order — each dirty user's sum is the
                # same left-to-right sequential sum the reference runs,
                # bit for bit (``np.add.reduceat`` switches to pairwise
                # summation on long rows and drifts by ULPs).
                flat, _, lengths = gather_ranges(inf_indptr, dirty)
                sums = np.bincount(
                    np.repeat(np.arange(dirty.size), lengths),
                    weights=inf_weights[flat] * p[inf_indices[flat]],
                    minlength=dirty.size,
                )
                new_p = sums / lengths
                delta = np.abs(new_p - p[dirty])
                changed = delta > self.tolerance
                upd = dirty[changed]
                p[upd] = new_p[changed]
                member[upd] = True
                updates += int(np.count_nonzero(changed))
                passing = dirty[changed & (delta >= beta)]
                frontier = passing[~muted[passing]]
                if beta > 0.0:
                    muted[dirty[changed & (delta < beta)]] = True
        probabilities, state = self._finish_task(
            seed_idx, off_seeds, p, member, off_graph
        )
        self._last_state = state
        metrics.counter("propagation.runs").inc()
        metrics.counter("propagation.iterations").inc(iterations)
        metrics.counter("propagation.updates").inc(updates)
        metrics.counter("propagation.threshold_skips").inc(
            int(np.count_nonzero(muted))
        )
        if not converged:
            metrics.counter("propagation.non_converged").inc()
        metrics.histogram("propagation.seeds").observe(len(seed_set))
        metrics.histogram("propagation.touched").observe(len(probabilities))
        return PropagationResult(
            probabilities=probabilities,
            iterations=iterations,
            updates=updates,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def propagate_many(
        self,
        seed_sets: Sequence[Iterable[int]],
        popularities: Sequence[int | None] | None = None,
        initials: Sequence[Mapping[int, float] | CSRWarmState | None]
        | None = None,
    ) -> list[PropagationResult]:
        """Propagate a batch of tasks jointly over the shared arrays.

        Task ``i`` produces exactly the result ``propagate(seed_sets[i],
        popularities[i], initials[i])`` would — per-task thresholds,
        mute masks and iteration budgets are tracked in parallel — but
        each joint iteration advances every still-active task with two
        sparse products instead of per-task Python work.  Counters and
        histograms record the same totals as the equivalent sequence of
        single calls (span *counts* differ: one batch = one span).
        """
        tasks = len(seed_sets)
        if tasks == 0:
            self._last_states = []
            return []
        if popularities is None:
            popularities = [None] * tasks
        if initials is None:
            initials = [None] * tasks
        if tasks == 1:
            result = self.propagate(
                seed_sets[0], popularity=popularities[0], initial=initials[0]
            )
            self._last_states = [self._last_state]
            return [result]
        with self.metrics.span("propagation"):
            return self._propagate_many(seed_sets, popularities, initials)

    def _propagate_many(self, seed_sets, popularities, initials):
        metrics = self.metrics
        csr = self.csr
        n = csr.node_count
        tasks = len(seed_sets)
        seed_set_l, seed_idx_l, off_seeds_l, off_graph_l = [], [], [], []
        betas = np.zeros(tasks, dtype=np.float64)
        p = np.zeros((tasks, n), dtype=np.float64)
        member = np.zeros((tasks, n), dtype=bool)
        seed_mask = np.zeros((tasks, n), dtype=bool)
        frontier = np.zeros((tasks, n), dtype=bool)
        for c in range(tasks):
            (
                seed_set, seed_idx, off_seeds, beta, p_c, member_c,
                seed_mask_c, off_graph, frontier_c,
            ) = self._load_task(seed_sets[c], popularities[c], initials[c])
            seed_set_l.append(seed_set)
            seed_idx_l.append(seed_idx)
            off_seeds_l.append(off_seeds)
            off_graph_l.append(off_graph)
            betas[c] = beta
            p[c] = p_c
            member[c] = member_c
            seed_mask[c] = seed_mask_c
            frontier[c, frontier_c] = True
        weights = csr.influencer_matrix()
        pattern = csr.influence_matrix()
        counts = csr.inf_counts.astype(np.float64)
        muted = np.zeros((tasks, n), dtype=bool)
        iterations = np.zeros(tasks, dtype=np.int64)
        updates = np.zeros(tasks, dtype=np.int64)
        converged = np.ones(tasks, dtype=bool)
        active = frontier.any(axis=1)
        frontier_hist = metrics.histogram("propagation.frontier")
        with metrics.span("solve"):
            while True:
                live = np.flatnonzero(active)
                if live.size == 0:
                    break
                over = live[iterations[live] >= self.max_iterations]
                if over.size:
                    converged[over] = False
                    active[over] = False
                    live = live[iterations[live] < self.max_iterations]
                    if live.size == 0:
                        break
                iterations[live] += 1
                for size in frontier[live].sum(axis=1):
                    frontier_hist.observe(int(size))
                # One sparse product marks, for every live task, the
                # users whose Def. 4.2 sum can change this round.
                indicator = frontier[live].astype(np.float64)
                dirty = (pattern @ indicator.T).T > 0
                dirty &= ~seed_mask[live]
                has_dirty = dirty.any(axis=1)
                if not has_dirty.all():
                    done = live[~has_dirty]
                    active[done] = False
                    frontier[done] = False
                    live = live[has_dirty]
                    if live.size == 0:
                        continue
                    dirty = dirty[has_dirty]
                old = p[live]
                sums = (weights @ old.T).T
                # Users without influencers divide by zero here; they can
                # never be dirty, so the masked select below discards the
                # resulting inf/nan lanes.
                with np.errstate(divide="ignore", invalid="ignore"):
                    fresh = sums / counts
                delta = np.where(dirty, np.abs(fresh - old), 0.0)
                changed = dirty & (delta > self.tolerance)
                p[live] = np.where(changed, fresh, old)
                member[live] |= changed
                updates[live] += changed.sum(axis=1)
                col_betas = betas[live, None]
                above = delta >= col_betas
                frontier[live] = changed & above & ~muted[live]
                muted[live] |= changed & ~above & (col_betas > 0.0)
                active[live] = frontier[live].any(axis=1)
        results = []
        states = []
        seeds_hist = metrics.histogram("propagation.seeds")
        touched_hist = metrics.histogram("propagation.touched")
        for c in range(tasks):
            probabilities, state = self._finish_task(
                seed_idx_l[c], off_seeds_l[c], p[c], member[c], off_graph_l[c]
            )
            results.append(
                PropagationResult(
                    probabilities=probabilities,
                    iterations=int(iterations[c]),
                    updates=int(updates[c]),
                    converged=bool(converged[c]),
                )
            )
            states.append(state)
            seeds_hist.observe(len(seed_set_l[c]))
            touched_hist.observe(len(probabilities))
        metrics.counter("propagation.runs").inc(tasks)
        metrics.counter("propagation.iterations").inc(int(iterations.sum()))
        metrics.counter("propagation.updates").inc(int(updates.sum()))
        metrics.counter("propagation.threshold_skips").inc(
            int(np.count_nonzero(muted))
        )
        failed = int(np.count_nonzero(~converged))
        if failed:
            metrics.counter("propagation.non_converged").inc(failed)
        self._last_states = states
        return results


def make_propagation_engine(
    simgraph: SimGraph,
    prop_backend: str = "reference",
    threshold: ThresholdPolicy | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    metrics: MetricsRegistry | None = None,
    csr: CSRSimGraph | None = None,
) -> PropagationEngine | CSRPropagationEngine:
    """Construct the propagation engine for ``prop_backend``.

    ``csr`` (meaningful for the ``csr`` backend only) reuses an
    already-compiled structure, e.g. one patched in place by the
    weights-only maintenance strategy.
    """
    prop_backend = PROP_ALIASES.get(prop_backend, prop_backend)
    if prop_backend == "reference":
        return PropagationEngine(
            simgraph,
            threshold=threshold,
            tolerance=tolerance,
            max_iterations=max_iterations,
            metrics=metrics,
        )
    if prop_backend == "csr":
        return CSRPropagationEngine(
            simgraph,
            threshold=threshold,
            tolerance=tolerance,
            max_iterations=max_iterations,
            metrics=metrics,
            csr=csr,
        )
    raise ValueError(
        f"unknown propagation backend {prop_backend!r}; "
        f"available: {', '.join(PROP_BACKENDS)}"
    )
