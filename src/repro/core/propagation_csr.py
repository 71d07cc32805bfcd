"""Compiled propagation backend: Algorithm 1 over flat CSR arrays.

:class:`CSRPropagationEngine` runs the exact frontier fixpoint of
:class:`~repro.core.propagation.PropagationEngine` — same muted
"stop propagating for any following iteration" rule (§5.4), same
tolerance stop test, same :class:`PropagationResult` — but every
iteration is a handful of numpy gathers and segment sums over a
:class:`~repro.core.csr.CSRSimGraph` instead of a Python loop over
dict adjacency.  Per-row influencer order is preserved by the
compilation and the segment sums accumulate in that order (in-order
``bincount``, never pairwise summation), so results are bit-identical
to the reference engine; ``tests/test_propagation_differential.py``
pins both together.

There is one kernel, and a task costs time and memory in proportion to
the users it *touches* (warm entries, seeds, updated users), not to the
graph: probabilities and masks live in engine-owned scratch that each
task resets by index, and ``propagate_many`` runs that kernel per task.
:meth:`CSRPropagationEngine.take_state` returns a :class:`CSRWarmState`
(member positions + values over the compiled index) that feeds the next
``initial=`` without rebuilding a probability dict; the
:class:`~repro.core.warmcache.WarmStateCache` stores these.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping, Sequence

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
    "nonseed_candidates",
]

#: ``prop_backend`` values: ``csr`` (the default everywhere) runs the
#: frontier fixpoint over compiled numpy CSR arrays; ``reference`` is
#: the pure-Python loop of :mod:`repro.core.propagation` — the readable
#: Alg. 1 the differential suites pin ``csr`` against.
PROP_BACKENDS = ("csr", "reference")


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

    def probabilities(self) -> dict[int, float]:
        """The fixpoint as a ``{user: p}`` map (a fresh dict per call)."""
        scores = dict(
            zip(self.graph.users[self.indices].tolist(), self.values.tolist())
        )
        scores.update(self.extra)
        return scores

    def __bool__(self) -> bool:
        # An empty state must behave like an empty ``initial`` mapping
        # (cold frontier), so truthiness follows content.
        return len(self) > 0


def _drop_seeds(
    keys: np.ndarray, values: np.ndarray, seed_keys: np.ndarray, min_score: float
) -> np.ndarray:
    """Mask over ascending unique ``keys``: value at or above the floor
    and key not among ``seed_keys`` (any order, members or not)."""
    keep = values >= min_score
    if len(keys) and len(seed_keys):
        at = np.searchsorted(keys, seed_keys)
        at[at == len(keys)] = 0
        keep[at[keys[at] == seed_keys]] = False
    return keep


def nonseed_candidates(
    state: Mapping[int, float] | CSRWarmState,
    seeds: Collection[int],
    min_score: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The recommendees of a fixpoint, as ``(users, scores)`` arrays.

    The one "non-seed, at or above ``min_score``" rule: every member of
    ``state`` (a probability map, or a :class:`CSRWarmState`, which is
    filtered on its arrays without building the map) that is not in
    ``seeds`` — removed by identity, so a non-seed at exactly 1.0 stays
    — and scores at least ``min_score``, ascending by user id.
    """
    if isinstance(state, CSRWarmState):
        index = state.graph.index
        seed_pos = [index[s] for s in seeds if s in index]
        keep = _drop_seeds(
            state.indices, state.values,
            np.array(seed_pos, dtype=np.int64), min_score,
        )
        users = state.graph.users[state.indices[keep]]
        scores = state.values[keep]
        off = [
            (u, p) for u, p in state.extra.items()
            if u not in seeds and p >= min_score
        ]
        if off:
            users = np.concatenate([users, [u for u, _ in off]])
            scores = np.concatenate([scores, [p for _, p in off]])
        order = np.argsort(users)
        return users[order], scores[order]
    count = len(state)
    users = np.fromiter(state.keys(), dtype=np.int64, count=count)
    scores = np.fromiter(state.values(), dtype=np.float64, count=count)
    order = np.argsort(users)
    users, scores = users[order], scores[order]
    keep = _drop_seeds(
        users, scores, np.fromiter(seeds, dtype=np.int64, count=len(seeds)),
        min_score,
    )
    return users[keep], scores[keep]


class CSRPropagationEngine:
    """Algorithm 1 compiled to flat arrays (drop-in for the reference).

    Parameters mirror :class:`~repro.core.propagation.PropagationEngine`
    exactly; ``csr`` optionally injects an already-compiled
    :class:`CSRSimGraph` (e.g. the one a delta rebuild spliced at
    maintenance time) so construction skips recompilation.

    The engine owns three ``n``-sized scratch arrays (probabilities,
    seed mask, mute mask), allocated once and all-zero between tasks: a
    task scatters its seeds and warm entries in, runs, gathers its
    result out and resets exactly the positions it wrote.  One engine
    must therefore not run two tasks at once — it is **single-threaded
    by contract** (the server runs its batches on a one-worker pool).
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
        n = self.csr.node_count
        self._p = np.zeros(n, dtype=np.float64)
        self._seed_mask = np.zeros(n, dtype=bool)
        self._muted = np.zeros(n, dtype=bool)
        self._last_state: CSRWarmState | None = None
        self._last_states: list[CSRWarmState] = []

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
            result, state = self._propagate(seeds, popularity, initial)
        self._last_state = state
        return result

    def propagate_many(
        self,
        seed_sets: Sequence[Iterable[int]],
        popularities: Sequence[int | None] | None = None,
        initials: Sequence[Mapping[int, float] | CSRWarmState | None]
        | None = None,
    ) -> list[PropagationResult]:
        """Propagate a batch of independent tasks, one after another.

        Task ``i`` produces exactly the result ``propagate(seed_sets[i],
        popularities[i], initials[i])`` would, and counters and
        histograms record the same totals as that sequence of single
        calls (span *counts* differ: one batch = one ``propagation``
        span).  A batch costs what its tasks cost — each pays for the
        users it touches, never for ``n`` — so batching amortizes the
        caller's dispatch and decoding, not the fixpoint.
        """
        tasks = len(seed_sets)
        if popularities is None:
            popularities = [None] * tasks
        if initials is None:
            initials = [None] * tasks
        if not tasks == len(popularities) == len(initials):
            raise ValueError(
                f"propagate_many needs one popularity and one initial per "
                f"seed set, got {tasks} seed sets, {len(popularities)} "
                f"popularities and {len(initials)} initials"
            )
        if tasks == 0:
            self._last_states = []
            return []
        with self.metrics.span("propagation"):
            pairs = [
                self._propagate(*task)
                for task in zip(seed_sets, popularities, initials)
            ]
        self._last_states = [state for _, state in pairs]
        return [result for result, _ in pairs]

    def take_state(self) -> CSRWarmState | None:
        """Compiled warm state of the most recent :meth:`propagate`."""
        return self._last_state

    def take_states(self) -> list[CSRWarmState]:
        """Per-task warm states of the most recent :meth:`propagate_many`."""
        return self._last_states

    def _load_warm(self, initial, seed_set):
        """Decode ``initial`` into its positive in-graph ``(positions,
        values)`` and its positive non-seed off-graph entries — the
        reference's ``p > 0`` load filter (seeds are re-pinned later)."""
        csr = self.csr
        if isinstance(initial, CSRWarmState):
            if initial.graph is not csr:
                raise ValueError(
                    "warm state was compiled against a different "
                    "CSRSimGraph; cold-start or pass a mapping instead"
                )
            warm_idx, warm_val, off = initial.indices, initial.values, initial.extra
        else:
            index = csr.index
            inside = {index[u]: v for u, v in initial.items() if u in index}
            off = {u: v for u, v in initial.items() if u not in index}
            warm_idx = np.fromiter(inside, dtype=np.int64, count=len(inside))
            warm_val = np.fromiter(
                inside.values(), dtype=np.float64, count=len(inside)
            )
        positive = warm_val > 0.0
        off_graph = {
            u: v for u, v in off.items() if u not in seed_set and v > 0.0
        }
        return warm_idx[positive], warm_val[positive], off_graph

    def _propagate(self, seeds, popularity, initial):
        """One task over the engine's scratch: ``(result, warm state)``."""
        metrics = self.metrics
        csr = self.csr
        seed_set = {s for s in seeds if s is not None}
        if popularity is None:
            popularity = len(seed_set)
        beta = self.threshold.threshold_for(popularity)
        index = csr.index
        seed_pos: list[int] = []
        off_seeds: list[int] = []
        for s in seed_set:
            i = index.get(s)
            if i is None:
                off_seeds.append(s)
            else:
                seed_pos.append(i)
        seed_idx = np.array(seed_pos, dtype=np.int64)
        extra: dict[int, float] = {}
        p, seed_mask, muted = self._p, self._seed_mask, self._muted
        # Every position written below is listed here first, so the
        # ``finally`` can restore the scratch whatever raised.
        written = [seed_idx]
        iterations = updates = 0
        converged = True
        frontier_hist = metrics.histogram("propagation.frontier")
        try:
            if initial:
                warm_idx, warm_val, extra = self._load_warm(initial, seed_set)
                written.append(warm_idx)
                p[warm_idx] = warm_val
                # Warm start: the old fixpoint is consistent everywhere
                # except at newly pinned seeds (reference: initial.get(s)
                # != 1.0), so only those enter the initial frontier.
                frontier = seed_idx[p[seed_idx] != 1.0]
            else:
                frontier = seed_idx
            p[seed_idx] = 1.0
            seed_mask[seed_idx] = True
            with metrics.span("solve"):
                while frontier.size:
                    if iterations >= self.max_iterations:
                        converged = False
                        break
                    iterations += 1
                    frontier_hist.observe(int(frontier.size))
                    flat, _, _ = gather_ranges(csr.out_indptr, frontier)
                    dirty = np.unique(csr.out_indices[flat])
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
                    flat, _, lengths = gather_ranges(csr.inf_indptr, dirty)
                    sums = np.bincount(
                        np.repeat(np.arange(dirty.size), lengths),
                        weights=csr.inf_weights[flat] * p[csr.inf_indices[flat]],
                        minlength=dirty.size,
                    )
                    new_p = sums / lengths
                    delta = np.abs(new_p - p[dirty])
                    changed = delta > self.tolerance
                    upd = dirty[changed]
                    written.append(upd)
                    p[upd] = new_p[changed]
                    updates += int(np.count_nonzero(changed))
                    passing = dirty[changed & (delta >= beta)]
                    frontier = passing[~muted[passing]]
                    if beta > 0.0:
                        muted[dirty[changed & (delta < beta)]] = True
            # Membership: warm entries, seeds and every updated user.
            idx = np.unique(np.concatenate(written))
            values = p[idx]
            skips = int(np.count_nonzero(muted[idx])) if beta > 0.0 else 0
        finally:
            touched = np.concatenate(written)
            p[touched] = 0.0
            muted[touched] = False
            seed_mask[seed_idx] = False
        extra.update((s, 1.0) for s in off_seeds)
        metrics.counter("propagation.runs").inc()
        metrics.counter("propagation.iterations").inc(iterations)
        metrics.counter("propagation.updates").inc(updates)
        metrics.counter("propagation.threshold_skips").inc(skips)
        if not converged:
            metrics.counter("propagation.non_converged").inc()
        metrics.histogram("propagation.seeds").observe(len(seed_set))
        state = CSRWarmState(csr, idx, values, extra)
        metrics.histogram("propagation.touched").observe(len(state))
        return PropagationResult(state, iterations, updates, converged), state


def make_propagation_engine(
    simgraph: SimGraph,
    prop_backend: str = "csr",
    threshold: ThresholdPolicy | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    metrics: MetricsRegistry | None = None,
    csr: CSRSimGraph | None = None,
) -> PropagationEngine | CSRPropagationEngine:
    """Construct the propagation engine for ``prop_backend``.

    ``csr`` (meaningful for the ``csr`` backend only) reuses an
    already-compiled structure, e.g. a memory-mapped snapshot's
    zero-copy one or the splice a delta rebuild produced.
    """
    shared = dict(
        threshold=threshold,
        tolerance=tolerance,
        max_iterations=max_iterations,
        metrics=metrics,
    )
    if prop_backend == "reference":
        return PropagationEngine(simgraph, **shared)
    if prop_backend == "csr":
        return CSRPropagationEngine(simgraph, csr=csr, **shared)
    raise ValueError(
        f"unknown propagation backend {prop_backend!r}; "
        f"available: {', '.join(PROP_BACKENDS)}"
    )
