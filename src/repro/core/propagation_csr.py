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

A warm state is a fixpoint *plus the seeds it was pinned with*, so the
next task of the same tweet pays for the seeds it adds, not for the ones
it carries: only ``seed_set - state.seeds`` is looked up, and when none
of those is a node of the graph the fixpoint cannot move — the state is
re-emitted with its arrays (and its candidate arrays) shared.
"""

from __future__ import annotations

from types import MappingProxyType
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
    """A propagation fixpoint in compiled form, with the seeds it was
    pinned with.

    ``indices``/``values`` hold the result membership over the compiled
    user index of ``graph``; ``extra`` holds the (rare) members outside
    the similarity graph — seeds and carried warm entries the graph
    never saw.  Passing one of these as ``initial=`` is exactly
    equivalent to passing the corresponding ``result.probabilities``
    dict, minus the dict round-trip.

    ``seeds`` / ``seed_idx`` are what the engine adds to the states it
    emits: the seed set of the task and the compiled positions of the
    seeds inside the graph.  They assert that every seed is a member at
    exactly 1.0, which lets the next task of the tweet look up only the
    seeds it *adds* (and re-emit this fixpoint untouched when none of
    them is in the graph).  A hand-built state leaves them ``None`` and
    is decoded entry by entry like a mapping.

    A state never changes: its arrays are read-only and ``extra`` is a
    read-only view, so the state re-emitted from it can share all three.
    """

    __slots__ = (
        "graph", "indices", "values", "extra", "seeds", "seed_idx",
        "_positive", "_candidates",
    )

    def __init__(
        self,
        graph: CSRSimGraph,
        indices: np.ndarray,
        values: np.ndarray,
        extra: Mapping[int, float],
        seeds: frozenset[int] | None = None,
        seed_idx: np.ndarray | None = None,
    ):
        self.graph = graph
        self.indices = _read_only(indices)
        self.values = _read_only(values)
        self.extra = (
            extra if isinstance(extra, MappingProxyType)
            else MappingProxyType(extra)
        )
        self.seeds = seeds
        self.seed_idx = None if seed_idx is None else _read_only(seed_idx)
        self._positive: bool | None = None
        #: ``(min_score, users, scores)`` of the last
        #: :func:`nonseed_candidates` call over this state's own seeds.
        self._candidates: tuple[float, np.ndarray, np.ndarray] | None = None

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

    def all_positive(self) -> bool:
        """Does every entry pass the warm load's ``p > 0`` filter?"""
        if self._positive is None:
            self._positive = bool(
                (not len(self.values) or self.values.min() > 0.0)
                and min(self.extra.values(), default=1.0) > 0.0
            )
        return self._positive

    def reemit(self, seeds: frozenset[int], off_seeds: list[int]) -> "CSRWarmState":
        """This fixpoint pinned with ``seeds`` = its own plus
        ``off_seeds``, none of which the graph holds: same arrays."""
        extra = self.extra
        if off_seeds:
            extra = {**extra, **dict.fromkeys(off_seeds, 1.0)}
        state = CSRWarmState(
            self.graph, self.indices, self.values, extra, seeds, self.seed_idx
        )
        state._positive = self._positive
        if len(self.extra) == len(self.seeds) - len(self.seed_idx):
            # Nothing was off-graph but seeds, so the new seeds were not
            # candidates and the candidates are the same.
            state._candidates = self._candidates
        return state

    def on(self, graph: CSRSimGraph) -> "CSRWarmState":
        """This fixpoint over ``graph``, a compiled graph that gives every
        node the position this state's graph gives it (the result of a
        delta that changed weights only): same arrays, same seeds."""
        state = CSRWarmState(
            graph, self.indices, self.values, self.extra, self.seeds,
            self.seed_idx,
        )
        state._positive = self._positive
        state._candidates = self._candidates
        return state


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when already read-only, else a read-only view."""
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-d integer array: sort, then keep
    each element that differs from its left neighbour (numpy's hash
    path costs 7-15x this at the sizes a task touches)."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


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

    Asked about the seeds a :class:`CSRWarmState` was pinned with (the
    serving path), the answer uses the seed positions the state already
    holds and is kept on the state — the arrays come back read-only.
    """
    if isinstance(state, CSRWarmState):
        own = isinstance(seeds, (set, frozenset)) and seeds == state.seeds
        if own:
            cached = state._candidates
            if cached is not None and cached[0] == min_score:
                return cached[1], cached[2]
            seed_pos = state.seed_idx
        else:
            index = state.graph.index
            seed_pos = np.array(
                [index[s] for s in seeds if s in index], dtype=np.int64
            )
        keep = _drop_seeds(state.indices, state.values, seed_pos, min_score)
        users = state.graph.users[state.indices[keep]]
        scores = state.values[keep]
        if not own or len(state.extra) > len(seeds) - len(seed_pos):
            off = [
                (u, p) for u, p in state.extra.items()
                if u not in seeds and p >= min_score
            ]
            if off:
                users = np.concatenate([users, [u for u, _ in off]])
                scores = np.concatenate([scores, [p for _, p in off]])
        order = np.argsort(users)
        users, scores = users[order], scores[order]
        if own:
            users.flags.writeable = scores.flags.writeable = False
            state._candidates = (min_score, users, scores)
        return users, scores
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
        #: The registry the per-task metric handles were looked up in.
        self._bound: MetricsRegistry | None = None

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

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Look the per-task metric handles up once per registry (on the
        first task, which is when the reference engine registers them)."""
        self._bound = metrics
        self._frontier_hist = metrics.histogram("propagation.frontier")
        self._seeds_hist = metrics.histogram("propagation.seeds")
        self._touched_hist = metrics.histogram("propagation.touched")
        self._runs = metrics.counter("propagation.runs")
        self._iterations = metrics.counter("propagation.iterations")
        self._updates = metrics.counter("propagation.updates")
        self._threshold_skips = metrics.counter("propagation.threshold_skips")

    def _load_warm(self, initial, seed_set):
        """Decode ``initial`` into its positive in-graph ``(positions,
        values)`` and its positive non-seed off-graph entries — the
        reference's ``p > 0`` load filter (seeds are re-pinned later)."""
        if isinstance(initial, CSRWarmState):
            warm_idx, warm_val, off = initial.indices, initial.values, initial.extra
        else:
            index = self.csr.index
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
        seed_set = frozenset(seeds)
        if None in seed_set:
            seed_set -= {None}
        if popularity is None:
            popularity = len(seed_set)
        beta = self.threshold.threshold_for(popularity)
        # The fixpoint this task extends, when it knows the seeds it is
        # pinned with and the task only adds to them: every one of those
        # is a member at 1.0 already, so only the added seeds are new.
        pinned = None
        if initial and isinstance(initial, CSRWarmState):
            if initial.graph is not csr:
                raise ValueError(
                    "warm state was compiled against a different "
                    "CSRSimGraph; cold-start or pass a mapping instead"
                )
            if (
                initial.seeds is not None
                and initial.seeds <= seed_set
                and initial.all_positive()
            ):
                pinned = initial
        index = csr.index
        new_pos: list[int] = []
        off_seeds: list[int] = []
        for s in seed_set if pinned is None else seed_set - pinned.seeds:
            i = index.get(s)
            if i is None:
                off_seeds.append(s)
            else:
                new_pos.append(i)
        if self._bound is not metrics:
            self._bind_metrics(metrics)
        if pinned is not None and not new_pos:
            # No new seed is in the graph, so the warm frontier (seeds
            # whose carried value != 1.0, in the graph) is empty, the
            # loop below would not run once, and loading ``initial`` and
            # gathering it back would rebuild the arrays it holds.
            with metrics.span("solve"):
                pass
            return self._finish(pinned.reemit(seed_set, off_seeds), 0, 0, 0, True)
        new_idx = np.array(new_pos, dtype=np.int64)
        p, seed_mask, muted = self._p, self._seed_mask, self._muted
        # Every position written below is listed here first, so the
        # ``finally`` can restore the scratch whatever raised.
        written = [new_idx]
        seed_idx = new_idx
        idx = None
        iterations = updates = 0
        converged = True
        frontier_hist = self._frontier_hist
        try:
            if pinned is not None:
                extra = dict(pinned.extra)
                seed_idx = np.concatenate((pinned.seed_idx, new_idx))
                written.append(pinned.indices)
                p[pinned.indices] = pinned.values
            elif initial:
                warm_idx, warm_val, extra = self._load_warm(initial, seed_set)
                written.append(warm_idx)
                p[warm_idx] = warm_val
            else:
                extra = {}
            # Warm start: the old fixpoint is consistent everywhere
            # except at newly pinned seeds (reference: initial.get(s)
            # != 1.0), so only those enter the initial frontier.
            frontier = new_idx[p[new_idx] != 1.0] if initial else new_idx
            p[new_idx] = 1.0
            seed_mask[seed_idx] = True
            with metrics.span("solve"):
                while frontier.size:
                    if iterations >= self.max_iterations:
                        converged = False
                        break
                    iterations += 1
                    frontier_hist.observe(int(frontier.size))
                    flat, _ = gather_ranges(csr.out_indptr, frontier)
                    dirty = _sorted_unique(csr.out_indices[flat])
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
                    flat, lengths = gather_ranges(csr.inf_indptr, dirty)
                    sums = np.bincount(
                        np.arange(dirty.size).repeat(lengths),
                        weights=csr.inf_weights[flat] * p[csr.inf_indices[flat]],
                        minlength=dirty.size,
                    )
                    new_p = sums / lengths
                    delta = np.abs(new_p - p[dirty])
                    changed = delta > self.tolerance
                    upd = dirty[changed]
                    written.append(upd)
                    p[upd] = new_p[changed]
                    updates += upd.size
                    passing = dirty[changed & (delta >= beta)]
                    frontier = passing[~muted[passing]]
                    if beta > 0.0:
                        muted[dirty[changed & (delta < beta)]] = True
            # Membership: warm entries, seeds and every updated user.
            idx = _sorted_unique(np.concatenate(written))
            values = p[idx]
            skips = int(np.count_nonzero(muted[idx])) if beta > 0.0 else 0
        finally:
            touched = idx if idx is not None else np.concatenate(written)
            p[touched] = 0.0
            muted[touched] = False
            seed_mask[seed_idx] = False
        extra.update(dict.fromkeys(off_seeds, 1.0))
        # Frozen in place: the state would otherwise take views.
        idx.flags.writeable = values.flags.writeable = False
        seed_idx.flags.writeable = False
        state = CSRWarmState(csr, idx, values, extra, seed_set, seed_idx)
        return self._finish(state, iterations, updates, skips, converged)

    def _finish(self, state, iterations, updates, skips, converged):
        """Record one finished task; its ``(result, warm state)``."""
        self._runs.inc()
        self._iterations.inc(iterations)
        self._updates.inc(updates)
        self._threshold_skips.inc(skips)
        if not converged:
            self.metrics.counter("propagation.non_converged").inc()
        self._seeds_hist.observe(len(state.seeds))
        self._touched_hist.observe(len(state))
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
