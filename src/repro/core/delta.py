"""Delta-driven SimGraph maintenance (paper §6.3 at service scale).

The §6.3 strategies in :mod:`repro.core.update` all rescore similarity
for *every* user on every maintenance run, even when only a handful of
retweets arrived in the window.  This module bounds the work to the
pairs that can actually change.

Definition 3.1 makes the dependency structure explicit::

    sim(u, v) = sum_{i in L_u ∩ L_v} 1/log(1 + m(i))  /  |L_u ∪ L_v|

so ``sim(u, v)`` moves only when

* ``L_u`` or ``L_v`` changed — ``u`` or ``v`` is a *dirty user*; or
* ``m(i)`` changed for some shared tweet ``i`` — and then both ``u``
  and ``v`` are retweeters of that *dirty tweet*.

Hence the **core** of the affected region is ``dirty users ∪
retweeters(dirty tweets)`` (plus any sources whose exploration
neighbourhood changed, e.g. new follow edges): every changed pair has at
least one endpoint there, and pairs between two non-core users are
bit-for-bit unchanged.  Core users get their whole out-row rebuilt.  A
non-core user ``u`` can still gain, lose or re-weigh edges *toward* the
core — but only toward its **dirty users**, and only for candidates in
its exploration neighbourhood.  Take a core user ``w`` that is core
merely as a co-retweeter of a dirty tweet (or as an extra source):

* ``L_u`` and ``L_w`` are unchanged — neither is a dirty user;
* every tweet they share has its old ``m(i)`` — a shared *dirty* tweet
  would make ``u`` one of its retweeters, hence core;
* ``u``'s exploration neighbourhood is unchanged — else it would be an
  extra source, hence core.

So ``sim(u, w)`` and ``u``'s candidate set cannot have moved.  The
**fringe** is therefore the ``hops``-hop in-neighbourhood of the *dirty
users*, and each fringe row is patched on exactly its affected
candidates.  Everything else is carried over untouched.

The whole run works on arrays, the matrix view of the graph (ten Thij et
al., PAPERS.md): the plan's (dirty core user, fringe user) pairs are two
aligned sorted id arrays, the old rows it compares and patches are
gathered slices of the old :class:`~repro.core.simgraph.SimGraph`'s CSR
arrays, the fringe surgery is a handful of key lookups over the
attention pairs, and :meth:`~repro.core.simgraph.SimGraph.splice` takes
the changed rows as arrays and block-copies the rest into the refreshed
graph — no dict SimGraph, no row dict, no per-pair Python object is
built.

Fringe pair scores are computed from the core side (``sim`` is
symmetric), so the whole run scores the core users' rows over the
bounded walks of the core and dirty users, not every *graph* user's row
— the crossfold-beats-from-scratch bet of Figure 16, taken to its
limit.  The walks read the follow graph's CSR in bulk
(:meth:`~repro.graph.followgraph.FollowGraph.reach`: one sparse product
per hop for all sources together).  Scoring a pair from the other side
can reorder the float accumulation, so patched weights may differ from
a from-scratch build by last-ulp round-off (the differential suite pins
them within 1e-12; edge sets are identical).

Every stage is sized by the region: the incidence is built from the
inverted index over the core's own tweets
(:meth:`~repro.core.simmatrix.SimilarityMatrix.around`), core rows come
from the chunked Gram of the full build times a candidate mask, and
fringe scores from that same chunk Gram times the mask of the needed
pairs — only the needed pairs that share a tweet are ever scored.

**Edge-order contract.**  The refreshed arrays equal those of the dict
surgery this module once ran (kept as the oracle in
``tests/test_delta_oracle.py``):

* a recomputed core row lists its edges in the emission order of the
  full build's chunk scorer (:func:`~repro.core.simmatrix.
  masked_gram_edges`: scipy's first-touch order out of the sparse
  product, then its non-canonical elementwise product — *not* id
  order), unless its edge set and weights equal its old row's, which
  then stays as it was;
* a patched fringe row keeps its surviving edges at their positions,
  re-weighed in place, and appends its new edges by ascending core id;
* surviving nodes keep their positions, a node left without an edge
  drops out, and new nodes append in the order they first end an edge:
  core rows by ascending id (the row's user, then its new targets in
  row order), then the fringe's new edges by ascending core id.

The SimGraph's CSR preserves row order, the propagation kernel's segment
sums depend on it, and so does the end-to-end ledger's delivery digest:
never sort a Gram here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse

from repro.core.csr import gather_ranges, lookup, sorted_unique
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.core.simmatrix import (
    DEFAULT_CHUNK_SIZE,
    SimilarityMatrix,
    masked_gram_edges,
    reachability_matrix,
)
from repro.graph.followgraph import FollowGraph
from repro.obs import MetricsRegistry

__all__ = ["DeltaPlan", "DeltaReport", "affected_region", "apply_delta"]

_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class DeltaPlan:
    """The affected region of one maintenance run.

    Every set of users is a sorted ``int64`` id array.

    Attributes
    ----------
    core:
        Dirty users ∪ retweeters of weight-changed tweets ∪ extra
        sources (users whose exploration neighbourhood changed).  Their
        out-rows are rebuilt from scratch.
    fringe:
        Users outside the core that can reach a *dirty* user within the
        exploration radius — the only other rows that can change (module
        docstring: a score toward the rest of the core cannot move).
    pair_core / pair_fringe:
        The exact (dirty user, fringe user) pairs patched, as two
        aligned arrays sorted by dirty user, then fringe user.
    dirty_users / dirty_tweets:
        The raw profile-level dirt the plan was derived from.
    hops:
        The exploration radius the pairs were walked with.
    """

    core: np.ndarray
    fringe: np.ndarray
    pair_core: np.ndarray
    pair_fringe: np.ndarray
    dirty_users: frozenset[int]
    dirty_tweets: frozenset[int]
    hops: int = 2

    @property
    def needed(self) -> dict[int, set[int]]:
        """dirty user -> the fringe users that need its score: the
        pairs as a dict of sets (derived on demand; tests read it)."""
        out: dict[int, set[int]] = {}
        for w, u in zip(self.pair_core.tolist(), self.pair_fringe.tolist()):
            out.setdefault(w, set()).add(u)
        return out

    @property
    def candidates(self) -> dict[int, set[int]]:
        """fringe user -> the core users patched on its row (the
        fringe-side orientation of :attr:`needed`)."""
        out: dict[int, set[int]] = {}
        for w, u in zip(self.pair_core.tolist(), self.pair_fringe.tolist()):
            out.setdefault(u, set()).add(w)
        return out

    @property
    def affected(self) -> np.ndarray:
        """Everyone whose row is rebuilt or patched."""
        return sorted_unique(np.concatenate((self.core, self.fringe)))

    @property
    def is_empty(self) -> bool:
        """True when maintenance is a no-op (nothing changed)."""
        return not len(self.core)


@dataclass(frozen=True, eq=False)
class DeltaReport:
    """What one :func:`apply_delta` run actually did.

    Four counts, from scheduled to written (each is also a
    ``maintenance.*`` counter of the same name):

    * ``rows_recomputed`` — core rows rebuilt whole;
    * ``rows_patched`` — fringe rows *scheduled* for surgery (the size
      of the fringe), most of which turn out not to move;
    * ``pairs_needed`` — (fringe, core) pairs the plan asked about,
      ``pairs_rescored`` — pairs that shared a tweet and had a score
      computed (core candidates included);
    * ``len(changed_users)`` (``maintenance.rows_changed``) — rows whose
      edge set or weights really moved (a superset check may rescore a
      pair back to its old value), over ``edges_added`` /
      ``edges_removed`` edges.  This is what the maintenance *cost* the
      graph; the refreshed SimGraph is spliced from exactly these rows.

    ``changed_users`` and ``affected_users`` (core ∪ fringe) are sorted
    ``int64`` id arrays.  ``topology_changed`` is True when any row
    gained or lost an edge — the signal that warm propagation caches
    cannot be scoped-invalidated.
    """

    noop: bool
    core_size: int
    fringe_size: int
    rows_recomputed: int
    rows_patched: int
    pairs_rescored: int
    changed_users: np.ndarray
    affected_users: np.ndarray
    topology_changed: bool
    pairs_needed: int = 0
    edges_added: int = 0
    edges_removed: int = 0

    @classmethod
    def empty(cls) -> "DeltaReport":
        """The report of a run whose plan was empty: nothing touched."""
        return cls(
            noop=True, core_size=0, fringe_size=0, rows_recomputed=0,
            rows_patched=0, pairs_rescored=0, changed_users=_NO_IDS,
            affected_users=_NO_IDS, topology_changed=False,
        )


class _Edges(NamedTuple):
    """Rows as an edge list: edge ``k`` is ``users[k] -> targets[k]``
    with ``weights[k]``; a row's edges are contiguous, in edge order."""

    users: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @classmethod
    def concat(cls, parts: Iterable["_Edges"]) -> "_Edges":
        parts = list(parts)
        if not parts:
            return cls(_NO_IDS, _NO_IDS, np.empty(0, dtype=np.float64))
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def take(self, which: np.ndarray) -> "_Edges":
        return _Edges(*(column[which] for column in self))


def affected_region(
    profiles: RetweetProfiles,
    graph: FollowGraph,
    extra_sources: Iterable[int] = (),
    hops: int = 2,
) -> DeltaPlan:
    """Compute the region a delta maintenance run must rescore.

    ``extra_sources`` are users whose *candidate set* changed even
    though their profile did not — the service passes the sources of
    new follow edges (and their in-neighbours) here; every user whose
    candidate set changed must be among them, or the dirty-only fringe
    rule is unsound.  ``hops`` must match the builder's exploration
    radius.
    """
    dirty_users, dirty_tweets = profiles.dirt()
    core = sorted_unique(
        np.concatenate(
            (
                dirty_users,
                np.fromiter(extra_sources, dtype=np.int64),
                profiles.retweeter_rows(dirty_tweets)[1],
            )
        )
    )
    # Only a dirty user's scores toward non-core users can have moved
    # (module docstring): the rest of the core has no fringe.  u reaches
    # w within `hops` successor-steps iff w is in N_hops(u): walk the
    # predecessor direction from every dirty user at once.
    sources, owner, found = _dirty_reach(graph, dirty_users, hops)
    ids = graph.ids
    outside = np.ones(len(ids), dtype=bool)
    at, held = graph.positions(core)
    outside[at[held]] = False
    keep = outside[found]
    del outside
    # Each source's walk by ascending fringe id: one sort of (source,
    # rank of the found id) keys.
    by_id = np.argsort(ids)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[by_id] = np.arange(len(ids))
    walks = owner[keep] * len(ids) + rank[found[keep]]
    del owner, found, keep, rank
    walks.sort()
    walker, walked = np.divmod(walks, len(ids))
    del walks
    in_fringe = np.zeros(len(ids), dtype=bool)
    in_fringe[walked] = True
    return DeltaPlan(
        core=core,
        fringe=ids[by_id[np.flatnonzero(in_fringe)]],
        pair_core=sources[walker],
        pair_fringe=ids[by_id[walked]],
        dirty_users=frozenset(dirty_users.tolist()),
        dirty_tweets=frozenset(dirty_tweets.tolist()),
        hops=hops,
    )


def _dirty_reach(
    graph: FollowGraph, dirty_users: np.ndarray, hops: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sources, owner, found)``: the dirty users (ascending ids) the
    follow graph holds, and the walk against the follows from them
    (:meth:`~repro.graph.followgraph.FollowGraph.reach`; ``found`` are
    positions).  A source's slice of the walk does not depend on the
    order the sources come in."""
    at, held = graph.positions(dirty_users)
    owner, found = graph.reach(at[held], hops, reverse=True)
    return dirty_users[held], owner, found


def _vectorized_core_state(
    core: np.ndarray,
    exploration_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
    pair_core: np.ndarray,
    pair_fringe: np.ndarray,
) -> tuple[_Edges, _Edges, int]:
    """Core rows and fringe scores from one incidence around the core.

    The incidence holds only what a core score can read
    (:meth:`~repro.core.simmatrix.SimilarityMatrix.around`).  Core users
    are scored in the chunks, and through the op sequence, of the full
    build — ``gram_rows``, times the chunk's rows of the
    reachability matrix, then
    :func:`~repro.core.simmatrix.masked_gram_edges` — so each row
    keeps the edge order a from-scratch build gives it.  The same chunk
    Gram times the mask of the needed pairs yields the fringe scores.

    Returns ``(rows, scores, pairs)``: the core users' new rows (users
    ascending; a user without an edge has no row), the needed pairs
    that share a tweet as edges dirty user -> fringe user weighted by
    their score (dirty users ascending, each in the chunk Gram's
    emission order), and the number of pairs scored.
    """
    eligible = [
        u
        for u in core.tolist()
        if u in exploration_graph and profiles.has_profile(u)
    ]
    rows: list[_Edges] = []
    scores: list[_Edges] = []
    pairs = 0
    if eligible:
        matrix = SimilarityMatrix.around(profiles, eligible)
        columns = matrix.positions(exploration_graph.ids)
    for start in range(0, len(eligible), DEFAULT_CHUNK_SIZE):
        chunk = eligible[start : start + DEFAULT_CHUNK_SIZE]
        ids = np.asarray(chunk, dtype=np.int64)
        row_idx, _ = matrix.positions(ids)
        gram = matrix.gram_rows(row_idx)
        reach = reachability_matrix(
            exploration_graph, builder.hops, matrix, chunk, columns
        )
        masked = gram.multiply(reach).tocsr()
        pairs += int(masked.nnz)
        local, influencers, sims = masked_gram_edges(
            matrix, row_idx, masked, builder.tau, builder.max_influencers
        )
        rows.append(_Edges(ids[local], influencers, sims))
        lo, hi = np.searchsorted(pair_core, [chunk[0], chunk[-1] + 1])
        if lo == hi:
            continue
        owner, mine = lookup(ids, pair_core[lo:hi], np.arange(len(ids)))
        cols, known = matrix.positions(pair_fringe[lo:hi])
        keep = mine & known
        # Columns ascend within a row (a dirty user's fringe ids do):
        # the canonical form the full build's mask rows have, which the
        # elementwise product's emission order depends on.
        wanted = sparse.csr_matrix(
            (np.ones(int(keep.sum())), (owner[keep], cols[keep])),
            shape=(len(chunk), matrix.user_count),
        )
        hit = gram.multiply(wanted).tocsr()
        pairs += int(hit.nnz)
        local, sims = matrix.sims_from_gram(hit, row_idx)
        scores.append(_Edges(ids[local], matrix.users_array(hit.indices), sims))
    return _Edges.concat(rows), _Edges.concat(scores), pairs


def apply_delta(
    old: SimGraph,
    graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
    plan: DeltaPlan | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[SimGraph, DeltaReport]:
    """Scoped maintenance: rescore only the affected region of ``old``.

    Returns ``(refreshed, report)``.  With an empty delta the *same*
    graph object is returned and the report is a no-op.  Otherwise
    ``refreshed`` is ``old``'s :meth:`~repro.core.simgraph.SimGraph.splice`,
    and its edges are identical to ``builder.build(graph, profiles)``
    — a full from-scratch rebuild — with weights equal up to last-ulp
    float round-off on patched fringe pairs (see module
    docstring); the differential suite pins both properties.  Rows and
    nodes are ordered by the module's edge-order contract.

    With ``max_influencers`` set, a single rescored candidate can evict
    or admit *other* edges of a fringe row, so partial patching is
    unsound — fringe rows are promoted to full recomputation instead.
    """
    metrics = metrics if metrics is not None else builder.metrics
    if plan is None:
        plan = affected_region(profiles, graph, hops=builder.hops)
    metrics.counter("maintenance.dirty_users").inc(len(plan.dirty_users))
    metrics.counter("maintenance.dirty_tweets").inc(len(plan.dirty_tweets))
    if plan.is_empty:
        return old, DeltaReport.empty()

    core, fringe = plan.core, plan.fringe
    pair_core, pair_fringe = plan.pair_core, plan.pair_fringe
    if builder.max_influencers is not None and len(fringe):
        core = sorted_unique(np.concatenate((core, fringe)))
        fringe = pair_core = pair_fringe = _NO_IDS
    metrics.counter("maintenance.affected_users").inc(len(core) + len(fringe))

    with metrics.span("maintenance.delta"):
        # The surgery's working set dies with its frame, so the splice
        # allocates the refreshed arrays beside its input alone.
        edit = _surgery(
            old, graph, profiles, builder, plan, core, fringe,
            pair_core, pair_fringe,
        )
        spliced = old.splice(
            *edit.rows, removed=edit.removed, appended=edit.appended
        )

    report = DeltaReport(
        noop=False,
        core_size=len(core),
        fringe_size=len(fringe),
        rows_recomputed=len(core),
        rows_patched=len(fringe),
        pairs_rescored=edit.pairs_rescored,
        changed_users=edit.changed,
        affected_users=sorted_unique(np.concatenate((core, fringe))),
        topology_changed=edit.topology_changed,
        pairs_needed=len(pair_core),
        edges_added=edit.edges_added,
        edges_removed=edit.edges_removed,
    )
    for name in (
        "rows_recomputed", "rows_patched", "pairs_needed", "pairs_rescored",
        "edges_added", "edges_removed",
    ):
        metrics.counter(f"maintenance.{name}").inc(getattr(report, name))
    metrics.counter("maintenance.rows_changed").inc(len(edit.changed))
    return spliced, report


class _Edit(NamedTuple):
    """What the surgery hands the splice, and what it counted."""

    rows: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    removed: np.ndarray
    appended: np.ndarray
    changed: np.ndarray
    topology_changed: bool
    edges_added: int
    edges_removed: int
    pairs_rescored: int


class _FringeEdit(NamedTuple):
    """The fringe rows that change, and the edges they gain and lose."""

    users: np.ndarray
    lengths: np.ndarray
    rows: _Edges
    added: _Edges
    dropped: _Edges
    created: np.ndarray


def _old_rows(simgraph: SimGraph, users: np.ndarray) -> _Edges:
    """The rows of ``users`` (ids; one the graph does not hold
    has none), in the order given."""
    at, held = simgraph.positions(users)
    flat, lengths = gather_ranges(simgraph.inf_indptr, at[held])
    return _Edges(
        users[held].repeat(lengths),
        simgraph.users[simgraph.inf_indices[flat]],
        simgraph.inf_weights[flat],
    )


def _count(values: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """How often each of ``probes`` occurs in ``values``."""
    values = np.sort(values)
    return np.searchsorted(values, probes, side="right") - np.searchsorted(
        values, probes, side="left"
    )


def _surgery(
    simgraph: SimGraph,
    graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
    plan: DeltaPlan,
    core: np.ndarray,
    fringe: np.ndarray,
    pair_core: np.ndarray,
    pair_fringe: np.ndarray,
) -> _Edit:
    """Rescore the region and work out the rows that change.

    Unaffected pairs are bit-identical under from-scratch, so their
    rows stay: whole-row swaps for core users, per-candidate surgery
    for fringe rows (:func:`_fringe_surgery`).
    """
    new, scores, pairs_rescored = _vectorized_core_state(
        core, graph, profiles, builder, pair_core, pair_fringe
    )
    n = len(core)
    old = _old_rows(simgraph, core)
    old_row = np.searchsorted(core, old.users)
    new_row = np.searchsorted(core, new.users)
    # One key per (row, target) edge, shared by the old and new rows.
    codes = sorted_unique(np.concatenate((old.targets, new.targets)))
    old_key = old_row * len(codes) + np.searchsorted(codes, old.targets)
    new_key = new_row * len(codes) + np.searchsorted(codes, new.targets)
    match, kept = lookup(old_key, new_key)
    added = ~kept
    lost = ~lookup(new_key, old_key)[1]
    moved = kept.copy()
    moved[kept] = new.weights[kept] != old.weights[match[kept]]
    del codes, old_key, new_key, match, kept
    topology = (
        np.bincount(new_row[added], minlength=n)
        + np.bincount(old_row[lost], minlength=n)
    ) > 0
    # A row whose edge set and weights are its old ones keeps its old
    # order; any other is swapped whole.
    swapped = topology | (np.bincount(new_row[moved], minlength=n) > 0)
    new_lengths = np.bincount(new_row, minlength=n)
    rows = np.flatnonzero(swapped)
    written = [(core[rows], new_lengths[rows], new.take(swapped[new_row]))]
    gained, dropped = [new.targets[added]], [old.targets[lost]]
    # Only nodes that *lost* an edge can end up isolated.
    isolated = [dropped[0], core[topology & (new_lengths == 0)]]
    # New nodes append in the order they first end an edge: a core row's
    # user, then its new targets in row order.
    topo_rows = np.flatnonzero(topology)
    ends = np.concatenate((core[topo_rows], new.targets[added]))
    order = np.lexsort(
        (
            np.concatenate((np.full(len(topo_rows), -1), np.flatnonzero(added))),
            np.concatenate((topo_rows, new_row[added])),
        )
    )
    created = [ends[order]]
    topology_changed = bool(topology.any())
    del new, old, old_row, new_row, added, lost, moved

    if len(pair_core):
        edit = _fringe_surgery(
            simgraph, graph, builder.tau, plan, fringe, pair_core,
            pair_fringe, scores,
        )
        written.append((edit.users, edit.lengths, edit.rows))
        gained.append(edit.added.targets)
        dropped.append(edit.dropped.targets)
        isolated += [edit.dropped.users, edit.dropped.targets]
        created.append(edit.created)
        topology_changed |= bool(len(edit.added.users) or len(edit.dropped.users))
        del edit
    del scores

    # A from-scratch build holds exactly the endpoints of kept edges;
    # drop any node the surgery left with no edge at all (an appended
    # node ends an edge, so only old ones can go).
    users = np.concatenate([part[0] for part in written])
    lengths = np.concatenate([part[1] for part in written])
    gained, dropped = np.concatenate(gained), np.concatenate(dropped)
    candidates = sorted_unique(np.concatenate(isolated))
    at, held = simgraph.positions(candidates)
    candidates, at = candidates[held], at[held]
    out_degree = simgraph.inf_counts[at].copy()
    row, rewritten = lookup(users, candidates)
    out_degree[rewritten] = lengths[row[rewritten]]
    degree = (
        out_degree
        + simgraph.out_indptr[at + 1]
        - simgraph.out_indptr[at]
        + _count(gained, candidates)
        - _count(dropped, candidates)
    )
    removed = candidates[degree == 0]
    stays = ~lookup(removed, users)[1]
    edges = _Edges.concat(part[2] for part in written)
    created = np.concatenate(created)
    created = created[~simgraph.positions(created)[1]]
    _, first = sorted_unique(created, return_index=True)
    return _Edit(
        rows=(users[stays], lengths[stays], edges.targets, edges.weights),
        removed=removed,
        appended=created[np.sort(first)],
        changed=sorted_unique(users),
        topology_changed=topology_changed,
        edges_added=len(gained),
        edges_removed=len(dropped),
        pairs_rescored=pairs_rescored,
    )


def _fringe_surgery(
    simgraph: SimGraph,
    graph: FollowGraph,
    tau: float,
    plan: DeltaPlan,
    fringe: np.ndarray,
    pair_core: np.ndarray,
    pair_fringe: np.ndarray,
    scores: _Edges,
) -> _FringeEdit:
    """Patch each fringe row on its pairs toward the dirty users.

    The only (fringe u, dirty w) pairs that can need work either score
    non-zero now or carried an edge before; a pair is keyed by its ranks
    in the plan's core and fringe.  Surviving edges keep their
    positions and new ones append by ascending ``w``.
    """
    core = plan.core
    width = len(fringe)
    needed = _pair_keys(core, fringe, pair_core, pair_fringe)
    scored = _pair_keys(core, fringe, scores.users, scores.targets)
    dirty = sorted_unique(pair_core)
    at, held = simgraph.positions(dirty)
    flat, counts = gather_ranges(simgraph.out_indptr, at[held])
    carried = _pair_keys(
        core,
        fringe,
        dirty[held].repeat(counts),
        simgraph.users[simgraph.out_indices[flat]],
    )
    # ``needed`` ascends: the plan's pairs are sorted.
    carried = carried[lookup(needed, carried, np.arange(len(needed)))[1]]
    del needed, flat
    attention = sorted_unique(np.concatenate((scored, carried)))
    w_rank, u_rank = np.divmod(attention, width)
    match, found = lookup(scored, attention)
    score = np.zeros(len(attention))
    score[found] = scores.weights[match[found]]

    # The old rows of the users paid attention to; ``toward`` are their
    # edges that end at a core user, keyed the same way.
    old = _old_rows(simgraph, fringe[sorted_unique(u_rank)])
    toward = np.flatnonzero(lookup(core, old.targets, np.arange(len(core)))[1])
    old_key = _pair_keys(core, fringe, old.targets[toward], old.users[toward])
    match, has_old = lookup(old_key, attention)
    same = has_old.copy()
    same[has_old] = old.weights[toward[match[has_old]]] == score[has_old]
    kept = score >= tau
    add = kept & ~has_old
    drop = ~kept & has_old
    act = add | drop | (kept & ~same)
    users = fringe[sorted_unique(u_rank[act])]

    # Patched rows: old edges in place (re-weighed, or dropped), then
    # the new ones by ascending w.
    pair, patched = lookup(attention, old_key, np.arange(len(attention)))
    survives = lookup(users, old.users, np.arange(len(users)))[1]
    survives[toward[patched & drop[pair]]] = False
    reweighed = patched & kept[pair]
    old.weights[toward[reweighed]] = score[pair[reweighed]]
    order = np.lexsort((w_rank[add], u_rank[add]))
    added = _Edges(fringe[u_rank[add]], core[w_rank[add]], score[add])
    rows = _Edges.concat((old.take(survives), added.take(order)))
    rows = rows.take(np.argsort(rows.users, kind="stable"))
    return _FringeEdit(
        users=users,
        lengths=_count(rows.users, users),
        rows=rows,
        added=added,
        dropped=_Edges(fringe[u_rank[drop]], core[w_rank[drop]], score[drop]),
        created=_created_by_fringe(
            simgraph, graph, plan, scores, added, w_rank[add]
        ),
    )


def _pair_keys(
    core: np.ndarray, fringe: np.ndarray, w: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The key of each pair (dirty ``w``, fringe ``u``): its ranks in
    ``core`` and ``fringe`` (both ascending), in one int64.  A ``u``
    outside the fringe gets a key no fringe pair has (-1)."""
    w_rank, _ = lookup(core, w, np.arange(len(core)))
    u_rank, inside = lookup(fringe, u, np.arange(len(fringe)))
    return np.where(inside, w_rank * len(fringe) + u_rank, -1)


def _created_by_fringe(
    simgraph: SimGraph,
    graph: FollowGraph,
    plan: DeltaPlan,
    scores: _Edges,
    added: _Edges,
    group: np.ndarray,
) -> np.ndarray:
    """The endpoints of the fringe's new edges (``added``, by dirty user
    ``group`` rank, then fringe id), fringe user first, in the order the
    dict surgery created them.

    That surgery visited a dirty user's pairs in the iteration order of
    a Python set, which CPython lays out by insertion history.  The
    order only shows when one dirty user's new edges create two nodes or
    more; for those few users the set is rebuilt the way it was built.
    """
    position = np.arange(len(group))
    fresh_u = ~simgraph.positions(added.users)[1]
    fresh_w = ~simgraph.positions(added.targets)[1]
    size = int(group.max()) + 1 if len(group) else 0
    edges_of = np.bincount(group, minlength=size)
    nodes_of = np.bincount(group, weights=fresh_u, minlength=size)
    nodes_of += np.bincount(group, weights=fresh_w, minlength=size) > 0
    ambiguous = np.flatnonzero((edges_of >= 2) & (nodes_of >= 2))
    if len(ambiguous):
        sources, owner, found = _dirty_reach(
            graph, np.array(sorted(plan.dirty_users), dtype=np.int64), plan.hops
        )
        core = set(plan.core.tolist())
        for g in ambiguous.tolist():
            w = int(plan.core[g])
            k = int(np.searchsorted(sources, w))
            lo, hi = np.searchsorted(owner, [k, k + 1])
            slo, shi = np.searchsorted(scores.users, [w, w + 1])
            visit = _near_order(
                graph.ids[found[lo:hi]].tolist(),
                core,
                scores.targets[slo:shi].tolist(),
                simgraph.influenced(w),
            )
            at = np.flatnonzero(group == g)
            rank = {u: i for i, u in enumerate(visit)}
            position[at] = [rank[u] for u in added.users[at].tolist()]
    order = np.lexsort((position, group))
    return np.column_stack((added.users, added.targets))[order].ravel()


def _near_order(
    reached: list[int], core: set[int], scored: list[int],
    influenced: tuple[int, ...],
) -> list[int]:
    """The set of fringe users the dict surgery paid attention to for
    one dirty user, built by the operations it used, in iteration order:
    its walk minus the core, intersected with the users scored (in the
    chunk Gram's order), united with those it influenced."""
    wanted = set(reached)
    wanted -= core
    near = dict.fromkeys(scored).keys() & wanted
    near |= wanted.intersection(influenced)
    return list(near)
