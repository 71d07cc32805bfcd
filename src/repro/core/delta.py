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
candidates.  Everything else is carried over untouched, as arrays: the
old rows the run rescores are read from the compiled graph
(:class:`~repro.core.csr.CSRSimGraph`), only the rows that change become
dicts, and :meth:`~repro.core.csr.CSRSimGraph.splice` block-copies the
rest into the refreshed graph — no dict SimGraph is built.

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
fringe scores from that same chunk Gram times the ``needed`` mask —
only needed pairs that share a tweet ever become Python objects.

**Edge-order contract.**  Recomputed rows keep the emission order of the
full build's chunk scorer (:func:`~repro.core.simmatrix._chunk_edges`:
scipy's first-touch order out of the sparse product, then its
non-canonical elementwise product — *not* id order); surviving fringe
edges keep their positions and new ones append.  The compiled CSR
(:class:`~repro.core.csr.CSRSimGraph`) preserves row order, the
propagation kernel's segment sums depend on it, and so does the
end-to-end ledger's delivery digest: never sort a Gram here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np
from scipy import sparse

from repro.core.csr import ArraySimGraph, CSRSimGraph
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.core.simmatrix import (
    DEFAULT_CHUNK_SIZE,
    SimilarityMatrix,
    edges_from_masked_gram,
    reachability_matrix,
)
from repro.graph.digraph import DiGraph
from repro.graph.followgraph import FollowGraph
from repro.obs import MetricsRegistry

__all__ = ["DeltaPlan", "DeltaReport", "affected_region", "apply_delta"]

_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DeltaPlan:
    """The affected region of one maintenance run.

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
    needed:
        dirty user -> the fringe users that need its score; the exact
        (fringe, core) pairs patched, stored core-side because both the
        restricted walks and the fringe surgery consume them per core
        user.
    dirty_users / dirty_tweets:
        The raw profile-level dirt the plan was derived from.
    """

    core: frozenset[int]
    fringe: frozenset[int]
    needed: dict[int, set[int]]
    dirty_users: frozenset[int]
    dirty_tweets: frozenset[int]

    @property
    def candidates(self) -> dict[int, set[int]]:
        """fringe user -> the core users patched on its row.

        The fringe-side orientation of :attr:`needed`, derived on
        demand — the hot maintenance path only ever consumes the
        core-side map.
        """
        out: dict[int, set[int]] = {}
        for w, users in self.needed.items():
            for u in users:
                out.setdefault(u, set()).add(w)
        return out

    @property
    def affected(self) -> frozenset[int]:
        """Everyone whose row is rebuilt or patched."""
        return self.core | self.fringe

    @property
    def is_empty(self) -> bool:
        """True when maintenance is a no-op (nothing changed)."""
        return not self.core


@dataclass(frozen=True)
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
      graph; compiled CSR state is spliced from exactly these rows.

    ``topology_changed`` is True when any row gained or lost an edge —
    the signal that warm propagation caches cannot be
    scoped-invalidated.
    """

    noop: bool
    core_size: int
    fringe_size: int
    rows_recomputed: int
    rows_patched: int
    pairs_rescored: int
    changed_users: frozenset[int]
    affected_users: frozenset[int]
    topology_changed: bool
    pairs_needed: int = 0
    edges_added: int = 0
    edges_removed: int = 0

    @classmethod
    def empty(cls) -> "DeltaReport":
        """The report of a run whose plan was empty: nothing touched."""
        return cls(
            noop=True, core_size=0, fringe_size=0, rows_recomputed=0,
            rows_patched=0, pairs_rescored=0, changed_users=frozenset(),
            affected_users=frozenset(), topology_changed=False,
        )


def affected_region(
    profiles: RetweetProfiles,
    exploration_graph: FollowGraph | DiGraph,
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
    graph = FollowGraph.of(exploration_graph)
    dirty_users = profiles.dirty_users
    dirty_tweets = profiles.dirty_tweets
    core: set[int] = set(dirty_users)
    core.update(extra_sources)
    for tweet in dirty_tweets:
        core.update(profiles.retweeters(tweet))
    # Only a dirty user's scores toward non-core users can have moved
    # (module docstring): the rest of the core has no fringe.  u reaches
    # w within `hops` successor-steps iff w is in N_hops(u): walk the
    # predecessor direction from every dirty user at once.
    sources = [w for w in dirty_users if w in graph]
    at, _ = graph.positions(sources)
    owner, found = graph.reach(at, hops, reverse=True)
    reached = graph.ids[found].tolist()
    bounds = np.searchsorted(owner, np.arange(len(sources) + 1)).tolist()
    needed: dict[int, set[int]] = {}
    for w, lo, hi in zip(sources, bounds, bounds[1:]):
        reaching = set(reached[lo:hi])
        reaching -= core
        if reaching:
            needed[w] = reaching
    return DeltaPlan(
        core=frozenset(core),
        fringe=frozenset().union(*needed.values()),
        needed=needed,
        dirty_users=dirty_users,
        dirty_tweets=dirty_tweets,
    )


def _vectorized_core_state(
    core: list[int],
    exploration_graph: FollowGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
    needed: dict[int, set[int]],
) -> tuple[dict[int, dict[int, float]], dict[int, dict[int, float]], int]:
    """Core rows and fringe scores from one incidence around the core.

    The incidence holds only what a core score can read
    (:meth:`~repro.core.simmatrix.SimilarityMatrix.around`).  Core users
    are scored in the chunks, and through the op sequence, of the full
    build — ``gram_rows``, times the chunk's rows of the
    reachability matrix, then
    :func:`~repro.core.simmatrix.edges_from_masked_gram` — so each row
    keeps the edge order a from-scratch build gives it.  The same chunk
    Gram times the ``needed`` mask yields the fringe scores: only needed
    pairs that share a tweet ever become Python objects.
    """
    eligible = [
        u
        for u in core
        if u in exploration_graph and profiles.has_profile(u)
    ]
    rows: dict[int, dict[int, float]] = {}
    sym: dict[int, dict[int, float]] = {}
    pairs = 0
    if not eligible:
        return rows, sym, pairs
    matrix = SimilarityMatrix.around(profiles, eligible)
    columns = matrix.positions(exploration_graph.ids)
    for start in range(0, len(eligible), DEFAULT_CHUNK_SIZE):
        chunk = eligible[start : start + DEFAULT_CHUNK_SIZE]
        row_idx, _ = matrix.positions(np.asarray(chunk, dtype=np.int64))
        gram = matrix.gram_rows(row_idx)
        reach = reachability_matrix(
            exploration_graph, builder.hops, matrix, chunk, columns
        )
        masked = gram.multiply(reach).tocsr()
        pairs += int(masked.nnz)
        rows.update(
            edges_from_masked_gram(
                matrix, chunk, row_idx, masked, builder.tau,
                builder.max_influencers,
            )
        )
        if needed.keys().isdisjoint(chunk):
            continue
        wanted = _chunk_mask(matrix, chunk, lambda u: needed.get(u, ()))
        hit = gram.multiply(wanted).tocsr()
        pairs += int(hit.nnz)
        _, sims = matrix.sims_from_gram(hit, row_idx)
        users = matrix.users_at(hit.indices)
        scores = sims.tolist()
        bounds = hit.indptr.tolist()
        for j, w in enumerate(chunk):
            lo, hi = bounds[j], bounds[j + 1]
            if lo < hi:
                sym[w] = dict(zip(users[lo:hi], scores[lo:hi]))
    return rows, sym, pairs


def _chunk_mask(matrix, chunk, members):
    """0/1 CSR ``len(chunk) x universe`` marking ``members(u)`` on row
    ``u``, columns ascending (the canonical form the full build's mask
    rows have: the elementwise product's emission order depends on it).
    Members outside the matrix's universe share no tweet with a source
    and are dropped."""
    found = [np.fromiter(members(u), dtype=np.int64) for u in chunk]
    owner = np.repeat(np.arange(len(chunk)), [len(ids) for ids in found])
    cols, keep = matrix.positions(np.concatenate([_NO_IDS, *found]))
    return sparse.csr_matrix(
        (np.ones(int(keep.sum())), (owner[keep], cols[keep])),
        shape=(len(chunk), matrix.user_count),
    )


def apply_delta(
    old: SimGraph,
    exploration_graph: FollowGraph | DiGraph,
    profiles: RetweetProfiles,
    builder: SimGraphBuilder,
    plan: DeltaPlan | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[SimGraph, DeltaReport]:
    """Scoped maintenance: rescore only the affected region of ``old``.

    Returns ``(refreshed, report)``.  With an empty delta the *same*
    graph object is returned and the report is a no-op.  Otherwise
    ``refreshed`` is an :class:`~repro.core.csr.ArraySimGraph` over the
    arrays :meth:`~repro.core.csr.CSRSimGraph.splice` made from the
    compiled ``old`` (a dict-backed ``old`` is compiled first), and its
    edges are identical to ``builder.build(exploration_graph,
    profiles)`` — a full from-scratch rebuild — with weights equal up
    to last-ulp float round-off on patched fringe pairs (see module
    docstring); the differential suite pins both properties.  Nodes
    keep the order the dict graph's edits give them: survivors in
    place, new ones appended as they gain their first edge.

    With ``max_influencers`` set, a single rescored candidate can evict
    or admit *other* edges of a fringe row, so partial patching is
    unsound — fringe rows are promoted to full recomputation instead.
    """
    metrics = metrics if metrics is not None else builder.metrics
    graph = FollowGraph.of(exploration_graph)
    if plan is None:
        plan = affected_region(profiles, graph, hops=builder.hops)
    metrics.counter("maintenance.dirty_users").inc(len(plan.dirty_users))
    metrics.counter("maintenance.dirty_tweets").inc(len(plan.dirty_tweets))
    if plan.is_empty:
        return old, DeltaReport.empty()

    core = set(plan.core)
    needed = plan.needed
    fringe = plan.fringe
    if builder.max_influencers is not None and plan.fringe:
        core |= plan.fringe
        needed = {}
        fringe = frozenset()
    core_sorted = sorted(core)
    metrics.counter("maintenance.affected_users").inc(
        len(core) + len(fringe)
    )
    compiled = (
        old.csr()
        if isinstance(old, ArraySimGraph)
        else CSRSimGraph.from_simgraph(old)
    )

    tau = builder.tau
    with metrics.span("maintenance.delta"):
        rows, sym, pairs_rescored = _vectorized_core_state(
            core_sorted, graph, profiles, builder, needed
        )

        # The only (fringe u, core w) pairs that can need work either
        # score non-zero now (u appears in w's walk) or carried an edge
        # before — both found by C-level set intersection, skipping the
        # no-op majority of candidate pairs.
        attention: dict[int, set[int]] = {}
        for w in core_sorted:
            wanted = needed.get(w)
            if wanted:
                near = (sym.get(w) or {}).keys() & wanted
                near |= wanted.intersection(compiled.influenced(w))
                attention[w] = near
        # Old rows are read from the arrays once; only the rows that
        # change become dicts of their own (``written``).  Nodes the
        # refreshed graph gains are appended in the order a dict graph
        # creates them: when they first end an edge.
        before = compiled.rows(chain(core_sorted, *attention.values()))
        written: dict[int, dict[int, float]] = {}
        appended: dict[int, None] = {}

        def create(*nodes: int) -> None:
            for node in nodes:
                if node not in compiled.index:
                    appended.setdefault(node)

        changed: set[int] = set()
        topology_changed = False
        maybe_isolated: set[int] = set()
        # Unaffected pairs are bit-identical under from-scratch, so their
        # rows stay: whole-row swaps for core users, per-candidate
        # surgery for fringe rows.
        for u in core_sorted:
            row = rows.get(u, {})
            old_row = before.get(u, {})
            if row == old_row:
                continue
            changed.add(u)
            if row.keys() != old_row.keys():
                topology_changed = True
                # Only nodes that *lost* an edge can end up isolated.
                maybe_isolated.update(old_row.keys() - row.keys())
                if not row:
                    maybe_isolated.add(u)
                create(u, *(v for v in row if v not in old_row))
            written[u] = row
        # For a fixed w every fringe row is touched at most once, so
        # surviving edges keep their positions and new edges append in
        # ascending-w outer order.
        for w, near in attention.items():
            scores = sym.get(w) or {}
            for u in near:
                score = scores.get(u, 0.0)
                row = written.get(u, before.get(u, {}))
                old_weight = row.get(w)
                kept = score >= tau
                if (old_weight == score) if kept else (old_weight is None):
                    continue
                if u not in written:
                    row = written[u] = dict(row)
                changed.add(u)
                if kept:
                    if old_weight is None:
                        create(u, w)
                        topology_changed = True
                    row[w] = score
                else:
                    del row[w]
                    topology_changed = True
                    maybe_isolated.update((u, w))
        # A from-scratch build holds exactly the endpoints of kept
        # edges; drop any node the surgery left with no edge at all (an
        # appended node ends an edge, so only compiled ones can go).
        gained: Counter[int] = Counter()
        for u, row in written.items():
            old_targets = before.get(u, {}).keys()
            gained.update(row.keys() - old_targets)
            gained.subtract(old_targets - row.keys())

        def degree(node: int) -> int:
            at = compiled.index[node]
            out = len(written[node]) if node in written else compiled.inf_counts[at]
            return out + len(compiled.influenced(node)) + gained[node]

        removed = [
            node
            for node in sorted(maybe_isolated)
            if node in compiled.index and not degree(node)
        ]
        for node in removed:
            written.pop(node, None)
        spliced = compiled.splice(
            written, removed=removed, appended=list(appended)
        )

    edges_added = edges_removed = 0
    if topology_changed:
        for u in changed:
            old_targets = before.get(u, {}).keys()
            targets = written.get(u, {}).keys()
            if old_targets != targets:  # most changed rows only re-weighed
                edges_added += len(targets - old_targets)
                edges_removed += len(old_targets - targets)
    report = DeltaReport(
        noop=False,
        core_size=len(core),
        fringe_size=len(fringe),
        rows_recomputed=len(core),
        rows_patched=len(fringe),
        pairs_rescored=pairs_rescored,
        changed_users=frozenset(changed),
        affected_users=frozenset(core) | fringe,
        topology_changed=topology_changed,
        pairs_needed=sum(map(len, needed.values())),
        edges_added=edges_added,
        edges_removed=edges_removed,
    )
    for name in (
        "rows_recomputed", "rows_patched", "pairs_needed", "pairs_rescored",
        "edges_added", "edges_removed",
    ):
        metrics.counter(f"maintenance.{name}").inc(getattr(report, name))
    metrics.counter("maintenance.rows_changed").inc(len(changed))
    return ArraySimGraph.from_csr(spliced, old.tau), report
