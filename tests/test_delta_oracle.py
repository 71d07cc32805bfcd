"""The dict surgery delta maintenance once ran, kept as its oracle.

:func:`repro.core.delta.apply_delta` works on arrays: the plan's pairs
are two sorted id arrays, the old rows are gathered slices of the
compiled graph, the fringe surgery is key lookups, and the splice takes
arrays.  The same run used to be written with Python dicts and sets — a
``needed`` dict of sets, old rows read as ``{influencer: weight}``
dicts, a loop over each dirty user's attention set editing row dicts in
place.  That code is :func:`oracle_region` and
:func:`oracle_apply_delta` below (its splice input converted to arrays,
the only form the splice takes), and the tests pin the array path to
it: the refreshed graph's ``users``, ``indptr``, ``indices`` and
``weights`` equal byte for byte, and so do the plan and every report
count — over random follow graphs, profiles and deltas: weights-only
and topology-changing ones, node removal, node append (from an old
graph that predates retweets the profiles already hold, or an arbitrary
one) and a row cap.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core import RetweetProfiles, SimGraphBuilder
from repro.core.csr import gather_ranges
from repro.core.delta import affected_region, apply_delta
from repro.core.simmatrix import (
    DEFAULT_CHUNK_SIZE,
    SimilarityMatrix,
    reachability_matrix,
)
from repro.data import temporal_split
from repro.graph.followgraph import FollowGraph
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import edges_from_masked_gram, simgraph_of

_NO_IDS = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def oracle_region(profiles, graph, extra_sources=(), hops=2):
    """``(core, fringe, needed)``: the plan as sets and a dict of sets."""
    dirty_users = profiles.dirty_users
    core: set[int] = set(dirty_users)
    core.update(extra_sources)
    for tweet in profiles.dirty_tweets:
        core.update(profiles.retweeters(tweet))
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
    return core, frozenset().union(*needed.values()), needed


def oracle_core_state(core, graph, profiles, builder, needed):
    """Core rows as dicts and fringe scores as ``{w: {u: sim}}``."""
    eligible = [u for u in core if u in graph and profiles.has_profile(u)]
    rows: dict[int, dict[int, float]] = {}
    sym: dict[int, dict[int, float]] = {}
    pairs = 0
    if not eligible:
        return rows, sym, pairs
    matrix = SimilarityMatrix.around(profiles, eligible)
    columns = matrix.positions(graph.ids)
    for start in range(0, len(eligible), DEFAULT_CHUNK_SIZE):
        chunk = eligible[start : start + DEFAULT_CHUNK_SIZE]
        row_idx, _ = matrix.positions(np.asarray(chunk, dtype=np.int64))
        gram = matrix.gram_rows(row_idx)
        reach = reachability_matrix(graph, builder.hops, matrix, chunk, columns)
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
        found = [np.fromiter(needed.get(u, ()), dtype=np.int64) for u in chunk]
        owner = np.repeat(np.arange(len(chunk)), [len(ids) for ids in found])
        cols, keep = matrix.positions(np.concatenate([_NO_IDS, *found]))
        wanted = sparse.csr_matrix(
            (np.ones(int(keep.sum())), (owner[keep], cols[keep])),
            shape=(len(chunk), matrix.user_count),
        )
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


def compiled_rows(compiled, users):
    """``{user: {influencer: similarity}}`` of the compiled ``users``."""
    index = compiled.index
    at = np.array(sorted({index[u] for u in users if u in index}), dtype=np.int64)
    flat, lengths = gather_ranges(compiled.inf_indptr, at)
    targets = iter(compiled.users[compiled.inf_indices[flat]].tolist())
    weights = iter(compiled.inf_weights[flat].tolist())
    return {
        user: dict(zip(islice(targets, length), islice(weights, length)))
        for user, length in zip(compiled.users[at].tolist(), lengths.tolist())
    }


def oracle_apply_delta(old, graph, profiles, builder, extra_sources=()):
    """The dict surgery: ``(compiled, report, plan)``, the report a dict
    of counts and sorted id lists (``None`` for an empty delta)."""
    core, fringe, needed = oracle_region(
        profiles, graph, extra_sources, builder.hops
    )
    plan = {"core": sorted(core), "fringe": sorted(fringe), "needed": needed}
    if not core:
        return None, None, plan
    if builder.max_influencers is not None and fringe:
        core |= fringe
        needed = {}
        fringe = frozenset()
    core_sorted = sorted(core)
    compiled = old
    tau = builder.tau
    rows, sym, pairs_rescored = oracle_core_state(
        core_sorted, graph, profiles, builder, needed
    )
    attention: dict[int, set[int]] = {}
    for w in core_sorted:
        wanted = needed.get(w)
        if wanted:
            near = (sym.get(w) or {}).keys() & wanted
            near |= wanted.intersection(compiled.influenced(w))
            attention[w] = near
    before = compiled_rows(compiled, chain(core_sorted, *attention.values()))
    written: dict[int, dict[int, float]] = {}
    appended: dict[int, None] = {}

    def create(*nodes):
        for node in nodes:
            if node not in compiled.index:
                appended.setdefault(node)

    changed: set[int] = set()
    topology_changed = False
    maybe_isolated: set[int] = set()
    for u in core_sorted:
        row = rows.get(u, {})
        old_row = before.get(u, {})
        if row == old_row:
            continue
        changed.add(u)
        if row.keys() != old_row.keys():
            topology_changed = True
            maybe_isolated.update(old_row.keys() - row.keys())
            if not row:
                maybe_isolated.add(u)
            create(u, *(v for v in row if v not in old_row))
        written[u] = row
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
    gained: Counter[int] = Counter()
    for u, row in written.items():
        old_targets = before.get(u, {}).keys()
        gained.update(row.keys() - old_targets)
        gained.subtract(old_targets - row.keys())

    def degree(node):
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
        np.array(list(written), dtype=np.int64),
        np.array([len(row) for row in written.values()], dtype=np.int64),
        np.array([v for row in written.values() for v in row], dtype=np.int64),
        np.array(
            [x for row in written.values() for x in row.values()], dtype=float
        ),
        removed=removed,
        appended=list(appended),
    )
    edges_added = edges_removed = 0
    if topology_changed:
        for u in changed:
            old_targets = before.get(u, {}).keys()
            targets = written.get(u, {}).keys()
            edges_added += len(targets - old_targets)
            edges_removed += len(old_targets - targets)
    report = {
        "core_size": len(core),
        "fringe_size": len(fringe),
        "rows_recomputed": len(core),
        "rows_patched": len(fringe),
        "pairs_rescored": pairs_rescored,
        "pairs_needed": sum(map(len, needed.values())),
        "topology_changed": topology_changed,
        "edges_added": edges_added,
        "edges_removed": edges_removed,
        "changed_users": sorted(changed),
        "affected_users": sorted(core | fringe),
    }
    return spliced, report, plan


# ----------------------------------------------------------------------
# The array path against it
# ----------------------------------------------------------------------
def run_both(old, graph, profiles, builder, extra_sources=()):
    """Plan and apply one delta both ways and assert everything equal;
    returns the array path's ``(refreshed, report)``."""
    plan = affected_region(profiles, graph, extra_sources, hops=builder.hops)
    refreshed, report = apply_delta(old, graph, profiles, builder, plan=plan)
    expected, counts, oracle_plan = oracle_apply_delta(
        old, graph, profiles, builder, extra_sources
    )
    assert plan.core.tolist() == oracle_plan["core"]
    assert plan.fringe.tolist() == oracle_plan["fringe"]
    assert plan.needed == oracle_plan["needed"]
    if expected is None:
        assert refreshed is old and report.noop
        return refreshed, report
    wanted = (
        expected.users, expected.inf_indptr, expected.inf_indices,
        expected.inf_weights,
    )
    for got, want in zip(refreshed.arrays(), wanted):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    for name, value in counts.items():
        actual = getattr(report, name)
        if isinstance(actual, np.ndarray):
            assert actual.dtype == np.int64, name
            actual = actual.tolist()
        assert actual == value, name
    return refreshed, report


def extra_sources_of(graph: FollowGraph) -> list[int]:
    """The service's extra sources: new follows' sources and their
    followers."""
    fresh = graph.new_sources()
    _, followers = graph.reach(fresh, 1, reverse=True)
    return graph.ids[np.union1d(fresh, followers)].tolist()


@st.composite
def delta_world(draw):
    """A follow graph, a history, an old SimGraph and a delta.

    The old graph is the builder's over the history (``built``), the
    builder's over part of it (``stale``: the profiles hold retweets the
    graph does not, so fringe pairs can gain edges and create nodes), or
    arbitrary weighted edges (``random``).  The delta adds retweets (by
    new users, of new tweets) and follows.
    """
    n = draw(st.integers(3, 16))
    tweets = draw(st.integers(2, 8))
    user, any_user = st.integers(0, n - 1), st.integers(0, n + 2)
    tweet, any_tweet = st.integers(0, tweets - 1), st.integers(0, tweets + 1)
    follows = draw(st.lists(st.tuples(user, user), max_size=4 * n))
    history = draw(st.lists(st.tuples(user, tweet), max_size=4 * n))
    kind = draw(st.sampled_from(["built", "stale", "random"]))
    held = draw(st.lists(st.tuples(user, tweet), max_size=2 * n))
    edges = draw(
        st.lists(
            st.tuples(any_user, any_user, st.floats(0.001, 0.9)), max_size=3 * n
        )
    )
    fresh = draw(st.lists(st.tuples(any_user, any_tweet), max_size=2 * n))
    new_follows = draw(st.lists(st.tuples(any_user, any_user), max_size=n))
    tau = draw(st.sampled_from([1e-6, 0.05, 0.15, 0.3]))
    cap = draw(st.sampled_from([None, None, None, 1, 2]))
    return follows, history, kind, held, edges, fresh, new_follows, tau, cap


def play(world):
    """Set ``world`` up and run its delta both ways."""
    follows, history, kind, held, edges, fresh, new_follows, tau, cap = world
    graph = FollowGraph()
    for u, v in follows:
        if u != v:
            graph.add_edge(u, v)
    profiles = RetweetProfiles()
    for u, t in history:
        profiles.add(u, t)
    builder = SimGraphBuilder(tau=tau, max_influencers=cap)
    if kind == "random":
        arbitrary = DiGraph()
        for u, v, w in edges:
            if u != v:
                arbitrary.add_edge(u, v, weight=w)
        old = simgraph_of(arbitrary, tau=tau)
    else:
        old = builder.build(graph, profiles)
    if kind != "built":
        for u, t in held:
            profiles.add(u, t)
    profiles.mark_clean()
    graph.mark_clean()
    for u, v in new_follows:
        if u != v:
            graph.add_edge(u, v)
    for u, t in fresh:
        profiles.add(u, t)
    return run_both(old, graph, profiles, builder, extra_sources_of(graph))


@settings(max_examples=300, deadline=None)
@given(delta_world())
def test_array_delta_equals_dict_oracle(world):
    """Property: on any follow graph, history, old graph and delta, the
    array path's refreshed arrays, plan and report equal the oracle's."""
    play(world)


# ----------------------------------------------------------------------
# Each kind of delta, by construction
# ----------------------------------------------------------------------
def triangle():
    graph = FollowGraph()
    for u, v in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        graph.add_edge(u, v)
    profiles = RetweetProfiles()
    for user in (1, 2, 3):
        profiles.add(user, 10)
    return graph, profiles


def test_weights_only_delta():
    graph, profiles = triangle()
    builder = SimGraphBuilder(tau=1e-6)
    old = builder.build(graph, profiles)
    profiles.mark_clean()
    profiles.add(1, 99)
    refreshed, report = run_both(old, graph, profiles, builder)
    assert not report.topology_changed and len(report.changed_users)
    assert refreshed.arrays()[0].tobytes() == old.arrays()[0].tobytes()


def test_topology_delta_appends_a_node():
    graph, profiles = triangle()
    builder = SimGraphBuilder(tau=1e-6)
    old = builder.build(graph, profiles)
    profiles.mark_clean()
    graph.mark_clean()
    graph.add_edge(4, 1)
    profiles.add(4, 10)
    refreshed, report = run_both(
        old, graph, profiles, builder, extra_sources_of(graph)
    )
    assert report.topology_changed and report.edges_added
    assert refreshed.node_count == old.node_count + 1


def test_node_removal():
    graph = FollowGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 1)
    profiles = RetweetProfiles()
    profiles.add(1, 10)
    profiles.add(2, 10)
    builder = SimGraphBuilder(tau=0.5)
    old = builder.build(graph, profiles)
    profiles.mark_clean()
    for user in range(3, 8):  # m(10) = 7: the pair falls below tau
        profiles.add(user, 10)
    refreshed, report = run_both(old, graph, profiles, builder)
    assert report.edges_removed == 2
    assert refreshed.node_count == 0 < old.node_count


def test_row_cap_promotes_the_fringe():
    graph, profiles = triangle()
    graph.add_edge(4, 1)
    profiles.add(4, 10)
    builder = SimGraphBuilder(tau=1e-6, max_influencers=1)
    old = builder.build(graph, profiles)
    profiles.mark_clean()
    profiles.add(1, 99)
    _, report = run_both(old, graph, profiles, builder)
    assert report.fringe_size == 0 and report.pairs_needed == 0


def test_fringe_nodes_append_in_the_dict_surgery_set_order():
    """A dirty user (3) followed by two users (8 and 1) the old graph
    does not hold, who share a tweet with it that the old graph predates:
    both fringe pairs gain an edge, creating 8, 3 and 1.  The dict
    surgery visited them in its set's order — 8 before 1, as CPython
    lays out a small-int set of table size 8 — not by id, and the array
    path appends them in that order too."""
    graph = FollowGraph()
    graph.add_edge(8, 3)
    graph.add_edge(1, 3)
    profiles = RetweetProfiles()
    builder = SimGraphBuilder(tau=1e-6)
    old = builder.build(graph, profiles)
    for user in (3, 8, 1):
        profiles.add(user, 10)
    profiles.mark_clean()
    profiles.add(3, 11)
    refreshed, report = run_both(old, graph, profiles, builder)
    assert report.edges_added == 2
    assert refreshed.arrays()[0].tolist() == [8, 3, 1]


@pytest.mark.parametrize("kind", ["built", "stale"])
def test_synthetic_stream_slices(kind):
    """Larger worlds: a synthetic corpus whose held-out stream arrives
    in slices, each absorbed as a delta of the last refreshed graph."""
    dataset = generate_dataset(SynthConfig(n_users=300, n_communities=4, seed=11))
    split = temporal_split(dataset)
    graph = dataset.follow_graph.copy()
    half = len(split.train) // 2
    builder = SimGraphBuilder(tau=0.001)
    seen = split.train if kind == "built" else split.train[:half]
    old = builder.build(graph, RetweetProfiles(seen))
    profiles = RetweetProfiles(split.train)
    profiles.mark_clean()
    for start in range(0, 240, 60):
        for event in split.test[start : start + 60]:
            profiles.add(event.user, event.tweet)
        old, _ = run_both(old, graph, profiles, builder)
        profiles.mark_clean()
