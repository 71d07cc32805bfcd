"""The Def. 4.1 oracle: SimGraph construction one user at a time, and
the dict-of-dict SimGraph the build once wrote.

For every source ``u`` with a profile: walk the exploration graph
``hops`` levels out (``N2(u)`` at the paper's 2), score every reached
user with the Def. 3.1 inverted-index walk
(:func:`~repro.core.similarity.similarities_from`), keep the pairs with
``sim(u, w) >= tau`` and, under a row cap, the strongest
``max_influencers`` by (score, user id).  This is the construction as
the paper states it, in plain dicts; :class:`SimGraphBuilder` computes
the same edges for chunks of users through sparse products, and the
differential suites pin it against :func:`oracle_build`
(``tests/test_backend_differential.py`` first of all).

The library's :class:`SimGraph` is arrays from the build on.  Until it
was, the build wrote every kept edge into a dict adjacency
(:class:`DictSimGraph`, :func:`dict_build`) that consumers compiled
back into arrays (:func:`from_simgraph`), and snapshots had a JSONL
writer (:func:`save_v1`).  Those stay here as oracles: the property at
the end requires the array build, crossfold, *SimGraph updated* and a
v1 load to equal the dict path's compile (for the load: of the dict
path's own v1 read, :func:`load_v1`) array for array, with the same
``simgraph.*`` metrics.

Suites that start from an existing SimGraph (delta maintenance, the
offline pipeline) take it from either :data:`BUILDS`: ``"reference"``
is this oracle, ``"vectorized"`` the builder.

The first tests below pin the oracle itself to the definition, pair by
pair, through the pairwise :func:`~repro.core.similarity.similarity` and
a breadth-first k-hop walk.
"""

from __future__ import annotations

import json
import time
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.persistence import load_simgraph
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import DEFAULT_TAU, SimGraph, SimGraphBuilder
from repro.core.similarity import similarities_from, similarity
from repro.core.simmatrix import (
    SimilarityMatrix,
    masked_gram_edges,
    reachability_matrix,
)
from repro.core.update import crossfold, update_weights
from repro.graph.followgraph import FollowGraph
from repro.obs import MetricsRegistry
from repro.synth import SynthConfig, generate_dataset
from repro.utils.topk import top_k_items
from tests.test_graph_oracle import (
    DiGraph,
    digraph_of,
    follow_graph_of,
    k_hop_neighborhood,
    to_digraph,
)

#: Who built a SimGraph a suite starts from (see module docstring).
BUILDS = ("reference", "vectorized")


# ----------------------------------------------------------------------
# The dict SimGraph and its compile
# ----------------------------------------------------------------------
class DictSimGraph:
    """The similarity graph as a dict-of-dict :class:`DiGraph`: the
    form the build produced before it emitted arrays, with the query
    face of :class:`SimGraph`."""

    def __init__(self, graph: DiGraph, tau: float):
        self.graph = graph
        self.tau = tau

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def __contains__(self, user: int) -> bool:
        return user in self.graph

    def users(self):
        return self.graph.nodes()

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        if user not in self.graph:
            return ()
        return tuple(self.graph.out_edges(user))

    def influenced(self, user: int) -> tuple[int, ...]:
        if user not in self.graph:
            return ()
        return tuple(self.graph.predecessors(user))

    def to_digraph(self) -> DiGraph:
        return self.graph

    def compile(self) -> SimGraph:
        """The array :class:`SimGraph` of this graph."""
        return from_simgraph(self)


def from_simgraph(simgraph) -> SimGraph:
    """Compile ``simgraph``'s dict adjacency (one pass over its nodes
    and edges): the splice of all of its rows into an empty graph —
    nodes in the adjacency's order, each row in its edge order."""
    graph = to_digraph(simgraph)
    nodes = np.fromiter(graph.nodes(), dtype=np.int64)
    rows = [graph.out_row(u) for u in nodes.tolist()]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    size = int(lengths.sum())
    none = np.empty(0, dtype=np.int64)
    empty = SimGraph(
        none, np.zeros(1, dtype=np.int64), none, none.astype(float), simgraph.tau
    )
    return empty.splice(
        nodes,
        lengths,
        np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=size),
        np.fromiter(
            chain.from_iterable(row.values() for row in rows),
            dtype=np.float64,
            count=size,
        ),
        appended=nodes,
    )


def simgraph_of(graph: DiGraph, tau: float) -> SimGraph:
    """The array :class:`SimGraph` of ``graph``, in its node and edge
    order, through :meth:`SimGraph.from_edges`."""
    edges = list(graph.edges())
    sources, targets, weights = zip(*edges) if edges else ((), (), ())
    return SimGraph.from_edges(
        sources, targets, weights, tau, nodes=list(graph.nodes())
    )


def save_v1(simgraph, path):
    """Write ``simgraph`` as a format-1 snapshot (the JSONL edge dump
    ``load_simgraph`` still reads): a header line, then one
    ``[source, target, weight]`` line per edge in adjacency order."""
    graph = to_digraph(simgraph)
    isolated = [
        node
        for node in graph.nodes()
        if graph.out_degree(node) == 0 and graph.in_degree(node) == 0
    ]
    header = {
        "format": 1,
        "tau": simgraph.tau,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "isolated": sorted(isolated),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for u, v, w in graph.edges():
            f.write(json.dumps([u, v, w]) + "\n")
    return path


def load_v1(path) -> DictSimGraph:
    """Read a format-1 snapshot into a dict adjacency, as the dict
    SimGraph's loader did: the header's isolated nodes, then each edge
    line in file order.  Node order is first appearance in the file, so
    it can differ from the order of the graph :func:`save_v1` wrote (a
    target is numbered before a source whose row comes later)."""
    graph = DiGraph()
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        graph.add_nodes(header["isolated"])
        for line in f:
            u, v, w = json.loads(line)
            graph.add_edge(u, v, weight=float(w))
    return DictSimGraph(graph, tau=float(header["tau"]))


# ----------------------------------------------------------------------
# The dict build
# ----------------------------------------------------------------------
def edges_from_masked_gram(matrix, chunk, row_idx, masked, tau, max_influencers):
    """:func:`masked_gram_edges` as rows: ``(chunk[j], {influencer:
    sim})`` in edge order, for every source left with an edge."""
    local, influencers, sims = masked_gram_edges(
        matrix, row_idx, masked, tau, max_influencers
    )
    bounds = np.searchsorted(local, np.arange(len(chunk) + 1)).tolist()
    influencers, sims = influencers.tolist(), sims.tolist()
    return [
        (u, dict(zip(influencers[lo:hi], sims[lo:hi])))
        for u, lo, hi in zip(chunk, bounds, bounds[1:])
        if lo < hi
    ]


def dict_build(builder, exploration_graph, profiles, users=None) -> DictSimGraph:
    """``builder.build`` as it ran while it wrote a dict: the same
    chunked scoring, each source's kept row added edge by edge."""
    metrics = builder.metrics
    graph = follow_graph_of(exploration_graph)
    sources = list(users) if users is not None else list(graph.nodes())
    result = DiGraph()
    with metrics.span("simgraph.build"):
        metrics.counter("simgraph.sources").inc(len(sources))
        eligible = list(dict.fromkeys(
            u for u in sources if u in graph and profiles.has_profile(u)
        ))
        rows = []
        if eligible:
            with metrics.span("simgraph.candidate_masks"):
                matrix = SimilarityMatrix(profiles, extra_users=graph.nodes())
                columns = matrix.positions(graph.ids)
            chunks = [
                eligible[start : start + builder.chunk_size]
                for start in range(0, len(eligible), builder.chunk_size)
            ]
            metrics.counter("simgraph.chunks").inc(len(chunks))
            timings = metrics.histogram("simgraph.chunk_seconds", timing=True)
            with metrics.span("simgraph.score_chunks"):
                for chunk in chunks:
                    started = time.perf_counter()
                    reach = reachability_matrix(
                        graph, builder.hops, matrix, chunk, columns
                    )
                    row_idx = np.asarray(
                        [matrix.position(u) for u in chunk], dtype=np.int64
                    )
                    masked = matrix.gram_rows(row_idx).multiply(reach).tocsr()
                    metrics.counter("simgraph.pairs_scored").inc(int(masked.nnz))
                    rows.extend(edges_from_masked_gram(
                        matrix, chunk, row_idx, masked, builder.tau,
                        builder.max_influencers,
                    ))
                    timings.observe(time.perf_counter() - started)
        edges_kept = metrics.counter("simgraph.edges_kept")
        out_degree = metrics.histogram("simgraph.out_degree")
        for u, kept in rows:
            edges_kept.inc(len(kept))
            out_degree.observe(len(kept))
            for w, score in kept.items():
                result.add_edge(u, w, weight=score)
    return DictSimGraph(result, tau=builder.tau)


# ----------------------------------------------------------------------
# The Def. 4.1 oracle
# ----------------------------------------------------------------------
def oracle_edges_for_user(
    user: int,
    exploration_graph,
    profiles: RetweetProfiles,
    tau: float = DEFAULT_TAU,
    hops: int = 2,
    max_influencers: int | None = None,
) -> dict[int, float]:
    """``user``'s out-row under Def. 4.1, in inverted-index walk order."""
    if user not in exploration_graph or not profiles.has_profile(user):
        return {}
    candidates = k_hop_neighborhood(exploration_graph, user, hops)
    scores = similarities_from(profiles, user, candidates=candidates)
    kept = {w: s for w, s in scores.items() if s >= tau}
    if max_influencers is not None and len(kept) > max_influencers:
        kept = dict(top_k_items(kept, max_influencers))
    return kept


def oracle_build(
    exploration_graph,
    profiles: RetweetProfiles,
    tau: float = DEFAULT_TAU,
    hops: int = 2,
    max_influencers: int | None = None,
    users=None,
) -> DictSimGraph:
    """The SimGraph of ``users`` (default: every node), row by row,
    walking ``exploration_graph`` as dicts."""
    if isinstance(exploration_graph, FollowGraph):
        exploration_graph = digraph_of(exploration_graph)
    sources = exploration_graph.nodes() if users is None else users
    graph = DiGraph()
    for u in list(sources):
        row = oracle_edges_for_user(
            u, exploration_graph, profiles, tau, hops, max_influencers
        )
        for w, score in row.items():
            graph.add_edge(u, w, weight=score)
    return DictSimGraph(graph, tau=tau)


def build_with(
    origin: str, exploration_graph, profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """``builder``'s SimGraph, computed by the oracle or by the builder."""
    if origin == "reference":
        return oracle_build(
            exploration_graph, profiles, tau=builder.tau, hops=builder.hops,
            max_influencers=builder.max_influencers,
        ).compile()
    return builder.build(exploration_graph, profiles)


# ----------------------------------------------------------------------
# The oracle against the definition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset(SynthConfig(n_users=90, n_communities=3, seed=5))
    return dataset.follow_graph, RetweetProfiles(dataset.retweets())


@pytest.mark.parametrize("hops", [1, 2])
def test_rows_are_every_close_enough_user_within_reach(corpus, hops):
    """Edge ``u -> w`` exactly when ``w`` is within ``hops`` follow steps
    of ``u`` and the pairwise Def. 3.1 score reaches ``tau``."""
    graph, profiles = corpus
    tau = 0.002
    simgraph = oracle_build(graph, profiles, tau=tau, hops=hops)
    assert simgraph.edge_count > 0
    for u in graph.nodes():
        expected = {
            w: similarity(profiles, u, w)
            for w in k_hop_neighborhood(graph, u, hops)
        }
        expected = {w: s for w, s in expected.items() if s >= tau}
        row = dict(simgraph.influencers(u))
        assert row.keys() == expected.keys(), u
        for w, score in row.items():
            assert score == pytest.approx(expected[w], abs=1e-12)


def test_cap_keeps_the_strongest_by_score_then_id(corpus):
    graph, profiles = corpus
    full = oracle_build(graph, profiles)
    capped = oracle_build(graph, profiles, max_influencers=2)
    for u in graph.nodes():
        row = dict(full.influencers(u))
        strongest = sorted(row, key=lambda w: (row[w], w))[-2:]
        assert sorted(dict(capped.influencers(u))) == sorted(strongest)


def test_sources_restrict_the_rows(corpus):
    graph, profiles = corpus
    users = sorted(profiles.users())[::4]
    restricted = oracle_build(graph, profiles, users=users)
    assert {u for u, _, _ in restricted.graph.edges()} <= set(users)
    full = oracle_build(graph, profiles)
    for u in users:
        assert dict(restricted.influencers(u)) == dict(full.influencers(u))


# ----------------------------------------------------------------------
# The array SimGraph against the dict one
# ----------------------------------------------------------------------
def assert_same_arrays(got: SimGraph, want: SimGraph) -> None:
    expected = (want.users, want.inf_indptr, want.inf_indices, want.inf_weights)
    for name, a, b in zip(("users", "indptr", "indices", "weights"),
                          got.arrays(), expected):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 30), max_size=5),
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
        unique=True,
    ),
)
def test_from_edges_equals_a_dict_fed_the_same_edges(nodes, edges):
    """Property: for edges in any order (a source's edges need not be
    contiguous, as in a hand-written v1 file), ``from_edges`` numbers
    and lays out nodes and rows as a dict adjacency fed the nodes and
    then the edges one at a time."""
    graph = DiGraph()
    graph.add_nodes(nodes)
    weights = [1.0 / (1 + k) for k in range(len(edges))]
    for (u, v), w in zip(edges, weights):
        graph.add_edge(u, v, weight=w)
    sources = [u for u, _ in edges]
    targets = [v for _, v in edges]
    built = SimGraph.from_edges(sources, targets, weights, 0.01, nodes=nodes)
    assert_same_arrays(built, from_simgraph(DictSimGraph(graph, 0.01)))


def simgraph_metrics(registry: MetricsRegistry) -> dict:
    snapshot = registry.snapshot(deterministic=True)
    return {
        kind: {k: v for k, v in snapshot[kind].items() if k.startswith("simgraph.")}
        for kind in ("counters", "histograms")
    } | {"spans": snapshot["spans"]}


@st.composite
def build_world(draw):
    """A follow graph, retweet profiles and a builder's parameters."""
    n = draw(st.integers(2, 14))
    user = st.integers(0, n - 1)
    follows = draw(st.lists(st.tuples(user, user), max_size=4 * n))
    retweets = draw(st.lists(st.tuples(user, st.integers(0, 6)), max_size=4 * n))
    later = draw(st.lists(st.tuples(user, st.integers(0, 8)), max_size=2 * n))
    users = draw(st.none() | st.lists(user, max_size=n))
    params = {
        "tau": draw(st.sampled_from([1e-6, 0.05, 0.15, 0.3])),
        "hops": draw(st.sampled_from([1, 2, 2])),
        "max_influencers": draw(st.sampled_from([None, None, 1, 2])),
        "chunk_size": draw(st.sampled_from([1, 3, 512])),
    }
    return follows, retweets, later, users, params


@settings(max_examples=150, deadline=None)
@given(build_world())
def test_array_build_equals_the_dict_build_compiled(tmp_path_factory, world):
    """Property: the build, crossfold over its graph, *SimGraph updated*
    and a v1 load equal the dict path's compile on all four arrays, and
    the build records the same ``simgraph.*`` counters, histograms and
    spans."""
    follows, retweets, later, users, params = world
    graph = FollowGraph()
    for u, v in follows:
        if u != v:
            graph.add_edge(u, v)
    profiles = RetweetProfiles()
    for u, t in retweets:
        profiles.add(u, t)

    array_metrics, dict_metrics = MetricsRegistry(), MetricsRegistry()
    array_builder = SimGraphBuilder(**params, metrics=array_metrics)
    dict_builder = SimGraphBuilder(**params, metrics=dict_metrics)
    built = array_builder.build(graph, profiles, users=users)
    oracle = dict_build(dict_builder, graph, profiles, users=users)
    assert_same_arrays(built, from_simgraph(oracle))
    assert simgraph_metrics(array_metrics) == simgraph_metrics(dict_metrics)
    assert_same_arrays(simgraph_of(oracle.graph, oracle.tau), from_simgraph(oracle))

    path = save_v1(oracle, tmp_path_factory.mktemp("v1") / "g.v1")
    assert_same_arrays(load_simgraph(path), from_simgraph(load_v1(path)))
    assert sorted(load_v1(path).graph.edges()) == sorted(oracle.graph.edges())

    for u, t in later:
        profiles.add(u, t)
    folded = crossfold(built, graph, profiles, array_builder)
    assert_same_arrays(
        folded, from_simgraph(dict_build(dict_builder, oracle.graph, profiles))
    )
    assert simgraph_metrics(array_metrics) == simgraph_metrics(dict_metrics)

    reweighed = DiGraph()
    reweighed.add_nodes(oracle.graph.nodes())
    for u, v, _ in oracle.graph.edges():
        reweighed.add_edge(u, v, weight=similarity(profiles, u, v))
    assert_same_arrays(
        update_weights(built, graph, profiles, array_builder),
        from_simgraph(DictSimGraph(reweighed, oracle.tau)),
    )


def test_build_on_a_corpus_equals_the_dict_build_compiled(corpus):
    """The same, once on a synthetic corpus big enough for many chunks."""
    graph, profiles = corpus
    builder = SimGraphBuilder(chunk_size=16)
    built = builder.build(graph, profiles)
    assert built.edge_count > 0
    assert_same_arrays(built, from_simgraph(dict_build(builder, graph, profiles)))
