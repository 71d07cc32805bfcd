"""What the serving state costs: the follow graph, the retweet profiles
and the dataset are arrays, the build and a delta's working set are
arrays, and neither a
delta after a memory-mapped boot nor a from-scratch rebuild nor a
served retweet on either engine builds a dict adjacency — nor do the
offline analyses, which walk the same follow graph."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis import identify_bubbles, sample_active_users
from repro.analysis.homophily import similarity_by_distance
from repro.core import RetweetProfiles, SimGraph, SimGraphBuilder
from repro.core.delta import apply_delta
from repro.core.persistence import save_simgraph
from repro.data import TwitterDataset, compute_dataset_stats
from repro.graph import FollowGraph
from repro.service import RecommendationService
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import follow_pairs
from tests.test_service_snapshot import built_service
from tests.test_simgraph_oracle import dict_build


def test_follow_graph_holds_under_40_bytes_per_follow():
    """20k users and 200k follows, registered one call at a time: the
    service holds at most 40 bytes per follow — two int32 positions per
    edge and direction plus the per-user id index — where a dict row and
    a predecessor set per user cost several times that."""
    rng = np.random.default_rng(7)
    users, follows = 20_000, 200_000
    followers = rng.integers(users, size=follows)
    followees = (followers + rng.integers(1, users, size=follows)) % users
    pairs = list(zip(followers.tolist(), followees.tolist()))
    tracemalloc.start()
    try:
        service = RecommendationService()
        for user in range(users):
            service.add_user(user)
        for follower, followee in pairs:
            service.add_follow(follower, followee)
        assert service.follow_graph.edge_count <= follows  # compacts
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / follows <= 40, held / follows


def test_follow_replay_peaks_no_higher_than_probing_writes():
    """20k users and 200k follows, registered one call at a time and
    then read once: the traced peak per follow stays at or below the
    57.35 B that the writes which probed the node index and appended
    positions at once peaked at (the first read's compaction sets it),
    and the replay alone within 20 B (18.33 B then; follows buffered as
    id pairs without a bound would add 16 B)."""
    rng = np.random.default_rng(7)
    users, follows = 20_000, 200_000
    followers = rng.integers(users, size=follows)
    followees = (followers + rng.integers(1, users, size=follows)) % users
    pairs = list(zip(followers.tolist(), followees.tolist()))
    tracemalloc.start()
    try:
        service = RecommendationService()
        for user in range(users):
            service.add_user(user)
        for follower, followee in pairs:
            service.add_follow(follower, followee)
        _, replay_peak = tracemalloc.get_traced_memory()
        assert service.follow_graph.edge_count <= follows  # compacts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert replay_peak / follows <= 20, replay_peak / follows
    assert peak / follows <= 57.35, peak / follows


@pytest.fixture(scope="module")
def corpus() -> TwitterDataset:
    """A generated corpus: 1,000 users, 40,858 records."""
    return generate_dataset(SynthConfig(n_users=1000, seed=7))


def test_dataset_holds_under_48_bytes_per_record(corpus):
    """A generated corpus (1,000 users, 40,858 records) registered one
    ``add_*`` call at a time: after its first read the dataset holds at
    most 48 bytes per user, follow, tweet and retweet — id, time and
    position columns, the deduplicated CSR indexes and the follow
    graph's id index — beside the caller's entity objects.  The
    dict-of-objects container held 120 bytes per record on top of them."""
    source = corpus
    users = list(source.users.values())
    follows = [(u, v) for u, v in follow_pairs(source.follow_graph)]
    tweets = list(source.tweets.values())
    retweets = source.retweets()
    records = len(users) + len(follows) + len(tweets) + len(retweets)
    tracemalloc.start()
    try:
        dataset = TwitterDataset()
        for user in users:
            dataset.add_user(user)
        for follower, followee in follows:
            dataset.add_follow(follower, followee)
        for tweet in tweets:
            dataset.add_tweet(tweet)
        for retweet in retweets:
            dataset.add_retweet(retweet)
        assert dataset.popularity(tweets[0].id) >= 0  # compacts
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / records <= 48, held / records


def test_absorbed_retweets_hold_under_64_bytes_each():
    """50,000 retweets by 5,000 users of zipf-drawn tweets (30,318
    distinct pairs), absorbed one ``absorb_retweet`` call at a time by a
    service that never rebuilds: the profiles and the known-user lists
    hold at most 64 bytes per retweet — the log's two int64 columns, the
    CSR base both ways and a tail index bounded by a fraction of the
    base, and no known-user list for a tweet never posted.  Dicts of
    sets both ways, dirty sets and a known-user list per absorbed tweet
    held 130 bytes per retweet here (376 at the 100k-user tier)."""
    rng = np.random.default_rng(7)
    retweets = 50_000
    users = rng.integers(5_000, size=retweets)
    tweets = rng.zipf(1.5, size=retweets) % 20_000
    pairs = list(zip(users.tolist(), tweets.tolist()))
    tracemalloc.start()
    try:
        service = RecommendationService()
        before, _ = tracemalloc.get_traced_memory()
        for user, tweet in pairs:
            service.absorb_retweet(user, tweet)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (held - before) / retweets <= 64, (held - before) / retweets
    assert service.profiles.log_end == len(set(pairs))


def test_retweet_replay_peaks_no_higher_than_probing_writes():
    """The corpus above, absorbed one ``absorb_retweet`` call at a time
    and then read once: the traced peak per retweet stays at or below
    the 56.06 B that the writes which probed the tail and the base on
    every call peaked at.  The log as write buffer is resolved when it
    reaches the merge bound, so its raw suffix and the pass over it
    stay within what the tail's sets cost."""
    rng = np.random.default_rng(7)
    retweets = 50_000
    users = rng.integers(5_000, size=retweets)
    tweets = rng.zipf(1.5, size=retweets) % 20_000
    pairs = list(zip(users.tolist(), tweets.tolist()))
    distinct = len(set(pairs))
    tracemalloc.start()
    try:
        service = RecommendationService()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for user, tweet in pairs:
            service.absorb_retweet(user, tweet)
        assert service.profiles.log_end == distinct
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / retweets <= 56.06, (peak - before) / retweets


def test_offline_readers_hold_no_dict_adjacency(corpus):
    """The paper's offline analyses on a generated corpus (1,000 users,
    17,961 follows, a 44,047-edge SimGraph built beforehand): reading
    ``dataset.follow_graph``, the §3 statistics (Table 1, Fig. 1), Table
    2 and the SimGraph's bubbles keep at most 8 bytes per follow once
    they return (4 measured), and peak at 160 (118).  They walk the CSR
    arrays; the peak is the bubble backbone's sort or a block of BFS
    distance rows.  Reading a dict-of-sets copy of the follow graph and
    a dict view of the SimGraph, as they did before, kept 329 bytes per
    follow and peaked at 389."""
    dataset = corpus
    profiles = RetweetProfiles(dataset.retweets())
    users = sample_active_users(dataset, sample_size=50)
    follows = dataset.follow_graph.edge_count  # compacts
    simgraph = SimGraphBuilder(tau=0.001).build(dataset.follow_graph, profiles)
    simgraph.out_indptr  # compiled before tracing
    # ``hop_distances`` imports csgraph on first use: import it before
    # tracing, so that the module's own allocations are not counted.
    import scipy.sparse.csgraph  # noqa: F401

    tracemalloc.start()
    try:
        results = (
            dataset.follow_graph,
            compute_dataset_stats(dataset),
            similarity_by_distance(dataset, profiles, users),
            identify_bubbles(simgraph, seed=0),
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results[1].graph.edge_count == follows
    assert held / follows <= 8, held / follows
    assert peak / follows <= 160, peak / follows
    assert holds_no_dict_adjacency(simgraph)


def holds_no_dict_adjacency(graph: SimGraph) -> bool:
    """Nothing on ``graph`` is a dict but its id index."""
    return not any(
        isinstance(value, dict)
        for name, value in vars(graph).items()
        if name != "index"
    )


def test_delta_after_mmap_boot_keeps_no_dict_graph(tmp_path):
    """On ``csr`` the delta reads and splices arrays: neither the mapped
    graph nor the refreshed one ever materializes its dict adjacency."""
    source = built_service(prop_backend="csr", rebuild_strategy="delta")
    path = save_simgraph(source.simgraph, tmp_path / "g.snap", format=2)
    service = built_service(prop_backend="csr", rebuild_strategy="delta")
    loaded = service.load_snapshot(path, mmap=True)
    service.retweet(user=3, tweet=101, at=700.0)
    service.add_follow(3, 0)
    refreshed = service.rebuild("delta")
    assert refreshed is not loaded
    assert service.simgraph is refreshed
    for graph in (loaded, refreshed):
        assert holds_no_dict_adjacency(graph)
    counters = service.metrics_snapshot()["counters"]
    assert counters["propagation.csr_spliced"] == 1


def test_delta_working_set_is_arrays_per_needed_pair():
    """A dirty user with 20k followers who share nothing with it: 20,009
    needed pairs, no edge added or removed.  ``apply_delta`` (planning
    included) may allocate at its peak 120 bytes per needed pair beyond
    the spliced arrays.  The plan's pairs, the attention keys and the
    old rows it reads are int64 arrays: ~84 bytes per pair, walk
    included.  The dict path (a ``needed`` dict of sets, the pairs as
    Python ints, a fringe frozenset) measured 212-265 bytes per pair."""
    followers = 20_000
    graph, profiles = FollowGraph(), RetweetProfiles()
    for u in range(10):
        for v in range(10):
            if u != v:
                graph.add_edge(u, v)
        profiles.add(u, 1000 + u % 3)
    for follower in range(100, 100 + followers):
        graph.add_edge(follower, 0)
    builder = SimGraphBuilder(tau=1e-6)
    old = builder.build(graph, profiles)
    old.index, old.out_indptr, old.out_indices  # compiled before tracing
    profiles.mark_clean()
    profiles.add(0, 5000)
    assert graph.edge_count  # compacted before tracing
    tracemalloc.start()
    try:
        refreshed, report = apply_delta(old, graph, profiles, builder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.pairs_needed > followers
    assert report.edges_added == report.edges_removed == 0
    spliced = sum(section.nbytes for section in refreshed.arrays())
    assert peak <= 120 * report.pairs_needed + spliced, (
        (peak - spliced) / report.pairs_needed
    )


def test_csr_service_keeps_only_the_compiled_graph():
    """A from-scratch rebuild compiles the built arrays and keeps that
    alone: on ``csr``, and on the reference engine, whose frontier walk
    reads the compiled transpose, after a served retweet too."""
    for prop_backend in ("csr", "reference"):
        service = built_service(prop_backend=prop_backend)
        graph = service.rebuild("from scratch")
        assert service.simgraph is graph
        if prop_backend == "csr":
            assert service._engine.simgraph is graph
        else:
            service.retweet(user=3, tweet=101, at=700.0)
        assert holds_no_dict_adjacency(graph)


def test_build_holds_under_80_bytes_per_kept_edge():
    """A hub every user follows and is followed by, and one tweet they
    all retweet: 600 users, 359,400 kept edges, scored 32 sources per
    chunk so the edges, not a chunk's Gram, set the peak.  The build's
    ``tracemalloc`` peak is 50 bytes per kept edge: chunk edge arrays
    joined into the CSR sections.  Writing each kept edge into a dict
    adjacency instead (``dict_build``, the build before it emitted
    arrays) peaks at 161 bytes per edge, its compile not counted."""
    users = 600
    graph, profiles = FollowGraph(), RetweetProfiles()
    for user in range(1, users):
        graph.add_edge(user, 0)
        graph.add_edge(0, user)
    for user in range(users):
        profiles.add(user, 1000)
        profiles.add(user, 1001 + user % 7)
    assert graph.edge_count  # compacted before tracing

    def peak_per_edge(build) -> float:
        tracemalloc.start()
        try:
            built = build(SimGraphBuilder(tau=1e-6, chunk_size=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.edge_count == users * (users - 1)
        return peak / built.edge_count

    arrays = peak_per_edge(lambda builder: builder.build(graph, profiles))
    assert arrays <= 80, arrays
    dicts = peak_per_edge(lambda builder: dict_build(builder, graph, profiles))
    assert dicts > 80, dicts
