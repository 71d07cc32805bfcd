"""What the serving state costs: the follow graph is arrays, and a delta
after a memory-mapped boot never builds the dict SimGraph."""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.csr import ArraySimGraph
from repro.core.persistence import save_simgraph
from repro.service import RecommendationService
from tests.test_service_snapshot import built_service


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


def test_delta_after_mmap_boot_keeps_no_dict_graph(tmp_path):
    """On ``csr`` the delta reads and splices arrays: neither the mapped
    graph nor the refreshed one ever materializes ``.graph``."""
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
        assert isinstance(graph, ArraySimGraph)
        assert graph._graph_cache is None
    counters = service.metrics_snapshot()["counters"]
    assert counters["propagation.csr_spliced"] == 1


def test_csr_service_keeps_only_the_compiled_graph():
    """A from-scratch rebuild on ``csr`` compiles the built graph and
    keeps that alone; the reference engine keeps the dict graph."""
    for prop_backend, kept in (("csr", ArraySimGraph), ("reference", None)):
        service = built_service(prop_backend=prop_backend)
        graph = service.rebuild("from scratch")
        assert service.simgraph is graph
        assert isinstance(graph, ArraySimGraph) == (kept is not None)
        if kept is not None:
            assert graph._graph_cache is None
            assert service._csr is graph.csr()
