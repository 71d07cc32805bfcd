"""Service warm-boot from persisted SimGraph snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persistence import save_simgraph
from repro.exceptions import DatasetError
from repro.service import RecommendationService, ServiceConfig

DAY = 86400.0


def built_service(**config_kwargs) -> RecommendationService:
    """A service with co-retweet history and a freshly built SimGraph."""
    defaults = {"use_scheduler": False, "min_score": 1e-6}
    defaults.update(config_kwargs)
    service = RecommendationService(ServiceConfig(**defaults))
    for user in range(5):
        service.add_user(user)
    for a, b in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]:
        service.add_follow(a, b)
    service.post_tweet(tweet_id=100, author=3, at=0.0)
    service.post_tweet(tweet_id=101, author=3, at=1.0)
    at = 10.0
    for tid in (100, 101):
        for user in (0, 1, 2):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    service.rebuild("from scratch")
    return service


@pytest.mark.parametrize("format", [1, 2])
@pytest.mark.parametrize("prop_backend", ["reference", "csr"])
def test_loaded_service_recommends_like_builder(
    tmp_path, format, prop_backend
):
    """A fresh instance booted from a snapshot emits the notifications
    the original (built) instance would."""
    if format == 1 and prop_backend == "csr":
        pytest.skip("redundant combination")
    source = built_service(prop_backend=prop_backend)
    path = save_simgraph(source.simgraph, tmp_path / "g.snap", format=format)

    target = built_service(prop_backend=prop_backend)
    target.load_snapshot(path, mmap=(format == 2))

    source.post_tweet(tweet_id=200, author=3, at=500.0)
    target.post_tweet(tweet_id=200, author=3, at=500.0)
    a = source.retweet(user=0, tweet=200, at=600.0)
    b = target.retweet(user=0, tweet=200, at=600.0)
    assert [(r.user, r.tweet) for r in a] == [(r.user, r.tweet) for r in b]
    assert {
        (r.user, round(r.score, 12)) for r in a
    } == {(r.user, round(r.score, 12)) for r in b}


def test_load_counts_as_rebuild(tmp_path):
    source = built_service()
    path = save_simgraph(source.simgraph, tmp_path / "g.snap", format=2)

    service = RecommendationService(
        ServiceConfig(use_scheduler=False, min_score=1e-6)
    )
    for user in range(5):
        service.add_user(user)
    rebuilds_before = service.stats.rebuilds
    loaded = service.load_snapshot(path)
    assert service.stats.rebuilds == rebuilds_before + 1
    assert service.simgraph is loaded
    # The next events must not trigger an immediate from-scratch rebuild
    # that would wipe the loaded graph.
    service.post_tweet(tweet_id=1, author=0, at=10.0)
    service.retweet(user=1, tweet=1, at=20.0)
    assert service.simgraph is loaded
    # ... but once profiles hold data, a rebuild eventually falls due,
    # and is adopted after the adoption lag (a quarter interval).
    service.post_tweet(tweet_id=2, author=0, at=10.0 + 8 * DAY)
    assert service.stats.last_rebuild_at == 10.0 + 8 * DAY
    service.post_tweet(tweet_id=3, author=0, at=10.0 + 10 * DAY)
    assert service.stats.rebuilds == rebuilds_before + 2
    assert service.simgraph is not loaded


def test_mmap_loaded_graph_survives_maintenance(tmp_path):
    """Read-only mapped arrays force a recompile (not an in-place patch)
    at the next rebuild; the service keeps working."""
    source = built_service(prop_backend="csr")
    path = save_simgraph(source.simgraph, tmp_path / "g.snap", format=2)
    service = built_service(prop_backend="csr")
    service.load_snapshot(path, mmap=True)
    service.retweet(user=0, tweet=101, at=700.0)
    refreshed = service.rebuild("from scratch")
    assert refreshed.node_count > 0
    service.post_tweet(tweet_id=300, author=3, at=800.0)
    service.retweet(user=1, tweet=300, at=900.0)


def test_mmap_boot_compiles_plain_read_only_views(tmp_path):
    """The kernel indexes plain ndarrays, not ``np.memmap`` instances
    (whose every fancy index pays ``__array_finalize__``) — as
    zero-copy, read-only views of the mapped file, so the first delta
    maintenance splices new arrays from them instead of writing
    through (and without recompiling)."""
    source = built_service(prop_backend="csr", rebuild_strategy="delta")
    path = save_simgraph(source.simgraph, tmp_path / "g.snap", format=2)
    before = path.read_bytes()
    service = built_service(prop_backend="csr", rebuild_strategy="delta")
    service.load_snapshot(path, mmap=True)
    csr = service._csr
    for name in ("users", "inf_indptr", "inf_indices", "inf_weights"):
        section = getattr(csr, name)
        assert type(section) is np.ndarray, name
        assert not section.flags.writeable, name
        base = section
        while not isinstance(base, np.memmap):
            base = base.base
            assert base is not None, f"{name} was copied out of the file"
    # Weights-only dirt: user 0 shares one more tweet with its group.
    service.retweet(user=1, tweet=101, at=700.0)
    service.post_tweet(tweet_id=102, author=3, at=701.0)
    for at, user in enumerate((0, 1, 2), start=702):
        service.retweet(user=user, tweet=102, at=float(at))
    compiled = service.metrics_snapshot()["counters"]["propagation.csr_compiled"]
    service.rebuild("delta")
    counters = service.metrics_snapshot()["counters"]
    assert counters["propagation.csr_spliced"] == 1
    assert counters["propagation.csr_compiled"] == compiled
    assert service._csr is not csr
    assert service._csr.inf_weights.flags.writeable
    assert path.read_bytes() == before
    service.post_tweet(tweet_id=300, author=3, at=800.0)
    assert service.retweet(user=1, tweet=300, at=900.0)


def test_missing_snapshot_raises(tmp_path):
    service = built_service()
    with pytest.raises(DatasetError, match="does not exist"):
        service.load_snapshot(tmp_path / "nope.snap")
