"""Drive a service through a dataset's streams, as a live one would see them.

Several suites need the same thing — a
:class:`~repro.data.dataset.TwitterDataset` turned into the exact
``add_user`` / ``add_follow`` / ``post_tweet`` / ``retweet`` call
sequence, with tweet posting interleaved with retweets in a
deterministic order — so that two services fed by it receive identical
call streams.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.baselines.base import Recommendation
from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet
from tests.test_graph_oracle import follow_pairs


def ingest_graph(service, dataset: TwitterDataset) -> None:
    """Register the dataset's users and follow edges, deterministically."""
    for user in sorted(dataset.users):
        service.add_user(user)
    for follower, followee in follow_pairs(dataset.follow_graph):
        service.add_follow(follower, followee)


def drive_service(
    service,
    dataset: TwitterDataset,
    retweets: Iterable[Retweet],
    on_delivered: Callable[[Retweet, list[Recommendation]], None] | None = None,
) -> list[Recommendation]:
    """Feed ``retweets`` through ``service``, posting tweets as due, then
    flush its scheduler.

    Assumes :func:`ingest_graph` already ran.  Every dataset tweet is
    posted as the stream clock passes its ``created_at`` (ties post
    before the retweet — a tweet must exist when its first share
    arrives); tweets created after the last given retweet stay unposted,
    so a stream can be driven in slices (warm-boot legs drive a first
    half, snapshot, then resume — already-posted tweets are skipped).

    Returns every delivered recommendation in emission order;
    ``on_delivered`` additionally observes each retweet's deliveries as
    they happen (for per-event rather than aggregate comparisons).
    """
    retweets = list(retweets)
    if not retweets:
        return []
    horizon = retweets[-1].time
    posts = [
        t
        for t in sorted(
            dataset.tweets.values(), key=lambda t: (t.created_at, t.id)
        )
        if t.created_at <= horizon
    ]
    delivered: list[Recommendation] = []
    next_post = 0
    for event in retweets:
        while next_post < len(posts) and (
            posts[next_post].created_at <= event.time
        ):
            post = posts[next_post]
            next_post += 1
            if post.id in service.tweets:
                continue
            service.post_tweet(post.id, post.author, post.created_at)
        recs = service.retweet(event.user, event.tweet, event.time)
        delivered.extend(recs)
        if on_delivered is not None:
            on_delivered(event, recs)
    delivered.extend(service.flush(retweets[-1].time))
    return delivered
