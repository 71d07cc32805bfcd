"""One-stop synthetic dataset generation.

``generate_dataset(SynthConfig(...))`` wires the three synthesis stages —
interest model, follow graph, activity simulation — into a validated
:class:`~repro.data.dataset.TwitterDataset`, built from columns by
:meth:`~repro.data.dataset.TwitterDataset.from_arrays`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import TwitterDataset
from repro.synth.activity import simulate_activity
from repro.synth.config import SynthConfig
from repro.synth.interests import InterestModel
from repro.synth.socialgraph import build_follow_graph
from repro.utils.rng import SeedSequenceFactory

__all__ = ["generate_dataset"]


def generate_dataset(config: SynthConfig | None = None) -> TwitterDataset:
    """Generate a synthetic Twitter-like dataset from ``config``.

    Determinism: the whole corpus is a pure function of ``config`` (its
    ``seed`` feeds named per-stage RNG streams, so e.g. enlarging the time
    span does not reshuffle the follow graph).
    """
    if config is None:
        config = SynthConfig()
    seeds = SeedSequenceFactory(config.seed)
    interests = InterestModel(config, rng=seeds.generator("interests"))
    follow_graph = build_follow_graph(
        config, interests.communities, rng=seeds.generator("socialgraph")
    )
    (tweet_ids, authors, created, topics), (rt_users, rt_tweets, rt_times) = (
        simulate_activity(
            config, interests, follow_graph, rng=seeds.generator("activity")
        )
    )
    follow_src, follow_dst = follow_graph.edge_arrays()
    return TwitterDataset.from_arrays(
        user_ids=np.arange(config.n_users, dtype=np.int64),
        user_communities=interests.communities,
        follow_src=follow_src,
        follow_dst=follow_dst,
        tweet_ids=tweet_ids,
        tweet_authors=authors,
        tweet_times=created,
        tweet_topics=topics,
        rt_users=rt_users,
        rt_tweets=rt_tweets,
        rt_times=rt_times,
    )
