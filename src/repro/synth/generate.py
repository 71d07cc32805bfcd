"""One-stop synthetic dataset generation.

``generate_dataset(SynthConfig(...))`` wires the three synthesis stages —
interest model, follow graph, activity simulation — into a validated
:class:`~repro.data.dataset.TwitterDataset`.
"""

from __future__ import annotations

from repro.data.dataset import TwitterDataset
from repro.data.models import User
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
    tweets, retweets = simulate_activity(
        config, interests, follow_graph, rng=seeds.generator("activity")
    )

    users = [
        User(
            id=user_id,
            community=interests.community_of(user_id),
            interests=tuple(
                round(float(w), 6) for w in interests.interests_of(user_id)
            ),
        )
        for user_id in range(config.n_users)
    ]
    followers, followees = follow_graph.edge_arrays()
    return TwitterDataset.from_records(
        users,
        list(zip(followers.tolist(), followees.tolist())),
        tweets,
        sorted(retweets, key=lambda r: (r.time, r.user, r.tweet)),
    )
