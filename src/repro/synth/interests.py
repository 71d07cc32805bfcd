"""Latent interest model behind the synthetic homophily.

Each community owns a small set of "home" topics; each member's interest
vector concentrates most of its mass on those topics with Dirichlet noise
spread over the rest.  A tweet's topic is drawn from its author's interest
vector, and an exposed user's conversion probability is proportional to
their own weight on that topic — so users of one community co-retweet the
same content, which is precisely the homophily signal (§3.2) the SimGraph
construction exploits.
"""

from __future__ import annotations

import numpy as np

from repro.synth.config import SynthConfig
from repro.utils.rng import make_rng

__all__ = ["InterestModel", "assign_communities"]


def assign_communities(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Zipf-ish community sizes: a few big communities, many small.

    Every community gets a member, taken from a community that can
    spare one (``n_communities <= n_users``, so one always can); when
    no community is empty nothing more is drawn from ``rng``.
    """
    weights = 1.0 / np.arange(1, config.n_communities + 1, dtype=np.float64)
    weights /= weights.sum()
    labels = rng.choice(config.n_communities, size=config.n_users, p=weights)
    sizes = np.bincount(labels, minlength=config.n_communities)
    for community in np.flatnonzero(sizes == 0):
        donors = np.flatnonzero(sizes[labels] >= 2)
        user = donors[int(rng.integers(len(donors)))]
        sizes[labels[user]] -= 1
        sizes[community] = 1
        labels[user] = community
    return labels.astype(np.int64)


class InterestModel:
    """Community assignments and per-user topic-interest vectors."""

    def __init__(
        self,
        config: SynthConfig,
        rng: int | np.random.Generator | None = None,
    ):
        self.config = config
        rng = make_rng(rng)
        self.communities = assign_communities(config, rng)
        self._home_topics = self._assign_home_topics(rng)
        self.interest_matrix = self._build_interest_matrix(rng)

    def _assign_home_topics(self, rng: np.random.Generator) -> list[np.ndarray]:
        cfg = self.config
        return [
            rng.choice(cfg.n_topics, size=cfg.topics_per_community, replace=False)
            for _ in range(cfg.n_communities)
        ]

    def _build_interest_matrix(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        matrix = np.empty((cfg.n_users, cfg.n_topics), dtype=np.float64)
        for user in range(cfg.n_users):
            community = int(self.communities[user])
            home = self._home_topics[community]
            vector = rng.dirichlet(np.full(cfg.n_topics, 0.3))
            vector *= 1.0 - cfg.interest_concentration
            home_mass = rng.dirichlet(np.full(len(home), 1.0))
            vector[home] += cfg.interest_concentration * home_mass
            matrix[user] = vector / vector.sum()
        return matrix

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def community_of(self, user: int) -> int:
        """Community label of ``user``."""
        return int(self.communities[user])

    def home_topics(self, community: int) -> np.ndarray:
        """Home topics of ``community``."""
        return self._home_topics[community]

    def draw_topic(self, user: int, rng: np.random.Generator) -> int:
        """Sample a tweet topic from ``user``'s interest vector."""
        return int(rng.choice(self.config.n_topics, p=self.interest_matrix[user]))

    def alignment(self, user: int, topic: int) -> float:
        """Interest of ``user`` in ``topic``, normalized to [0, 1].

        The raw interest weight is divided by the uniform weight
        ``1/n_topics`` and clipped, so 1.0 means "at least average
        interest" and small values mean the topic is foreign to the user.
        """
        uniform = 1.0 / self.config.n_topics
        return float(min(self.interest_matrix[user, topic] / uniform, 1.0))
