"""Core entities of a microblogging dataset.

Mirrors what the paper's crawl collected per account (§3): the follow
edges live in a :class:`repro.graph.FollowGraph`, while tweets and
retweet actions are the value objects defined here.  Timestamps are
float seconds since the dataset epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["User", "Tweet", "Retweet", "ActivityClass"]


class ActivityClass:
    """The paper's three evaluation strata (§6.1).

    * ``LOW``: fewer than 100 retweets
    * ``MODERATE``: 100 to 999 retweets
    * ``INTENSIVE``: 1,000 retweets or more

    Thresholds are scaled by the dataset generator when the corpus is
    smaller than the paper's; the *classification* API stays the same.
    """

    LOW = "low"
    MODERATE = "moderate"
    INTENSIVE = "intensive"

    ALL = (LOW, MODERATE, INTENSIVE)

    @staticmethod
    def classify(
        retweet_count: int, low_max: int = 100, moderate_max: int = 1000
    ) -> str:
        """Map a user's retweet count to its activity class."""
        if retweet_count < low_max:
            return ActivityClass.LOW
        if retweet_count < moderate_max:
            return ActivityClass.MODERATE
        return ActivityClass.INTENSIVE


@dataclass(slots=True)
class User:
    """A platform account.

    ``community`` is the synthetic generator's latent community label
    (0 for real data).
    """

    id: int
    community: int = 0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"user id must be non-negative, got {self.id}")


@dataclass(slots=True)
class Tweet:
    """An original post: ``author`` published it at ``created_at``.

    ``topic`` is the generator's latent topic index (-1 for unknown, e.g.
    real data).
    """

    id: int
    author: int
    created_at: float
    topic: int = -1

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"tweet id must be non-negative, got {self.id}")


@dataclass(slots=True, frozen=True)
class Retweet:
    """One sharing action: ``user`` retweeted ``tweet`` at ``time``.

    Retweets are the paper's sole interest signal (§3.1) — the entire
    similarity measure, the propagation model and the evaluation protocol
    are built from streams of these records.
    """

    user: int
    tweet: int
    time: float
