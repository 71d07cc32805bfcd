"""Fluent construction of small datasets for test fixtures.

Building a :class:`TwitterDataset` by hand requires registering users
before follows, tweets before retweets, and keeping timestamps coherent.
:class:`DatasetBuilder` handles the ordering so fixtures read like the
scenario they describe.
"""

from __future__ import annotations

from repro.data import Retweet, Tweet, TwitterDataset, User


class DatasetBuilder:
    """Accumulate entities and produce a validated dataset.

    Example
    -------
    >>> ds = (
    ...     DatasetBuilder()
    ...     .with_users(3)
    ...     .follow(0, 1)
    ...     .tweet(tweet_id=0, author=1, at=0.0)
    ...     .retweet(user=0, tweet=0, at=10.0)
    ...     .build()
    ... )
    >>> ds.popularity(0)
    1
    """

    def __init__(self) -> None:
        self._dataset = TwitterDataset()
        self._next_tweet_id = 0

    def with_users(self, count: int, community: int = 0) -> "DatasetBuilder":
        """Add ``count`` users with consecutive ids in ``community``."""
        start = self._dataset.user_count
        for user_id in range(start, start + count):
            self._dataset.add_user(User(id=user_id, community=community))
        return self

    def user(self, user_id: int, community: int = 0) -> "DatasetBuilder":
        """Add a single user with an explicit id."""
        self._dataset.add_user(User(id=user_id, community=community))
        return self

    def follow(self, follower: int, followee: int) -> "DatasetBuilder":
        """Add a follow edge."""
        self._dataset.add_follow(follower, followee)
        return self

    def follow_chain(self, *user_ids: int) -> "DatasetBuilder":
        """Add follow edges along the path ``u0 -> u1 -> ... -> un``."""
        for follower, followee in zip(user_ids, user_ids[1:]):
            self._dataset.add_follow(follower, followee)
        return self

    def tweet(
        self,
        author: int,
        at: float = 0.0,
        tweet_id: int | None = None,
        topic: int = -1,
    ) -> "DatasetBuilder":
        """Add an original post (auto-assigns the id when omitted)."""
        if tweet_id is None:
            tweet_id = self._next_tweet_id
        self._dataset.add_tweet(
            Tweet(id=tweet_id, author=author, created_at=at, topic=topic)
        )
        self._next_tweet_id = max(self._next_tweet_id, tweet_id + 1)
        return self

    def retweet(self, user: int, tweet: int, at: float) -> "DatasetBuilder":
        """Add a sharing action."""
        self._dataset.add_retweet(Retweet(user=user, tweet=tweet, time=at))
        return self

    def build(self) -> TwitterDataset:
        """Validate and return the dataset."""
        self._dataset.validate()
        return self._dataset
