"""Loaders for common external data formats.

For adopters bringing their own crawl instead of the synthetic generator:

* :func:`load_edge_list` — the Kwak et al. (WWW 2010) follow-graph format
  the paper bootstrapped from: one ``follower followee`` pair per line,
  whitespace- or comma-separated, ``#`` comments allowed;
* :func:`load_retweet_csv` — retweet actions as ``user,tweet,timestamp``
  CSV (header optional);
* :func:`assemble_dataset` — combine both into a validated
  :class:`~repro.data.dataset.TwitterDataset`, synthesizing minimal tweet
  records for retweeted-only corpora (original-post metadata is usually
  absent from interaction dumps; creation time is approximated by the
  first observed retweet).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet, Tweet
from repro.exceptions import DatasetError

__all__ = ["load_edge_list", "load_retweet_csv", "assemble_dataset"]


def load_edge_list(path: str | Path) -> list[tuple[int, int]]:
    """Parse a Kwak-style follow edge list.

    Each non-comment line holds ``follower followee`` (whitespace or
    comma separated).  Raises :class:`DatasetError` with the line number
    on malformed input.
    """
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DatasetError(
                    f"{path}:{line_no}: expected 2 fields, got {len(parts)}"
                )
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise DatasetError(
                    f"{path}:{line_no}: non-integer node id"
                ) from exc
    return edges


def load_retweet_csv(path: str | Path) -> list[Retweet]:
    """Parse retweet actions from ``user,tweet,timestamp`` CSV.

    A header row is detected (non-numeric first field) and skipped.
    """
    actions: list[Retweet] = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        for line_no, row in enumerate(reader, start=1):
            if not row or not "".join(row).strip():
                continue
            if line_no == 1 and not row[0].strip().lstrip("-").isdigit():
                continue  # header
            if len(row) < 3:
                raise DatasetError(
                    f"{path}:{line_no}: expected 3 fields, got {len(row)}"
                )
            try:
                actions.append(
                    Retweet(
                        user=int(row[0]),
                        tweet=int(row[1]),
                        time=float(row[2]),
                    )
                )
            except ValueError as exc:
                raise DatasetError(f"{path}:{line_no}: malformed row") from exc
    return actions


def assemble_dataset(
    edges: list[tuple[int, int]],
    retweets: list[Retweet],
    tweets: list[Tweet] | None = None,
) -> TwitterDataset:
    """Build a validated dataset from loaded pieces.

    Users are the union of edge endpoints and retweeting users.  When
    ``tweets`` is omitted, a minimal record is synthesized per retweeted
    tweet: author 0 is a reserved "unknown author" account and the
    creation time is the first observed retweet (so lifetimes measured on
    such corpora are lower bounds).
    """
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    follows = pairs[pairs[:, 0] != pairs[:, 1]]  # dirty crawls self-follow
    log = _columns(retweets, user=np.int64, tweet=np.int64, time=np.float64)
    order = np.lexsort((log[1], log[0], log[2]))  # by time, user, tweet
    rt_users, rt_tweets, rt_times = (column[order] for column in log)
    if tweets is None:
        # In the chronological log a tweet first occurs at its first retweet.
        ids, first = np.unique(rt_tweets, return_index=True)
        tweets = [
            Tweet(id=tweet_id, author=0, created_at=at)
            for tweet_id, at in zip(ids.tolist(), rt_times[first].tolist())
        ]
    tweet_ids, authors, created, topics = _columns(
        tweets, id=np.int64, author=np.int64, created_at=np.float64,
        topic=np.int64,
    )
    return TwitterDataset.from_arrays(
        user_ids=np.unique(np.concatenate((pairs.ravel(), rt_users, authors))),
        follow_src=follows[:, 0], follow_dst=follows[:, 1],
        tweet_ids=tweet_ids, tweet_authors=authors, tweet_times=created,
        tweet_topics=topics, rt_users=rt_users, rt_tweets=rt_tweets,
        rt_times=rt_times,
    )


def _columns(records: list, **dtypes) -> tuple[np.ndarray, ...]:
    """One array per attribute named in ``dtypes``, over ``records``."""
    return tuple(
        np.array([getattr(record, name) for record in records], dtype=dtype)
        for name, dtype in dtypes.items()
    )
