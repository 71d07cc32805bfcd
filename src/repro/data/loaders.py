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

from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet, Tweet, User
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
    user_ids = {u for edge in edges for u in edge}
    user_ids.update(r.user for r in retweets)
    if tweets is None and retweets:
        user_ids.add(0)  # the unknown-author account
    if tweets is not None:
        user_ids.update(t.author for t in tweets)
    # Self-follows appear in dirty crawls; drop them.
    edges = [(u, v) for u, v in edges if u != v]
    if tweets is None:
        first_seen: dict[int, float] = {}
        for retweet in retweets:
            current = first_seen.get(retweet.tweet)
            if current is None or retweet.time < current:
                first_seen[retweet.tweet] = retweet.time
        tweets = [
            Tweet(id=tweet_id, author=0, created_at=at)
            for tweet_id, at in sorted(first_seen.items())
        ]
    return TwitterDataset.from_records(
        [User(id=user_id) for user_id in sorted(user_ids)],
        edges,
        tweets,
        sorted(retweets, key=lambda r: (r.time, r.user, r.tweet)),
    )
