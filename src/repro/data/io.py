"""Dataset persistence.

A :class:`~repro.data.dataset.TwitterDataset` is saved as a directory of
JSON-lines files — one per entity kind — so large corpora stream instead of
loading one giant JSON document.  The layout:

    <dir>/users.jsonl      {"id":..,"community":..}
    <dir>/follows.jsonl    {"follower":..,"followee":..}
    <dir>/tweets.jsonl     {"id":..,"author":..,"created_at":..,"topic":..}
    <dir>/retweets.jsonl   {"user":..,"tweet":..,"time":..}
    <dir>/meta.json        {"format": 1, counts...}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.data.dataset import TwitterDataset
from repro.exceptions import DatasetError

__all__ = ["save_dataset", "load_dataset"]

FORMAT_VERSION = 1


def save_dataset(dataset: TwitterDataset, directory: str | Path) -> Path:
    """Write ``dataset`` under ``directory`` (created if needed)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    follows = zip(*(c.tolist() for c in dataset.follow_graph.edge_arrays()))
    retweets = zip(*(c.tolist() for c in dataset.retweet_arrays()))
    for kind, keys, rows in (
        ("users", ("id", "community"),
         ((u.id, u.community) for u in dataset.users.values())),
        ("follows", ("follower", "followee"), follows),
        ("tweets", ("id", "author", "created_at", "topic"),
         ((t.id, t.author, t.created_at, t.topic)
          for t in dataset.tweets.values())),
        ("retweets", ("user", "tweet", "time"), retweets),
    ):
        with open(path / f"{kind}.jsonl", "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(dict(zip(keys, row))) + "\n")
    meta = {
        "format": FORMAT_VERSION,
        "users": dataset.user_count,
        "tweets": dataset.tweet_count,
        "retweets": dataset.retweet_count,
        "follow_edges": dataset.follow_graph.edge_count,
    }
    with open(path / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
    return path


def _read_jsonl(path: Path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{line_no}: invalid JSON") from exc


def _column(
    records: list[dict], key: str, default: object = None, dtype=np.int64
) -> np.ndarray:
    """``key`` of every record (``default`` where absent, if given)."""
    if default is None:
        return np.array([record[key] for record in records], dtype=dtype)
    return np.array([record.get(key, default) for record in records], dtype=dtype)


def load_dataset(directory: str | Path) -> TwitterDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    path = Path(directory)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"{path} is not a dataset directory (no meta.json)")
    with open(meta_path, encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != FORMAT_VERSION:
        raise DatasetError(
            f"unsupported dataset format {meta.get('format')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    users, follows, tweets, retweets = (
        list(_read_jsonl(path / f"{kind}.jsonl"))
        for kind in ("users", "follows", "tweets", "retweets")
    )
    dataset = TwitterDataset.from_arrays(
        user_ids=_column(users, "id"),
        user_communities=_column(users, "community", default=0),
        follow_src=_column(follows, "follower"),
        follow_dst=_column(follows, "followee"),
        tweet_ids=_column(tweets, "id"),
        tweet_authors=_column(tweets, "author"),
        tweet_times=_column(tweets, "created_at", dtype=np.float64),
        tweet_topics=_column(tweets, "topic", default=-1),
        rt_users=_column(retweets, "user"),
        rt_tweets=_column(retweets, "tweet"),
        rt_times=_column(retweets, "time", dtype=np.float64),
    )
    loaded = {
        "users": dataset.user_count,
        "follow_edges": dataset.follow_graph.edge_count,
        "tweets": dataset.tweet_count,
        "retweets": dataset.retweet_count,
    }
    wrong = [f"{meta[kind]} {kind} in meta.json, {count} loaded"
             for kind, count in loaded.items() if meta[kind] != count]
    if wrong:
        raise DatasetError(f"{path}: " + "; ".join(wrong))
    return dataset
