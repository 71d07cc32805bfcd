"""Dataset persistence.

A :class:`~repro.data.dataset.TwitterDataset` is saved as a directory of
JSON-lines files — one per entity kind — so large corpora stream instead of
loading one giant JSON document.  The layout:

    <dir>/users.jsonl      {"id":..,"community":..,"interests":[..]}
    <dir>/follows.jsonl    {"follower":..,"followee":..}
    <dir>/tweets.jsonl     {"id":..,"author":..,"created_at":..,"topic":..}
    <dir>/retweets.jsonl   {"user":..,"tweet":..,"time":..}
    <dir>/meta.json        {"format": 1, counts...}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet, Tweet, User
from repro.exceptions import DatasetError

__all__ = ["save_dataset", "load_dataset"]

FORMAT_VERSION = 1


def save_dataset(dataset: TwitterDataset, directory: str | Path) -> Path:
    """Write ``dataset`` under ``directory`` (created if needed)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "users.jsonl", "w", encoding="utf-8") as f:
        for user in dataset.users.values():
            record = {
                "id": user.id,
                "community": user.community,
                "interests": list(user.interests),
            }
            f.write(json.dumps(record) + "\n")
    with open(path / "follows.jsonl", "w", encoding="utf-8") as f:
        followers, followees = dataset.follow_graph.edge_arrays()
        for follower, followee in zip(followers.tolist(), followees.tolist()):
            f.write(json.dumps({"follower": follower, "followee": followee}) + "\n")
    with open(path / "tweets.jsonl", "w", encoding="utf-8") as f:
        for tweet in dataset.tweets.values():
            record = {
                "id": tweet.id,
                "author": tweet.author,
                "created_at": tweet.created_at,
                "topic": tweet.topic,
            }
            f.write(json.dumps(record) + "\n")
    with open(path / "retweets.jsonl", "w", encoding="utf-8") as f:
        for retweet in dataset.retweets():
            record = {
                "user": retweet.user,
                "tweet": retweet.tweet,
                "time": retweet.time,
            }
            f.write(json.dumps(record) + "\n")
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
    dataset = TwitterDataset.from_records(
        [
            User(
                id=record["id"],
                community=record.get("community", 0),
                interests=tuple(record.get("interests", ())),
            )
            for record in _read_jsonl(path / "users.jsonl")
        ],
        [
            (record["follower"], record["followee"])
            for record in _read_jsonl(path / "follows.jsonl")
        ],
        [
            Tweet(
                id=record["id"],
                author=record["author"],
                created_at=record["created_at"],
                topic=record.get("topic", -1),
            )
            for record in _read_jsonl(path / "tweets.jsonl")
        ],
        [
            Retweet(user=record["user"], tweet=record["tweet"], time=record["time"])
            for record in _read_jsonl(path / "retweets.jsonl")
        ],
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
