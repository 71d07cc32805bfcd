"""Tests for repro.data.io."""

import json

import pytest

from repro.data.io import load_dataset, save_dataset
from repro.exceptions import DatasetError


class TestRoundTrip:
    def test_tiny_dataset_round_trip(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.user_count == tiny_dataset.user_count
        assert loaded.tweet_count == tiny_dataset.tweet_count
        assert loaded.retweet_count == tiny_dataset.retweet_count
        assert loaded.follow_graph.edge_count == (
            tiny_dataset.follow_graph.edge_count
        )
        assert loaded.retweets() == tiny_dataset.retweets()

    def test_preserves_profiles_and_popularity(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        for user in loaded.users:
            assert loaded.profile(user) == tiny_dataset.profile(user)
        for tweet in loaded.tweets:
            assert loaded.popularity(tweet) == tiny_dataset.popularity(tweet)

    def test_preserves_user_metadata(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        sample = next(iter(small_dataset.users.values()))
        reloaded = loaded.users[sample.id]
        assert reloaded.community == sample.community

    def test_interests_key_of_older_directories_ignored(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        lines = (path / "users.jsonl").read_text().splitlines()
        records = [dict(json.loads(line), interests=[0.5, 0.5]) for line in lines]
        (path / "users.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        loaded = load_dataset(path)
        assert list(loaded.users.values()) == list(tiny_dataset.users.values())

    def test_creates_directory(self, tiny_dataset, tmp_path):
        target = tmp_path / "nested" / "dir"
        save_dataset(tiny_dataset, target)
        assert (target / "meta.json").exists()


class TestErrors:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nowhere")

    def test_wrong_format_version_rejected(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = 999
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_count_mismatch_rejected(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        meta = json.loads((path / "meta.json").read_text())
        meta["retweets"] += 1
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_truncated_follows_rejected(self, tiny_dataset, tmp_path):
        """A cut-off follows.jsonl is caught by meta.json's follow count."""
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        lines = (path / "follows.jsonl").read_text().splitlines(keepends=True)
        (path / "follows.jsonl").write_text("".join(lines[:-1]))
        with pytest.raises(DatasetError, match="4 follow_edges in meta.json, 3 loaded"):
            load_dataset(path)

    def test_corrupt_jsonl_rejected(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        with open(path / "retweets.jsonl", "a", encoding="utf-8") as f:
            f.write("{not json}\n")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_blank_lines_tolerated(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "ds")
        with open(path / "users.jsonl", "a", encoding="utf-8") as f:
            f.write("\n\n")
        loaded = load_dataset(path)
        assert loaded.user_count == tiny_dataset.user_count
