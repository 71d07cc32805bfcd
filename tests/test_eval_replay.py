"""Tests for repro.eval.replay."""

import pytest

from repro.baselines.base import Recommendation, Recommender
from repro.data.models import Retweet
from repro.eval.replay import run_replay
from repro.exceptions import EvaluationError
from tests.builders import DatasetBuilder


class ScriptedRecommender(Recommender):
    """Emits a scripted list of recommendations per event index."""

    name = "Scripted"

    def __init__(self, script, final=()):
        self.script = script
        self.final = list(final)
        self.fitted_with = None
        self.events = []

    def fit(self, dataset, train, target_users=None):
        self.fitted_with = (len(train), target_users)

    def on_event(self, event):
        self.events.append(event)
        index = len(self.events) - 1
        return self.script[index] if index < len(self.script) else []

    def finalize(self, end_time):
        return self.final


def world():
    builder = DatasetBuilder().with_users(4)
    builder.tweet(author=3, at=0.0, tweet_id=0)
    builder.tweet(author=3, at=0.0, tweet_id=1)
    builder.retweet(user=1, tweet=0, at=5.0)
    dataset = builder.build()
    train = [Retweet(1, 0, 5.0)]
    test = [Retweet(2, 0, 10.0), Retweet(0, 1, 20.0), Retweet(1, 1, 30.0)]
    return dataset, train, test


class TestProtocol:
    def test_empty_test_rejected(self):
        dataset, train, _ = world()
        with pytest.raises(EvaluationError):
            run_replay(ScriptedRecommender([]), dataset, train, [], {0})

    def test_out_of_order_test_rejected(self):
        dataset, train, test = world()
        with pytest.raises(EvaluationError):
            run_replay(
                ScriptedRecommender([]), dataset, train, test[::-1], {0}
            )

    def test_fit_called_with_train(self):
        dataset, train, test = world()
        rec = ScriptedRecommender([[], [], []])
        run_replay(rec, dataset, train, test, {0})
        assert rec.fitted_with == (1, {0})

    def test_fitted_flag_skips_fit(self):
        dataset, train, test = world()
        rec = ScriptedRecommender([[], [], []])
        run_replay(rec, dataset, train, test, {0}, fitted=True)
        assert rec.fitted_with is None

    def test_all_events_streamed_in_order(self):
        dataset, train, test = world()
        rec = ScriptedRecommender([[], [], []])
        run_replay(rec, dataset, train, test, {0})
        assert rec.events == test


class TestCandidateHygiene:
    def test_non_target_recs_dropped(self):
        dataset, train, test = world()
        rec = ScriptedRecommender(
            [[Recommendation(2, 1, 0.5, 10.0)], [], []]
        )
        result = run_replay(rec, dataset, train, test, {0})
        assert result.candidates == []

    def test_known_train_pairs_dropped(self):
        dataset, train, test = world()
        # User 1 retweeted tweet 0 in train: recommending it is invalid.
        rec = ScriptedRecommender(
            [[Recommendation(1, 0, 0.5, 10.0)], [], []]
        )
        result = run_replay(rec, dataset, train, test, {1})
        assert result.candidates == []

    def test_earliest_emission_kept_with_best_score(self):
        dataset, train, test = world()
        rec = ScriptedRecommender(
            [
                [Recommendation(0, 0, 0.2, 10.0)],
                [Recommendation(0, 0, 0.9, 20.0)],
                [Recommendation(0, 0, 0.1, 30.0)],
            ]
        )
        result = run_replay(rec, dataset, train, test, {0})
        assert len(result.candidates) == 1
        kept = result.candidates[0]
        assert kept.time == 10.0  # earliest emission
        assert kept.score == 0.9  # best score seen

    def test_finalize_output_collected(self):
        dataset, train, test = world()
        rec = ScriptedRecommender(
            [[], [], []], final=[Recommendation(0, 0, 0.4, 30.0)]
        )
        result = run_replay(rec, dataset, train, test, {0})
        assert len(result.candidates) == 1


class TestGroundTruth:
    def test_first_retweet_map(self):
        dataset, train, test = world()
        result = run_replay(
            ScriptedRecommender([[], [], []]), dataset, train, test, {0, 2}
        )
        assert result.first_retweet == {(2, 0): 10.0, (0, 1): 20.0}

    def test_train_known_pairs_excluded_from_truth(self):
        dataset, train, _ = world()
        test = [Retweet(1, 0, 50.0)]  # user 1 re-retweets a known tweet
        result = run_replay(
            ScriptedRecommender([[]]), dataset, train, test, {1}
        )
        assert result.first_retweet == {}

    def test_window_metadata(self):
        dataset, train, test = world()
        result = run_replay(
            ScriptedRecommender([[], [], []]), dataset, train, test, {0}
        )
        assert result.test_start == 10.0
        assert result.test_end == 30.0
        assert result.test_days == 1.0  # clamped minimum
