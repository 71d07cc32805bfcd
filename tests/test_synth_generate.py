"""Tests for repro.synth.generate (end-to-end generation)."""

from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import follow_pairs


class TestGenerateDataset:
    def test_counts_match_config(self, small_dataset, small_config):
        assert small_dataset.user_count == small_config.n_users
        assert small_dataset.tweet_count > 0
        assert small_dataset.retweet_count > 0

    def test_validates(self, small_dataset):
        small_dataset.validate()

    def test_user_metadata_populated(self, small_dataset, small_config):
        user = small_dataset.users[0]
        assert 0 <= user.community < small_config.n_communities

    def test_tweets_carry_topics(self, small_dataset, small_config):
        topics = {t.topic for t in small_dataset.tweets.values()}
        assert topics <= set(range(small_config.n_topics))

    def test_retweet_log_chronological(self, small_dataset):
        times = [r.time for r in small_dataset.retweets()]
        assert times == sorted(times)

    def test_deterministic(self):
        config = SynthConfig(n_users=100, seed=13)
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert a.retweets() == b.retweets()
        assert sorted(follow_pairs(a.follow_graph)) == sorted(follow_pairs(b.follow_graph))

    def test_seed_changes_output(self):
        a = generate_dataset(SynthConfig(n_users=100, seed=1))
        b = generate_dataset(SynthConfig(n_users=100, seed=2))
        assert a.retweets() != b.retweets()

    def test_default_config_used_when_none(self):
        dataset = generate_dataset(SynthConfig(n_users=60, seed=3))
        assert dataset.user_count == 60

    def test_enough_eligible_actions_for_evaluation(self, small_dataset):
        """The corpus must support the paper's >= 2-retweet protocol."""
        eligible = small_dataset.tweets_with_min_retweets(2)
        assert len(eligible) > 20
        actions = sum(
            1 for r in small_dataset.retweets() if r.tweet in eligible
        )
        assert actions > 100


class TestHomophilySignal:
    def test_same_community_coretweets_dominate(self, small_dataset):
        """Co-retweeting must correlate with community membership."""
        community = {u.id: u.community for u in small_dataset.users.values()}
        same = cross = 0
        for tweet_id in small_dataset.tweets_with_min_retweets(2):
            retweeters = sorted(small_dataset.retweeters(tweet_id))
            for i, u in enumerate(retweeters):
                for v in retweeters[i + 1 :]:
                    if community[u] == community[v]:
                        same += 1
                    else:
                        cross += 1
        # Communities are ~6 for 400 users: random pairing would give
        # same/cross well below 0.5; homophily pushes it far higher.
        assert same / max(cross, 1) > 0.5
