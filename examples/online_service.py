"""Running the full online service (ingestion -> delivery -> maintenance).

Run:  python examples/online_service.py

Drives :class:`repro.service.RecommendationService` with a simulated
event stream: accounts and follows register first, then tweets and
retweets arrive in time order; the service batches propagation, enforces
a per-user daily notification budget, and refreshes its SimGraph
periodically by delta maintenance (the default strategy).
"""

from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset

DAY = 86400.0


def main() -> None:
    dataset = generate_dataset(SynthConfig(n_users=800, seed=11))
    config = ServiceConfig(
        daily_budget=10,
        rebuild_interval=10 * DAY,
        use_scheduler=True,
    )
    service = RecommendationService(config)

    for user_id in dataset.users:
        service.add_user(user_id)
    followers, followees = dataset.follow_graph.edge_arrays()
    for follower, followee in zip(followers.tolist(), followees.tolist()):
        service.add_follow(follower, followee)

    # Merge tweets and retweets into one chronological event stream.
    events: list[tuple[float, str, tuple]] = []
    for tweet in dataset.tweets.values():
        events.append((tweet.created_at, "tweet", (tweet.id, tweet.author)))
    for retweet in dataset.retweets():
        events.append((retweet.time, "retweet", (retweet.user, retweet.tweet)))
    events.sort(key=lambda e: e[0])

    delivered = 0
    sample_shown = 0
    for at, kind, payload in events:
        if kind == "tweet":
            tweet_id, author = payload
            service.post_tweet(tweet_id=tweet_id, author=author, at=at)
        else:
            user, tweet = payload
            notifications = service.retweet(user=user, tweet=tweet, at=at)
            delivered += len(notifications)
            if notifications and sample_shown < 5 and service.stats.rebuilds > 1:
                n = notifications[0]
                print(
                    f"t={at / DAY:5.1f}d  notify user {n.user}: "
                    f"tweet {n.tweet} (p={n.score:.4f})"
                )
                sample_shown += 1
    delivered += len(service.flush(now=events[-1][0]))

    stats = service.stats
    print(
        f"\nstream finished: {stats.events_ingested:,} retweets ingested, "
        f"{stats.propagations_run:,} propagations,"
        f"\n{stats.notifications_delivered:,} notifications delivered, "
        f"{stats.notifications_suppressed:,} suppressed by the daily budget,"
        f"\n{stats.rebuilds} SimGraph rebuilds "
        f"(last at day {stats.last_rebuild_at / DAY:.1f}); "
        f"final graph: {service.simgraph!r}"
    )


if __name__ == "__main__":
    main()
