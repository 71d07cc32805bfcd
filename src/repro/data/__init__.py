"""Dataset layer: entities, container, chronological split, IO and the
paper's §3 characterization measurements."""

from repro.data.dataset import TwitterDataset
from repro.data.io import load_dataset, save_dataset
from repro.data.loaders import assemble_dataset, load_edge_list, load_retweet_csv
from repro.data.models import ActivityClass, Retweet, Tweet, User
from repro.data.split import TemporalSplit, temporal_split
from repro.data.stats import (
    DatasetStats,
    compute_dataset_stats,
    lifetime_survival,
    retweets_per_tweet,
    retweets_per_user,
    tweet_lifetimes,
)

__all__ = [
    "ActivityClass",
    "DatasetStats",
    "Retweet",
    "TemporalSplit",
    "Tweet",
    "TwitterDataset",
    "assemble_dataset",
    "User",
    "compute_dataset_stats",
    "lifetime_survival",
    "load_dataset",
    "load_edge_list",
    "load_retweet_csv",
    "retweets_per_tweet",
    "retweets_per_user",
    "save_dataset",
    "temporal_split",
    "tweet_lifetimes",
]
