"""Shared state for the benchmark suite.

Every expensive artefact — the calibrated synthetic corpus, the fitted
methods, the four replay results and the metric sweep — is computed once
per pytest session and shared across benchmark files, so each bench only
pays for the operation it actually measures.

The corpus here is the *evaluation-scale* configuration: richer per-user
activity than the library default (profiles comparable, relatively, to
the paper's 156 retweets/user mean) so similarity-based methods operate
in the regime the paper studied.
"""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np
import pytest

from repro.baselines import (
    BayesRecommender,
    CollaborativeFilteringRecommender,
    GraphJetRecommender,
)
from repro.core import RetweetProfiles, SimGraphBuilder, SimGraphRecommender
from repro.data import temporal_split
from repro.eval import SweepReport, evaluate_sweep, run_replay, select_target_users
from repro.synth import SynthConfig, generate_dataset

#: The k sweep of the paper's Figures 7-15.
K_VALUES = [10, 20, 30, 50, 100, 200]

#: Evaluation-scale synthetic corpus (see DESIGN.md §2 for calibration).
BENCH_CONFIG = SynthConfig(
    n_users=2000,
    tweets_alpha=1.2,
    min_tweets_per_user=2,
    max_tweets_per_user=250,
    seed=42,
)

PER_STRATUM = 250


def bench_context(smoke: bool) -> dict:
    """Hardware / software context recorded beside a bench's rows."""

    def git(*args):
        try:
            return subprocess.run(
                ["git", "-C", os.path.dirname(__file__), *args],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        # The records themselves are left out: a run that writes two
        # benches' rows would otherwise call its own tree dirty.
        "git_dirty": bool(git(
            "status", "--porcelain", "--",
            ":(top)", ":(top,exclude)benchmarks/BENCH_*.json",
        )),
        "smoke": smoke,
    }


def make_methods() -> list:
    """Fresh instances of the four §6 competitors, paper defaults."""
    return [
        SimGraphRecommender(),
        CollaborativeFilteringRecommender(),
        BayesRecommender(),
        GraphJetRecommender(),
    ]


@pytest.fixture(scope="session")
def bench_dataset():
    """The shared evaluation corpus (generated once)."""
    return generate_dataset(BENCH_CONFIG)


@pytest.fixture(scope="session")
def bench_split(bench_dataset):
    """Chronological 90/10 split of the eligible retweet stream."""
    return temporal_split(bench_dataset)


@pytest.fixture(scope="session")
def bench_targets(bench_split):
    """Stratified target users (paper §6.1, scaled)."""
    return select_target_users(
        bench_split.train, per_stratum=PER_STRATUM, seed=0
    )


@pytest.fixture(scope="session")
def bench_profiles(bench_split):
    """Retweet profiles of the train split."""
    return RetweetProfiles(bench_split.train)


@pytest.fixture(scope="session")
def bench_simgraph(bench_dataset, bench_profiles):
    """The SimGraph built on the train split (shared by many benches)."""
    return SimGraphBuilder(tau=0.001).build(
        bench_dataset.follow_graph, bench_profiles
    )


@pytest.fixture(scope="session")
def sparse_simgraph(bench_dataset, bench_profiles):
    """A sparsity-matched SimGraph for the structural benches.

    The paper's SimGraph settles at mean out-degree 5.9 (Table 4) because
    profile overlap is rare at 1.1M-user scale; a small synthetic corpus
    overlaps far more, so Table 4 / Figure 5 characterize the graph at
    the paper's sparsity (strongest ~6 influencers per user) to measure
    the same structural regime.
    """
    return SimGraphBuilder(tau=0.001, max_influencers=6).build(
        bench_dataset.follow_graph, bench_profiles
    )


@pytest.fixture(scope="session")
def replay_results(bench_dataset, bench_split, bench_targets):
    """name -> ReplayResult for the four methods (the expensive pass)."""
    results = {}
    for method in make_methods():
        results[method.name] = run_replay(
            method,
            bench_dataset,
            bench_split.train,
            bench_split.test,
            bench_targets.all_users,
        )
    return results


@pytest.fixture(scope="session")
def sweep_report(bench_dataset, replay_results):
    """Metric grid over K_VALUES for all methods."""
    series = {
        name: evaluate_sweep(result, K_VALUES, bench_dataset.popularity)
        for name, result in replay_results.items()
    }
    return SweepReport(list(K_VALUES), series)


@pytest.fixture
def emit(capsys):
    """Print a report table even under pytest's output capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _emit
