"""Golden digests of the synthetic corpora.

Both generators are pure functions of their config, so each corpus the
tests and paper figures read can be pinned as one sha256 over its
columns: user ids and communities, the follow CSR, the four tweet
columns and the chronological retweet log.  The digests were recorded
at commit 0c271ab, before the two generators shared their cascade core
and every dataset went through ``TwitterDataset.from_arrays``; a change
that moves one RNG draw, one row's order or one dtype moves a digest.
``discovery_min_alignment=0.3`` covers the per-topic discovery pools
(the default of 0 gives every topic the whole population).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.synth import ChunkedGenerator, SynthConfig, generate_dataset


def corpus_digest(dataset) -> str:
    """sha256 over a dataset's columns, each cast to a fixed dtype."""
    tweets = dataset.tweets.values()
    columns = (
        (dataset.user_ids, np.int64),
        ([u.community for u in dataset.users.values()], np.int64),
        (dataset.follow_indptr, np.int64),
        (dataset.follow_targets, np.int64),
        ([t.id for t in tweets], np.int64),
        ([t.author for t in tweets], np.int64),
        ([t.created_at for t in tweets], np.float64),
        ([t.topic for t in tweets], np.int64),
        *((column, dtype) for column, dtype in zip(
            dataset.retweet_arrays(), (np.int64, np.int64, np.float64)
        )),
    )
    digest = hashlib.sha256()
    for column, dtype in columns:
        array = np.ascontiguousarray(column, dtype=dtype)
        digest.update(len(array).to_bytes(8, "little"))
        digest.update(array.tobytes())
    return digest.hexdigest()


DIGESTS = {
    "object-fixture": (
        lambda: generate_dataset(SynthConfig(n_users=400, n_communities=6, seed=7)),
        "1125f92026b61c60889e59bb6b3380b7400d9fbd14c5cf50ef40a67883267ae9",
    ),
    "chunked-300": (
        lambda: ChunkedGenerator(SynthConfig(n_users=300, seed=13)).to_columnar(),
        "bd05383d719312075dbdfd3527dfeaceb72cb20434b8fc8c245ebcbf2ef1700e",
    ),
    "object-pools": (
        lambda: generate_dataset(SynthConfig(
            n_users=400, n_communities=6, seed=7, discovery_min_alignment=0.3
        )),
        "825a7fe8d990d8fe91bf90cdeeacc41b6871cbf774ea5369104cb7f1e9130ac7",
    ),
    "chunked-pools": (
        lambda: ChunkedGenerator(SynthConfig(
            n_users=300, seed=13, discovery_min_alignment=0.3
        )).to_columnar(),
        "35bd8ee3c66e935f426cb0ca026d2e2537f642bf38684b465b901796d834968d",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_corpus_digest_is_pinned(name):
    build, expected = DIGESTS[name]
    assert corpus_digest(build()) == expected
