"""Tests for repro.utils.histogram."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.histogram import (
    FIGURE2_BINS,
    Bin,
    binned_counts,
    exact_counts,
    log_binned_counts,
    log_bucket_index,
    percentile,
)


def bucketize(samples, base=2.0) -> Counter:
    """Samples → the bucket→count mapping the obs histograms keep."""
    return Counter(log_bucket_index(s, base) for s in samples)


class TestBin:
    def test_default_labels(self):
        assert Bin(0, 0).label == "0"
        assert Bin(2, 5).label == "2-5"
        assert Bin(501).label == "501+"

    def test_custom_label(self):
        assert Bin(501, None, label="500+").label == "500+"

    def test_contains_bounded(self):
        b = Bin(2, 5)
        assert b.contains(2) and b.contains(5)
        assert not b.contains(1) and not b.contains(6)

    def test_contains_unbounded(self):
        b = Bin(10)
        assert b.contains(10) and b.contains(10**9)
        assert not b.contains(9)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Bin(5, 2)


class TestBinnedCounts:
    def test_paper_figure2_bins(self):
        values = [0, 0, 1, 3, 7, 100, 300, 1000]
        rows = dict(binned_counts(values, FIGURE2_BINS))
        assert rows["0"] == 2
        assert rows["1"] == 1
        assert rows["2-5"] == 1
        assert rows["6-50"] == 1
        assert rows["51-200"] == 1
        assert rows["201-500"] == 1
        assert rows["500+"] == 1

    def test_total_preserved_with_default_bins(self):
        values = list(range(0, 700, 7))
        rows = binned_counts(values)
        assert sum(count for _, count in rows) == len(values)

    def test_empty_input(self):
        assert all(count == 0 for _, count in binned_counts([]))


class TestLogBinnedCounts:
    def test_zero_bucket_separated(self):
        rows = log_binned_counts([0, 0, 1, 2, 3])
        assert rows[0] == ("0", 2)

    def test_bucket_boundaries_base2(self):
        rows = dict(log_binned_counts([1, 2, 3, 4, 7, 8]))
        assert rows["1"] == 1
        assert rows["2-3"] == 2
        assert rows["4-7"] == 2
        assert rows["8-15"] == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_binned_counts([-1])

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            log_binned_counts([1], base=1.0)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=200))
    def test_total_count_preserved(self, values):
        rows = log_binned_counts(values)
        assert sum(count for _, count in rows) == len(values)


class TestPercentile:
    def test_empty_histogram(self):
        assert percentile({}, 0.5) == 0.0
        assert percentile(Counter(), 0.99) == 0.0

    def test_zero_bucket_is_exact(self):
        assert percentile({None: 10}, 0.5) == 0.0
        # Median of 6 zeros + 4 larger values is still a zero.
        assert percentile({None: 6, 3: 4}, 0.5) == 0.0

    def test_single_bucket_interpolates_within_bounds(self):
        # 10 observations in [4, 8): every quantile estimate must stay
        # inside the bucket.
        buckets = {2: 10}
        for q in (0.0, 0.25, 0.5, 0.75, 0.99):
            assert 4.0 <= percentile(buckets, q) < 8.0 + 1e-9
        assert percentile(buckets, 0.0) == pytest.approx(4.0)

    def test_rank_selects_correct_bucket(self):
        # 5 obs in [1,2), 5 in [8,16): the lower-rank median (rank 4 of
        # 0..9) is the last observation of the first bucket.
        buckets = {0: 5, 3: 5}
        assert 1.0 <= percentile(buckets, 0.5) < 2.0
        assert 8.0 <= percentile(buckets, 0.99) < 16.0

    def test_matches_exact_on_known_samples(self):
        samples = [0.001] * 50 + [0.004] * 45 + [0.5] * 5
        buckets = bucketize(samples)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.percentile(samples, q * 100, method="lower"))
            estimate = percentile(buckets, q)
            assert exact / 2.0 <= estimate <= exact * 2.0

    @pytest.mark.parametrize("q", [-0.1, 1.1, 50.0])
    def test_invalid_q_rejected(self, q):
        with pytest.raises(ValueError):
            percentile({0: 1}, q)

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            percentile({0: 1}, 0.5, base=1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            percentile({0: -1}, 0.5)

    @given(
        samples=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
        base=st.sampled_from([2.0, 10.0]),
    )
    def test_within_factor_base_of_exact(self, samples, q, base):
        # The documented error bound: the estimate lives in the same
        # log bucket as the exact method="lower" order statistic, hence
        # within a factor of ``base`` of it.  ``quantile``, not
        # ``percentile(q * 100)``: q * 100 / 100 != q for q = 1/3, and
        # the rounded rank then names the neighbouring order statistic.
        exact = float(np.quantile(samples, q, method="lower"))
        estimate = percentile(bucketize(samples, base), q, base=base)
        assert exact / base * (1 - 1e-9) <= estimate
        assert estimate <= exact * base * (1 + 1e-9)


class TestExactCounts:
    def test_sorted_value_count_pairs(self):
        assert exact_counts([3, 1, 3, 2, 3]) == [(1, 1), (2, 1), (3, 3)]

    def test_empty(self):
        assert exact_counts([]) == []
