"""The array helpers of ``repro.core.csr`` against numpy and a dict.

* ``sorted_unique`` equals ``np.unique`` in every return form it takes
  (the distinct values, the first index, the inverse, both), on empty,
  all-equal and negative ids.
* ``lookup`` finds what a dict of the keys' first positions finds,
  whether it looks the probes up in a table (keys packed in a narrow
  range) or by binary search (keys spread wide, or too few probes to pay
  for a table), with ``order`` given or not, duplicate keys included.
* ``ranges`` / ``gather_ranges`` list what a Python loop over the
  ranges lists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.csr as csr
from repro.core.csr import gather_ranges, lookup, ranges, sorted_unique

IDS = st.lists(st.integers(min_value=-50, max_value=50), max_size=60)
WIDE_IDS = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), max_size=60
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(IDS, WIDE_IDS), st.integers(min_value=1, max_value=4))
def test_sorted_unique_forms_are_np_unique(values, repeats):
    array = np.array(values * repeats, dtype=np.int64)
    before = array.copy()
    for index, inverse in ((True, False), (False, True), (True, True)):
        got = sorted_unique(array, return_index=index, return_inverse=inverse)
        want = np.unique(array, return_index=index, return_inverse=inverse)
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert mine.tolist() == theirs.tolist()
    assert array.tolist() == before.tolist()


@pytest.mark.parametrize(
    "array",
    [
        np.empty(0, dtype=np.int64),
        np.full(9, 4),
        np.full(5, -7),
        np.array([3]),
        np.array([-3, 5, -3, -9, 5]),
    ],
    ids=["empty", "all-equal", "all-equal-negative", "single", "negative"],
)
def test_sorted_unique_edge_cases(array):
    values, first, inverse = sorted_unique(
        array, return_index=True, return_inverse=True
    )
    want = np.unique(array, return_index=True, return_inverse=True)
    assert values.tolist() == want[0].tolist()
    assert first.tolist() == want[1].tolist()
    assert inverse.tolist() == want[2].tolist()
    assert values[inverse].tolist() == array.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(IDS, WIDE_IDS),
    st.one_of(IDS, WIDE_IDS),
    st.booleans(),
)
def test_lookup_finds_what_a_dict_finds(keys, probes, with_order):
    keys = np.array(keys, dtype=np.int64)
    probes = np.array(probes + keys[:5].tolist(), dtype=np.int64)
    order = np.argsort(keys, kind="stable") if with_order else None
    at, found = lookup(keys, probes, order)
    held = set(keys.tolist())
    assert found.tolist() == [p in held for p in probes.tolist()]
    assert (keys[at[found]] == probes[found]).all()
    assert (at[~found] == 0).all()
    first = {}
    for position, key in enumerate(keys.tolist()):
        first.setdefault(key, position)
    assert at[found].tolist() == [first[p] for p in probes[found].tolist()]


@pytest.mark.parametrize(
    "keys, probes, table",
    [
        # Packed keys, as many probes: the table is the cheaper.
        (np.arange(1000) * 2 % 1001, np.arange(-5, 1010), True),
        # Packed keys, three probes: the table's pass over the span
        # costs more than three binary searches.
        (np.arange(1000), np.array([7, 999, 1000]), False),
        # Many probes, but keys spread over more than twice as many
        # slots as keys and probes: the table would outgrow them.
        (np.arange(0, 10**4, 10), np.arange(0, 10**4, 7), False),
        # Repeated keys: the first of equal keys either way.
        (np.array([5, 3, 5, 3, 9] * 40), np.arange(12), True),
        (np.array([5, 3, 5, 3, 9] * 40) * 10**6, np.array([5, 9]) * 10**6, False),
    ],
    ids=["packed", "few-probes", "spread", "repeats-table", "repeats-search"],
)
def test_lookup_takes_the_cheaper_path(monkeypatch, keys, probes, table):
    calls = []
    table_lookup = csr._table_lookup
    monkeypatch.setattr(
        csr, "_table_lookup", lambda *args: calls.append(1) or table_lookup(*args)
    )
    keys = keys.astype(np.int64)
    for order in (None, np.argsort(keys, kind="stable")):
        at, found = lookup(keys, probes, order)
        first = {}
        for position, key in enumerate(keys.tolist()):
            first.setdefault(key, position)
        assert found.tolist() == [p in first for p in probes.tolist()]
        assert at.tolist() == [first.get(p, 0) for p in probes.tolist()]
    assert bool(calls) == table


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=20))
def test_ranges_list_every_range_in_order(spans):
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    lengths = np.array([n for _, n in spans], dtype=np.int64)
    want = [i for s, n in spans for i in range(s, s + n)]
    assert ranges(starts, lengths).tolist() == want
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    rows = np.arange(len(spans))[::-1].copy()
    flat, got_lengths = gather_ranges(indptr, rows)
    assert got_lengths.tolist() == lengths[rows].tolist()
    assert flat.tolist() == [
        i for r in rows.tolist() for i in range(indptr[r], indptr[r + 1])
    ]
