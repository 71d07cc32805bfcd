"""Array helpers over CSR sections.

The SimGraph (:class:`~repro.core.simgraph.SimGraph`), the propagation
kernel and delta maintenance all work on flat CSR arrays.  Three
operations recur across them: finding the positions of ids in an id
array (:func:`lookup`), gathering the elements of a set of CSR rows
(:func:`gather_ranges`) and the distinct ids of an id array
(:func:`sorted_unique`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "lookup", "sorted_unique"]


def lookup(
    keys: np.ndarray, probes: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(at, found)``: for each probe, the position of an equal entry
    of ``keys`` and whether there is one (``at`` is meaningless where
    not).  A binary search through ``order``, the ascending argsort of
    ``keys`` (computed when not given)."""
    if not len(keys):
        return np.zeros(len(probes), dtype=np.int64), np.zeros(len(probes), dtype=bool)
    if order is None:
        order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys, probes, sorter=order)
    at[at == len(keys)] = 0
    at = order[at]
    return at, keys[at] == probes


def gather_ranges(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat element positions of CSR ``rows``, plus their lengths.

    Returns ``(flat, lengths)`` where ``flat`` indexes the CSR data
    arrays for every element of every requested row (rows concatenated
    in the order given) and ``lengths`` are the per-row element counts.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = lengths.cumsum()
    if not len(ends) or not ends[-1]:
        return np.empty(0, dtype=np.int64), lengths
    # Element k of row r sits at starts[r] + (k - elements before r).
    flat = np.arange(ends[-1], dtype=np.int64)
    flat += (starts - ends + lengths).repeat(lengths)
    return flat, lengths


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-d integer array: sort, then keep
    each element that differs from its left neighbour (numpy's hash
    path costs 7-45x this on int64 ids)."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values
