"""Array helpers over CSR sections.

The SimGraph (:class:`~repro.core.simgraph.SimGraph`), the propagation
kernel and delta maintenance all work on flat CSR arrays.  Two
operations recur across them: finding the positions of ids in an id
array (:func:`lookup`) and gathering the elements of a set of CSR rows
(:func:`gather_ranges`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "lookup"]


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
