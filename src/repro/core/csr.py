"""Array helpers over CSR sections.

The SimGraph (:class:`~repro.core.simgraph.SimGraph`), the propagation
kernel and delta maintenance all work on flat CSR arrays.  Three
operations recur across them: finding the positions of ids in an id
array (:func:`lookup`), gathering the elements of a set of CSR rows
(:func:`gather_ranges`, over :func:`ranges`) and the distinct ids of an
id array (:func:`sorted_unique`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "lookup", "ranges", "sorted_unique"]


def lookup(
    keys: np.ndarray, probes: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(at, found)``: for each probe, the position of an equal entry
    of ``keys`` and whether there is one (``at`` is 0 where not).  Of
    equal keys it is the first; ``order``, when given, must be a stable
    ascending argsort of ``keys``.

    A binary search through ``order`` (computed when not given) costs
    about ``log2(len(keys))`` scattered reads per probe; a table indexed
    by value costs a pass over the span of the keys' values.  Integer
    keys are looked up in the table when it is the cheaper one — its
    span below three reads per probe's search, the crossover measured
    on random ids — and no more than twice the keys and probes in
    slots, so it adds at most what the inputs and the answer hold."""
    probes = np.asarray(probes)
    if not len(keys) or not len(probes):
        return np.zeros(len(probes), dtype=np.int64), np.zeros(len(probes), dtype=bool)
    if keys.dtype.kind in "iu" and probes.dtype.kind in "iu":
        if order is None:
            lo, hi = int(keys.min()), int(keys.max())
        else:
            lo, hi = int(keys[order[0]]), int(keys[order[-1]])
        span = hi - lo + 1
        cheaper = span < 3 * len(probes) * len(keys).bit_length()
        if cheaper and span <= 2 * (len(keys) + len(probes)):
            return _table_lookup(keys, probes, lo, hi)
    if order is None:
        order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys, probes, sorter=order)
    at[at == len(keys)] = 0
    at = order[at]
    found = keys[at] == probes
    at[~found] = 0
    return at, found


def _table_lookup(
    keys: np.ndarray, probes: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lookup` through a table of ``keys``' positions indexed by
    value (``lo``..``hi``); ``np.minimum.at`` keeps the first of equal
    keys, as the stable binary search finds it."""
    table = np.full(hi - lo + 1, len(keys), dtype=np.int64)
    np.minimum.at(table, keys - lo, np.arange(len(keys)))
    found = (probes >= lo) & (probes <= hi)
    at = np.zeros(len(probes), dtype=np.int64)
    at[found] = table[probes[found] - lo]
    found &= at < len(keys)
    at[~found] = 0
    return at, found


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
    return ranges(starts, lengths), lengths


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[k], ..., starts[k] + lengths[k] - 1`` of
    every range ``k``, concatenated in the order given."""
    ends = lengths.cumsum()
    if not len(ends) or not ends[-1]:
        return np.empty(0, dtype=np.int64)
    # Element j of range k sits at starts[k] + (j - elements before k).
    flat = np.arange(ends[-1], dtype=np.int64)
    flat += (starts - ends + lengths).repeat(lengths)
    return flat


def sorted_unique(
    values: np.ndarray, return_index: bool = False, return_inverse: bool = False
):
    """``np.unique(values, return_index=..., return_inverse=...)`` for a
    1-d integer array, by a sort and a neighbour compare (numpy's hash
    path costs 7-45x this on int64 ids).

    With ``return_index`` the sort is stable, so the index of a value is
    its first occurrence, as numpy's; the inverse is the same under any
    sort.  Returns the distinct values alone, or a tuple as numpy does.
    """
    if not (return_index or return_inverse):
        values = np.sort(values)
        if values.size > 1:
            keep = np.empty(values.size, dtype=bool)
            keep[0] = True
            np.not_equal(values[1:], values[:-1], out=keep[1:])
            values = values[keep]
        return values
    values = np.asarray(values)
    order = np.argsort(values, kind="stable" if return_index else None)
    ordered = values[order]
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    out = (ordered[keep],)
    if return_index:
        out += (order[keep],)
    if return_inverse:
        inverse = np.empty(ordered.size, dtype=np.intp)
        inverse[order] = np.cumsum(keep) - 1
        out += (inverse,)
    return out
