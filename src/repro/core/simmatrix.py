"""Vectorized sparse similarity backend (CSR incidence formulation).

The reference implementation of Def. 3.1 walks Python dicts one user at a
time; at scale the same computation is a sparse matrix product.  The
user x tweet retweet incidence is materialized as a CSR matrix ``B`` (one
row per user, unit entries), and every tweet column carries the complex
weight ``w(i) + 1j`` with ``w(i) = 1/log(1 + m(i))``.  One product

.. math::  G = B \\, (B \\cdot \\mathrm{diag}(w + 1j))^T

then yields, for every user pair sharing at least one tweet, the Def. 3.1
numerator in its real part and the intersection size ``|L_u \\cap L_v|`` in
its imaginary part — a single matmul keeps both quantities on exactly the
same sparsity pattern, so no index alignment between two products is ever
needed.  Union sizes follow from the profile-size vector, and a whole
batch of ``similarities_from`` rows reduces to a few array operations.

:func:`simgraph_edges` builds on this for SimGraph construction: sources
are scored in chunks against the shared :class:`SimilarityMatrix`, and a
chunk's k-hop candidate sets come from boolean sparse products over the
exploration graph's CSR (:func:`reachability_matrix`).

The build is locked to the per-user Def. 4.1 loop, kept as a test oracle
(``tests/test_simgraph_oracle.py``), by
``tests/test_backend_differential.py``: identical SimGraph edge sets,
similarities within 1e-12.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.core.csr import lookup, sorted_unique
from repro.core.profiles import RetweetProfiles
from repro.graph.followgraph import FollowGraph
from repro.obs import NULL, MetricsRegistry

__all__ = [
    "SimilarityMatrix",
    "reachability_matrix",
    "simgraph_edges",
    "DEFAULT_CHUNK_SIZE",
]

#: Sources scored per sparse product during a chunked build.  Large enough
#: to amortize matmul overhead, small enough to bound the dense-ish chunk
#: Gram matrix on overlap-heavy corpora.
DEFAULT_CHUNK_SIZE = 512


class SimilarityMatrix:
    """Sparse-matrix view of a :class:`RetweetProfiles` snapshot.

    Rows (and similarity columns) index the *universe*: every user with a
    profile plus any ``extra_users`` (typically the exploration graph's
    nodes, so candidate masks and similarity rows share one column space).
    Tweet weights use the profiles' global popularity, so a restricted
    universe never distorts ``m(i)``.
    """

    def __init__(
        self, profiles: RetweetProfiles, extra_users: Iterable[int] = ()
    ):
        universe = set(profiles.users())
        universe.update(extra_users)
        users = sorted(universe)
        tweets = sorted(profiles.tweets())
        tweet_index = {t: j for j, t in enumerate(tweets)}
        indptr = np.zeros(len(users) + 1, dtype=np.int64)
        cols: list[int] = []
        for i, user in enumerate(users):
            cols.extend(tweet_index[t] for t in sorted(profiles.profile(user)))
            indptr[i + 1] = len(cols)
        self._assemble(
            profiles,
            np.asarray(users, dtype=np.int64),
            np.asarray(tweets, dtype=np.int64),
            indptr,
            np.asarray(cols, dtype=np.int64),
            sizes=np.diff(indptr),
        )

    @classmethod
    def around(
        cls, profiles: RetweetProfiles, sources: Iterable[int]
    ) -> "SimilarityMatrix":
        """The part of the incidence a score of ``sources`` can read.

        Every tweet a source shares with anyone is in the source's own
        profile, so the columns are the tweets of ``sources``' profiles
        and the universe is their retweeters — built from the inverted
        index, never from the other users' profiles.  ``sources``' rows
        are whole; every other row holds only its tweets among those
        columns, which is all a Gram row of a source multiplies it by,
        and union sizes come from :meth:`RetweetProfiles.profile_sizes`.
        Users and tweets stay in ascending id order, so positions are a
        monotone relabelling of the full matrix's: :meth:`gram_rows` of
        a source accumulates each pair over the same tweets in the same
        order and emits a row's columns in the same order — scores and
        edge order are the full matrix's, bit for bit.  Rows of
        non-sources are *not* scoreable.

        Every read is a batch read of the profiles (rows of many users
        or tweets at once), and the incidence is laid out user-major by
        one counting sort of the tweet-major retweeter rows.
        """
        self = cls.__new__(cls)
        sources = sorted_unique(np.fromiter(sources, dtype=np.int64))
        tweets = sorted_unique(profiles.profile_rows(sources)[1])
        counts, retweeters = profiles.retweeter_rows(tweets)
        users, rows = sorted_unique(retweeters, return_inverse=True)
        # Tweet-major rows to user-major CSR: the transpose walks the
        # tweets in order, so each user's tweets stay ascending.
        by_user = sparse.csr_matrix(
            (np.ones(len(rows)), rows, np.concatenate(([0], counts.cumsum()))),
            shape=(len(tweets), len(users)),
        ).tocsc()
        self._assemble(
            profiles,
            users,
            tweets,
            by_user.indptr,
            by_user.indices,
            sizes=profiles.profile_sizes(users),
        )
        return self

    def _assemble(
        self,
        profiles: RetweetProfiles,
        users: np.ndarray,
        tweets: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self._users_arr = users
        self._index_cache: dict[int, int] | None = None
        self._B = sparse.csr_matrix(
            (np.ones(len(indices)), indices, indptr),
            shape=(len(users), len(tweets)),
        )
        weights = profiles.tweet_weights(tweets)
        # Complex-weighted incidence: one matmul returns numerator (real)
        # and overlap count (imaginary) on a single sparsity pattern.
        self._Bc = (self._B @ sparse.diags(weights + 1j)).tocsr()
        self._sizes = sizes

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def user_count(self) -> int:
        """Number of users in the universe (rows of the incidence)."""
        return len(self._users_arr)

    @property
    def index(self) -> Mapping[int, int]:
        """user id -> row position (shared with candidate masks)."""
        if self._index_cache is None:
            self._index_cache = {
                u: i for i, u in enumerate(self._users_arr.tolist())
            }
        return self._index_cache

    def position(self, user: int) -> int:
        """Row position of ``user``; raises KeyError when absent."""
        return self.index[user]

    def positions(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`position`: ``(positions, present)``.

        ``present`` marks the ids that are in the universe; the position
        of an absent id is meaningless.  A :func:`~repro.core.csr.lookup`
        in the sorted universe — no id dict is built for it.
        """
        return lookup(self._users_arr, users, np.arange(len(self._users_arr)))

    def user_at(self, position: int) -> int:
        """Inverse of :meth:`position`."""
        return int(self._users_arr[position])

    def users_at(self, positions: np.ndarray) -> list[int]:
        """Vectorized :meth:`user_at` (returns plain Python ints)."""
        return self._users_arr[positions].tolist()

    def users_array(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`users_at` as an ``int64`` array."""
        return self._users_arr[positions]

    def __contains__(self, user: int) -> bool:
        return user in self.index

    # ------------------------------------------------------------------
    # Similarity
    # ------------------------------------------------------------------
    def similarity_rows(self, users: Iterable[int]) -> sparse.csr_matrix:
        """Def. 3.1 scores of ``users`` against the whole universe.

        Returns a ``len(users) x user_count`` CSR matrix whose row ``r``
        holds every non-zero ``sim(users[r], v)`` (self-similarity
        removed).  The batched equivalent of ``similarities_from``.
        """
        row_idx = np.asarray(
            [self.index[u] for u in users], dtype=np.int64
        )
        n = self.user_count
        if row_idx.size == 0:
            return sparse.csr_matrix((0, n))
        gram = self.gram_rows(row_idx)
        local, sims = self.sims_from_gram(gram, row_idx)
        cols = gram.indices
        keep = cols != row_idx[local]
        return sparse.csr_matrix(
            (sims[keep], (local[keep], cols[keep])),
            shape=(row_idx.size, n),
        )

    def gram_rows(self, row_idx: np.ndarray) -> sparse.csr_matrix:
        """Complex Gram rows: numerator (real) + overlap count (imag).

        Entry ``(r, v)`` is ``sum_{i in L_u ∩ L_v} w(i) + 1j |L_u ∩ L_v|``
        for ``u`` at universe position ``row_idx[r]`` — the raw material
        both :meth:`similarity_rows` and the chunked build consume.
        """
        return (self._B[row_idx] @ self._Bc.T).tocsr()

    def sims_from_gram(
        self, gram: sparse.csr_matrix, row_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Turn (masked) Gram entries into Def. 3.1 scores.

        Returns ``(local_rows, sims)`` aligned with ``gram``'s nonzeros.
        Structural nonzeros always carry >= 1 shared tweet, so the union
        size is positive and the numerator strictly so.
        """
        counts = np.diff(gram.indptr)
        local = np.repeat(np.arange(row_idx.size, dtype=np.int64), counts)
        union = (
            self._sizes[row_idx[local]]
            + self._sizes[gram.indices]
            - gram.data.imag
        )
        return local, gram.data.real / union

    def similarities_from(
        self, u: int, candidates: Iterable[int] | None = None
    ) -> dict[int, float]:
        """Drop-in equivalent of :func:`repro.core.similarity.similarities_from`."""
        if u not in self.index:
            return {}
        row = self.similarity_rows([u])
        candidate_set = None if candidates is None else set(candidates)
        scores: dict[int, float] = {}
        for v, value in zip(self.users_at(row.indices), row.data):
            if candidate_set is not None and v not in candidate_set:
                continue
            scores[v] = float(value)
        return scores


def reachability_matrix(
    graph: FollowGraph,
    hops: int,
    matrix: SimilarityMatrix,
    sources: Iterable[int],
    columns: tuple[np.ndarray, np.ndarray] | None = None,
) -> sparse.csr_matrix:
    """0/1 CSR of "within ``hops`` successor-steps", in ``matrix``'s
    universe column space.

    Row ``r`` marks ``k_hop_neighborhood(graph, sources[r], hops)``
    (source excluded) intersected with the universe; a source outside
    the graph gets an empty row.  Passing the whole universe in position
    order gives the candidate masks of the whole SimGraph build; a build
    or a delta asks for one chunk of sources at a time.  The walk is
    :meth:`~repro.graph.followgraph.FollowGraph.reach` over the follow
    CSR — one boolean sparse product per hop, with intermediate users
    outside the universe included — and rows come out canonical
    (columns ascending), the form the elementwise product with a Gram
    chunk depends on for its emission order.

    ``columns`` is ``matrix.positions(graph.ids)``; a caller scoring
    many chunks against one graph computes it once.
    """
    if columns is None:
        columns = matrix.positions(graph.ids)
    at, inside = graph.positions(sources)
    owner, found = graph.reach(at[inside], hops)
    cols, present = columns
    keep = present[found]
    rows = np.flatnonzero(inside)[owner[keep]]
    reach = sparse.csr_matrix(
        (
            np.ones(len(rows)),
            cols[found[keep]],
            np.searchsorted(rows, np.arange(len(inside) + 1)),
        ),
        shape=(len(inside), matrix.user_count),
    )
    reach.sort_indices()
    return reach


def simgraph_edges(
    graph: FollowGraph,
    profiles: RetweetProfiles,
    sources: Iterable[int],
    tau: float,
    hops: int = 2,
    max_influencers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    metrics: MetricsRegistry | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of Def. 4.1, ``chunk_size`` sources per sparse product.

    Returns aligned arrays ``(source, influencer, sim)`` of user ids and
    scores — exactly the edges the per-user loop (walk ``hops`` out,
    score, keep ``sim >= tau``, cap) would create.  A source's edges are
    contiguous, sources come in the order given (a repeated source
    once), and a row's edges in the order :func:`masked_gram_edges`
    emits them.

    ``metrics`` records candidate-mask assembly and per-chunk scoring
    timings and chunk/pair counters.
    """
    metrics = metrics if metrics is not None else NULL
    eligible = list(dict.fromkeys(
        u for u in sources if u in graph and profiles.has_profile(u)
    ))
    none = np.empty(0, dtype=np.int64)
    edges = [(none, none, none.astype(np.float64))]
    if not eligible:
        return edges[0]
    with metrics.span("simgraph.candidate_masks"):
        matrix = SimilarityMatrix(profiles, extra_users=graph.nodes())
        columns = matrix.positions(graph.ids)
    starts = range(0, len(eligible), chunk_size)
    metrics.counter("simgraph.chunks").inc(len(starts))
    chunk_timings = metrics.histogram("simgraph.chunk_seconds", timing=True)
    pairs_scored = metrics.counter("simgraph.pairs_scored")
    with metrics.span("simgraph.score_chunks"):
        for start in starts:
            started = time.perf_counter()
            chunk = eligible[start : start + chunk_size]
            ids = np.asarray(chunk, dtype=np.int64)
            reach = reachability_matrix(graph, hops, matrix, chunk, columns)
            # The mask is applied to the *complex Gram* rows before any
            # score is computed, so similarities are only evaluated for
            # the (source, candidate) pairs the per-user loop scores; its
            # empty diagonal also removes self-similarity.
            row_idx, _ = matrix.positions(ids)
            masked = matrix.gram_rows(row_idx).multiply(reach).tocsr()
            pairs_scored.inc(int(masked.nnz))
            local, influencers, sims = masked_gram_edges(
                matrix, row_idx, masked, tau, max_influencers
            )
            edges.append((ids[local], influencers, sims))
            chunk_timings.observe(time.perf_counter() - started)
    return tuple(np.concatenate(column) for column in zip(*edges))


def masked_gram_edges(
    matrix: SimilarityMatrix,
    row_idx: np.ndarray,
    masked: sparse.csr_matrix,
    tau: float,
    max_influencers: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score, threshold and cap the rows of one masked chunk Gram.

    ``masked`` is ``gram_rows(row_idx)`` times a candidate mask.  Returns
    the kept edges as aligned arrays ``(row, influencer, sim)``: ``row``
    is the chunk row (non-decreasing), ``influencer`` a user id, and a
    row's edges come in the order the product emitted its columns.  A
    row over the cap keeps its ``max_influencers`` largest (score, user
    id) pairs — the exact tie-break of ``utils.topk.top_k_items`` —
    listed in ascending (score, id) order.  The full build and delta
    maintenance both end here, which is what keeps a recomputed row's
    edge order equal to a from-scratch one's.
    """
    local, sims = matrix.sims_from_gram(masked, row_idx)
    cols = masked.indices
    keep = sims >= tau
    local, cols, sims = local[keep], cols[keep], sims[keep]
    if max_influencers is not None:
        over = np.bincount(local, minlength=len(row_idx)) > max_influencers
        capped = over[local]
        if capped.any():
            # Over-cap rows in ascending (score, column) order, of which
            # each keeps its last max_influencers; a stable sort by row
            # then puts them back among the uncapped rows.
            at = np.flatnonzero(capped)
            at = at[np.lexsort((cols[at], sims[at], local[at]))]
            ends = np.searchsorted(local[at], local[at], side="right")
            at = at[ends - np.arange(len(at)) <= max_influencers]
            at = np.concatenate((np.flatnonzero(~capped), at))
            at = at[np.argsort(local[at], kind="stable")]
            local, cols, sims = local[at], cols[at], sims[at]
    return local, matrix.users_array(cols), sims
