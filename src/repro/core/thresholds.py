"""Propagation threshold policies (paper §5.4).

A threshold decides whether a user's probability change is worth
propagating to their influencees at the next iteration:

* :class:`NoThreshold` — propagate every change (exact Algorithm 1);
* :class:`StaticThreshold` — the paper's β: a fixed minimum delta;
* :class:`DynamicThreshold` — the paper's γ(t) = m(t)^p / (k^p + m(t)^p)
  (evaluated as 1 / (1 + (k / m(t))^p), which is monotone in floats),
  a Hill function of the tweet's popularity.  Fresh, barely-retweeted
  tweets get a near-zero threshold (deep propagation, they need the reach),
  while already-popular tweets get a high threshold (the network spreads
  them on its own, so computation can stop early).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["ThresholdPolicy", "NoThreshold", "StaticThreshold", "DynamicThreshold"]


@runtime_checkable
class ThresholdPolicy(Protocol):
    """Maps a tweet's current popularity to a propagation threshold."""

    def threshold_for(self, popularity: int) -> float:
        """Minimum |Δp| a user must exceed to keep propagating."""
        ...


class NoThreshold:
    """Always propagate (threshold 0) — the unoptimized algorithm."""

    def threshold_for(self, popularity: int) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoThreshold()"


class StaticThreshold:
    """The paper's fixed β, independent of the tweet."""

    def __init__(self, beta: float):
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.beta = beta

    def threshold_for(self, popularity: int) -> float:
        return self.beta

    def __repr__(self) -> str:
        return f"StaticThreshold(beta={self.beta})"


class DynamicThreshold:
    """The paper's γ(t) = m(t)^p / (k^p + m(t)^p).

    ``k`` is the popularity at which the threshold reaches 1/2 and ``p``
    controls the steepness; both must be positive (paper §5.4).  ``scale``
    multiplies the [0, 1] Hill value into the probability-delta domain —
    a threshold of literally 1.0 would stop all propagation, so the raw
    γ is interpreted as a *fraction* of ``scale``.
    """

    def __init__(self, k: float = 20.0, p: float = 2.0, scale: float = 0.05):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.k = k
        self.p = p
        self.scale = scale

    def gamma(self, popularity: int) -> float:
        """The raw Hill value γ(t) in [0, 1].

        Computed as ``1 / (1 + (k/m)^p)``: every step is a monotone
        IEEE operation, so γ never decreases as ``m`` grows.  The
        textbook ``m^p / (k^p + m^p)`` divides two values that both
        round, and drops by one ulp near 1 (k=4.5, p=4.71875 between
        m=9,589 and 10,449).
        """
        if popularity <= 0:
            return 0.0
        return 1.0 / (1.0 + (self.k / popularity) ** self.p)

    def threshold_for(self, popularity: int) -> float:
        return self.scale * self.gamma(popularity)

    def __repr__(self) -> str:
        return (
            f"DynamicThreshold(k={self.k}, p={self.p}, scale={self.scale})"
        )
