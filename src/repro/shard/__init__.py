"""The sharded deployment name, served by one process.

Lock-step write sharding over forked workers lost to a single writer on
every measured run and was deleted (DESIGN.md, "Sharding").  The name
stays because the end-to-end ledger's ``shard2`` workload constructs it.
"""

from repro.exceptions import ConfigError
from repro.service import RecommendationService

__all__ = ["ShardedRecommendationService"]


class ShardedRecommendationService(RecommendationService):
    """A :class:`RecommendationService` running ``config`` as given.

    ``n_shards`` must be positive and is otherwise unused, as is
    ``start_method``: no shard worker is forked.  ``close()`` is the
    service's own (it stops a maintenance child in flight).
    """

    def __init__(self, n_shards: int, config=None, start_method=None):
        if n_shards < 1:
            raise ConfigError(f"n_shards must be at least 1, got {n_shards}")
        super().__init__(config)
