"""The paper's contribution: similarity measure, SimGraph construction,
propagation model (iterative + linear-system views), threshold policies,
postponed scheduling, the end-to-end recommender and the incremental
maintenance strategies."""

from repro.core.coldstart import ColdStartAugmenter
from repro.core.delta import (
    DeltaPlan,
    DeltaReport,
    affected_region,
    apply_delta,
)
from repro.core.linear import LinearSystem, SolveStats
from repro.core.persistence import load_simgraph, save_simgraph
from repro.core.profiles import RetweetProfiles
from repro.core.propagation import PropagationEngine, PropagationResult
from repro.core.propagation_csr import (
    PROP_BACKENDS,
    CSRPropagationEngine,
    CSRWarmState,
    make_propagation_engine,
)
from repro.core.recommender import SimGraphRecommender
from repro.core.scheduler import DelayPolicy, PostponedScheduler, PropagationTask
from repro.core.simgraph import DEFAULT_TAU, SimGraph, SimGraphBuilder
from repro.core.simmatrix import SimilarityMatrix
from repro.core.similarity import (
    pairwise_similarities,
    similarities_from,
    similarity,
)
from repro.core.thresholds import (
    DynamicThreshold,
    NoThreshold,
    StaticThreshold,
    ThresholdPolicy,
)
from repro.core.topics import (
    TopicAssignment,
    merge_by_coretweeters,
    merge_by_label,
    topic_profiles,
)
from repro.core.update import STRATEGIES, apply_strategy
from repro.core.warmcache import WarmStateCache

__all__ = [
    "CSRPropagationEngine",
    "CSRWarmState",
    "ColdStartAugmenter",
    "DEFAULT_TAU",
    "DelayPolicy",
    "DeltaPlan",
    "DeltaReport",
    "DynamicThreshold",
    "LinearSystem",
    "NoThreshold",
    "PROP_BACKENDS",
    "PostponedScheduler",
    "PropagationEngine",
    "PropagationResult",
    "PropagationTask",
    "RetweetProfiles",
    "STRATEGIES",
    "SimGraph",
    "SimGraphBuilder",
    "SimGraphRecommender",
    "SimilarityMatrix",
    "SolveStats",
    "StaticThreshold",
    "ThresholdPolicy",
    "TopicAssignment",
    "WarmStateCache",
    "make_propagation_engine",
    "merge_by_coretweeters",
    "merge_by_label",
    "topic_profiles",
    "affected_region",
    "apply_delta",
    "apply_strategy",
    "load_simgraph",
    "pairwise_similarities",
    "save_simgraph",
    "similarities_from",
    "similarity",
]
