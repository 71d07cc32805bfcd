"""Synthetic Twitter-like corpus generation (the paper's dataset
substitute): interest model, homophilous follow graph, retweet cascades."""

from repro.synth.activity import simulate_activity, simulate_cascade
from repro.synth.config import SynthConfig
from repro.synth.generate import generate_dataset
from repro.synth.interests import InterestModel
from repro.synth.socialgraph import build_follow_graph, sample_follow_edges
from repro.synth.stream import ChunkedGenerator, CorpusFrame, SynthChunk

__all__ = [
    "ChunkedGenerator",
    "CorpusFrame",
    "InterestModel",
    "SynthChunk",
    "SynthConfig",
    "build_follow_graph",
    "generate_dataset",
    "sample_follow_edges",
    "simulate_activity",
    "simulate_cascade",
]
