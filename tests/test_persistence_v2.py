"""Snapshot persistence properties: v1 <-> v2, mmap, corruption, atomicity.

Hypothesis generates arbitrary small SimGraphs and locks down the
cross-format contract:

* format 2 (the one written) and format 1 (read only; written here by
  the test suite's :func:`save_v1`) round-trip the exact edge set,
  weights and tau, and load edge-identical to each other;
* ``mmap=True`` and eager v2 loads are bit-identical — same section
  bytes, same compiled CSR, same propagation fixpoints;
* truncated, NaN-weight, non-positive-weight, duplicate-node and
  otherwise corrupted snapshots raise :class:`DatasetError` instead of loading quietly;
* saves are atomic: a crashing writer leaves the previous snapshot (and
  no ``.tmp`` litter) behind.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.persistence import load_simgraph, save_simgraph
from repro.core.propagation_csr import make_propagation_engine
from repro.core.simgraph import SimGraph
from repro.exceptions import DatasetError
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import save_v1, simgraph_of


@st.composite
def simgraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    graph = DiGraph()
    graph.add_nodes(range(n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=24,
        )
    )
    weight = st.floats(
        min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=draw(weight))
    tau = draw(st.floats(min_value=1e-6, max_value=0.1, allow_nan=False))
    return simgraph_of(graph, tau=tau)


def _edge_map(simgraph):
    return {
        (u, v): w
        for u in simgraph.users.tolist()
        for v, w in simgraph.influencers(u)
    }


@settings(max_examples=50)
@given(simgraphs())
def test_v1_v2_load_edge_identical(tmp_path_factory, simgraph):
    """The two formats persist the same graph."""
    tmp = tmp_path_factory.mktemp("fmt")
    p1 = save_v1(simgraph, tmp / "g.v1")
    p2 = save_simgraph(simgraph, tmp / "g.v2", format=2)
    g1 = load_simgraph(p1)
    g2 = load_simgraph(p2)
    assert g1.node_count == g2.node_count == simgraph.node_count
    assert g1.tau == pytest.approx(g2.tau) == pytest.approx(simgraph.tau)
    e1, e2 = _edge_map(g1), _edge_map(g2)
    assert set(e1) == set(e2) == set(_edge_map(simgraph))
    for pair, w in e1.items():
        assert e2[pair] == w  # exact: both formats round-trip float64


@settings(max_examples=50)
@given(simgraphs())
def test_mmap_and_eager_bit_identical(tmp_path_factory, simgraph):
    """mmap=True and eager v2 loads compile to the same CSR bits."""
    tmp = tmp_path_factory.mktemp("mmap")
    path = save_simgraph(simgraph, tmp / "g.v2", format=2)
    mapped = load_simgraph(path, mmap=True)
    eager = load_simgraph(path, mmap=False)
    assert isinstance(mapped, SimGraph)
    assert isinstance(eager, SimGraph)
    for a, b in zip(mapped.arrays(), eager.arrays()):
        assert a.tobytes() == b.tobytes()
    cm, ce = mapped, eager
    assert cm.inf_indptr.tobytes() == ce.inf_indptr.tobytes()
    assert cm.inf_indices.tobytes() == ce.inf_indices.tobytes()
    assert cm.inf_weights.tobytes() == ce.inf_weights.tobytes()
    seeds = [sorted(mapped.users.tolist())[:2]]
    rm = make_propagation_engine(
        cm, prop_backend="csr"
    ).propagate_many(seeds)
    re_ = make_propagation_engine(
        ce, prop_backend="csr"
    ).propagate_many(seeds)
    assert rm[0].probabilities == re_[0].probabilities


def _small_graph():
    graph = DiGraph()
    graph.add_nodes(range(4))
    graph.add_edge(0, 1, weight=0.5)
    graph.add_edge(1, 2, weight=0.25)
    graph.add_edge(3, 0, weight=0.125)
    return simgraph_of(graph, tau=0.001)


def test_mmap_requires_v2(tmp_path):
    path = save_v1(_small_graph(), tmp_path / "g.v1")
    with pytest.raises(DatasetError, match="format-2"):
        load_simgraph(path, mmap=True)


def test_unknown_format_rejected(tmp_path):
    """Format 2 is the one format written; format 1 is read only."""
    for format in (1, 3):
        with pytest.raises(DatasetError, match="unknown snapshot format"):
            save_simgraph(_small_graph(), tmp_path / "g", format=format)
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("mmap", [False, True])
def test_truncated_v2_raises(tmp_path, mmap):
    path = save_simgraph(_small_graph(), tmp_path / "g.v2", format=2)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(DatasetError, match="truncated"):
        load_simgraph(path, mmap=mmap)


def _v2_weights_offset(path) -> int:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
    return header["data_start"] + header["sections"]["weights"]["offset"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5, 0.0])
@pytest.mark.parametrize("mmap", [False, True])
def test_corrupt_v2_weight_raises(tmp_path, bad, mmap):
    path = save_simgraph(_small_graph(), tmp_path / "g.v2", format=2)
    offset = _v2_weights_offset(path)
    data = bytearray(path.read_bytes())
    data[offset + 8 : offset + 16] = struct.pack("<d", bad)
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetError, match="invalid weight"):
        load_simgraph(path, mmap=mmap)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1.0", "0"])
def test_corrupt_v1_weight_raises(tmp_path, bad):
    path = save_v1(_small_graph(), tmp_path / "g.v1")
    lines = path.read_text().splitlines()
    u, v, _ = json.loads(lines[1])
    lines[1] = f"[{u}, {v}, {bad}]"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="invalid weight"):
        load_simgraph(path)


def test_corrupt_v2_indptr_raises(tmp_path):
    path = save_simgraph(_small_graph(), tmp_path / "g.v2", format=2)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
    offset = header["data_start"] + header["sections"]["indptr"]["offset"]
    data = bytearray(path.read_bytes())
    data[offset : offset + 8] = struct.pack("<q", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetError, match="indptr"):
        load_simgraph(path)


@pytest.mark.parametrize("mmap", [False, True])
def test_duplicate_node_ids_raise(tmp_path, mmap):
    """Users are in node order, not sorted: a repeated id anywhere in
    the section is caught."""
    path = save_simgraph(_small_graph(), tmp_path / "g.v2")
    with open(path, "rb") as f:
        header = json.loads(f.readline())
    offset = header["data_start"] + header["sections"]["users"]["offset"]
    data = bytearray(path.read_bytes())
    data[offset + 24 : offset + 32] = data[offset : offset + 8]
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetError, match="duplicate node ids"):
        load_simgraph(path, mmap=mmap)


def test_garbage_header_raises(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x00\x01\x02 not json\n1234")
    with pytest.raises(DatasetError, match="invalid header"):
        load_simgraph(path)


def test_save_is_atomic(tmp_path, monkeypatch):
    """A crash mid-write leaves the previous snapshot intact, no litter."""
    path = tmp_path / "g.snap"
    save_simgraph(_small_graph(), path)
    before = path.read_bytes()

    import repro.core.persistence as persistence

    def boom(tmp, dst):
        raise OSError("disk died before rename")

    monkeypatch.setattr(persistence, "_replace_atomically", boom)
    with pytest.raises(OSError):
        save_simgraph(_small_graph(), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not path.with_name(path.name + ".tmp").exists()
    # And the survivor still loads.
    assert load_simgraph(path).edge_count == 3


def test_no_tmp_after_successful_save(tmp_path):
    path = save_simgraph(_small_graph(), tmp_path / "g.v2", format=2)
    assert not path.with_name(path.name + ".tmp").exists()


def test_mmap_arrays_are_readonly(tmp_path):
    """A mapped snapshot can never be written through: maintenance
    builds new arrays from it."""
    path = save_simgraph(_small_graph(), tmp_path / "g.v2", format=2)
    mapped = load_simgraph(path, mmap=True)
    assert not mapped.inf_weights.flags.writeable


def test_v2_preserves_isolated_nodes(tmp_path):
    graph = DiGraph()
    graph.add_nodes(range(5))
    graph.add_edge(0, 1, weight=0.5)
    path = save_simgraph(simgraph_of(graph, tau=0.01), tmp_path / "g", format=2)
    loaded = load_simgraph(path, mmap=True)
    assert loaded.node_count == 5
    assert loaded.edge_count == 1
    assert set(loaded.users.tolist()) == set(range(5))
