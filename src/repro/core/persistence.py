"""SimGraph persistence.

Building the similarity graph is the expensive step (the paper's 311
ms/user adds up to 1.4 hours at crawl scale), so a deployed service wants
to snapshot it.  :func:`save_simgraph` writes one format, **format 2**:
a binary columnar layout — a JSON header line padded to a 4 KiB-multiple
block, followed by the raw little-endian CSR sections (``users``,
``indptr``, ``indices``, ``weights``) at 64-byte-aligned offsets recorded
in the header.  With ``load_simgraph(path, mmap=True)`` the sections are
``np.memmap``-ed zero-copy into a :class:`~repro.core.simgraph.SimGraph`
— a million-edge graph is ready for the ``csr`` propagation backend in
milliseconds, without ever materializing a dict adjacency.

:func:`load_simgraph` also reads **format 1**, the JSONL edge dump
earlier versions wrote (line 1 the header, each further line one
``[source, target, weight]`` edge), so existing snapshots stay usable.

The save writes to a ``.tmp`` sibling and ``os.replace``-s it into
place, so a crash mid-write can never leave a truncated file under the
snapshot's name.  Both load paths validate weights (finite, strictly
positive — a corrupted snapshot must fail loudly, not propagate NaNs
into every downstream score) and cross-check the header counts.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from repro.core.csr import sorted_unique
from repro.core.simgraph import SimGraph
from repro.exceptions import DatasetError

__all__ = ["save_simgraph", "load_simgraph"]

#: The JSONL edge dump earlier versions wrote; read, never written.
FORMAT_VERSION = 1
FORMAT_VERSION_V2 = 2

#: The v2 header line is space-padded to a multiple of this block size,
#: so array offsets are stable and page-aligned.
_HEADER_BLOCK = 4096
#: Array sections start at offsets aligned to this (cache-line friendly,
#: and satisfies any dtype's alignment requirement).
_SECTION_ALIGN = 64

#: v2 section order and dtypes (little-endian, fixed).
_V2_SECTIONS = (
    ("users", "<i8"),
    ("indptr", "<i8"),
    ("indices", "<i8"),
    ("weights", "<f8"),
)


def save_simgraph(
    simgraph: SimGraph, path: str | Path, format: int = FORMAT_VERSION_V2
) -> Path:
    """Write ``simgraph`` to ``path`` atomically in format 2.

    ``format`` accepts only 2 (format 1 is read, never written).  The
    data lands in a ``.tmp`` sibling first and is renamed over ``path``
    only once fully flushed — a crash mid-write leaves the previous
    snapshot (or nothing) in place, never a truncated file.
    """
    if format != FORMAT_VERSION_V2:
        raise DatasetError(
            f"unknown snapshot format {format!r} to write; "
            f"only format {FORMAT_VERSION_V2} is written"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _save_v2(simgraph, path)
    return path


def load_simgraph(path: str | Path, mmap: bool = False) -> SimGraph:
    """Load a snapshot of either format (see module docstring).

    With ``mmap=True`` (format 2 only) the CSR sections are memory-mapped
    read-only: count/row queries and the ``csr`` propagation backend run
    straight off the mapped arrays.  Weights are validated (finite,
    strictly positive) on every path; corrupted or truncated files raise
    :class:`~repro.exceptions.DatasetError`.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path} does not exist")
    with open(path, "rb") as f:
        header_line = f.readline()
    try:
        header = json.loads(header_line.decode("utf-8").strip())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: invalid header") from exc
    if not isinstance(header, dict) or "tau" not in header:
        raise DatasetError(f"{path}: not a SimGraph snapshot")
    fmt = header.get("format")
    if fmt == FORMAT_VERSION:
        if mmap:
            raise DatasetError(
                f"{path}: mmap=True requires a format-2 binary snapshot "
                "(this file is format 1; load it and save it again)"
            )
        return _load_v1(path, header)
    if fmt == FORMAT_VERSION_V2:
        return _load_v2(path, header, mmap=mmap)
    raise DatasetError(f"{path}: unsupported format {fmt!r}")


# ----------------------------------------------------------------------
# Atomic replacement
# ----------------------------------------------------------------------
def _replace_atomically(tmp: Path, path: Path) -> None:
    os.replace(tmp, path)


def _write_atomic(path: Path, writer) -> None:
    """Run ``writer(handle)`` against ``<path>.tmp``, then rename over
    ``path``.  The tmp file is fsynced before the rename and removed on
    any failure, so readers only ever see complete snapshots."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            writer(f)
            f.flush()
            os.fsync(f.fileno())
        _replace_atomically(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Format 1 — JSONL edge dump (read only)
# ----------------------------------------------------------------------
def _load_v1(path: Path, header: dict) -> SimGraph:
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as f:
        f.readline()  # header, already parsed
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                u, v, w = json.loads(line)
                u, v, weight = int(u), int(v), float(w)
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{line_no}: malformed edge") from exc
            if not math.isfinite(weight) or weight <= 0.0:
                raise DatasetError(
                    f"{path}:{line_no}: invalid weight {w!r} "
                    "(must be finite and positive)"
                )
            if u == v:
                raise DatasetError(f"{path}:{line_no}: self-loop on {u}")
            if (u, v) in seen:
                raise DatasetError(f"{path}:{line_no}: duplicate edge {u} -> {v}")
            seen.add((u, v))
            sources.append(u)
            targets.append(v)
            weights.append(weight)
    simgraph = SimGraph.from_edges(
        sources, targets, weights, tau=float(header["tau"]),
        nodes=header.get("isolated", ()),
    )
    expected = (header.get("nodes"), header.get("edges"))
    actual = (simgraph.node_count, simgraph.edge_count)
    if expected != actual:
        raise DatasetError(
            f"{path}: header counts {expected} disagree with content {actual}"
        )
    return simgraph


# ----------------------------------------------------------------------
# Format 2 — binary columnar CSR
# ----------------------------------------------------------------------
def _simgraph_arrays(
    simgraph: SimGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four CSR sections of ``simgraph``, in canonical dtypes."""
    users, indptr, indices, weights = simgraph.arrays()
    return (
        np.ascontiguousarray(users, dtype="<i8"),
        np.ascontiguousarray(indptr, dtype="<i8"),
        np.ascontiguousarray(indices, dtype="<i8"),
        np.ascontiguousarray(weights, dtype="<f8"),
    )


def _save_v2(simgraph: SimGraph, path: Path) -> None:
    users, indptr, indices, weights = _simgraph_arrays(simgraph)
    arrays = {
        "users": users, "indptr": indptr, "indices": indices,
        "weights": weights,
    }
    sections: dict[str, dict] = {}
    offset = 0
    for name, dtype in _V2_SECTIONS:
        array = arrays[name]
        offset = -(-offset // _SECTION_ALIGN) * _SECTION_ALIGN
        sections[name] = {
            "dtype": dtype, "offset": offset, "length": len(array),
        }
        offset += array.nbytes
    header = {
        "format": FORMAT_VERSION_V2,
        "tau": simgraph.tau,
        "nodes": len(users),
        "edges": len(indices),
        "sections": sections,
        "data_start": 0,
    }
    # The header line is padded to a block multiple; its own length
    # depends on the data_start digits, so settle by iteration (the
    # second pass is already stable in practice).
    data_start = _HEADER_BLOCK
    while True:
        header["data_start"] = data_start
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        needed = -(-(len(encoded) + 1) // _HEADER_BLOCK) * _HEADER_BLOCK
        if needed == data_start:
            break
        data_start = needed

    def writer(f):
        f.write(encoded)
        f.write(b" " * (data_start - len(encoded) - 1))
        f.write(b"\n")
        for name, _ in _V2_SECTIONS:
            section = sections[name]
            f.seek(data_start + section["offset"])
            f.write(arrays[name].tobytes())

    _write_atomic(path, writer)


def _load_v2(path: Path, header: dict, mmap: bool) -> SimGraph:
    try:
        data_start = int(header["data_start"])
        sections = header["sections"]
        nodes = int(header["nodes"])
        edges = int(header["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: malformed v2 header") from exc
    size = path.stat().st_size
    arrays: dict[str, np.ndarray] = {}
    for name, dtype in _V2_SECTIONS:
        try:
            section = sections[name]
            offset = data_start + int(section["offset"])
            length = int(section["length"])
            stored_dtype = section["dtype"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: malformed section {name!r}") from exc
        if stored_dtype != dtype:
            raise DatasetError(
                f"{path}: section {name!r} has dtype {stored_dtype!r}, "
                f"expected {dtype!r}"
            )
        end = offset + length * np.dtype(dtype).itemsize
        # Empty sections occupy no bytes (the writer never extends the
        # file for them), so only non-empty ones can be truncated.
        if length and end > size:
            raise DatasetError(
                f"{path}: truncated snapshot — section {name!r} ends at "
                f"byte {end} but the file holds {size}"
            )
        if mmap:
            arrays[name] = (
                np.memmap(path, dtype=dtype, mode="r",
                          offset=offset, shape=(length,))
                if length
                else np.empty(0, dtype=dtype)
            )
        else:
            with open(path, "rb") as f:
                f.seek(offset)
                arrays[name] = np.fromfile(f, dtype=dtype, count=length)
                if len(arrays[name]) != length:
                    raise DatasetError(
                        f"{path}: truncated snapshot — short read in "
                        f"section {name!r}"
                    )
    users, indptr = arrays["users"], arrays["indptr"]
    indices, weights = arrays["indices"], arrays["weights"]
    if len(users) != nodes or len(indices) != edges or len(weights) != edges:
        raise DatasetError(
            f"{path}: header counts ({nodes} nodes, {edges} edges) "
            "disagree with section lengths"
        )
    if len(indptr) != nodes + 1 or (nodes >= 0 and (
        len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != edges
    )):
        raise DatasetError(f"{path}: corrupt indptr section")
    if np.any(np.diff(indptr) < 0):
        raise DatasetError(f"{path}: indptr is not monotone")
    if edges:
        if int(indices.min()) < 0 or int(indices.max()) >= nodes:
            raise DatasetError(f"{path}: edge target out of range")
        bad = np.flatnonzero(~np.isfinite(weights) | (weights <= 0.0))
        if bad.size:
            i = int(bad[0])
            raise DatasetError(
                f"{path}: invalid weight {weights[i]!r} at edge {i} "
                "(must be finite and positive)"
            )
    # Users are in node order (first appearance), not sorted, so
    # uniqueness takes a sort-copy of the section.
    if len(sorted_unique(users)) != nodes:
        raise DatasetError(f"{path}: duplicate node ids")
    return SimGraph(users, indptr, indices, weights, tau=float(header["tau"]))
