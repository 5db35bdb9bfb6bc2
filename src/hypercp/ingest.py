"""File formats: the canonical edge-list text format and simplex streams.

Canonical text format: one hyperedge per line as whitespace-separated
node labels, optionally followed by ``# w=<float>``; lines starting with
``%`` are comments.  Writing always prints the weight and orders labels
and edges by dense index.  Labels map to dense 0-based indices in
first-appearance order and the mapping is kept on the hypergraph, so a
reread file keeps every edge's labels and weight bytes, not its layout.

Simplex streams are the three-parallel-file layout (sizes file, member
file, optional timestamp file, one integer/label per line).  Each
simplex becomes a hyperedge; duplicates merge into integer multiplicity
weights, within-simplex duplicate labels collapse, and the resulting
size-1 simplices are dropped with a reported count.  Timestamps are
ignored.  All readers accept plain or gzip-compressed files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import logging
import math
from pathlib import Path

from .hypergraph import Hypergraph

__all__ = [
    "SimplexStream",
    "read_edge_list",
    "write_edge_list",
    "hypergraph_to_text",
    "load_simplex_stream",
    "simplices_to_hypergraph",
    "read_simplex_stream",
    "read_label_set",
]

log = logging.getLogger(__name__)


def _open_text(source, mode: str = "rt"):
    """Open a path (gzip-aware) or pass a file-like through."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return gzip.open(path, mode)
        return open(path, mode)
    return contextlib.nullcontext(source)


def read_edge_list(source) -> Hypergraph:
    """Parse the canonical text format into a hypergraph.

    `source` is a path (``.gz`` accepted) or a file-like of text lines.
    Malformed lines raise ValueError with the 1-based line number.
    """
    index: dict[str, int] = {}
    edges: list[list[int]] = []
    weights: list[float] = []
    with _open_text(source) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            weight = 1.0
            if "#" in line:
                left, _, right = line.partition("#")
                right = right.strip()
                if not right.startswith("w="):
                    raise ValueError(
                        f"line {lineno}: expected '# w=<float>', got {right!r}"
                    )
                try:
                    weight = float(right[2:])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad weight {right[2:]!r}"
                    ) from None
                line = left
            labels = line.split()
            if len(set(labels)) < 2:
                raise ValueError(
                    f"line {lineno}: a hyperedge needs at least 2 distinct labels"
                )
            if not (math.isfinite(weight) and weight > 0.0):
                raise ValueError(f"line {lineno}: weight must be positive and finite, got {weight}")
            for lab in labels:
                if lab not in index:
                    index[lab] = len(index)
            edges.append([index[lab] for lab in labels])
            weights.append(weight)
    by_index = sorted(index, key=index.get)
    return Hypergraph(len(index), edges, weights=weights, labels=by_index)


def hypergraph_to_text(h: Hypergraph) -> str:
    """Canonical text serialization; weights always printed."""
    names = h.labels if h.labels is not None else list(map(str, range(h.n)))
    tokens = [names[i] for i in h.members.tolist()]
    bounds = h.offsets.tolist()
    lines = [
        f"{' '.join(tokens[a:b])} # w={w!r}"
        for a, b, w in zip(bounds, bounds[1:], h.weights.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_edge_list(h: Hypergraph, dest) -> None:
    """Write the canonical text format to a path or text stream."""
    text = hypergraph_to_text(h)
    if isinstance(dest, (str, Path)):
        path = Path(dest)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt") as f:
            f.write(text)
    else:
        dest.write(text)


@dataclasses.dataclass
class SimplexStream:
    """Parallel simplex-stream arrays: sizes, flattened members, times."""

    nverts: list[int]
    flat_nodes: list[str]
    times: list[int] | None = None

    def __post_init__(self) -> None:
        total = sum(self.nverts)
        if total != len(self.flat_nodes):
            raise ValueError(
                f"simplex sizes sum to {total} but {len(self.flat_nodes)} members given"
            )
        if any(s < 1 for s in self.nverts):
            raise ValueError("every simplex size must be >= 1")
        if self.times is not None and len(self.times) != len(self.nverts):
            raise ValueError(
                f"{len(self.nverts)} simplices but {len(self.times)} timestamps"
            )


def load_simplex_stream(nverts_src, simplices_src, times_src=None) -> SimplexStream:
    """Read the three parallel files of a simplex stream."""
    with _open_text(nverts_src) as f:
        nverts = [int(line) for line in f if line.strip()]
    with _open_text(simplices_src) as f:
        flat = [line.strip() for line in f if line.strip()]
    times = None
    if times_src is not None:
        with _open_text(times_src) as f:
            times = [int(line) for line in f if line.strip()]
    return SimplexStream(nverts=nverts, flat_nodes=flat, times=times)


def simplices_to_hypergraph(stream: SimplexStream) -> tuple[Hypergraph, int]:
    """Collapse a simplex stream to a multiplicity-weighted hypergraph.

    Each simplex is treated as a node set (duplicate labels inside a
    simplex collapse first); identical sets merge with weight equal to
    their multiplicity.  Returns the hypergraph and the number of
    simplices dropped for having a single distinct node.
    """
    index: dict[str, int] = {}
    edges: list[list[int]] = []
    dropped = 0
    pos = 0
    for size in stream.nverts:
        chunk = stream.flat_nodes[pos : pos + size]
        pos += size
        distinct = list(dict.fromkeys(chunk))
        if len(distinct) < 2:
            dropped += 1
            continue
        for lab in distinct:
            if lab not in index:
                index[lab] = len(index)
        edges.append([index[lab] for lab in distinct])
    by_index = sorted(index, key=index.get)
    return Hypergraph(len(index), edges, labels=by_index), dropped


def read_simplex_stream(nverts_src, simplices_src, times_src=None) -> Hypergraph:
    """Read a simplex stream directly into a hypergraph.

    Duplicate simplices become integer edge weights; size-1 simplices
    are dropped (count logged); timestamps are read but ignored.
    """
    stream = load_simplex_stream(nverts_src, simplices_src, times_src)
    h, dropped = simplices_to_hypergraph(stream)
    if dropped:
        log.warning("dropped %d single-node simplices", dropped)
    return h


def read_label_set(source, h: Hypergraph) -> tuple[list[int], list[str]]:
    """Read a plain label list (e.g. a planted core) against a hypergraph.

    One label per whitespace-separated token; '%' comments allowed.
    Labels absent from the hypergraph are returned instead of raising.
    """
    if h.labels is not None:
        lookup = {lab: i for i, lab in enumerate(h.labels)}
    else:
        lookup = {str(i): i for i in range(h.n)}
    found: list[int] = []
    missing: list[str] = []
    seen: set[str] = set()
    with _open_text(source) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            for lab in line.split():
                if lab in seen:
                    continue
                seen.add(lab)
                if lab in lookup:
                    found.append(lookup[lab])
                else:
                    missing.append(lab)
    return found, missing
