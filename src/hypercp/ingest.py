"""File formats: the canonical edge-list text format and simplex streams.

Canonical text format: one hyperedge per line as whitespace-separated
node labels, optionally followed by ``# w=<float>``; lines starting with
``%`` are comments.  Writing always prints the weight and orders labels
and edges by dense index.  Labels map to dense 0-based indices in
first-appearance order and the mapping is kept on the hypergraph, so a
reread file keeps every edge's labels and weight bytes, not its layout.

A simplex stream is two parallel files, one entry per line: the size of
each simplex, and the member labels of all simplices concatenated.
Each simplex becomes a hyperedge; duplicates merge into integer
multiplicity weights, within-simplex duplicate labels collapse, and the
resulting size-1 simplices are dropped with a logged count.  All
readers accept plain or gzip-compressed files.
"""

from __future__ import annotations

import contextlib
import gzip
import logging
import math
from pathlib import Path

from .hypergraph import Hypergraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "hypergraph_to_text",
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
            edges.append([index.setdefault(lab, len(index)) for lab in labels])
            weights.append(weight)
    return Hypergraph(len(index), edges, weights=weights, labels=list(index))


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


def read_simplex_stream(nverts_src, simplices_src) -> Hypergraph:
    """Read a simplex stream into a multiplicity-weighted hypergraph.

    `nverts_src` holds one simplex size per line, `simplices_src` the
    member labels of all simplices, one per line, in the same order;
    each is a path (``.gz`` accepted) or a file-like of text lines.
    Each simplex is treated as a node set (duplicate labels inside a
    simplex collapse first); identical sets merge with weight equal to
    their multiplicity.  Simplices with a single distinct node are
    dropped and their count is logged.
    """
    with _open_text(nverts_src) as f:
        nverts = [int(line) for line in f if line.strip()]
    with _open_text(simplices_src) as f:
        flat = [line.strip() for line in f if line.strip()]
    total = sum(nverts)
    if total != len(flat):
        raise ValueError(f"simplex sizes sum to {total} but {len(flat)} members given")
    if any(s < 1 for s in nverts):
        raise ValueError("every simplex size must be >= 1")
    index: dict[str, int] = {}
    edges: list[list[int]] = []
    dropped = 0
    pos = 0
    for size in nverts:
        distinct = dict.fromkeys(flat[pos : pos + size])
        pos += size
        if len(distinct) < 2:
            dropped += 1
            continue
        edges.append([index.setdefault(lab, len(index)) for lab in distinct])
    if dropped:
        log.warning("dropped %d single-node simplices", dropped)
    return Hypergraph(len(index), edges, labels=list(index))


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
