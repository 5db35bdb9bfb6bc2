"""File formats: the canonical edge-list text format and label lists.

Canonical text format, UTF-8: one hyperedge per line as
whitespace-separated node labels, optionally followed by
``# w=<float>``; lines starting with ``%`` are comments.  Writing always
prints the weight and orders labels and edges by dense index.  Labels
map to dense 0-based indices in first-appearance order and the mapping
is kept on the hypergraph, so a reread file keeps every edge's labels
and weight bytes, not its layout.  Repeated labels in a line collapse;
repeated lines merge, weights summed.

The reader has no per-line Python loop.  It reads the whole text, maps
the non-ASCII whitespace that `str.split` knows to a space, and works on
the UTF-8 bytes with numpy: a whitespace mask gives the token bounds,
the newline positions give each line's first token, and one index
numbers each token's line, through which every per-line rule applies.
A line's first ``#`` cuts its tokens there, and the rest of the line,
stripped, is its weight part.  Labels and weight parts are interned
with the constructor's row sort, `hypergraph.sorted_rows`, each a row
of bytes: the sort is stable, so each run of equal strings starts at its
first appearance, and the runs are numbered in that order.  Only the
distinct labels are decoded, and each distinct weight part is checked
once.  The first bad line in file order raises, with the message of its
first failed check (weight syntax, weight value, two distinct labels,
no label that starts with ``%``, then a finite positive weight).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import re
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph, sorted_rows, spans

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "hypergraph_to_text",
    "read_label_set",
]

# the whitespace of str.split outside ASCII, which the reader maps to a space
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


def _solid(raw: np.ndarray) -> np.ndarray:
    """True on the bytes that are not ASCII whitespace of `str.split`
    (9-13 and 28-32)."""
    return ((raw - np.uint8(9)) > 4) & ((raw - np.uint8(28)) > 4)


def _open_text(source, mode: str = "rt"):
    """Open a path as UTF-8 text (gzip-aware) or pass a file object through.
    A ``.gz`` file is written with a fixed header time, so two writes of
    one hypergraph give the same bytes."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return io.TextIOWrapper(gzip.GzipFile(path, mode[0] + "b", mtime=0), encoding="utf-8")
        return open(path, mode, encoding="utf-8")
    return contextlib.nullcontext(source)


def _first_seen(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Number the byte strings ``buf[starts[k]:ends[k]]`` by first appearance.

    Returns each string's id and, per id, the k of its first appearance.
    """
    order, new = sorted_rows(buf, starts, ends - starts, 256)
    first = order[new]  # the sort is stable: a run's first string appears first
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    ids = np.empty(starts.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, first[by_first]


def _strings(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    return [data[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip(starts.tolist(), ends.tolist())]


def _check_weight(part: str) -> tuple[int, float]:
    """Check a weight part, the text after a line's first '#': kind 1 if
    it is not ``w=...`` once stripped, kind 2 if the rest is not a float."""
    part = part.lstrip()  # it ends at a token's end
    if not part.startswith("w="):
        return 1, 1.0
    try:
        return 0, float(part[2:])
    except ValueError:
        return 2, 1.0


def _line_error(text: str, lineno: int, kind: int, weight: float) -> ValueError:
    """The error for line `lineno` of `text`, whose first failed check is `kind`."""
    left, _, right = text.split("\n", lineno)[lineno - 1].partition("#")
    right = right.strip()
    percent = next((lab for lab in left.split() if lab.startswith("%")), "")
    message = {
        1: f"expected '# w=<float>', got {right!r}",
        2: f"bad weight {right[2:]!r}",
        3: "a hyperedge needs at least 2 distinct labels",
        4: f"label not representable in text format: {percent!r}",
        5: f"weight must be positive and finite, got {weight}",
    }[kind]
    return ValueError(f"line {lineno}: {message}")


def read_edge_list(source) -> Hypergraph:
    """Parse the canonical text format into a hypergraph.

    `source` is a path (``.gz`` accepted), read as UTF-8, or a text file
    object, which is read whole.  Lines end at ``\\n`` after the file's
    own newline translation; tokens split exactly where `str.split`
    splits.  The first malformed line raises ValueError with its 1-based
    line number.
    """
    with _open_text(source) as f:
        sizes, members, weights, labels = _parse(f.read())
    return Hypergraph.from_flat(len(labels), sizes, members, weights=weights, labels=labels)


def _parse(text: str):
    """Edge sizes, label ids, weights and labels of an edge-list text.

    A function of its own, so every token array is freed before the
    constructor runs.
    """
    plain = text if text.isascii() else _WIDE_SPACE.sub(" ", text)
    data = plain.encode("utf-8", "surrogatepass")
    raw = np.frombuffer(data, dtype=np.uint8)

    # tokens, cut into lines at the newlines; comment lines are dropped
    bounds = np.flatnonzero(np.diff(_solid(raw), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    newlines = np.flatnonzero(raw == ord("\n"))
    heads = np.searchsorted(starts, np.r_[-1, newlines])
    heads = heads[np.diff(heads, append=starts.size) > 0]
    sizes = np.diff(heads, append=starts.size)
    edge = raw[starts[heads]] != ord("%")
    if not edge.all():
        keep = np.repeat(edge, sizes)
        starts, ends, sizes = starts[keep], ends[keep], sizes[edge]
    lines = sizes.size
    line = np.repeat(np.arange(lines), sizes)
    last = np.cumsum(sizes) - 1
    line_pos = starts[last]  # a byte on each line, to number it in an error

    # each line's first '#' cuts its labels from its weight part, which runs
    # from the next byte to the line's last token
    hashes = np.flatnonzero(raw == ord("#"))
    token = np.searchsorted(ends, hashes, side="right")  # the first token that ends past it
    inside = np.append(starts, raw.size)[token] <= hashes  # else the '#' is in a comment line
    hashes, token = hashes[inside], token[inside]
    hashed = line[token]
    first = np.diff(hashed, prepend=-1) != 0
    hashes, hashed = hashes[first], hashed[first]
    right_end = ends[last[hashed]]
    if hashes.size:  # a token keeps only its bytes before its line's first '#'
        cut = np.full(lines, raw.size)
        cut[hashed] = hashes
        cut = cut[line]
        keep = starts < cut
        starts, ends, line = starts[keep], np.minimum(ends, cut)[keep], line[keep]
        sizes = np.bincount(line, minlength=lines)

    # each distinct weight part is checked once
    part_ids, part_first = _first_seen(raw, hashes + 1, right_end)
    parts = _strings(data, hashes[part_first] + 1, right_end[part_first])
    checked = np.array([_check_weight(part) for part in parts], dtype=[("kind", np.int8), ("weight", float)])
    weights = np.ones(lines)
    weights[hashed] = checked["weight"][part_ids]

    ids, label_first = _first_seen(raw, starts, ends)
    # a line has two distinct labels iff two neighbouring tokens on it differ
    two = np.zeros(lines, dtype=bool)
    two[line[1:][(ids[1:] != ids[:-1]) & (line[1:] == line[:-1])]] = True

    # the first bad line wins; within a line, the first failed check
    kind = np.zeros(lines, dtype=np.int8)
    kind[~(np.isfinite(weights) & (weights > 0.0))] = 5
    percent = raw[starts[label_first]] == ord("%")  # only a line's first token makes a comment
    kind[line[percent[ids]]] = 4
    kind[~two] = 3
    failed = checked["kind"][part_ids]
    kind[hashed[failed > 0]] = failed[failed > 0]
    if kind.any():
        bad = int(np.argmax(kind > 0))
        lineno = int(np.searchsorted(newlines, line_pos[bad])) + 1
        raise _line_error(text, lineno, int(kind[bad]), float(weights[bad]))
    return sizes, ids, weights, _strings(data, starts[label_first], ends[label_first])


def hypergraph_to_text(h: Hypergraph) -> str:
    """Canonical text serialization; weights always printed.

    Built as UTF-8 bytes with numpy: each label is encoded once and each
    distinct weight's repr made once, and one gather lays every member's
    label, then a space or its line's ``# w=<repr>`` tail, end to end.
    """
    names = h.labels if h.labels is not None else map(str, range(h.n))
    labels = [name.encode("utf-8", "surrogatepass") for name in names]
    distinct, which = np.unique(h.weights, return_inverse=True)
    tails = [f" # w={w!r}\n".encode() for w in distinct.tolist()]
    # the pieces, end to end: every label, a space, then every tail
    pieces = labels + [b" "] + tails
    lengths = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
    starts = np.cumsum(lengths) - lengths
    # each member's label, then a space, or its edge's tail after the last member
    after = np.full(h.members.size, h.n)
    after[h.offsets[1:] - 1] = h.n + 1 + which
    piece = np.column_stack([h.members, after]).ravel()
    buf = np.frombuffer(b"".join(pieces), dtype=np.uint8)
    return buf[spans(starts[piece], lengths[piece])].tobytes().decode("utf-8", "surrogatepass")


def write_edge_list(h: Hypergraph, dest) -> None:
    """Write the canonical text format to a path or text stream."""
    with _open_text(dest, "wt") as f:
        f.write(hypergraph_to_text(h))


def read_label_set(source, h: Hypergraph) -> tuple[list[int], list[str]]:
    """Read a plain label list (e.g. a planted core) against a hypergraph.

    One label per whitespace-separated token; '%' comments allowed.
    Labels absent from the hypergraph are returned instead of raising.
    """
    names = map(str, range(h.n)) if h.labels is None else h.labels
    lookup = {lab: i for i, lab in enumerate(names)}
    with _open_text(source) as f:
        labels = dict.fromkeys(
            lab for line in f if not line.lstrip().startswith("%") for lab in line.split()
        )
    found = [lookup[lab] for lab in labels if lab in lookup]
    return found, [lab for lab in labels if lab not in lookup]
