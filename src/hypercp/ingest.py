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
the newline positions give each line's first token, and each line's
first ``#`` cuts its labels from its weight.  Labels and weight strings
are interned as keys: each is packed into big-endian uint64 columns, one
per 8 bytes with the bytes past its end zeroed, plus its length when the
text holds a NUL byte (without one, zero padding cannot make two strings
equal).  One sort on the first column groups the strings of up to 8
bytes; a later column is read only for the strings still tied that reach
it.  The groups are numbered by first appearance.  Only the distinct
labels are decoded, ``float`` runs once per distinct weight string, and
the checks are array operations: the first bad line in file order
raises, with the message of its first failed check (weight syntax,
weight value, two distinct labels, no label that starts with ``%``,
then a finite positive weight).
"""

from __future__ import annotations

import contextlib
import gzip
import re
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph, spans

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "hypergraph_to_text",
    "read_label_set",
]

# the whitespace of str.split outside ASCII, which the reader maps to a space
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# _KEEP[k] keeps the k leading bytes of a big-endian uint64
_KEEP = np.array([(2**64 - 2 ** (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _solid(raw: np.ndarray) -> np.ndarray:
    """True on the bytes that are not ASCII whitespace of `str.split`
    (9-13 and 28-32)."""
    return ((raw - np.uint8(9)) > 4) & ((raw - np.uint8(28)) > 4)


def _open_text(source, mode: str = "rt"):
    """Open a path as UTF-8 text (gzip-aware) or pass a file object through."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return gzip.open(path, mode, encoding="utf-8")
        return open(path, mode, encoding="utf-8")
    return contextlib.nullcontext(source)


def _sorted_keys(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Sort the byte strings ``buf[starts[k]:ends[k]]`` by their keys.

    Returns the sorting order, a flag on the first string of each run of
    equal ones, and each run's smallest k.  `buf` ends with 8 zero bytes
    past every string, so each key column reads a whole uint64.  One
    sort on the first column (and the length, when the text holds a NUL
    byte), refined one column at a time over only the strings still tied
    and longer than the columns read: the work stays linear in the text
    however long the longest string.
    """
    lens = ends - starts
    window = np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))

    def column(rows, j):
        col = window[np.minimum(starts[rows] + 8 * j, buf.size - 8)]
        col &= _KEEP[np.clip(lens[rows] - 8 * j, 0, 8)]
        return col

    col = column(slice(None), 0)
    nul = not buf[:-8].all()  # a NUL byte: "a" and "a\0" pack alike
    order = np.lexsort((col, lens)) if nul else np.argsort(col)
    new = np.ones(starts.size, dtype=bool)
    ranked = col[order]
    new[1:] = ranked[1:] != ranked[:-1]
    if nul:
        ranked = lens[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    if lens.max() > 8:
        # without a NUL byte, a string that ends by column j has zero there
        # and one that goes on has not, so tied strings part where one ends
        heads = np.flatnonzero(new)
        run = np.cumsum(new) - 1
        size = np.bincount(run)
        longest = np.maximum.reduceat(lens[order], heads)
        live = np.flatnonzero(((size > 1) & (longest > 8))[run])
        group = heads[run]  # position where each string's tie group starts
        j = 1
        while live.size:
            rows, g = order[live], group[live]  # g ascends: rows move only within groups
            col = column(rows, j)
            o = np.lexsort((col, g))
            order[live], col = rows[o], col[o]
            split = np.ones(live.size, dtype=bool)
            split[1:] = (g[1:] != g[:-1]) | (col[1:] != col[:-1])
            new[live] = split
            run = np.cumsum(split) - 1
            group[live] = live[split][run]
            j += 1
            size = np.bincount(run)
            longest = np.maximum.reduceat(lens[order[live]], np.flatnonzero(split))
            live = live[((size > 1) & (longest > 8 * j))[run]]
    return order, new, np.minimum.reduceat(order, np.flatnonzero(new))


def _first_seen(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Number the byte strings ``buf[starts[k]:ends[k]]`` by first appearance.

    Returns each string's id and, per id, the k of its first appearance.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order, new, first = _sorted_keys(buf, starts, ends)
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    group = np.cumsum(new)
    group -= 1
    ids = np.empty(starts.size, dtype=np.int64)
    ids[order] = rank[group]
    return ids, first[by_first]


def _strings(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    return [data[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip(starts.tolist(), ends.tolist())]


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


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
    # 8 zero bytes past the end let a key read a whole uint64 anywhere
    data = plain.encode("utf-8", "surrogatepass") + bytes(8)
    buf = np.frombuffer(data, dtype=np.uint8)
    raw = buf[:-8]

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
    last = np.cumsum(sizes) - 1
    line_pos = starts[last]  # a byte on each line, to number it in an error

    # each line's first '#' cuts its labels from the rest of the line: the
    # weight part runs from the next non-space byte to the line's last token
    hashes = np.flatnonzero(raw == ord("#"))
    token = np.searchsorted(starts, hashes, side="right") - 1
    hashes, token = hashes[token >= 0], token[token >= 0]
    inside = ends[token] > hashes
    hashes, token = hashes[inside], token[inside]
    hashed = np.searchsorted(last, token)
    first = np.diff(hashed, prepend=-1) != 0
    hashes, token, hashed = hashes[first], token[first], hashed[first]
    right_end = ends[last[hashed]]
    following = np.where(token < last[hashed], starts.take(token + 1, mode="clip"), right_end)
    right_start = np.where(ends[token] > hashes + 1, hashes + 1, following)
    if hashes.size:
        # keep the part of the cut token before its '#', drop what follows
        partial = starts[token] < hashes
        ends = ends.copy()
        ends[token[partial]] = hashes[partial]
        dropped = last[hashed] + 1 - token - partial
        keep = np.ones(starts.size, dtype=bool)
        keep[np.repeat(token + partial - np.cumsum(dropped) + dropped, dropped)
             + np.arange(dropped.sum())] = False
        starts, ends = starts[keep], ends[keep]
        sizes[hashed] -= dropped

    syntax = ((right_end - right_start >= 2) & (buf[right_start] == ord("w"))
              & (buf[right_start + 1] == ord("=")))
    weighted = hashed[syntax]
    weight_starts, weight_ends = right_start[syntax] + 2, right_end[syntax]
    weight_ids, weight_first = _first_seen(buf, weight_starts, weight_ends)
    parsed = [_float_or_none(s)
              for s in _strings(data, weight_starts[weight_first], weight_ends[weight_first])]
    unparsed = np.array([w is None for w in parsed], dtype=bool)
    weights = np.ones(sizes.size)
    weights[weighted] = np.array(parsed, dtype=np.float64)[weight_ids]

    ids, label_first = _first_seen(buf, starts, ends)
    filled = sizes > 0
    offsets = (np.cumsum(sizes) - sizes)[filled]
    two = np.zeros(sizes.size, dtype=bool)
    two[filled] = np.minimum.reduceat(ids, offsets) != np.maximum.reduceat(ids, offsets)

    # the first bad line wins; within a line, the first failed check
    kind = np.zeros(sizes.size, dtype=np.int8)
    kind[~(np.isfinite(weights) & (weights > 0.0))] = 5
    percent = buf[starts[label_first]] == ord("%")  # only a line's first token makes a comment
    if percent.any():
        kind[np.searchsorted(np.cumsum(sizes), np.flatnonzero(percent[ids]), side="right")] = 4
    kind[~two] = 3
    kind[weighted[unparsed[weight_ids]]] = 2
    kind[hashed[~syntax]] = 1
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
