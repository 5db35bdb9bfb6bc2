"""Immutable hypergraph stored as one canonical sparse incidence.

A hypergraph is a set of n nodes (dense indices 0..n-1) plus a list of
hyperedges, each a set of at least two nodes, with a positive weight per
edge.  One canonicalization, on flat arrays (edge sizes and all members
concatenated), serves the constructor and `from_flat`: node indices in an
edge are sorted and deduplicated, equal edges merge with their weights
summed in input order, and edges are stored in lexicographic order by
`sorted_rows`, which also interns the text reader's labels as rows of
bytes (n = 256).  The object is immutable after construction and safe to
share across threads.

The only stored incidence is the edge -> node CSR triple (`offsets`,
`members`, `weights`), and every caller reads it directly.  Its one
sparse form, built on first use and cached, is the 0/1 incidence matrix
B as a `scipy.sparse` CSR matrix with its edges grouped by size
(`GroupedIncidence`); its transpose is a view of B's own arrays, so a
product with it scatters over B's rows.  The solver's kernel multiplies
by them, and so does Borgatti-Everett: B^T W B - D is the clique
expansion's adjacency, with no pair formed and no pair budget.  scipy
itself is imported only then, so code that never needs B never loads it.

Outside node ids, score vectors, integer settings, exponents and xi
rules have one check each: `node_ids`, `score_vector`, `int_setting`,
`exponents` (p and q together) or `exponent` (a lone q), and `xi_rule`.
Edge members get the integer rule of `node_ids` and a vectorised range
check that names the offending edge.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


class XiRule(enum.Enum):
    """Per-edge scaling rule used by the scoring objective.

    RECIPROCAL           1 / |e|        (ignores edge weights)
    WEIGHTED_RECIPROCAL  w(e) / |e|
    UNIT                 w(e)           (no size penalty)
    """

    RECIPROCAL = "reciprocal"
    WEIGHTED_RECIPROCAL = "weighted"
    UNIT = "unit"


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[k] .. starts[k] + lengths[k] - 1 for every k, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def row_indices(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in a flat CSR array of the given rows, concatenated."""
    starts = offsets[rows]
    return spans(starts, offsets[rows + 1] - starts)


def node_ids(ids: Iterable, n: int) -> np.ndarray:
    """Node ids as int64, each an integer (`operator.index`) in [0, n), else ValueError."""
    try:
        out = np.fromiter(map(operator.index, ids), dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"ids must be integers in [0, {n}): {exc}") from None
    bad = (out < 0) | (out >= n)
    if bad.any():
        raise ValueError(f"out-of-range id {out[bad][0]}: ids must lie in [0, {n})")
    return out


def int_setting(name: str, value, minimum: int) -> int:
    """A setting as an int: an integer (`operator.index`) >= minimum, else ValueError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def exponents(p, q) -> None:
    """Check the solver's exponents: finite p > q > 1, else ValueError naming both."""
    if not (math.isfinite(p) and p > q > 1.0):
        raise ValueError(f"need finite p > q > 1, got p={p}, q={q}")


def exponent(name: str, value) -> None:
    """Check an exponent used without p: finite and >= 1, else ValueError naming it."""
    if not (math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def score_vector(x, n: int | None = None) -> np.ndarray:
    """Scores as float64: 1-D, of length n if given, all finite.  Sign rules are the caller's."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or (n is not None and x.size != n):
        need = "1-D" if n is None else f"1-D of length {n}"
        raise ValueError(f"score vector must be {need}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"score vector must be finite, got {x[~np.isfinite(x)][0]}")
    return x


def sorted_rows(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows ``values[starts[r]:starts[r] + sizes[r]]``
    of ids in [0, n), and a mask over it marking the first of each run of
    equal rows.  An edge is a row of node ids; a text token is a row of
    bytes, with n = 256.

    The order of rows read as id + 1 and padded with 0 (a prefix sorts
    first), refined pass by pass over only the rows still tied, which are
    kept compacted between passes: the work stays linear in the values
    however long the longest row.  A pass is one `np.sort` of an int64 key
    that packs, from high to low, the row's tie group, as many further
    positions as fit (up to the longest tied row's end) and the row's
    place in its group, which keeps equal rows in input order.  The first
    pass has one group, so it packs (63 - log2 m) / log2(n + 1) positions,
    rounded down: two for a million pairs on a million nodes.  Where not
    even one position fits beside group and place (groups x largest group
    x (n + 1) > 2^63 in a later pass: a large n with many large tie
    groups), a stable argsort of group and one position does the pass.
    """
    if sizes.size < 2:
        return np.arange(sizes.size), np.ones(sizes.size, dtype=bool)
    # the live rows' places in `order` (None while that is every row), ids, sizes, starts, groups,
    # the first live row of each row's group, and the largest group's size
    at, size, start, group = None, sizes, starts, np.zeros(sizes.size, dtype=np.int64)
    lead, big = 0, sizes.size
    k = 0
    while group.size:
        live, longest = group.size, int(size.max())
        room = 2**63 // (int(group[-1] + 1) * big)  # the span left for the positions
        width = 0
        while width < longest - k and (n + 1) ** (width + 1) <= room:
            width += 1
        # the key overwrites the group (read no more), which ascends: rows move only within groups
        key, shortest = group, int(size.min())
        for j in range(k, k + max(width, 1)):
            key *= n + 1
            read = values.take(start + j, mode="clip")
            if j < shortest:  # every row reads position j
                key += read
                key += 1
            else:
                key += (read.astype(np.int64) + 1) * (size > j)  # a uint8 255 + 1 would wrap
        if width:
            key *= big
            key += np.arange(live) - lead
            key.sort()
            key, o = np.divmod(key, big)
            o += lead  # rows move only within groups: each sorted row's group starts where it did
        else:
            o = np.argsort(key, kind="stable")
            key = key[o]
        split = np.insert(key[1:] != key[:-1], 0, True)
        if at is None:  # the first pass holds every row, in input order
            order, new, rows = o, split, o
        else:
            rows = rows[o]
            order[at], new[at] = rows, split
        k += max(width, 1)
        if k >= longest:
            break
        size = size[o]
        # a run of rows that end before position k holds equal rows: it is
        # settled.  Rows that end at k may tie with longer ones, unless none is.
        run = np.cumsum(split) - 1
        keep = (np.bincount(run)[run] > 1) & (size >= k)
        at = np.flatnonzero(keep) if at is None else at[keep]
        rows, size, start = rows[keep], size[keep], start[o[keep]]
        begins = split[keep]  # runs are kept whole
        group, heads = np.cumsum(begins) - 1, np.flatnonzero(begins)
        lead, big = heads[group], int(np.diff(heads, append=group.size).max(initial=0))
    return order, new


class GroupedIncidence(NamedTuple):
    """B with its edges grouped by size, for the solver's kernel and for
    Borgatti-Everett's B^T W B - D, which forms no pair and has no pair budget.

    order : the edge ids sorted by size, stably: each size's edges stay
        in ascending id order.
    b : B with its rows taken in `order` (m x n, CSR): row k is edge order[k].
    bt : b.T, the CSC view of b's own arrays (n x m): a product with it
        scatters each grouped edge's term onto its members, so node sums
        add their terms in grouped edge order.
    """

    order: np.ndarray
    b: sp.csr_matrix
    bt: sp.csc_matrix


class Hypergraph:
    """Canonical in-memory hypergraph.

    Parameters
    ----------
    n : int
        Number of nodes; indices 0..n-1.  Isolated nodes are allowed.
    edges : iterable of node-index lists
        Hyperedges; `from_flat` takes them as flat arrays.  Each becomes a
        sorted run of distinct integer indices; an edge with fewer than
        two distinct nodes is an error.  Duplicate edges merge, weights summed.
    weights : sequence of positive floats, optional
        One weight per input edge; defaults to 1 for every edge.
    labels : sequence of str, optional
        External node labels, one per node.  Labels must be unique,
        non-empty, free of whitespace and '#', and must not start
        with '%' (the text-format comment marker).

    Edge e is ``members[offsets[e]:offsets[e+1]]`` with weight
    ``weights[e]``; these read-only arrays are the whole incidence.
    `grouped_incidence` (B with its edges grouped by size) is the one
    sparse form: a read-only `scipy.sparse` CSR matrix built from them
    on first access, which is also when scipy is first imported.
    """

    def __init__(self, n: int, edges: Iterable[Sequence[int]],
                 weights: Sequence[float] | None = None, labels: Sequence[str] | None = None) -> None:
        edges = list(edges)
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        try:
            members = np.fromiter(map(operator.index, itertools.chain.from_iterable(edges)), np.int64)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"node ids must be integers in [0, {n}): {exc}") from None
        self._canonicalize(n, sizes, members, weights, labels)

    @classmethod
    def from_flat(cls, n: int, sizes: np.ndarray, members: np.ndarray,
                  weights: Sequence[float] | None = None,
                  labels: Sequence[str] | None = None) -> Hypergraph:
        """Build from flat 1-D integer arrays: edge e is the e-th run of
        `members`, of length ``sizes[e]``.  Canonicalized as the constructor does."""
        sizes, members = np.asarray(sizes), np.asarray(members)
        for name, a in (("sizes", sizes), ("members", members)):
            if a.ndim != 1 or a.dtype.kind not in "iu":
                raise ValueError(f"{name} must be a 1-D integer array, got {a.dtype}{a.shape}")
        if sizes.sum() != members.size:
            raise ValueError(f"edge sizes sum to {sizes.sum()} but {members.size} members given")
        h = cls.__new__(cls)
        h._canonicalize(n, sizes.astype(np.int64), members.astype(np.int64), weights, labels)
        return h

    def _canonicalize(self, n, sizes: np.ndarray, nodes: np.ndarray, weights, labels) -> None:
        n = int_setting("node count", n, 0)
        m = sizes.size
        w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != sizes.shape:
            raise ValueError(f"{m} edges but {w.size} weights")
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            raise ValueError(f"edge weight must be positive and finite, got {w[bad][0]}")
        if (sizes < 1).any():
            raise ValueError(f"empty hyperedge: edge sizes must be >= 1, got {sizes.min()}")
        if max(m, 1) * (n + 1) >= 2**63:
            raise ValueError(f"{m} edges on {n} nodes overflow the int64 sort keys")

        edge_of = np.repeat(np.arange(m), sizes)
        outside = np.flatnonzero((nodes < 0) | (nodes >= n))
        if outside.size:
            raw = nodes[edge_of == edge_of[outside[0]]]
            raise ValueError(f"node index out of range [0, {n}): {raw.tolist()}")

        # sort within edges and drop repeated nodes, on one int64 key per incidence
        keys = np.sort(edge_of * n + nodes)
        distinct_edge_of, distinct_nodes = np.divmod(keys[np.diff(keys, prepend=-1) != 0], max(n, 1))
        distinct = np.bincount(distinct_edge_of, minlength=m)
        if (distinct < 2).any():
            raw = nodes[edge_of == np.argmax(distinct < 2)]
            raise ValueError(f"hyperedge needs at least 2 distinct nodes, got {raw.tolist()}")

        # sort edges and merge equal ones; bincount sums each run in input order
        row_offsets = np.r_[0, np.cumsum(distinct)]
        order, first = sorted_rows(distinct_nodes, row_offsets[:-1], distinct, n)
        self.n = n
        self.offsets = np.r_[0, np.cumsum(distinct[order[first]])]
        self.members = distinct_nodes[row_indices(row_offsets, order[first])]
        # (bincount of nothing is int64, hence the cast)
        self.weights = np.bincount(np.cumsum(first) - 1, weights=w[order]).astype(np.float64)
        if not np.isfinite(self.weights).all():
            raise ValueError("merged weight of equal edges must be finite, got inf")
        for a in (self.offsets, self.members, self.weights):
            a.flags.writeable = False

        if labels is not None:
            labels = list(map(str, labels))
            if len(labels) != n:
                raise ValueError(f"{n} nodes but {len(labels)} labels")
            if len(set(labels)) != n:
                raise ValueError("node labels must be unique")
            # the split gives the labels back iff none is empty or holds whitespace
            joined = "\n".join(labels)
            if joined.split() != labels or "#" in joined or "\n%" in "\n" + joined:
                culprit = next(
                    lab for lab in labels
                    if lab.split() != [lab] or "#" in lab or lab.startswith("%")
                )
                raise ValueError(f"label not representable in text format: {culprit!r}")
        self.labels: list[str] | None = labels

    @property
    def m(self) -> int:
        """Number of hyperedges."""
        return self.offsets.size - 1

    @property
    def sizes(self) -> np.ndarray:
        """Per-edge node counts |e|."""
        return np.diff(self.offsets)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Per-node count of incident edges (int64, read-only, cached)."""
        deg = np.bincount(self.members, minlength=self.n)
        deg.flags.writeable = False
        return deg

    def degree_sum(self) -> int:
        """Total incidence count: sum of |e| over all edges.

        Equals the number of nonzeros of the incidence matrix and the
        per-iteration cost unit of the solvers.
        """
        return int(self.members.size)

    @functools.cached_property
    def grouped_incidence(self) -> GroupedIncidence:
        """B with its edges grouped by size, and its transpose as a view
        (see `GroupedIncidence`); read-only.  The solver's kernel (see
        `hypercp.solver`) multiplies by these, and so does Borgatti-Everett,
        which applies the clique expansion's adjacency through them."""
        import scipy.sparse as sp

        m, n, sizes = self.m, self.n, self.sizes
        # a stable sort; on the smallest dtype that holds the sizes, numpy radix-sorts
        order = np.argsort(sizes.astype(np.min_scalar_type(sizes.max(initial=0))), kind="stable")
        # B in edge order, only to be permuted: 1-byte data
        canonical = sp.csr_matrix((np.ones(self.members.size, dtype=bool), self.members, self.offsets),
                                  shape=(m, n))
        rows = canonical[order]
        b = sp.csr_matrix((np.ones(rows.nnz), rows.indices, rows.indptr), shape=(m, n))
        for a in (order, b.data, b.indices, b.indptr):
            a.flags.writeable = False
        # the view b.T is made once here: building it takes about 10 us, too much for every map
        return GroupedIncidence(order, b, b.T)

    def label_of(self, node: int) -> str:
        """External label of a node (its index as a string by default)."""
        return self.labels[node] if self.labels is not None else str(node)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.members, other.members)
            and np.array_equal(self.weights, other.weights)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


def xi_rule(rule) -> None:
    """Check a scaling rule: an `XiRule` member, else ValueError naming the value."""
    if not isinstance(rule, XiRule):
        raise ValueError(f"xi must be an XiRule, got {rule!r}")


def edge_xi(sizes, weights, rule: XiRule):
    """The xi rule for edges of the given sizes and weights (arrays or scalars)."""
    xi_rule(rule)
    if rule is XiRule.RECIPROCAL:
        return 1.0 / np.asarray(sizes, dtype=np.float64)
    if rule is XiRule.WEIGHTED_RECIPROCAL:
        return weights / np.asarray(sizes, dtype=np.float64)
    return np.array(weights, dtype=np.float64)


def xi_vector(h: Hypergraph, rule: XiRule) -> np.ndarray:
    """Per-edge scaling values under `rule`; strictly positive."""
    return edge_xi(h.sizes, h.weights, rule)


def unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values / 2^e, e), e the power of two that brings max(values) into
    [0.5, 1), 0 for an empty array: exact but where a result is subnormal."""
    e = int(np.frexp(np.max(values, initial=0.0))[1])
    return np.ldexp(values, -e), e
