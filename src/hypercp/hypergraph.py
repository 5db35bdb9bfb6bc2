"""Immutable hypergraph stored as one canonical sparse incidence.

A hypergraph is a set of n nodes (dense indices 0..n-1) plus a list of
hyperedges, each a set of at least two nodes, with a positive weight per
edge.  One canonicalization, on flat arrays (edge sizes and all members
concatenated), serves the constructor and `from_flat`: node indices in an
edge are sorted and deduplicated, equal edges merge with their weights
summed in input order, and edges are stored in lexicographic order.  The
object is immutable after construction and safe to share across threads.

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


def _sorted_rows(nodes: np.ndarray, offsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of CSR rows of ids in [0, n), and a mask
    over it marking the first of each run of equal rows.

    The order of rows padded with -1 (a prefix sorts first), refined one
    position at a time over only the rows still tied: the work stays
    linear in the incidences however long the longest row.
    """
    sizes = np.diff(offsets)
    order = np.arange(sizes.size)
    group = np.zeros(sizes.size, dtype=np.int64)  # position where a row's tie group starts
    live = np.arange(sizes.size if sizes.size > 1 else 0)
    k = 0
    while live.size:
        rows, g = order[live], group[live]  # g ascends, so rows move only within groups
        key = np.where(sizes[rows] > k, nodes[np.minimum(offsets[rows] + k, nodes.size - 1)], -1)
        sort_key = g * (n + 1) + key
        o = np.argsort(sort_key, kind="stable")
        order[live], key, sort_key = rows[o], key[o], sort_key[o]
        split = np.diff(sort_key, prepend=-2) != 0
        run = np.cumsum(split) - 1
        group[live] = live[split][run]
        # a run of rows that all ended here holds equal rows: it is settled
        live = live[(np.bincount(run)[run] > 1) & (key >= 0)]
        k += 1
    return order, np.diff(group, prepend=-1) != 0


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
        if not hasattr(type(n), "__index__") or n < 0:
            raise ValueError(f"node count must be a nonnegative integer, got {n!r}")
        n = operator.index(n)
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
        order, first = _sorted_rows(distinct_nodes, row_offsets, n)
        self.n = n
        self.offsets = np.r_[0, np.cumsum(distinct[order[first]])]
        self.members = distinct_nodes[row_indices(row_offsets, order[first])]
        # (bincount of nothing is int64, hence the cast)
        self.weights = np.bincount(np.cumsum(first) - 1, weights=w[order]).astype(np.float64)
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
