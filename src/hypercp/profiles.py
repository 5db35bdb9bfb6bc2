"""Evaluation curves for core-periphery score vectors.

The profile curve answers "how peripheral are the k lowest-scored
nodes": the value at k is the fraction of edges fully contained in that
set among edges touching it, optionally xi-weighted.  A strong
core-periphery assignment keeps the curve near 0 for small k and rises
sharply once core nodes start entering.  The intersection curve checks
a ranking against a known planted core: the value at k is the fraction
of the top-k nodes that belong to the core.

Both curves depend only on the ranking the scores induce; score ties
break by ascending node index so every curve is total and reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
from collections.abc import Iterable

import numpy as np

from .baselines import WeightedGraph
from .hypergraph import Hypergraph, XiRule, xi_vector

__all__ = [
    "ProfileCurve",
    "rank_by_score",
    "profile_value",
    "profile_curve",
    "intersection_curve",
    "permuted_coordinates",
    "write_curves_csv",
]


@dataclasses.dataclass
class ProfileCurve:
    """A length-n curve over prefix sizes k = 1..n, values in [0, 1]."""

    values: np.ndarray
    kind: str
    method_label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("profile", "intersection"):
            raise ValueError(f"kind must be 'profile' or 'intersection', got {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("curve values must lie in [0, 1]")


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Node indices by descending score, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def profile_value(h: Hypergraph, nodes: Iterable[int], xi: XiRule | None = None) -> float:
    """Contained-over-touched edge ratio for one node set.

    Unweighted when xi is None (edge counts), xi-weighted otherwise.
    Returns 0 when no edge touches the set.  This is the profile curve's
    value at the prefix that the set fills when its nodes score lowest.
    """
    inside = np.zeros(h.n, dtype=bool)
    inside[list(nodes)] = True
    k = int(inside.sum())
    return float(profile_curve(h, ~inside, xi).values[k - 1]) if k else 0.0


def profile_curve(
    h: Hypergraph,
    scores: np.ndarray,
    xi: XiRule | None = None,
    method_label: str = "",
) -> ProfileCurve:
    """Profile over the prefixes of the ascending-score node order.

    An edge is touched from the prefix holding its first member in that
    order and contained from the prefix holding its last, so the curve
    is a ratio of two cumulative sums and costs O(sum of edge sizes + n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (h.n,):
        raise ValueError(f"scores must have length {h.n}, got shape {scores.shape}")
    w = np.ones(h.m) if xi is None else xi_vector(h, xi)
    position = np.empty(h.n, dtype=np.int64)
    position[rank_by_score(-scores)] = np.arange(h.n)  # ascending, ties by index
    at = position[h.members]
    starts = h.offsets[:-1]
    touched = np.cumsum(np.bincount(np.minimum.reduceat(at, starts), weights=w, minlength=h.n))
    contained = np.cumsum(np.bincount(np.maximum.reduceat(at, starts), weights=w, minlength=h.n))
    values = np.zeros(h.n)
    np.divide(contained, touched, out=values, where=touched > 0.0)
    # containment implies touching, so only rounding can push a ratio past 1
    values = np.minimum(values, 1.0)
    return ProfileCurve(values=values, kind="profile", method_label=method_label)


def intersection_curve(
    scores: np.ndarray,
    planted_core: Iterable[int],
    method_label: str = "",
) -> ProfileCurve:
    """Fraction of the top-k scored nodes inside a known core set."""
    scores = np.asarray(scores, dtype=np.float64)
    core = set(int(i) for i in planted_core)
    if not core:
        raise ValueError("planted core must be non-empty")
    if any(i < 0 or i >= scores.size for i in core):
        raise ValueError("planted core contains out-of-range node indices")
    hits = np.cumsum(np.isin(rank_by_score(scores), list(core)))
    values = hits / np.arange(1, scores.size + 1)
    return ProfileCurve(values=values, kind="intersection", method_label=method_label)


def permuted_coordinates(
    g: WeightedGraph, scores: np.ndarray
) -> list[tuple[int, int, float]]:
    """Adjacency nonzeros reindexed by descending-score rank.

    Row/column r is the node with the (r+1)-th largest score, so a good
    core ordering concentrates weight in the low-index corner.  Output
    is sorted by (row, col); rendering is up to the consumer.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (g.n,):
        raise ValueError(f"scores must have length {g.n}, got shape {scores.shape}")
    position = np.empty(g.n, dtype=np.int64)
    position[rank_by_score(scores)] = np.arange(g.n)
    coo = g.adjacency.tocoo()
    triples = [
        (int(position[i]), int(position[j]), float(v))
        for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    triples.sort(key=lambda t: (t[0], t[1]))
    return triples


def write_curves_csv(curves: list[ProfileCurve], dest) -> None:
    """Write same-kind curves as rows (k, value, method)."""
    kinds = {c.kind for c in curves}
    if len(kinds) > 1:
        raise ValueError(f"cannot mix curve kinds in one file: {sorted(kinds)}")
    column = "gamma" if kinds == {"profile"} else "iota"
    writer = csv.writer(dest)
    writer.writerow(["k", column, "method"])
    for c in curves:
        for k, v in enumerate(c.values, start=1):
            writer.writerow([k, repr(float(v)), c.method_label])
