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
The module reads only the hypergraph's CSR arrays: evaluation imports
neither the solver nor the baselines.
"""

from __future__ import annotations

import csv
import dataclasses
from collections.abc import Iterable

import numpy as np

from .hypergraph import Hypergraph, XiRule, node_ids, score_vector, xi_vector

__all__ = [
    "ProfileCurve",
    "rank_by_score",
    "profile_value",
    "profile_curve",
    "intersection_curve",
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
        self.values = score_vector(self.values)
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("curve values must lie in [0, 1]")


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Node indices by descending score, ties by ascending index."""
    scores = score_vector(scores)
    return np.lexsort((np.arange(scores.size), -scores))


def profile_value(h: Hypergraph, nodes: Iterable[int], xi: XiRule | None = None) -> float:
    """Contained-over-touched edge ratio for one set of node ids in [0, n).

    Unweighted when xi is None (edge counts), xi-weighted otherwise.
    Returns 0 when no edge touches the set.  This is the profile curve's
    value at the prefix that the set fills when its nodes score lowest.
    """
    inside = np.zeros(h.n, dtype=bool)
    inside[node_ids(nodes, h.n)] = True
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
    scores = score_vector(scores, h.n)
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
    order = rank_by_score(scores)
    core = node_ids(planted_core, order.size)
    if not core.size:
        raise ValueError("planted core must be non-empty")
    hits = np.cumsum(np.isin(order, core))
    values = hits / np.arange(1, order.size + 1)
    return ProfileCurve(values=values, kind="intersection", method_label=method_label)


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
