"""Random hypergraphs with a planted core-periphery ordering.

The planted ranks are a uniform random permutation (rank 1 = most core),
the first draw from the seed.  Every candidate subset e of {1..n} with
2 <= |e| <= max_size is then included independently with probability
sigmoid(xi(e) * coreness(e)), the coreness of an edge being the q-norm
of (n - rank)/n over the ranks of its nodes.  All probabilities are >= 1/2,
so samples are dense: an exact desk-scale generator, not a sparse one,
with candidate enumeration guarded by a subset budget.

The maximum-likelihood node ordering for an observed hypergraph under
this model is exactly the ordering maximizing the xi-weighted coreness
sum over present edges (`mle_objective`); the module also ships the
deterministic "hypercycle" fixture used by the evaluation tests.
"""

from __future__ import annotations

import dataclasses
from math import comb

import numpy as np

from .hypergraph import Hypergraph, XiRule, edge_xi, exponent, int_setting, node_ids, spans, xi_rule
from .solver import objective

__all__ = [
    "GeneratorConfig",
    "edge_coreness",
    "edge_probability",
    "candidate_count",
    "sample",
    "mle_objective",
    "hypercycle",
]

CANDIDATE_BUDGET = 10_000_000  # most candidate subsets `sample` enumerates


@dataclasses.dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the planted-structure random model.  The planted
    ranks are not one of them: `sample` draws them from `seed`."""

    n: int
    max_size: int
    q_mu: float = 10.0
    xi: XiRule = XiRule.RECIPROCAL
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "max_size", "seed"):
            int_setting(name, getattr(self, name), 0)
        if not (2 <= self.max_size <= self.n):
            raise ValueError(f"need 2 <= max_size <= n, got max_size={self.max_size}, n={self.n}")
        exponent("q_mu", self.q_mu)
        xi_rule(self.xi)


def _ranks(perm, n: int) -> np.ndarray:
    """perm[i], the 1-based rank of node i, as int64; ValueError unless a bijection on {1..n}."""
    ranks = node_ids(perm, n + 1)
    if not np.array_equal(np.sort(ranks), np.arange(1, n + 1)):
        raise ValueError(f"ranks must be a bijection on {{1..{n}}}")
    return ranks


def edge_coreness(ranks, n: int, q: float):
    """Smooth coreness of an edge: q-norm of (n - rank)/n over its ranks,
    along the last axis (one value per row of a 2-D array of edges).

    Large when the edge contains at least one low rank (core node);
    approaches max over the edge of (n - rank)/n as q grows.  Needs a
    finite q >= 1.
    """
    exponent("q", q)
    r = np.asarray(ranks, dtype=np.float64)
    if np.any(r < 1) or np.any(r > n):
        raise ValueError(f"ranks must lie in 1..{n}")
    return np.sum(((n - r) / n) ** q, axis=-1) ** (1.0 / q)


def edge_probability(ranks, cfg: GeneratorConfig):
    """Inclusion probability sigmoid(xi(e) * coreness(e)) along the last
    axis of `ranks`; always >= 1/2."""
    ranks = np.asarray(ranks)
    s = edge_xi(ranks.shape[-1], 1.0, cfg.xi) * edge_coreness(ranks, cfg.n, cfg.q_mu)
    return 1.0 / (1.0 + np.exp(-s))


def candidate_count(n: int, max_size: int) -> int:
    """Number of candidate subsets of sizes 2..max_size."""
    return sum(comb(n, r) for r in range(2, max_size + 1))


def sample(cfg: GeneratorConfig) -> tuple[Hypergraph, np.ndarray]:
    """Draw one hypergraph from the model.

    Enumerates every candidate subset (at most `CANDIDATE_BUDGET`), includes
    each independently with its model probability, and returns the
    hypergraph over observed node labels together with the planted
    ranks: ranks[i] is the 1-based coreness rank of observed node i.
    The ranks are the generator's first draw, a uniform permutation, so
    detectors cannot read the planted order off the labels.
    """
    total = candidate_count(cfg.n, cfg.max_size)
    if total > CANDIDATE_BUDGET:
        raise ValueError(
            f"candidate subset count {total} exceeds budget {CANDIDATE_BUDGET}; "
            "this exact enumerate-and-flip sampler is desk-scale only"
        )
    rng = np.random.default_rng(cfg.seed)
    ranks = rng.permutation(cfg.n).astype(np.int64) + 1

    # rank r is held by the node with that rank
    node_of_rank = np.empty(cfg.n, dtype=np.int64)
    node_of_rank[ranks - 1] = np.arange(cfg.n)

    kept = []
    combos = np.arange(cfg.n)[:, None]
    for r in range(2, cfg.max_size + 1):
        # every candidate of size r in lexicographic order, as rank-1 offsets
        # 0..n-1: each (r-1)-subset, in order, followed by each larger offset
        last = combos[:, -1]
        more = cfg.n - 1 - last
        combos = np.column_stack([np.repeat(combos, more, axis=0), spans(last + 1, more)])
        kept.append(node_of_rank[combos[rng.random(len(combos)) < edge_probability(combos + 1, cfg)]])
    sizes = np.concatenate([np.full(len(edges), edges.shape[1]) for edges in kept])
    h = Hypergraph.from_flat(cfg.n, sizes, np.concatenate([edges.ravel() for edges in kept]))
    return h, ranks


def mle_objective(h: Hypergraph, perm, xi: XiRule, q_mu: float) -> float:
    """Ordering score whose maximizer is the model's maximum-likelihood fit.

    The solver's objective at x = (n - rank) / n with q = q_mu: the sum
    over present edges of xi(e) times the edge's coreness under the
    candidate ranks (perm[i] = rank of node i, 1-based bijection).
    """
    exponent("q_mu", q_mu)
    ranks = _ranks(perm, h.n)
    return objective(h, xi, (h.n - ranks) / h.n, q_mu)


def hypercycle(sizes: tuple[int, ...] = (3, 4, 5, 6, 15)) -> tuple[Hypergraph, list[int]]:
    """Ring of hyperedges where consecutive edges share exactly one node.

    Edge k has sizes[k] nodes; it shares its last node with edge k+1 and
    the last edge wraps around to share node 0 with the first.  Returns
    the hypergraph and the list of shared ("overlap") node indices.
    The default sizes give the 28-node, 5-edge test instance.
    """
    if len(sizes) < 3 or any(s < 2 for s in sizes):
        raise ValueError("need at least 3 edges of size >= 2")
    n = sum(sizes) - len(sizes)
    edges = []
    overlaps = [0]
    start = 0
    for k, s in enumerate(sizes):
        if k < len(sizes) - 1:
            edge = list(range(start, start + s))
            overlaps.append(edge[-1])
            start = edge[-1]
        else:
            edge = list(range(start, start + s - 1)) + [0]
        edges.append(edge)
    h = Hypergraph(n, edges)
    return h, sorted(set(overlaps))
