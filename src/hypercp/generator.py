"""Random hypergraphs with a planted core-periphery ordering.

Every candidate subset e of {1..n} with 2 <= |e| <= max_size is included
independently with probability sigmoid(xi(e) * coreness(e)), where the
coreness of an edge is the q-norm of (n - rank)/n over the planted ranks
of its nodes (rank 1 = most core).  All probabilities are >= 1/2, so the
samples are dense: the model is an exact desk-scale generator, not a
sparse one, and candidate enumeration is guarded by a subset budget.

The maximum-likelihood node ordering for an observed hypergraph under
this model is exactly the ordering maximizing the xi-weighted coreness
sum over present edges (`mle_objective`); the module also ships the
deterministic "hypercycle" fixture used by the evaluation tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from math import comb

import numpy as np

from .hypergraph import Hypergraph, XiRule, edge_xi, node_ids
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


@dataclasses.dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the planted-structure random model.

    planted_perm, when given, pins the rank of each node directly
    (planted_perm[i] is the 1-based rank of node i) and disables the
    label shuffle; when None, ranks are a uniform random permutation
    drawn from `seed` and returned alongside the sample.
    """

    n: int
    max_size: int
    q_mu: float = 10.0
    xi: XiRule = XiRule.RECIPROCAL
    seed: int = 0
    planted_perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (2 <= self.max_size <= self.n):
            raise ValueError(f"need 2 <= max_size <= n, got max_size={self.max_size}, n={self.n}")
        if self.q_mu < 1.0:
            raise ValueError(f"q_mu must be >= 1, got {self.q_mu}")
        if self.planted_perm is not None:
            _ranks(self.planted_perm, self.n)


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
    approaches max over the edge of (n - rank)/n as q grows.
    """
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


def _candidate_probabilities(cfg: GeneratorConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """All candidate rank-subsets and their probabilities, one block per size.

    Returns (blocks, probs): blocks[j] is an array with one row per
    candidate of size j + 2, holding 0-based rank offsets in
    lexicographic order, and probs[j] holds their inclusion probabilities.
    """
    blocks = []
    probs = []
    for r in range(2, cfg.max_size + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(cfg.n), r)),
            dtype=np.int64,
            count=comb(cfg.n, r) * r,
        ).reshape(-1, r)
        probs.append(edge_probability(combos + 1, cfg))
        blocks.append(combos)
    return blocks, probs


def sample(cfg: GeneratorConfig, budget: int = 10_000_000) -> tuple[Hypergraph, np.ndarray]:
    """Draw one hypergraph from the model.

    Enumerates every candidate subset (guarded by `budget`), includes
    each independently with its model probability, and returns the
    hypergraph over observed node labels together with the planted
    ranks: ranks[i] is the 1-based coreness rank of observed node i.
    Unless cfg.planted_perm pins them, ranks are shuffled uniformly so
    detectors cannot read the planted order off the labels.
    """
    total = candidate_count(cfg.n, cfg.max_size)
    if total > budget:
        raise ValueError(
            f"candidate subset count {total} exceeds budget {budget}; "
            "this exact enumerate-and-flip sampler is desk-scale only"
        )
    rng = np.random.default_rng(cfg.seed)
    if cfg.planted_perm is not None:
        ranks = np.asarray(cfg.planted_perm, dtype=np.int64)
    else:
        ranks = rng.permutation(cfg.n).astype(np.int64) + 1

    # rank r is held by the node with that rank
    node_of_rank = np.empty(cfg.n, dtype=np.int64)
    node_of_rank[ranks - 1] = np.arange(cfg.n)

    blocks, probs = _candidate_probabilities(cfg)
    # combos hold rank-1 offsets 0..n-1 for ranks 1..n
    kept = [node_of_rank[combos[rng.random(p.shape[0]) < p]] for combos, p in zip(blocks, probs)]
    sizes = np.concatenate([np.full(len(edges), edges.shape[1]) for edges in kept])
    h = Hypergraph.from_flat(cfg.n, sizes, np.concatenate([edges.ravel() for edges in kept]))
    return h, ranks


def mle_objective(h: Hypergraph, perm, xi: XiRule, q_mu: float) -> float:
    """Ordering score whose maximizer is the model's maximum-likelihood fit.

    The solver's objective at x = (n - rank) / n with q = q_mu: the sum
    over present edges of xi(e) times the edge's coreness under the
    candidate ranks (perm[i] = rank of node i, 1-based bijection).
    """
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
