"""Comparison detectors that work on flattened or set-cover views.

Three baselines accompany the hypergraph solver: the weighted clique
expansion plus the graph variant of the nonlinear spectral method, the
classic linear dominant-eigenvector score, and a greedy union-of-minimal
-hitting-sets ranking.  The expansion replaces every hyperedge with a
clique, which is quadratic in the edge size, hence the pair budget.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph, XiRule, row_indices
from .solver import SolverConfig, SolverResult, hypernsm

__all__ = [
    "WeightedGraph",
    "PowerIterationResult",
    "UmhsResult",
    "clique_expansion",
    "two_uniform_hypergraph",
    "graph_nsm",
    "borgatti_everett",
    "umhs",
]


class WeightedGraph:
    """Symmetric nonnegative adjacency with zero diagonal."""

    def __init__(self, n: int, adjacency: sp.spmatrix) -> None:
        a = sp.csr_matrix(adjacency, dtype=np.float64, shape=(n, n))
        a.eliminate_zeros()
        if (a != a.T).nnz != 0:
            raise ValueError("adjacency must be exactly symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency must have zero diagonal")
        if a.nnz and a.data.min() <= 0.0:
            raise ValueError("stored adjacency entries must be positive")
        self.n = int(n)
        self.adjacency = a

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "WeightedGraph":
        """Build from (i, j, weight) triples; duplicates are summed."""
        rows, cols, data = [], [], []
        for i, j, w in pairs:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            rows += [i, j]
            cols += [j, i]
            data += [w, w]
        a = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        return cls(n, a.tocsr())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, nnz={self.adjacency.nnz})"


@dataclasses.dataclass
class PowerIterationResult:
    scores: np.ndarray
    iterations: int
    converged: bool
    eigenvalue: float

    # same JSON layout as the nonlinear solver; power iteration keeps no trace
    residual_trace = ()
    to_json_dict = SolverResult.to_json_dict


def clique_expansion(h: Hypergraph, pair_budget: int = 50_000_000) -> WeightedGraph:
    """Flatten a hypergraph to a weighted graph.

    The weight of pair {i, j} is the total weight of hyperedges
    containing both.  Each edge of size s expands into s*(s-1)/2 pairs,
    so the cost is guarded by `pair_budget`.
    """
    sizes = h.sizes.astype(np.int64)
    pair_count = int(np.sum(sizes * (sizes - 1) // 2))
    if pair_count > pair_budget:
        raise ValueError(
            f"clique expansion needs {pair_count} pair accumulations, "
            f"over the budget of {pair_budget}"
        )
    # A = B^T diag(w) B minus its diagonal, B the edge-by-node incidence
    a = (h.incidence.T @ sp.diags(h.weights) @ h.incidence).tocsr()
    a.setdiag(0.0)
    a.eliminate_zeros()
    return WeightedGraph(h.n, a)


def two_uniform_hypergraph(g: WeightedGraph) -> Hypergraph:
    """View a weighted graph as a hypergraph of size-2 edges."""
    coo = sp.triu(g.adjacency, k=1).tocoo()
    edges = [[int(i), int(j)] for i, j in zip(coo.row, coo.col)]
    return Hypergraph(g.n, edges, weights=coo.data.tolist())


def graph_nsm(g: WeightedGraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Nonlinear spectral scores of a flattened graph.

    Runs the hypergraph solver on the size-2 view of g with the UNIT
    scaling rule, so each pair contributes its adjacency weight times
    the pair q-norm; on 2-uniform inputs this is the same optimization
    the hypergraph solver performs.  cfg.xi is ignored.
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg = dataclasses.replace(cfg, xi=XiRule.UNIT)
    return hypernsm(two_uniform_hypergraph(g), cfg)


def borgatti_everett(
    g: WeightedGraph,
    tol: float = 1e-8,
    max_iter: int = 1000,
    seed: int = 0,
) -> PowerIterationResult:
    """Dominant-eigenvector core scores via power iteration.

    Purely linear: no entrywise powers.  Iterates on the adjacency plus
    a positive diagonal shift, which leaves the dominant eigenvector of
    a nonnegative symmetric matrix unchanged but guarantees convergence
    when the spectrum is symmetric (bipartite expansions).  Scores are
    nonnegative with unit 2-norm; non-convergence is flagged.
    """
    if g.adjacency.nnz == 0:
        raise ValueError("graph has no edges")
    a = g.adjacency
    shift = 0.5 * float(np.max(a.sum(axis=1)))

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=g.n)
    x /= np.linalg.norm(x)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = a @ x + shift * x
        y /= np.linalg.norm(y)
        diff = float(np.linalg.norm(y - x) / np.linalg.norm(x))
        x = y
        if diff < tol:
            converged = True
            break
    lam = float(x @ (a @ x))
    return PowerIterationResult(
        scores=x, iterations=iterations, converged=converged, eigenvalue=lam
    )


@dataclasses.dataclass
class UmhsResult:
    """Greedy hitting-set ranking: set members first, best restart kept."""

    ranking: list[int]
    hitting_set: list[int]
    restarts: int

    @property
    def set_size(self) -> int:
        return len(self.hitting_set)

    def scores(self, n: int) -> np.ndarray:
        """Descending integer scores: rank position r maps to n - r."""
        s = np.zeros(n)
        s[self.ranking] = n - np.arange(len(self.ranking), dtype=np.float64)
        return s


def _greedy_minimal_hitting_set(h: Hypergraph, rng: np.random.Generator) -> list[int]:
    """One restart: random edge order, max-coverage picks, reverse pruning."""
    order = rng.permutation(h.m)
    uncovered_count = h.degrees
    covered = np.zeros(h.m, dtype=bool)
    selected: list[int] = []

    for e in order.tolist():
        if covered[e]:
            continue
        edge = h.members[h.offsets[e] : h.offsets[e + 1]]
        # members ascend, so argmax's first maximum is the lowest index
        best = int(edge[np.argmax(uncovered_count[edge])])
        selected.append(best)
        incident = h.incident_edges(best)
        newly = incident[~covered[incident]]
        covered[newly] = True
        np.subtract.at(uncovered_count, h.members[row_indices(h.offsets, newly)], 1)

    # prune in reverse insertion order; keep the set hitting
    hit_count = np.zeros(h.m, dtype=np.int64)
    for node in selected:
        hit_count[h.incident_edges(node)] += 1
    kept = []
    for node in reversed(selected):
        incident = h.incident_edges(node)
        if np.all(hit_count[incident] >= 2):
            hit_count[incident] -= 1
        else:
            kept.append(node)
    kept.reverse()
    return kept


def umhs(h: Hypergraph, restarts: int = 5, seed: int = 0) -> UmhsResult:
    """Minimal-hitting-set ranking with random restarts.

    Each restart processes hyperedges in a random order, covers every
    uncovered edge with its member hitting the most still-uncovered
    edges (ties to the lowest index), then prunes redundant picks in
    reverse insertion order.  The smallest set across restarts wins
    (ties to the earliest restart).  The ranking lists set members by
    number of edges they hit, descending, then the remaining nodes by
    degree, descending; all ties break by ascending node index.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if h.m == 0:
        raise ValueError("cannot rank a hypergraph with no edges")

    best: list[int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        candidate = _greedy_minimal_hitting_set(h, rng)
        if best is None or len(candidate) < len(best):
            best = candidate

    by_degree = np.lexsort((np.arange(h.n), -h.degrees))
    in_set = np.zeros(h.n, dtype=bool)
    in_set[best] = True
    head = by_degree[in_set[by_degree]].tolist()
    tail = by_degree[~in_set[by_degree]].tolist()
    return UmhsResult(ranking=head + tail, hitting_set=head, restarts=restarts)
