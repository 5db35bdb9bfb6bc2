"""Comparison detectors that work on flattened or set-cover views.

Three baselines accompany the hypergraph solver: the graph variant of
the nonlinear spectral method and the classic linear dominant-eigenvector
score, both run on the weighted clique expansion, and a greedy
union-of-minimal-hitting-sets ranking.  A graph is a `Hypergraph` whose
edges all have two nodes and is its own clique expansion.  The expansion
replaces every hyperedge with a clique, quadratic in the edge size,
hence the pair budget.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .hypergraph import Hypergraph, XiRule, int_setting, row_indices
from .solver import SolverConfig, SolverResult, hypernsm

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "UmhsResult",
    "clique_expansion",
    "graph_nsm",
    "borgatti_everett",
    "umhs",
]

PAIR_BUDGET = 50_000_000  # most node pairs a clique expansion accumulates


def _clique_adjacency(h: Hypergraph, scale_exp: int = 0) -> sp.csr_matrix:
    """Symmetric clique-expansion adjacency with zero diagonal: entry (i, j)
    is 2^-scale_exp times the total weight of the hyperedges containing
    both nodes; the weights are scaled before they are summed, which is
    exact and lets a caller keep the sums finite.  An edge of size s gives
    s*(s-1)/2 pairs, so the cost is guarded by `PAIR_BUDGET`.
    """
    import scipy.sparse as sp

    sizes = h.sizes.astype(np.int64)
    pair_count = int(np.sum(sizes * (sizes - 1) // 2))
    if pair_count > PAIR_BUDGET:
        raise ValueError(
            f"clique expansion needs {pair_count} pair accumulations, "
            f"over the budget of {PAIR_BUDGET}"
        )
    # A = B^T (diag(w) B) minus its diagonal.  B^T stays the untouched left
    # operand, its rows listing each node's edges in canonical order: that
    # fixes how each pair weight is summed ((B^T diag(w)) B moves bits).
    # Columns are sorted: the power iteration's sums read them in stored order.
    g = h.grouped_incidence
    a = g.bt @ (sp.diags(np.ldexp(h.weights[g.order], -scale_exp)) @ g.b)
    a.setdiag(0.0)
    a.eliminate_zeros()
    a.sort_indices()
    return a


def clique_expansion(h: Hypergraph) -> Hypergraph:
    """Flatten a hypergraph to the 2-uniform hypergraph of its clique
    expansion: one edge per pair {i, j} sharing a hyperedge, weighted by
    the total weight of the hyperedges containing both.  Raises
    ValueError when such a total overflows float64."""
    import scipy.sparse as sp

    pairs = sp.triu(_clique_adjacency(h), k=1).tocoo()
    if not np.all(np.isfinite(pairs.data)):
        raise ValueError("a pair weight of the clique expansion overflows float64")
    members = np.column_stack([pairs.row, pairs.col]).ravel()
    return Hypergraph.from_flat(h.n, np.full(pairs.nnz, 2), members, weights=pairs.data,
                                labels=h.labels)


def graph_nsm(h: Hypergraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Nonlinear spectral scores of the clique expansion of h.

    Runs the hypergraph solver on the expansion with the UNIT scaling
    rule, so each pair contributes its weight times the pair q-norm; on
    2-uniform inputs this is the same optimization the hypergraph solver
    performs.  cfg.xi is ignored.
    """
    return hypernsm(clique_expansion(h), dataclasses.replace(cfg or SolverConfig(), xi=XiRule.UNIT))


def borgatti_everett(h: Hypergraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Dominant-eigenvector core scores of the clique expansion, by power iteration.

    Purely linear: no entrywise powers.  Iterates on the adjacency plus
    a positive diagonal shift, which leaves the dominant eigenvector of
    a nonnegative symmetric matrix unchanged but guarantees convergence
    when the spectrum is symmetric (bipartite expansions).  Of cfg it
    reads the seed of the random start, max_iter and tol, a bound on the
    relative 2-norm change of one step; p, q and xi are ignored.  Scores
    are nonnegative with unit 2-norm and exactly 0 on isolated nodes;
    non-convergence is flagged.  The eigenvalue is inf when it exceeds
    the float range.  The result has an empty trace and no certified bound.
    """
    cfg = cfg or SolverConfig()
    # weights scaled by the power of two that brings their max into
    # [0.5, 1): exact, and pair sums, row sums and norms stay finite
    a_exp = int(np.frexp(np.max(h.weights, initial=0.0))[1])
    a = _clique_adjacency(h, scale_exp=a_exp)
    if a.nnz == 0:
        raise ValueError("graph has no edges")
    shift = 0.5 * float(np.max(a.sum(axis=1)))

    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.5, 1.5, size=h.n)
    isolated = h.degrees == 0
    x[isolated] = 0.0
    x /= np.linalg.norm(x)

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        y = a @ x + shift * x
        y /= np.linalg.norm(y)
        diff = float(np.linalg.norm(y - x) / np.linalg.norm(x))
        x = y
        if diff < cfg.tol:
            converged = True
            break
    with np.errstate(over="ignore"):
        lam = float(np.ldexp(x @ (a @ x), a_exp))
    return SolverResult(x, lam, iterations, converged, residual_trace=[],
                        isolated_nodes=int(np.count_nonzero(isolated)))


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
    int_setting("restarts", restarts, 1)
    int_setting("seed", seed, 0)
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
