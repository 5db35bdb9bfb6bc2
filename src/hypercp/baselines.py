"""Comparison detectors that work on flattened or set-cover views.

Three baselines accompany the hypergraph solver: the graph variant of
the nonlinear spectral method and the classic linear dominant-eigenvector
score, both of the weighted clique expansion, and a greedy
union-of-minimal-hitting-sets ranking.  A graph is a `Hypergraph` whose
edges all have two nodes and is its own clique expansion.  The expansion
replaces every hyperedge with a clique, quadratic in the edge size,
hence the pair budget.  Borgatti-Everett applies the expansion's
adjacency through the incidence, forms no pair and is not bound by it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .hypergraph import Hypergraph, XiRule, int_setting, row_indices, spans
from .solver import SolverConfig, SolverResult, hypernsm

__all__ = [
    "UmhsResult",
    "clique_expansion",
    "graph_nsm",
    "borgatti_everett",
    "umhs",
]

PAIR_BUDGET = 50_000_000  # most node pairs a clique expansion accumulates


def clique_expansion(h: Hypergraph) -> Hypergraph:
    """Flatten a hypergraph to the 2-uniform hypergraph of its clique
    expansion: one edge per pair {i, j} sharing a hyperedge, weighted by
    the total weight of the hyperedges containing both.  An edge of size
    s gives s*(s-1)/2 pairs, so the cost is guarded by `PAIR_BUDGET`.
    Raises ValueError when the pairs exceed it or a total overflows float64."""
    import scipy.sparse as sp

    sizes = h.sizes.astype(np.int64)
    pair_count = int(np.sum(sizes * (sizes - 1) // 2))
    if pair_count > PAIR_BUDGET:
        raise ValueError(
            f"clique expansion needs {pair_count} pair accumulations, "
            f"over the budget of {PAIR_BUDGET}"
        )
    # the pair weights of B^T (diag(w) B), B in edge order.  B^T stays the
    # untouched left operand, its rows listing each node's edges in ascending
    # id order: that fixes how each pair weight is summed ((B^T diag(w)) B
    # moves bits)
    b = sp.csr_matrix((np.ones(h.members.size), h.members, h.offsets), shape=(h.m, h.n))
    wb = sp.csr_matrix((np.repeat(h.weights, h.sizes), b.indices, b.indptr), shape=b.shape)
    pairs = sp.triu(b.T.tocsr() @ wb, k=1).tocoo()
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

    Purely linear: no entrywise powers.  Multiplies by the expansion's
    adjacency A = B^T W B - D (W the edge weights, D the weighted degrees)
    through B (`Hypergraph.grouped_incidence`): no pair is formed and the
    pair budget does not apply.  Iterates on A plus a positive diagonal
    shift, which leaves the dominant eigenvector of a nonnegative
    symmetric matrix unchanged but guarantees convergence when the
    spectrum is symmetric (bipartite expansions).  Of cfg it reads the
    seed of the random start, max_iter and tol, a bound on the relative
    2-norm change of one step; p, q and xi are ignored.  Scores are
    nonnegative with unit 2-norm and exactly 0 on isolated nodes;
    non-convergence is flagged.  The eigenvalue is inf when it exceeds
    the float range.  The result has an empty trace and no certified bound.
    """
    cfg = cfg or SolverConfig()
    if h.m == 0:
        raise ValueError("graph has no edges")
    g = h.grouped_incidence
    # weights scaled by the power of two that brings their max into
    # [0.5, 1): exact, and degrees, row sums and norms stay finite
    a_exp = int(np.frexp(np.max(h.weights))[1])
    w = np.ldexp(h.weights, -a_exp)[g.order]
    weighted_degrees = g.bt @ w
    shift = 0.5 * float(np.max(g.bt @ (w * (h.sizes[g.order] - 1))))  # half A's largest row sum
    diagonal = shift - weighted_degrees

    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.5, 1.5, size=h.n)
    isolated = h.degrees == 0
    x[isolated] = 0.0
    x /= np.linalg.norm(x)

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        y = g.bt @ (w * (g.b @ x)) + diagonal * x
        y /= np.linalg.norm(y)
        diff = float(np.linalg.norm(y - x) / np.linalg.norm(x))
        x = y
        if diff < cfg.tol:
            converged = True
            break
    with np.errstate(over="ignore"):
        lam = float(np.ldexp(x @ (g.bt @ (w * (g.b @ x)) - weighted_degrees * x), a_exp))
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


def _rows(ptr: np.ndarray, data: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The CSR rows `ids` of (`ptr`, `data`), concatenated; a single row is a view."""
    if ids.size == 1:
        return data[ptr[ids[0]] : ptr[ids[0] + 1]]
    return data[row_indices(ptr, ids)]


def _node_edges(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Each node's edge ids, ascending, as CSR (ptr, ids): the rows of B^T,
    B in edge order, which scipy transposes by a counting sort."""
    import scipy.sparse as sp

    b = sp.csr_matrix((np.ones(h.members.size, dtype=bool), h.members, h.offsets), shape=(h.m, h.n))
    bt = b.T.tocsr()
    return bt.indptr.astype(np.int64), bt.indices.astype(np.int64)


def _greedy_minimal_hitting_set(h: Hypergraph, rng: np.random.Generator,
                                node_ptr: np.ndarray, node_edges: np.ndarray) -> list[int]:
    """One restart: random edge order, max-coverage picks, reverse pruning.

    `node_ptr`, `node_edges` list each node's edges, ascending, as CSR.
    The order is scanned for uncovered edges in blocks, and the next k of
    them pick at once from the current counts.  The batch stands up to
    its first pick that shares an uncovered edge with an earlier pick of
    the batch.  Every pick before that is the one the greedy makes one
    edge at a time: its own count is unchanged while the other counts of
    its edge can only have fallen, its edge is still uncovered, and the
    edges it covers are its own.  k doubles after a whole batch stands and
    becomes the length that stood when one does not.  When only the first
    pick stands, as on dense inputs where every pick touches every node,
    single picks run four times as long as the last time before k grows.
    """
    n, m, offsets, members = h.n, h.m, h.offsets, h.members
    edge_sizes = h.sizes
    order = rng.permutation(m)
    # uncovered-edge count * (n+1) + (n - node): the maximum over an edge is
    # its member with the most uncovered edges, ties to the lowest index
    score = np.diff(node_ptr) * (n + 1) + (n - np.arange(n))
    covered = np.zeros(m, dtype=bool)
    claim = np.full(m, m)  # scratch: the first pick of a batch holding each edge
    queue = order[:0]  # uncovered edges the scan has passed, in order
    scanned, window = 0, 64
    k, single, patience = 1, 0, 1
    selected: list[int] = []
    while True:
        queue = queue[~covered[queue]]
        while queue.size < k and scanned < m:
            found = order[scanned : scanned + window]
            found = found[~covered[found]]
            scanned += window
            queue = np.concatenate([queue, found])
            window = 2 * window if found.size < k else max(64, window // 2)
        if queue.size == 0:
            break
        batch = queue[:k]
        sizes = edge_sizes[batch]
        picks = n - np.maximum.reduceat(
            score[_rows(offsets, members, batch)], np.cumsum(sizes) - sizes) % (n + 1)
        newly = _rows(node_ptr, node_edges, picks)
        live = ~covered[newly]
        newly = newly[live]
        stood = batch.size
        if stood > 1:
            owner = np.repeat(np.arange(stood), node_ptr[picks + 1] - node_ptr[picks])[live]
            np.minimum.at(claim, newly, owner)
            shared = np.flatnonzero(claim[newly] < owner)
            claim[newly] = m
            if shared.size:
                stood = int(owner[shared[0]])
                newly = newly[owner < stood]
        covered[newly] = True
        np.subtract.at(score, members[spans(offsets[newly], edge_sizes[newly])], n + 1)
        selected.extend(picks[:stood].tolist())
        queue = queue[stood:]
        if stood < batch.size:
            k = stood
            if stood == 1:
                patience *= 4
                single = patience
        elif batch.size > 1:
            k = 2 * batch.size
        else:
            single -= 1
            k = 2 if single <= 0 else 1

    # prune in reverse insertion order; keep the set hitting.  A pick with
    # an edge it alone hits stays, as hit counts only fall, so only the
    # others are tried one by one.  Picks are distinct, each with an edge
    picks = np.array(selected, dtype=np.int64)
    rows = _rows(node_ptr, node_edges, picks)
    hit = np.bincount(rows, minlength=m)
    degrees = node_ptr[picks + 1] - node_ptr[picks]
    spare = np.minimum.reduceat(hit[rows], np.cumsum(degrees) - degrees) >= 2
    keep = np.ones(picks.size, dtype=bool)
    for i in np.flatnonzero(spare)[::-1].tolist():
        incident = node_edges[node_ptr[picks[i]] : node_ptr[picks[i] + 1]]
        if hit[incident].min() >= 2:
            hit[incident] -= 1
            keep[i] = False
    return picks[keep].tolist()


def umhs(h: Hypergraph, restarts: int = 5, seed: int = 0) -> UmhsResult:
    """Minimal-hitting-set ranking with random restarts.

    Each restart processes hyperedges in a random order, covers every
    uncovered edge with its member hitting the most still-uncovered
    edges (ties to the lowest index), then prunes redundant picks in
    reverse insertion order.  The smallest set across restarts wins
    (ties to the earliest restart).  A restart's Python work grows with
    its number of picks, not with the number of edges: it scans the
    order in blocks and picks in batches that give the one-edge-at-a-time
    result (see `_greedy_minimal_hitting_set`); it picks and prunes on
    node -> edge lists built once per call (`_node_edges`).  The ranking
    lists set members by number of edges they hit, descending, then the
    other nodes by degree, descending; all ties break by ascending index.
    """
    int_setting("restarts", restarts, 1)
    int_setting("seed", seed, 0)
    if h.m == 0:
        raise ValueError("cannot rank a hypergraph with no edges")

    node_lists = _node_edges(h)
    best: list[int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        candidate = _greedy_minimal_hitting_set(h, rng, *node_lists)
        if best is None or len(candidate) < len(best):
            best = candidate

    by_degree = np.lexsort((np.arange(h.n), -h.degrees))
    in_set = np.zeros(h.n, dtype=bool)
    in_set[best] = True
    head = by_degree[in_set[by_degree]].tolist()
    tail = by_degree[~in_set[by_degree]].tolist()
    return UmhsResult(ranking=head + tail, hitting_set=head, restarts=restarts)
