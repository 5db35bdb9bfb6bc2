"""Shared test fixtures: random instances and independent oracles.

Oracles here deliberately avoid the package's vectorized kernels: dense
matrices, per-set recounts and exhaustive enumeration, so they can
disagree with the implementation when it is wrong.
"""

from __future__ import annotations

import array
import itertools
import math

import numpy as np

from hypercp import GeneratorConfig, Hypergraph, SolverConfig, XiRule, iteration_map
from hypercp.generator import edge_probability
from hypercp.hypergraph import row_indices
from hypercp.ingest import _open_text


def random_hypergraph(
    rng: np.random.Generator,
    n: int,
    m: int,
    smin: int = 2,
    smax: int = 5,
    cover_all: bool = True,
    weighted: bool = False,
) -> Hypergraph:
    """Random hypergraph; cover_all patches in edges so no node is isolated."""
    edges = [
        rng.choice(n, size=int(rng.integers(smin, smax + 1)), replace=False).tolist()
        for _ in range(m)
    ]
    if cover_all:
        used = set(itertools.chain.from_iterable(edges))
        missing = [i for i in range(n) if i not in used]
        for i in missing:
            other = int(rng.integers(n - 1))
            edges.append([i, other if other < i else other + 1])
    weights = rng.uniform(0.5, 3.0, size=len(edges)).tolist() if weighted else None
    return Hypergraph(n, edges, weights=weights)


def edge_tuples(h: Hypergraph) -> list[tuple[int, ...]]:
    """Edges as sorted node tuples in stored order, cut from `members` by `offsets`."""
    flat, bounds = h.members.tolist(), h.offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def node_edges(h: Hypergraph) -> list[list[int]]:
    """Each node's edge ids in ascending order, from `edge_tuples`."""
    lists: list[list[int]] = [[] for _ in range(h.n)]
    for j, e in enumerate(edge_tuples(h)):
        for i in e:
            lists[i].append(j)
    return lists


def edges_by_label(h: Hypergraph) -> list[tuple[tuple[str, ...], float]]:
    """Edges as sorted label tuples with their weights, sorted: a view
    free of dense indices, so graphs read in different orders compare."""
    names = h.labels if h.labels is not None else [str(i) for i in range(h.n)]
    return sorted((tuple(sorted(names[i] for i in e)), w)
                  for e, w in zip(edge_tuples(h), h.weights.tolist()))


def canonical_incidence(n: int, edges, weights=None):
    """Canonical (offsets, members, weights) by an edge-by-edge dict merge.

    Sorts and dedupes each edge, sums the weights of equal edges in input
    order, and orders edges lexicographically; no vectorized sorting.
    """
    wlist = [1.0] * len(edges) if weights is None else [float(w) for w in weights]
    merged: dict[tuple[int, ...], float] = {}
    for raw, w in zip(edges, wlist):
        key = tuple(sorted({int(i) for i in raw}))
        merged[key] = merged.get(key, 0.0) + w
    keys = sorted(merged)
    offsets = np.array([0] + [len(k) for k in keys], dtype=np.int64).cumsum()
    members = np.array([i for k in keys for i in k], dtype=np.int64)
    return offsets, members, np.array([merged[k] for k in keys], dtype=np.float64)


def canonical_b(h: Hypergraph):
    """0/1 edge-by-node incidence matrix B (m x n) in canonical edge order,
    a scipy CSR matrix cut straight from `offsets` and `members`."""
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(h.members.size), h.members, h.offsets), shape=(h.m, h.n))


def reference_read_edge_list(source) -> Hypergraph:
    """The edge-list reader as a per-line loop: strip, skip comments,
    partition at the first '#', parse the weight and intern each label
    in a dict.  `hypercp.read_edge_list` must give the same hypergraph,
    or raise the same ValueError, for every text."""
    index: dict[str, int] = {}
    sizes, members = array.array("q"), array.array("q")  # int64, even when empty
    weights: list[float] = []
    with _open_text(source) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            weight = 1.0
            if "#" in line:
                left, _, right = line.partition("#")
                right = right.strip()
                if not right.startswith("w="):
                    raise ValueError(
                        f"line {lineno}: expected '# w=<float>', got {right!r}"
                    )
                try:
                    weight = float(right[2:])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad weight {right[2:]!r}"
                    ) from None
                line = left
            labels = line.split()
            if len(set(labels)) < 2:
                raise ValueError(
                    f"line {lineno}: a hyperedge needs at least 2 distinct labels"
                )
            if not (math.isfinite(weight) and weight > 0.0):
                raise ValueError(f"line {lineno}: weight must be positive and finite, got {weight}")
            sizes.append(len(labels))
            members.extend([index.setdefault(lab, len(index)) for lab in labels])
            weights.append(weight)
    return Hypergraph.from_flat(len(index), sizes, members, weights=weights, labels=list(index))


def reference_hypergraph_to_text(h: Hypergraph) -> str:
    """The edge-list writer as a comprehension over edges: labels joined
    by spaces, then ``# w=`` and the weight's repr.
    `hypercp.ingest.hypergraph_to_text` must give the same text."""
    names = h.labels if h.labels is not None else list(map(str, range(h.n)))
    tokens = [names[i] for i in h.members.tolist()]
    bounds = h.offsets.tolist()
    lines = [
        f"{' '.join(tokens[a:b])} # w={w!r}"
        for a, b, w in zip(bounds, bounds[1:], h.weights.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_sample(cfg: GeneratorConfig) -> tuple[Hypergraph, np.ndarray]:
    """The planted-model sampler with its candidates from
    `itertools.combinations`: every size's subsets in lexicographic order,
    one `rng.random` draw per size.  `hypercp.generator.sample` must draw
    the same hypergraph and ranks for every config."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.planted_perm is not None:
        ranks = np.asarray(cfg.planted_perm, dtype=np.int64)
    else:
        ranks = rng.permutation(cfg.n).astype(np.int64) + 1
    node_of_rank = np.empty(cfg.n, dtype=np.int64)
    node_of_rank[ranks - 1] = np.arange(cfg.n)
    kept = []
    for r in range(2, cfg.max_size + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(cfg.n), r)),
            dtype=np.int64,
            count=math.comb(cfg.n, r) * r,
        ).reshape(-1, r)
        kept.append(node_of_rank[combos[rng.random(len(combos)) < edge_probability(combos + 1, cfg)]])
    sizes = np.concatenate([np.full(len(edges), edges.shape[1]) for edges in kept])
    h = Hypergraph.from_flat(cfg.n, sizes, np.concatenate([edges.ravel() for edges in kept]))
    return h, ranks


def reference_greedy_hitting_set(h: Hypergraph, rng: np.random.Generator) -> list[int]:
    """One UMHS restart as a loop over the edges in a random order: cover
    each uncovered edge with its member hitting the most uncovered edges
    (ties to the lowest index), then prune in reverse insertion order.
    `hypercp.baselines._greedy_minimal_hitting_set` must return the same
    list for the same generator state."""
    order = rng.permutation(h.m)
    incident_edges = [np.array(edges, dtype=np.int64) for edges in node_edges(h)]
    uncovered_count = np.array([len(edges) for edges in incident_edges], dtype=np.int64)
    covered = np.zeros(h.m, dtype=bool)
    selected: list[int] = []

    for e in order.tolist():
        if covered[e]:
            continue
        edge = h.members[h.offsets[e] : h.offsets[e + 1]]
        # members ascend, so argmax's first maximum is the lowest index
        best = int(edge[np.argmax(uncovered_count[edge])])
        selected.append(best)
        incident = incident_edges[best]
        newly = incident[~covered[incident]]
        covered[newly] = True
        np.subtract.at(uncovered_count, h.members[row_indices(h.offsets, newly)], 1)

    # prune in reverse insertion order; keep the set hitting
    hit_count = np.zeros(h.m, dtype=np.int64)
    for node in selected:
        hit_count[incident_edges[node]] += 1
    kept = []
    for node in reversed(selected):
        incident = incident_edges[node]
        if np.all(hit_count[incident] >= 2):
            hit_count[incident] -= 1
        else:
            kept.append(node)
    kept.reverse()
    return kept


def dense_incidence(h: Hypergraph) -> np.ndarray:
    """0/1 node-by-edge incidence matrix, built edge by edge."""
    b = np.zeros((h.n, h.m))
    for j, e in enumerate(edge_tuples(h)):
        for i in e:
            b[i, j] = 1.0
    return b


def xi_values(h: Hypergraph, rule: XiRule) -> np.ndarray:
    sizes = np.array([len(e) for e in edge_tuples(h)], dtype=float)
    if rule is XiRule.RECIPROCAL:
        return 1.0 / sizes
    if rule is XiRule.WEIGHTED_RECIPROCAL:
        return h.weights / sizes
    return h.weights.copy()


def dense_gradient(h: Hypergraph, rule: XiRule, x: np.ndarray, q: float) -> np.ndarray:
    """Gradient map via the dense incidence matrix, no rescaling tricks."""
    b = dense_incidence(h)
    y = b.T @ (x**q)
    return x ** (q - 1.0) * (b @ (xi_values(h, rule) * y ** (1.0 / q - 1.0)))


def longdouble_map(h: Hypergraph, rule: XiRule, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """The map T x in np.longdouble from `dense_gradient`: the gradient,
    divided by its p*-norm (p* = p/(p-1)), raised to 1/(p-1).  Raw powers
    of x are in range there for scores down to about 1e-490 at q=10."""
    ld = np.longdouble
    p = ld(p)
    y = dense_gradient(h, rule, np.asarray(x, dtype=ld), ld(q))
    pstar = p / (p - 1)
    return (y / np.sum(y**pstar) ** (1 / pstar)) ** (1 / (p - 1))


# The map in logs as `hypercp.solver` took it before it ran in place, kept
# verbatim (bodies unchanged, names prefixed) as the bit-for-bit reference
# for `solver._log_step(solver._log_gradient_terms(...)[0])`.  Every
# operation here allocates its result.


def _reference_log_pnorm(a: np.ndarray, p: float) -> float:
    """log ||exp(a)||_p, taken about max(a) so that no power overflows."""
    top = float(a.max())
    return top + math.log(float(np.exp(p * (a - top)).sum())) / p


def _reference_log(x: np.ndarray) -> np.ndarray:
    """Entrywise log of a nonnegative vector, -inf at 0 without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _reference_edge_power_sums(
    h: Hypergraph, w: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge q-power sums of exp(w) as s_e * exp(q r_e), for log scores
    w <= 0 (-inf for a score of 0), in grouped edge order.

    s = B exp(q w) with r_e = 0, except on the edges where that sum
    underflows below the smallest normal float: those are returned as
    `low` (positions in grouped order) and recomputed with r_e their
    largest member's log score and s_e = sum exp(q (w_i - r_e)).  r is
    given on `low` only; an edge of zeros has r_e = -inf and s_e = 0.
    """
    g = h.grouped_incidence
    s = g.b @ np.exp(q * w)
    low = np.flatnonzero(s < np.finfo(np.float64).tiny)
    if not low.size:
        return s, low, low
    sizes = np.diff(g.b.indptr)[low]
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    vals = w[g.b.indices[row_indices(g.b.indptr, low)]]
    r = np.maximum.reduceat(vals, starts)
    shift = np.repeat(np.where(r > -np.inf, r, 0.0), sizes)
    s[low] = np.add.reduceat(np.exp(q * (vals - shift)), starts)
    return s, low, r


def _reference_edge_kernel(h: Hypergraph, xi_vec: np.ndarray, w: np.ndarray, q: float) -> np.ndarray:
    """B^T (xi * e^(1/q - 1)) for log scores w <= 0 and xi in grouped
    edge order, where e are the edge q-power sums of exp(w), taken as the
    kernel takes it: a scatter over B's grouped rows; an edge
    rescaled by `_edge_power_sums` has its shift folded back in as
    exp((1 - q) r_e), except that a term that is 0 before it (xi = 0)
    or on an edge of zeros (r_e = -inf) is 0."""
    s, low, r = _reference_edge_power_sums(h, w, q)
    t = xi_vec * s ** (1.0 / q - 1.0)
    if low.size:
        live = (t[low] > 0.0) & (r > -np.inf)
        t[low] = np.where(live, t[low] * np.exp((1.0 - q) * r), 0.0)
    return h.grouped_incidence.bt @ t


def _reference_log_gradient(h: Hypergraph, xi_vec: np.ndarray, u: np.ndarray, q: float) -> np.ndarray:
    """Log of the objective's gradient at exp(u).

    Entry i is (q-1) * w_i + log v_i, with w = u - max(u) and v the
    kernel output: the gradient does not change when x is scaled.
    Isolated nodes (u = -inf, v = 0) map to -inf.
    """
    w = u - u.max()
    return (q - 1.0) * w + _reference_log(_reference_edge_kernel(h, xi_vec, w, q))


def _reference_log_step(log_y: np.ndarray, p: float) -> np.ndarray:
    """log T x from the log gradient: the 1/(p-1) power, then the
    p*-normalization as a shift that gives T x unit p-norm."""
    g = log_y / (p - 1.0)
    g -= _reference_log_pnorm(g, p)
    return g


def reference_log_map(h: Hypergraph, xi_vec: np.ndarray, u: np.ndarray, q: float, p: float) -> np.ndarray:
    """log T(exp(u)) for xi in grouped edge order, computed out of place."""
    return _reference_log_step(_reference_log_gradient(h, xi_vec, u, q), p)


def longdouble_fixed_point(
    h: Hypergraph, rule: XiRule, p: float, q: float, tol: float = 1e-14, max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """The solver's fixed point, iterated as the plain map in np.longdouble.

    Its exponent range (about 1e+-4932 on x86) holds every raw power
    x^q that a float64 solve has to rescale, so nothing is rescaled
    here.  Each step sums every edge's x^q over its members in stored
    order and adds the edge terms onto the nodes in edge order, as a loop
    over the edges would.  Stops when the contraction bound c/(1-c) times
    the Thompson step is below tol, whatever the start (default all ones
    on the nodes of some edge); returns unit-p-norm scores as float64.
    """
    ld = np.longdouble
    p, q = ld(p), ld(q)
    c = (q - 1) / (p - 1)
    xi = xi_values(h, rule).astype(ld)
    members, sizes = h.members, np.diff(h.offsets)
    active = np.zeros(h.n, dtype=bool)
    active[members] = True
    x = np.where(active, ld(1), ld(0)) if start is None else np.asarray(start, dtype=ld)
    for _ in range(max_iter):
        terms = xi * np.add.reduceat(x[members] ** q, h.offsets[:-1]) ** (1 / q - 1)
        y = np.zeros(h.n, dtype=ld)
        np.add.at(y, members, np.repeat(terms, sizes))
        y *= x ** (q - 1)
        pstar = p / (p - 1)
        y = (y / np.sum(y**pstar) ** (1 / pstar)) ** (1 / (p - 1))
        step = np.max(np.abs(np.log(y[active]) - np.log(x[active])))
        x = y
        if c / (1 - c) * step < tol:
            return (x / np.sum(x**p) ** (1 / p)).astype(np.float64)
    raise AssertionError(f"longdouble oracle did not converge in {max_iter} steps")


def plain_map_steps(
    h: Hypergraph, cfg: SolverConfig, max_maps: int = 400
) -> tuple[list[float], np.ndarray]:
    """Thompson steps and last image of the plain map `iteration_map`,
    iterated from a random start uniform on [0.5, 1.5] that cfg.seed
    seeds, until c/(1-c) times the step, c the contraction factor, is at
    most cfg.tol or max_maps maps are spent.  `hypernsm` starts from the
    ones vector, so these are the distinct starts of the paper's claim
    that the map converges to one optimum from any positive start."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.5, 1.5, size=h.n)
    active = h.degrees > 0
    x[~active] = 0.0
    x /= np.sum(x**cfg.p) ** (1.0 / cfg.p)
    c = cfg.contraction_factor
    steps: list[float] = []
    for _ in range(max_maps):
        tx = iteration_map(h, cfg.xi, x, cfg.q, cfg.p)
        steps.append(float(np.max(np.abs(np.log(tx[active] / x[active])))))
        x = tx
        if c / (1.0 - c) * steps[-1] <= cfg.tol:
            break
    return steps, x


def naive_objective(h: Hypergraph, rule: XiRule, x: np.ndarray, q: float) -> float:
    xi = xi_values(h, rule)
    return sum(
        float(xi[j]) * float(np.sum(np.asarray([x[i] for i in e]) ** q) ** (1.0 / q))
        for j, e in enumerate(edge_tuples(h))
    )


def naive_profile_value(h: Hypergraph, nodes, rule: XiRule | None = None) -> float:
    """Per-set recount of the contained/touched edge ratio."""
    s = set(nodes)
    xi = np.ones(h.m) if rule is None else xi_values(h, rule)
    num = sum(float(xi[j]) for j, e in enumerate(edge_tuples(h)) if set(e) <= s)
    den = sum(float(xi[j]) for j, e in enumerate(edge_tuples(h)) if set(e) & s)
    return num / den if den else 0.0


def is_hitting_set(h: Hypergraph, nodes) -> bool:
    s = set(nodes)
    return all(s & set(e) for e in edge_tuples(h))


def is_minimal_hitting_set(h: Hypergraph, nodes) -> bool:
    s = set(nodes)
    if not is_hitting_set(h, s):
        return False
    return all(not is_hitting_set(h, s - {u}) for u in s)


def model_log_likelihood(
    h: Hypergraph, ranks, max_size: int, rule: XiRule, q_mu: float
) -> float:
    """Exact log-likelihood of a sample under the planted-order model.

    Sums log P over every candidate subset of sizes 2..max_size, using
    the observed edge set of h; the per-edge score is xi(e) times the
    q_mu-norm of (n - rank)/n over the candidate's nodes.
    """
    ranks = list(ranks)
    n = h.n
    present = set(edge_tuples(h))
    total = 0.0
    for r in range(2, max_size + 1):
        for combo in itertools.combinations(range(n), r):
            mu = sum(((n - ranks[i]) / n) ** q_mu for i in combo) ** (1.0 / q_mu)
            if rule is XiRule.RECIPROCAL:
                s = mu / r
            elif rule is XiRule.WEIGHTED_RECIPROCAL:
                s = mu / r
            else:
                s = mu
            p = 1.0 / (1.0 + math.exp(-s))
            total += math.log(p) if combo in present else math.log(1.0 - p)
    return total


def kendall_tau(a, b) -> float:
    from scipy.stats import kendalltau

    return float(kendalltau(a, b).statistic)
