"""Nonlinear spectral core-score solver.

Scores are the unique entrywise-positive maximizer of

    f(x) = sum over edges e of  xi(e) * ||x restricted to e||_q,
    subject to ||x||_p = 1,  x >= 0,  with  p > q > 1.

The maximizer is computed by a fixed-point iteration that alternates the
objective's gradient map with a normalization step; the iteration is a
contraction on the positive cone (Thompson metric, factor (q-1)/(p-1)),
so it converges globally and linearly from any positive start.  The
limit also solves a nonlinear eigenvector problem, whose residual
(`eigen_residual`) measures how far a result is from a fixed point.

The objective, its gradient and the eigen-residual share one kernel of
two sparse matrix-vector products with the incidence matrix B of the
hypergraph: with z = x / max(x) and e = B z^q (the edge q-power sums of z),

    gradient  = z^(q-1) * B^T (xi * e^(1/q - 1))     (0-homogeneous in x)
    objective = max(x) * sum over edges of xi * e^(1/q).

Checks that share none of this code (a dense gradient, a longdouble
fixed point) live in `tests/helpers.py`.

With q around 10, raw powers of x under/overflow readily; the one global
rescale keeps every edge sum accurate unless every member of an edge is
below about 1e-31 * max(x) (at q=10).  Such an edge has e below the
smallest normal float, where it is subnormal or 0, and only those edges
are recomputed with their own max entry as the scale.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .hypergraph import Hypergraph, XiRule, row_indices, xi_vector

__all__ = [
    "SolverConfig",
    "SolverResult",
    "objective",
    "objective_gradient",
    "iteration_map",
    "hypernsm",
    "eigen_residual",
    "thompson_distance",
]

log = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Exponents, scaling rule and stopping parameters for the solver.

    Requires p > q > 1; anything else voids the convergence guarantee
    and is rejected at construction.
    """

    p: float = 11.0
    q: float = 10.0
    xi: XiRule = XiRule.RECIPROCAL
    tol: float = 1e-8
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.p > self.q > 1.0):
            raise ValueError(f"need p > q > 1, got p={self.p}, q={self.q}")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def p_conjugate(self) -> float:
        """Holder conjugate p / (p - 1), the norm used on the gradient."""
        return self.p / (self.p - 1.0)

    @property
    def contraction_factor(self) -> float:
        """Guaranteed per-step Thompson-distance contraction (q-1)/(p-1)."""
        return (self.q - 1.0) / (self.p - 1.0)


@dataclasses.dataclass
class SolverResult:
    """Converged (or flagged) solver output.

    scores has unit p-norm over all n entries; entries are strictly
    positive for every node of degree >= 1 and exactly 0 for isolated
    nodes.  residual_trace holds the relative 2-norm change of each
    iterate; contraction_trace holds ratios of successive Thompson step
    distances (diagnostic, starts at the second step, and stops before
    a step that is not finite because a score underflowed to 0).  The
    linear Borgatti-Everett baseline returns unit 2-norm scores and
    empty traces.
    """

    scores: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    residual_trace: list[float]
    contraction_trace: list[float]
    isolated_nodes: int = 0

    def to_json_dict(self) -> dict:
        return {
            "scores": [float(s) for s in self.scores],
            "eigenvalue": float(self.eigenvalue),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residuals": [float(r) for r in self.residual_trace],
        }


def _pnorm(x: np.ndarray, p: float) -> float:
    """||x||_p with max-rescaling; x assumed nonnegative."""
    mx = float(np.max(x, initial=0.0))
    if mx == 0.0:
        return 0.0
    return mx * float(np.sum((x / mx) ** p)) ** (1.0 / p)


def _edge_power_sums(
    h: Hypergraph, z: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge q-power sums of z as s_e * r_e^q, for z with entries in [0, 1].

    s = B z^q with r_e = 1, except on the edges where that sum underflows
    below the smallest normal float: those are returned as `low` and
    recomputed with r_e their largest member and s_e = sum (z_i / r_e)^q.
    r is given on `low` only; an edge of zeros has r_e = s_e = 0.
    """
    s = h.incidence @ z**q
    low = np.flatnonzero(s < np.finfo(np.float64).tiny)
    if not low.size:
        return s, low, low
    sizes = h.sizes[low]
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    vals = z[h.members[row_indices(h.offsets, low)]]
    r = np.maximum.reduceat(vals, starts)
    s[low] = np.add.reduceat((vals / np.repeat(np.where(r > 0.0, r, 1.0), sizes)) ** q, starts)
    return s, low, r


def objective(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> float:
    """Core-score objective f(x): xi-weighted sum of per-edge q-norms."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise ValueError(f"score vector must have length {h.n}, got shape {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("objective requires a nonnegative vector")
    mx = float(np.max(x, initial=0.0))
    if h.m == 0 or mx == 0.0:
        return 0.0
    s, low, r = _edge_power_sums(h, x / mx, q)
    norms = s ** (1.0 / q)
    norms[low] *= r
    return mx * float(np.sum(xi_vector(h, xi) * norms))


def _edge_kernel(h: Hypergraph, xi_vec: np.ndarray, z: np.ndarray, q: float) -> np.ndarray:
    """B^T (xi * e^(1/q - 1)) for z with entries in [0, 1], where e are the
    edge q-power sums of z; an edge rescaled by `_edge_power_sums` has its
    scale r_e folded back in as r_e^(1 - q)."""
    s, low, r = _edge_power_sums(h, z, q)
    t = xi_vec * s ** (1.0 / q - 1.0)
    t[low] *= r ** (1.0 - q)
    return h.incidence_t @ t


def _gradient(h: Hypergraph, xi_vec: np.ndarray, x: np.ndarray, q: float) -> np.ndarray:
    """Unchecked gradient of the objective at a positive point.

    Entry i is x_i^(q-1) * sum over edges containing i of
    xi(e) * (edge q-power sum)^(1/q - 1); isolated nodes map to 0.
    Both factors are taken at z = x / max(x), as the product does not
    change when x is scaled.
    """
    z = x / np.max(x)
    return z ** (q - 1.0) * _edge_kernel(h, xi_vec, z, q)


def _step(y: np.ndarray, p: float) -> np.ndarray:
    """Next iterate from a gradient y: p*-normalization, then the 1/(p-1) power."""
    return (y / _pnorm(y, p / (p - 1.0))) ** (1.0 / (p - 1.0))


def objective_gradient(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> np.ndarray:
    """Gradient map of the objective; the solver's inner update.

    Requires x > 0 on every non-isolated node (the map is only defined
    on the positive cone); isolated nodes may be 0 and map to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise ValueError(f"score vector must have length {h.n}, got shape {x.shape}")
    if np.any(x[h.degrees > 0] <= 0.0):
        raise ValueError("gradient map needs strictly positive entries on non-isolated nodes")
    return _gradient(h, xi_vector(h, xi), x, q)


def iteration_map(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """One full solver step: gradient, p*-normalization, 1/(p-1) power.

    Scale-invariant (the same output for any positive multiple of x)
    and a Thompson-metric contraction with factor (q-1)/(p-1).  The
    output has unit p-norm by construction.
    """
    return _step(objective_gradient(h, xi, x, q), p)


def thompson_distance(x: np.ndarray, y: np.ndarray) -> float:
    """max_i |ln x_i - ln y_i| for strictly positive vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("Thompson distance is defined on strictly positive vectors")
    return float(np.max(np.abs(np.log(x) - np.log(y)), initial=0.0))


def hypernsm(h: Hypergraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Compute the global core-score vector of a hypergraph.

    Fixed-point iteration from a seeded random positive start, stopping
    when the relative 2-norm change of consecutive iterates drops below
    cfg.tol.  Isolated nodes are excluded from the iteration and pinned
    to score 0.  Non-convergence within cfg.max_iter is flagged on the
    result, not raised, and so is a non-isolated node whose score
    underflowed to 0 (with a logged count).
    """
    if cfg is None:
        cfg = SolverConfig()
    if h.m == 0:
        raise ValueError("cannot score a hypergraph with no edges")

    q, p = cfg.q, cfg.p
    # The fixed point does not change when xi is scaled.  Dividing xi by
    # the power of two that brings its max into [0.5, 1) keeps a huge xi
    # from overflowing the gradient and rounds nothing; lam is scaled back.
    xi_vec = xi_vector(h, cfg.xi)
    xi_exp = int(np.frexp(np.max(xi_vec))[1])
    xi_vec = np.ldexp(xi_vec, -xi_exp)
    active = h.degrees > 0
    n_isolated = int(h.n - np.count_nonzero(active))

    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.5, 1.5, size=h.n)
    x[~active] = 0.0
    x = x / _pnorm(x, p)

    residuals: list[float] = []
    step_distances: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        x_next = _step(_gradient(h, xi_vec, x, q), p)
        diff = float(np.linalg.norm(x_next - x) / np.linalg.norm(x))
        residuals.append(diff)
        with np.errstate(divide="ignore", invalid="ignore"):  # an underflowed score logs -inf
            dist = float(np.max(np.abs(np.log(x_next[active]) - np.log(x[active]))))
        if math.isfinite(dist):  # the step to a 0 score is inf, and 0 stays 0 (later steps nan)
            step_distances.append(dist)
        x = x_next
        if diff < cfg.tol:
            converged = True
            break

    x = x / _pnorm(x, p)
    if underflowed := int(np.count_nonzero(x[active] == 0.0)):
        converged = False
        log.warning("%d non-isolated node scores underflowed to 0", underflowed)
    lam = float(np.ldexp(_pnorm(_gradient(h, xi_vec, x, q), cfg.p_conjugate), xi_exp))
    contraction_trace = [
        d1 / d0 for d0, d1 in zip(step_distances, step_distances[1:]) if d0 > 0.0
    ]
    return SolverResult(
        scores=x,
        eigenvalue=lam,
        iterations=iterations,
        converged=converged,
        residual_trace=residuals,
        contraction_trace=contraction_trace,
        isolated_nodes=n_isolated,
    )


def eigen_residual(
    h: Hypergraph,
    xi: XiRule,
    result: SolverResult,
    cfg: SolverConfig,
) -> float:
    """Relative residual of the nonlinear eigen-equation at the solution.

    The unit-p-norm maximizer w, remapped entrywise to z = w^(p-q),
    satisfies  N(z) = lambda * z  where N applies, per edge, the power
    q/(p-q) to the node scores, sums within the edge, raises the sum to
    1/q - 1, and accumulates xi-weighted edge values back onto nodes.
    Returns ||N(z) - lambda*z||_2 / ||z||_2.  N is evaluated with the
    gradient's edge kernel, so edges whose q-power sums underflow are
    rescaled exactly as in the iteration; the independent oracles are
    in `tests/helpers.py`.
    """
    w = np.asarray(result.scores, dtype=np.float64)
    q, p = cfg.q, cfg.p
    mx = np.max(w)
    lhs = mx ** (1.0 - q) * _edge_kernel(h, xi_vector(h, xi), w / mx, q)
    z = w ** (p - q)
    # max-rescaled 2-norms: with a huge xi, squaring the entries overflows
    return _pnorm(np.abs(lhs - result.eigenvalue * z), 2.0) / _pnorm(z, 2.0)
