"""Nonlinear spectral core-score solver.

Scores are the unique entrywise-positive maximizer of

    f(x) = sum over edges e of  xi(e) * ||x restricted to e||_q,
    subject to ||x||_p = 1,  x >= 0,  with  p > q > 1.

The maximizer is computed by a fixed-point iteration that alternates the
objective's gradient map with a normalization step; the iteration is a
contraction on the positive cone (Thompson metric, factor (q-1)/(p-1)),
so it converges globally and linearly from any positive start.  The
limit also solves a nonlinear eigenvector problem, which gives an
independent residual check (`eigen_residual`).

All per-edge q-norm accumulations rescale by the edge's max entry before
exponentiation: with q around 10, raw powers under/overflow readily.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .hypergraph import Hypergraph, XiRule, xi_vector

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
    distances (diagnostic, starts at the second step).
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


def _edge_max_and_scaled_qsum(
    h: Hypergraph, x: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge max entry mx_e and s_e = sum over e of (x_i / mx_e)^q.

    The edge q-norm is mx_e * s_e^(1/q); edges whose members are all
    zero get mx_e = 0 and s_e = 0.
    """
    vals = x[h.members]
    starts = h.offsets[:-1]
    mx = np.maximum.reduceat(vals, starts)
    safe = np.where(mx > 0.0, mx, 1.0)
    scaled = vals / np.repeat(safe, h.sizes)
    s = np.add.reduceat(scaled**q, starts)
    s[mx == 0.0] = 0.0
    return mx, s


def objective(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> float:
    """Core-score objective f(x): xi-weighted sum of per-edge q-norms."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise ValueError(f"score vector must have length {h.n}, got shape {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("objective requires a nonnegative vector")
    if h.m == 0:
        return 0.0
    mx, s = _edge_max_and_scaled_qsum(h, x, q)
    return float(np.sum(xi_vector(h, xi) * mx * s ** (1.0 / q)))


def _gradient(h: Hypergraph, xi_vec: np.ndarray, x: np.ndarray, q: float) -> np.ndarray:
    """Unchecked gradient of the objective at a positive point.

    Entry i is x_i^(q-1) * sum over edges containing i of
    xi(e) * (edge q-power sum)^(1/q - 1); isolated nodes map to 0.
    """
    mx, s = _edge_max_and_scaled_qsum(h, x, q)
    # (mx^q * s)^(1/q - 1) split into exact power factors of mx and s.
    t = xi_vec * mx ** (1.0 - q) * s ** (1.0 / q - 1.0)
    acc = np.bincount(h.members, weights=np.repeat(t, h.sizes), minlength=h.n)
    return x ** (q - 1.0) * acc


def objective_gradient(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> np.ndarray:
    """Gradient map of the objective; the solver's inner update.

    Requires x > 0 on every non-isolated node (the map is only defined
    on the positive cone); isolated nodes may be 0 and map to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise ValueError(f"score vector must have length {h.n}, got shape {x.shape}")
    if np.any(x[h.members] <= 0.0):
        raise ValueError("gradient map needs strictly positive entries on non-isolated nodes")
    return _gradient(h, xi_vector(h, xi), x, q)


def iteration_map(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """One full solver step: gradient, p*-normalization, 1/(p-1) power.

    Scale-invariant (the same output for any positive multiple of x)
    and a Thompson-metric contraction with factor (q-1)/(p-1).  The
    output has unit p-norm by construction.
    """
    y = objective_gradient(h, xi, x, q)
    return (y / _pnorm(y, p / (p - 1.0))) ** (1.0 / (p - 1.0))


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
    result, not raised.
    """
    if cfg is None:
        cfg = SolverConfig()
    if h.m == 0:
        raise ValueError("cannot score a hypergraph with no edges")

    q, p = cfg.q, cfg.p
    pstar = cfg.p_conjugate
    xi_vec = xi_vector(h, cfg.xi)
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
        y = _gradient(h, xi_vec, x, q)
        x_next = (y / _pnorm(y, pstar)) ** (1.0 / (p - 1.0))
        diff = float(np.linalg.norm(x_next - x) / np.linalg.norm(x))
        residuals.append(diff)
        step_distances.append(
            float(np.max(np.abs(np.log(x_next[active]) - np.log(x[active]))))
        )
        x = x_next
        if diff < cfg.tol:
            converged = True
            break

    x = x / _pnorm(x, p)
    lam = _pnorm(_gradient(h, xi_vec, x, q), pstar)
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
    Returns ||N(z) - lambda*z||_2 / ||z||_2, evaluated directly from
    that formula (no shared code with the iteration).
    """
    w = np.asarray(result.scores, dtype=np.float64)
    q, p = cfg.q, cfg.p
    z = w ** (p - q)
    fz = z ** (q / (p - q))
    xi_vec = xi_vector(h, xi)

    edge_sums = np.add.reduceat(fz[h.members], h.offsets[:-1])
    gvals = np.where(edge_sums > 0.0, edge_sums, 1.0) ** (1.0 / q - 1.0)
    gvals[edge_sums == 0.0] = 0.0
    lhs = np.bincount(h.members, weights=np.repeat(xi_vec * gvals, h.sizes), minlength=h.n)

    return float(np.linalg.norm(lhs - result.eigenvalue * z) / np.linalg.norm(z))
