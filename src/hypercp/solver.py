"""Nonlinear spectral core-score solver.

Scores are the unique entrywise-positive maximizer of

    f(x) = sum over edges e of  xi(e) * ||x restricted to e||_q,
    subject to ||x||_p = 1,  x >= 0,  with  p > q > 1.

The maximizer is the fixed point of a map T that alternates the
objective's gradient with a normalization step; the iteration converges
from any positive start at the linear rate c = (q-1)/(p-1), the spectral
radius of T's Jacobian at the fixed point in u = log x (self-adjoint for
the x^p-weighted inner product, spectrum in [0, c]).  The limit also
solves a nonlinear eigenvector problem, whose residual (`eigen_residual`)
measures how far a result is from a fixed point.

`hypernsm` accelerates the iteration (Anderson mixing on u) and stops on
c/(1-c) * d_T(x, T x), d_T the Thompson metric max_i |ln x_i - ln y_i|:
the Banach bound on d_T(T x, x*) for a map that contracts d_T by c.  To
first order it bounds the x^p-weighted RMS of ln(T x / x*), where the
Jacobian contracts by c.  In d_T, the maximum relative error, the
Jacobian's norm is 2c, so there the bound is an estimate that a solve on
a sparse hypergraph can exceed by a small factor (tests/test_solver.py).

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

from .hypergraph import Hypergraph, XiRule, row_indices, score_vector, xi_vector

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

ANDERSON_MEMORY = 5  # differences kept by hypernsm's Anderson acceleration


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
        """Linear rate (q-1)/(p-1) of the fixed-point map near its fixed point."""
        return (self.q - 1.0) / (self.p - 1.0)


@dataclasses.dataclass
class SolverResult:
    """Converged (or flagged) solver output.

    scores has unit p-norm over all n entries; entries are strictly
    positive for every node of degree >= 1 and exactly 0 for isolated
    nodes.  residual_trace holds the Thompson step d_T(x, T x) of every
    map (over the nodes still positive once a score underflowed), and
    cert_bound the error bound of the returned scores (see `hypernsm`):
    None when a score underflowed to 0.  The linear Borgatti-Everett
    baseline returns unit 2-norm scores, an empty trace and no bound.
    """

    scores: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    residual_trace: list[float]
    cert_bound: float | None = None
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
    x = score_vector(x, h.n)
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
    x = score_vector(x, h.n)
    if np.any(x[h.degrees > 0] <= 0.0):
        raise ValueError("gradient map needs strictly positive entries on non-isolated nodes")
    return _gradient(h, xi_vector(h, xi), x, q)


def iteration_map(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """One full solver step: gradient, p*-normalization, 1/(p-1) power.

    Scale-invariant (the same output for any positive multiple of x);
    iterated, it converges at the linear rate (q-1)/(p-1).  The output
    has unit p-norm by construction.
    """
    return _step(objective_gradient(h, xi, x, q), p)


def thompson_distance(x: np.ndarray, y: np.ndarray) -> float:
    """max_i |ln x_i - ln y_i| for strictly positive vectors."""
    x = score_vector(x)
    y = score_vector(y, x.size)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("Thompson distance is defined on strictly positive vectors")
    return float(np.max(np.abs(np.log(x) - np.log(y)), initial=0.0))


class _Anderson:
    """Anderson acceleration (Walker & Ni 2011, memory m) of a fixed-point
    map on u = log x: ring buffers of the last m differences of the
    residual f = log(T x / x) and of g = log T x, and the m x m Gram
    matrix of the f differences, so one update costs O(m * size)."""

    def __init__(self, memory: int, size: int) -> None:
        self.d_f = np.empty((memory, size))
        self.d_g = np.empty((memory, size))
        self.gram = np.empty((memory, memory))
        self.clear()

    def clear(self) -> None:
        self.stored = 0
        self.f = None

    def update(self, f: np.ndarray, moved: np.ndarray | None) -> np.ndarray | None:
        """Record the residual f of the latest map, taken at the previous
        image times exp(moved) (moved None for the image itself); return
        the move from log T x to the extrapolated point, or None when
        there is no earlier map to difference against."""
        f_prev, self.f = self.f, f
        if f_prev is None:
            return None
        memory = len(self.gram)
        k = self.stored % memory
        np.subtract(f, f_prev, out=self.d_f[k])
        # g - g_prev = f + (u - g_prev), and u - g_prev is the move taken
        if moved is None:
            self.d_g[k] = f
        else:
            np.add(f, moved, out=self.d_g[k])
        self.stored += 1
        used = min(self.stored, memory)
        d_f = self.d_f[:used]
        row = d_f @ d_f[k]
        self.gram[k, :used] = row
        self.gram[:used, k] = row
        gamma = np.linalg.lstsq(self.gram[:used, :used], d_f @ f, rcond=None)[0]
        return -(gamma @ self.d_g[:used])


def hypernsm(h: Hypergraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Compute the global core-score vector of a hypergraph.

    Iterates the fixed-point map T from a seeded random positive start
    with Anderson acceleration (Walker & Ni 2011, memory
    `ANDERSON_MEMORY`) on u = log x over the non-isolated nodes; isolated
    nodes are pinned to score 0.  Every map gives the certificate
    c/(1-c) * d_T(x, T x), c = cfg.contraction_factor, and the solve
    returns T x once that is at most cfg.tol (`converged`).  cert_bound
    adds to it the rounding of gradient entries that are subnormal
    (below 2^-1022), through which the computed map moves its fixed point.
    iterations counts maps.

    An extrapolated point is accepted.  If its Thompson step is not below
    the best so far, the loop takes the best point's plain step instead,
    accepts it whatever its step, clears the memory and refills it with
    plain steps before it extrapolates again; no map is spent twice.
    Non-convergence within cfg.max_iter is flagged, not raised; the best
    point's T x and bound are returned.  A non-isolated score that
    underflows to 0 in a plain step voids the certificate (cert_bound
    None, converged False, a logged count): the loop goes on with plain
    steps until c/(1-c) times the Thompson step over the scores still
    positive is at most cfg.tol.
    """
    cfg = cfg or SolverConfig()
    if h.m == 0:
        raise ValueError("cannot score a hypergraph with no edges")

    q, p = cfg.q, cfg.p
    c = cfg.contraction_factor
    bound = c / (1.0 - c)
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

    accel = _Anderson(ANDERSON_MEMORY, int(np.count_nonzero(active)))
    sel = active if n_isolated else slice(None)  # a view, no copy, when every node is active
    extrapolated = np.zeros(h.n)  # reused for every extrapolated point
    best_r, best_tx = math.inf, x
    move = None  # log(x / previous T x) when x is an extrapolation
    plain = True  # x is the start or a plain step, not an extrapolation
    hold = 0  # plain steps still to take before extrapolating again
    underflow = False

    steps: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        # an extrapolation may leave the kernel's range; its map is then dropped
        with np.errstate(all=None if plain else "ignore"):
            tx = _step(_gradient(h, xi_vec, x, q), p)
        xa, ta = x[sel], tx[sel]
        if underflow or not ta.min() > 0.0:
            # The Thompson step to a 0 score is infinite: measure the
            # nodes still positive (x_i = 0 gives (T x)_i = 0).
            pos = ta > 0.0
            r = float(np.max(np.abs(np.log(ta[pos] / xa[pos])))) if pos.any() else math.inf
            steps.append(r)
            if plain:  # from here on, plain steps without a certificate
                underflow = True
                best_tx = x = tx
                if bound * r <= cfg.tol:
                    break
                continue
        else:
            f = np.log(ta / xa)
            r = float(np.max(np.abs(f)))
            steps.append(r)
            if bound * r <= cfg.tol:
                best_r, best_tx, converged = r, tx, True
                break
            if plain or r < best_r:
                best_r, best_tx = r, tx
                move = accel.update(f, None if plain else move)
                plain = move is None or hold > 0
                hold = max(hold - 1, 0)
                if plain:
                    x = tx
                else:
                    x = extrapolated
                    x[sel] = ta * np.exp(move)
                continue
        # No progress: take the best point's plain step and clear the
        # memory; plain steps refill it before extrapolation resumes.
        x, plain, hold = best_tx, True, ANDERSON_MEMORY
        accel.clear()

    x = best_tx / _pnorm(best_tx, p)
    y = _gradient(h, xi_vec, x, q)
    if underflowed := int(np.count_nonzero(x[active] == 0.0)):
        log.warning("%d non-isolated node scores underflowed to 0", underflowed)
    # A gradient entry below 2^-1022 is subnormal: its rounding, up to
    # half of 2^-1074, changes the map's output there by that share over
    # p - 1 and so moves the computed fixed point by up to 1/(1-c) times it.
    y_min = float(np.min(y[active]))
    slack = math.ldexp(1.0, -1074) / y_min / (2.0 * (p - 1.0)) if y_min > 0.0 else math.inf
    cert_bound = None if underflow else (c * best_r + slack) / (1.0 - c)
    lam = float(np.ldexp(_pnorm(y, cfg.p_conjugate), xi_exp))
    return SolverResult(
        scores=x,
        eigenvalue=lam,
        iterations=iterations,
        converged=converged and cert_bound <= cfg.tol,
        residual_trace=steps,
        cert_bound=cert_bound,
        isolated_nodes=n_isolated,
    )


def eigen_residual(h: Hypergraph, result: SolverResult, cfg: SolverConfig) -> float:
    """Relative residual, at the solution `result`, of the nonlinear
    eigen-equation that cfg.p, cfg.q and cfg.xi define.

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
    lhs = mx ** (1.0 - q) * _edge_kernel(h, xi_vector(h, cfg.xi), w / mx, q)
    z = w ** (p - q)
    # max-rescaled 2-norms: with a huge xi, squaring the entries overflows
    return _pnorm(np.abs(lhs - result.eigenvalue * z), 2.0) / _pnorm(z, 2.0)
