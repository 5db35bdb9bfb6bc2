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

`hypernsm` iterates u -> log T(e^u) from the ones vector and accelerates
it (Anderson mixing on u).  It stops on c/(1-c) * d_H(x, T x), d_H the
Hilbert step max_i - min_i of ln(T x / x)_i.  For x and T x of unit
p-norm that log ratio changes sign, so d_H is at least the Thompson step
d_T(x, T x) = max_i |ln x_i - ln (T x)_i|, and c/(1-c) * d_T is the
Banach bound on d_T(T x, x*) for a map that contracts d_T by c.  To
first order it bounds the x^p-weighted RMS of ln(T x / x*), where the
Jacobian contracts by c.  In d_T, the maximum relative error, the
Jacobian's norm is 2c, so there the bound is an estimate that a solve on
a sparse hypergraph can exceed by a small factor (tests/test_solver.py).
The path to the stop measures d_T (see `hypernsm`).

Near the fixed point Anderson mixes a preconditioned map P, not T.  In
u, T's Jacobian has the diagonal c (1 - a_i), a_i in [0, 1] node i's own
share of its edges' q-norms: a node that is the largest in none of its
edges has a_i near 0 and on its own converges only at the rate c.
P u = u + (T u - u) / (1 - c + c min(1, a)), shifted to unit p-norm, is
a one-step Jacobi-Newton correction (Ortega & Rheinboldt 1970) that
divides that diagonal out; it has T's fixed points.  The stop rule and
the bound stay on T's own step (see `hypernsm`).

There is one map, taken in logs, and one kernel of two sparse
matrix-vector products with the incidence matrix B of the hypergraph.
It takes log scores w = log(x / max(x)) <= 0 and forms z^q as
exp(q * w); with e = B z^q (the edge q-power sums of z),

    log gradient = (q-1) * w + log B^T (xi * e^(1/q - 1))   (0-homogeneous in x)
    log T x      = (log gradient) / (p-1), shifted to give T x unit p-norm
    objective    = max(x) * sum over edges of xi * e^(1/q).

`objective_gradient` and `iteration_map` return exp of the first two.
Oracles that share none of this code live in `tests/helpers.py`.

The kernel multiplies by `Hypergraph.grouped_incidence`, B with its
edges grouped by size.  scipy's product B z loops over each edge's
members; on edges of mixed sizes that loop's length changes from edge
to edge, grouped it repeats over long runs, and the product took under
half the time on edges of sizes 3-7 (n = 5e3 to 1e5).  So the
kernel's per-edge values (the sums e, xi, the rescued low edges) are in
grouped order, and xi is permuted once per call.  B^T is B's own arrays
read as columns, so B^T t scatters each edge's term onto its members and
every node sum adds its terms in grouped edge order: its last bits can
differ from a sum in edge id order, and no second matrix is stored.

With q around 10, raw powers of x under/overflow readily.  In logs no
score underflows during a solve, and the one global shift keeps every
edge sum accurate unless every member of an edge is below about
e^(-708/q) * max(x) (about 1e-31 at q=10).  Such an edge has e below the
smallest normal float, and only those edges are recomputed with their
own largest log score r_e as the shift; their kernel term carries
exp((1-q) r_e).  That factor overflows, and the kernel fails, for an
edge whose largest member is below about e^(-709/(q-1)) * max(x) (about
5e-35 at q=10): `objective_gradient`, `iteration_map` and
`eigen_residual` raise ValueError there.  Scores leave the logs as exp(u)
in floats, so only a score below the float range underflows to 0;
`hypernsm` flags it.

The map runs once per iteration, so it works in place where it can: a
function writes only into arrays that it allocated itself (the product's
output, the shifted log scores), never into a caller's array, B's
read-only arrays, or the f and g that the Anderson memory keeps.  Every
in-place form takes the same IEEE operations as the expression it
replaces (+ and * commute), so the map's bits do not depend on it;
`tests/helpers.reference_log_map` pins them.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .hypergraph import (
    Hypergraph, XiRule, exponent, exponents, int_setting, row_indices, score_vector, xi_rule,
    xi_vector,
)

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
PRECONDITION_STEP = 1e-2  # Thompson step below which hypernsm preconditions Anderson's map
STALL = 50  # maps without a new lowest step after which hypernsm drops P, then stops


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Exponents, scaling rule and stopping parameters for the solver.

    Requires finite p > q > 1; anything else voids the convergence
    guarantee and is rejected at construction.  seed seeds the random
    start of the Borgatti-Everett baseline; `hypernsm` starts from the
    ones vector and does not read it.
    """

    p: float = 11.0
    q: float = 10.0
    xi: XiRule = XiRule.RECIPROCAL
    tol: float = 1e-8
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        exponents(self.p, self.q)
        xi_rule(self.xi)
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        int_setting("max_iter", self.max_iter, 1)
        int_setting("seed", self.seed, 0)

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

    scores has unit p-norm over all n entries; entries are exactly 0 for
    isolated nodes and strictly positive for every node of degree >= 1,
    unless its score lies below the float range and underflowed to 0.
    residual_trace holds the Hilbert step d_H(x, T x), max - min of
    log(T x / x) over the active nodes, of every map, and cert_bound the
    error bound of the returned scores (see `hypernsm`):
    None when a returned score underflowed to 0.  preconditioned_maps
    counts the maps whose preconditioned step `hypernsm` fed its Anderson
    mixing.  The linear Borgatti-Everett baseline returns unit 2-norm
    scores, an empty trace, no bound and no preconditioned map.
    """

    scores: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    residual_trace: list[float]
    cert_bound: float | None = None
    isolated_nodes: int = 0
    preconditioned_maps: int = 0

    def to_json_dict(self) -> dict:
        return {
            "scores": self.scores.tolist(),
            "eigenvalue": float(self.eigenvalue),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residuals": [float(r) for r in self.residual_trace],
        }


def _log_pnorm(a: np.ndarray, p: float) -> float:
    """log ||exp(a)||_p, taken about max(a) so that no power overflows."""
    top = float(a.max())
    t = a - top
    return top + math.log(float(np.exp(np.multiply(p, t, out=t), out=t).sum())) / p


def _log(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise log of a nonnegative vector, -inf at 0 without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x, out=out)


def _edge_power_sums(
    h: Hypergraph, w: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(z, s, low, r): z = exp(q w) for log scores w <= 0 (-inf for a
    score of 0), and the edge q-power sums of exp(w) as s_e * exp(q r_e)
    in grouped edge order.

    s = B z with r_e = 0, except on the edges where that sum underflows
    below the smallest normal float: those are returned as `low`
    (positions in grouped order) and recomputed with r_e their largest
    member's log score and s_e = sum exp(q (w_i - r_e)).  r is given on
    `low` only; an edge of zeros has r_e = -inf and s_e = 1.
    """
    g = h.grouped_incidence
    z = q * w
    s = g.b @ np.exp(z, out=z)
    tiny = np.finfo(np.float64).tiny
    # a min costs less than the mask (BENCH_19.json `fast_paths`); a NaN
    # min fails the test, so a NaN sum takes the mask, which skips it
    if s.min(initial=np.inf) >= tiny:
        low = np.empty(0, dtype=np.intp)
    else:
        low = np.flatnonzero(s < tiny)
    if not low.size:
        return z, s, low, low
    sizes = np.diff(g.b.indptr)[low]
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    vals = w[g.b.indices[row_indices(g.b.indptr, low)]]
    r = np.maximum.reduceat(vals, starts)
    nonzero = r > -np.inf
    shift = np.repeat(np.where(nonzero, r, 0.0), sizes)
    s[low] = np.where(nonzero, np.add.reduceat(np.exp(q * (vals - shift)), starts), 1.0)
    return z, s, low, r


def _grouped_xi(h: Hypergraph, rule: XiRule) -> np.ndarray:
    """`xi_vector` in the grouped edge order that `_edge_kernel` takes."""
    return xi_vector(h, rule)[h.grouped_incidence.order]


def objective(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> float:
    """Core-score objective f(x): xi-weighted sum of per-edge q-norms, q >= 1."""
    exponent("q", q)
    x = score_vector(x, h.n)
    if np.any(x < 0.0):
        raise ValueError("objective requires a nonnegative vector")
    mx = float(np.max(x, initial=0.0))
    if h.m == 0 or mx == 0.0:
        return 0.0
    _, s, low, r = _edge_power_sums(h, _log(x / mx), q)
    norms = s ** (1.0 / q)
    norms[low] *= np.exp(r)
    return mx * float(np.sum(_grouped_xi(h, xi) * norms))


def _edge_terms(
    h: Hypergraph, xi_vec: np.ndarray, w: np.ndarray, q: float, keep_sums: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(z, s, t, low) for log scores w <= 0 and xi in grouped edge order:
    z, s and low from `_edge_power_sums`, and the kernel's edge terms
    t = xi * s^(1/q - 1), formed in s's buffer unless keep_sums.

    An edge rescaled by `_edge_power_sums` has its shift folded back into
    t as exp((1 - q) r_e).  The factor is skipped, and the term set to 0,
    where the term is 0 already (xi = 0) or the edge is all zeros
    (r_e = -inf: every member inactive, so its term meets only gradient
    entries x_i^(q-1) = 0); there it would make 0 * inf = NaN."""
    z, s, low, r = _edge_power_sums(h, w, q)
    t = np.power(s, 1.0 / q - 1.0, out=None if keep_sums else s)
    np.multiply(xi_vec, t, out=t)
    if low.size:
        live = (t[low] > 0.0) & (r > -np.inf)
        t[low[~live]] = 0.0
        t[low[live]] *= np.exp((1.0 - q) * r[live])
    return z, s, t, low


def _edge_kernel(h: Hypergraph, xi_vec: np.ndarray, w: np.ndarray, q: float) -> np.ndarray:
    """B^T t, t the edge terms xi * e^(1/q - 1) of `_edge_terms`, e the
    edge q-power sums of exp(w)."""
    return h.grouped_incidence.bt @ _edge_terms(h, xi_vec, w, q)[2]


def _log_gradient_terms(
    h: Hypergraph, xi_vec: np.ndarray, u: np.ndarray, q: float, want_rho: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(log gradient, z, low, rho) at exp(u).  Entry i of the log of the
    objective's gradient is (q-1) * w_i + log v_i, w = u - max(u) and v
    the kernel output: it does not change when x is scaled.  Isolated
    nodes (u = -inf, v = 0) map to -inf.  `hypernsm`'s preconditioner
    reads z = exp(q w) and low (`_edge_power_sums`'), and rho =
    B^T(t / s) / v, t the edge terms, s the edge sums and v = B^T t:
    z * rho is node i's share a_i of its edges' q-norms.  rho costs one
    more B^T product and is formed only when want_rho and no edge is
    rescaled (else None).  It is NaN on inactive nodes (v = 0) and may
    overflow where an edge sum is tiny."""
    w = u - u.max()
    z, s, t, low = _edge_terms(h, xi_vec, w, q, keep_sums=want_rho)
    bt = h.grouped_incidence.bt
    v = bt @ t
    rho = None
    if want_rho and not low.size:
        with np.errstate(all="ignore"):
            rho = np.divide(bt @ np.divide(t, s, out=s), v)
    return np.add(np.multiply(q - 1.0, w, out=w), _log(v, out=v), out=v), z, low, rho


def _log_step(g: np.ndarray, p: float) -> np.ndarray:
    """log T x from the log gradient g, in place: the 1/(p-1) power, then
    the p*-normalization as a shift that gives T x unit p-norm.  g is
    overwritten, so callers hand over a fresh one."""
    np.divide(g, p - 1.0, out=g)
    g -= _log_pnorm(g, p)
    return g


def _in_range(a: np.ndarray) -> np.ndarray:
    """a, the kernel output or a log gradient, unless a kernel term
    overflowed into it (+inf, or NaN where it met a term that underflowed
    to 0): then ValueError naming the cause."""
    if not np.all(a < np.inf):
        raise ValueError(
            "a gradient kernel term xi(e) * ||x_e / max(x)||_q^(1-q) overflows the float range, "
            "as on an edge whose largest score is below about exp(-709/(q-1)) * max(x) "
            "(5e-35 at q=10)"
        )
    return a


def _map_log_gradient(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> np.ndarray:
    """The log gradient at x >= 0, which must be positive on non-isolated
    nodes and leave every kernel term in the float range."""
    exponent("q", q)
    x = score_vector(x, h.n)
    if np.any(x < 0.0) or np.any(x[h.degrees > 0] == 0.0):
        raise ValueError("gradient map needs strictly positive entries on non-isolated nodes")
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_range(_log_gradient_terms(h, _grouped_xi(h, xi), _log(x), q)[0])


def objective_gradient(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float) -> np.ndarray:
    """Gradient of the objective at x (0-homogeneous: isolated nodes map
    to 0), as exp of the log gradient that `hypernsm` forms.  Raises
    ValueError where a kernel term overflows (see `hypercp.solver`)."""
    g = _map_log_gradient(h, xi, x, q)
    return np.exp(g, out=g)


def iteration_map(h: Hypergraph, xi: XiRule, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """One step T x: gradient, p*-normalization, 1/(p-1) power, as exp of
    the map in logs that `hypernsm` iterates.  Scale-invariant, with unit
    p-norm; iterated, it converges at the linear rate (q-1)/(p-1).
    Requires finite p > q > 1, as `SolverConfig` does.  Raises ValueError
    where a kernel term overflows, as `objective_gradient` does, and on a
    hypergraph with no edges (a 0 gradient), as `hypernsm` does."""
    exponents(p, q)
    if h.m == 0:
        raise ValueError("cannot map a hypergraph with no edges")
    g = _log_step(_map_log_gradient(h, xi, x, q), p)
    return np.exp(g, out=g)


def thompson_distance(x: np.ndarray, y: np.ndarray) -> float:
    """max_i |ln x_i - ln y_i| for strictly positive vectors."""
    x = score_vector(x)
    y = score_vector(y, x.size)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("Thompson distance is defined on strictly positive vectors")
    return float(np.max(np.abs(np.log(x) - np.log(y)), initial=0.0))


class _Anderson:
    """Anderson acceleration (Walker & Ni 2011, memory m) of a fixed-point
    map u -> g: ring buffers of the last m differences of the residual
    f = g - u and of g, and the m x m Gram matrix of the f differences,
    so one update costs O(m * size).  Until `need` differences are stored
    (see `clear`), an update records its difference and solves nothing."""

    def __init__(self, memory: int, size: int) -> None:
        self.d_f = np.empty((memory, size))
        self.d_g = np.empty((memory, size))
        self.gram = np.empty((memory, memory))
        self.clear(1)

    def clear(self, need: int) -> None:
        """Forget every map; extrapolate again once `need` differences are stored."""
        self.stored, self.need = 0, need
        self.f = self.g = None

    def update(self, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Record the latest map's image g and residual f; return the
        extrapolated point, or None while fewer than `need` differences
        are stored.  f and g are kept, so they must not change."""
        f_prev, g_prev = self.f, self.g
        self.f, self.g = f, g
        if f_prev is None:
            return None
        memory = len(self.gram)
        k = self.stored % memory
        np.subtract(f, f_prev, out=self.d_f[k])
        np.subtract(g, g_prev, out=self.d_g[k])
        self.stored += 1
        used = min(self.stored, memory)
        d_f = self.d_f[:used]
        row = d_f @ d_f[k]
        self.gram[k, :used] = row
        self.gram[:used, k] = row
        if self.stored < self.need:
            return None
        gamma = np.linalg.lstsq(self.gram[:used, :used], d_f @ f, rcond=None)[0]
        step = gamma @ self.d_g[:used]
        return np.subtract(g, step, out=step)


def _jacobi_step(
    u: np.ndarray, f: np.ndarray, g: np.ndarray, a: np.ndarray, c: float, p: float, sel
) -> tuple[np.ndarray, np.ndarray] | None:
    """(P u - u on the active nodes `sel`, P u) for the T step f = g[sel] - u[sel],
    g = log T(exp u), and the shares a of T's Jacobian diagonal c (1 - a):
    P u = u + f / (1 - c + c min(1, a)) there, shifted to unit p-norm.
    None where P u is not finite.  a is overwritten."""
    d = np.minimum(a, 1.0, out=a)
    d *= c
    d += 1.0 - c
    step = np.divide(f, d, out=d)
    image = g.copy()
    image[sel] = u[sel] + step
    shift = _log_pnorm(image, p)
    if not math.isfinite(shift):
        return None
    image -= shift
    step -= shift
    return step, image


def hypernsm(h: Hypergraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Compute the global core-score vector of a hypergraph.

    Iterates u -> log T(exp(u)), T the fixed-point map, with Anderson
    acceleration (Walker & Ni 2011, memory `ANDERSON_MEMORY`) over the
    non-isolated nodes; isolated nodes are pinned to score 0 (u = -inf).
    The start is the ones vector on the active nodes, scaled to unit
    p-norm; cfg.seed is not read.  The map reaches its one positive fixed
    point from any positive start, and a seeded random start spent about
    a fifth more maps damping per-node noise that decays only at the rate
    c.  cert_bound, the error bound of the returned T x, is
    c/(1-c) * d_H(x, T x), c = cfg.contraction_factor and d_H the Hilbert
    step (see `hypercp.solver`), plus how far rounding moves the computed
    map's fixed point: in the map itself
    eps * (q-1) / (p-1) * max|log(x / max x)| / (1-c), and in subnormal
    kernel values when xi spans about the float range.  The solve stops
    once the first two terms are within cfg.tol; `converged` means
    cert_bound <= cfg.tol.  iterations counts maps.  The path to the stop
    measures T's Thompson step d_T (at most d_H): extrapolation acceptance,
    the best and lowest steps, the stall count, the rounding-floor stop
    and the switch to P below.  With d_T in the stop and bound, a solve's
    error exceeded its bound; with d_H on the path too, so did that of a
    solve that ended on a step of exactly 0 (tests/test_solver.py).

    An extrapolated point is accepted.  If its Thompson step is not below
    the best so far, the loop takes the best point's plain step instead,
    accepts it whatever its step, and clears the memory, which Anderson
    refills with `ANDERSON_MEMORY` plain steps before it solves and
    extrapolates again: no map is spent twice, and no solve is dropped.
    Non-convergence within cfg.max_iter is flagged, not raised; the best
    point's T x and bound are returned, as they are when cfg.tol is below
    the map's rounding term and c * d_T(x, T x) within it.

    Once the best Thompson step is below `PRECONDITION_STEP` and no edge
    sum is rescaled, Anderson is fed P u (see `hypercp.solver`) on the
    active nodes in place of T u; `preconditioned_maps` counts those
    maps.  P's a = z * rho takes z = exp(q w) fresh from each map's
    kernel, and rho = B^T(t / s) / v (edge terms t, edge sums s, node
    sums v) once, at the switch, for one more B^T product: refreshed on
    every map, rho saved few maps for a B^T product each, and a frozen a
    (z included) left solves that did not converge.  A map with rescaled
    edges, or a P u that is not finite, feeds T u.  A P step is accepted
    whatever its step, as a plain step is, but its map runs with
    floating-point errors ignored and a non-finite one falls back to the
    best point's T step, as for an extrapolation.  The stop rule,
    residual_trace, the best point, cert_bound and the returned T x stay
    on T's steps: the bound is about T's contraction and T x, and P's
    step (up to 1/(1-c) times T's) bounds neither.  P can stall a solve
    that T with Anderson alone would finish: while P is on, `STALL` maps
    without a new lowest T step drop P for the rest of the solve, and the
    loop restarts from the lowest step's T image with a cleared memory,
    as after no progress.  Another `STALL` such maps end the solve,
    flagged, with that lowest step's T x and bound.  Without P a stall
    runs on: ended there, more solves stopped unconverged.

    The scores are exp(u), taken once at the end.  A non-isolated score
    below the float range underflows to 0 there ("underflowed"): that
    voids the certificate (cert_bound None, converged False, a logged
    count), while the other scores keep their accuracy.
    """
    cfg = cfg or SolverConfig()
    if h.m == 0:
        raise ValueError("cannot score a hypergraph with no edges")

    q, p = cfg.q, cfg.p
    c = cfg.contraction_factor
    bound = c / (1.0 - c)
    # rounding (q-1) * w, w = u - max u <= 0, moves the map by up to this * max|w|
    map_rounding = np.finfo(np.float64).eps * (q - 1.0) / (p - 1.0)
    # The fixed point does not change when xi is scaled.  Dividing xi by
    # the power of two that brings its max into [0.5, 1) keeps a huge xi
    # from overflowing the kernel; it rounds only a xi that it makes
    # subnormal, and lam is scaled back.
    xi_vec = _grouped_xi(h, cfg.xi)
    xi_exp = int(np.frexp(np.max(xi_vec))[1])
    xi_vec = np.ldexp(xi_vec, -xi_exp)
    degrees = h.degrees
    covered = degrees > 0
    n_isolated = int(h.n - np.count_nonzero(covered))
    # A kernel term is at least xi * |e|^(1/q - 1) at every x.  A node
    # whose terms all round to 0 (xi more than about 2^1074 below the max)
    # has kernel output 0 and a score below the float range: it is held
    # at 0 like an isolated node and counted as underflowed.
    grouped = h.grouped_incidence
    active = grouped.bt @ (xi_vec * h.sizes[grouped.order] ** (1.0 / q - 1.0)) > 0.0

    u = np.where(active, 0.0, -np.inf)
    u -= _log_pnorm(u, p)

    accel = _Anderson(ANDERSON_MEMORY, int(np.count_nonzero(active)))
    all_active = bool(active.all())
    sel = slice(None) if all_active else active  # a view, no copy, when every node is active
    best_r, best_h, best_g = math.inf, math.inf, u
    exact = True  # u is the start or a T step: its map reports floating-point errors
    plain = True  # u is not an extrapolation, so it is accepted whatever its step
    rho = None  # the preconditioner's B^T(t / s) / v on the active nodes, once switched on
    dropped = False  # P stalled and is off for the rest of the solve
    preconditioned = 0
    # the lowest step (d_T, then d_H), its T image, and the maps since
    lowest_r, lowest_h, lowest_g, stalled = math.inf, math.inf, u, 0

    steps: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        # an extrapolation or a P step may leave the kernel's range; its map is then dropped
        with np.errstate(all=None if exact else "ignore"):
            g, z, low, fresh = _log_gradient_terms(
                h, xi_vec, u, q, want_rho=rho is None and not dropped and best_r < PRECONDITION_STEP
            )
            g = _log_step(g, p)
        f = g[sel] - u[sel]
        top, bottom = float(f.max()), float(f.min())
        r, d_h = max(top, -bottom), top - bottom  # the Thompson and Hilbert steps
        if fresh is not None and r < math.inf:
            rho = fresh[sel]
        steps.append(d_h)
        # stop once cert_bound's step and rounding terms (see below) are within tol
        if bound * d_h <= cfg.tol and c * d_h + map_rounding * np.ptp(g[sel]) <= (1.0 - c) * cfg.tol:
            best_h, best_g, converged = d_h, g, True
            break
        if r < lowest_r:
            lowest_r, lowest_h, lowest_g, stalled = r, d_h, g, 0
        elif (stalled := stalled + 1) >= STALL and (rho is not None or dropped):
            # stalled: with P on, drop it and restart plain from the lowest
            # step's T image; with P already dropped, stop there, unconverged
            if dropped:
                best_h, best_g = lowest_h, lowest_g
                break
            rho, dropped, stalled = None, True, 0
            u, exact, plain = lowest_g, True, True
            accel.clear(ANDERSON_MEMORY)
            continue
        # a P step is accepted whatever its step, but not a non-finite map
        if plain and (exact or r < math.inf) or r < best_r:
            best_r, best_h, best_g = r, d_h, g
            step, image = f, g
            if rho is not None and not low.size:
                with np.errstate(all="ignore"):
                    jacobi = _jacobi_step(u, f, g, z[sel] * rho, c, p, sel)
                if jacobi is not None:
                    (step, image), preconditioned = jacobi, preconditioned + 1
            extrapolated = accel.update(step, image[sel])
            plain = extrapolated is None
            if plain:
                u = image
            elif all_active:
                u = extrapolated  # Anderson's own fresh array
            else:
                u = image.copy()
                u[sel] = extrapolated
            exact = plain and image is g
            continue
        # No progress.  Stop if the map's rounding alone keeps cert_bound
        # over tol and the step is within it; else take the best point's
        # plain step and clear the memory, which plain steps refill.
        floor = map_rounding * np.ptp(best_g[sel])
        if floor > (1.0 - c) * cfg.tol and c * best_r <= floor:
            break
        u, exact, plain = best_g, True, True
        accel.clear(ANDERSON_MEMORY)

    log.debug("hypernsm: %d maps, %d of them preconditioned", iterations, preconditioned)
    x = np.exp(best_g)
    if underflowed := int(np.count_nonzero(x[covered] == 0.0)):
        log.warning("%d non-isolated node scores underflowed to 0", underflowed)
    # A subnormal value rounds by less than 2^-1074, the smallest float: a
    # xi that its scaling made subnormal (its edge's terms move by that
    # share of the xi), and any of a node's kernel terms and partial sums.
    # That share of the kernel output moves the map's output by itself
    # over p - 1 and the computed fixed point by up to 1/(1-c) times that.
    # On an edge whose xi rounded to 0 that share can overflow: the bound
    # is then infinite.
    w = best_g - best_g.max()
    v = _edge_kernel(h, xi_vec, w, q)
    err = degrees * math.ldexp(1.0, -1074)
    subnormal_xi = xi_vec < np.finfo(np.float64).tiny
    if subnormal_xi.any():
        with np.errstate(over="ignore"):
            err += _edge_kernel(h, np.where(subnormal_xi, math.ldexp(1.0, -1074), 0.0), w, q)
    rounding = map_rounding * float(np.ptp(best_g[sel]))
    slack = float(np.max(err[active] / v[active])) / (p - 1.0) + rounding
    cert_bound = None if underflowed else (c * best_h + slack) / (1.0 - c)
    lam = float(np.ldexp(np.exp(_log_pnorm((q - 1.0) * w + _log(v), cfg.p_conjugate)), xi_exp))
    return SolverResult(
        scores=x,
        eigenvalue=lam,
        iterations=iterations,
        converged=converged and cert_bound is not None and cert_bound <= cfg.tol,
        residual_trace=steps,
        cert_bound=cert_bound,
        isolated_nodes=n_isolated,
        preconditioned_maps=preconditioned,
    )


def eigen_residual(h: Hypergraph, result: SolverResult, cfg: SolverConfig) -> float:
    """Relative residual, at the solution `result`, of the nonlinear
    eigen-equation that cfg.p, cfg.q and cfg.xi define.

    The unit-p-norm maximizer w, remapped entrywise to z = w^(p-q),
    satisfies  N(z) = lambda * z  where N applies, per edge, the power
    q/(p-q) to the node scores, sums within the edge, raises the sum to
    1/q - 1, and accumulates xi-weighted edge values back onto nodes.
    Returns lambda * ||N(z)/lambda - z||_2 / ||z||_2, whose squares stay
    finite where a huge xi overflows those of N(z).  N is evaluated with
    the gradient's edge kernel, so edges whose q-power sums underflow are
    rescaled exactly as in the iteration, and one whose kernel term
    overflows raises ValueError, as in `objective_gradient`.  So do an
    edge whose scores are all 0 (an infinite kernel term, as where
    `hypernsm`'s scores underflow), a negative score and an eigenvalue
    that is not positive.
    """
    if h.m == 0:
        raise ValueError("cannot take the eigen-residual of a hypergraph with no edges")
    w = score_vector(result.scores, h.n)
    if np.any(w < 0.0):
        raise ValueError("eigen_residual requires nonnegative scores")
    if np.any(h.grouped_incidence.b @ (w > 0.0) == 0.0):
        raise ValueError("eigen_residual needs a positive score on every edge: the kernel term "
                         "of an edge whose scores are all 0 is infinite")
    q, p, lam = cfg.q, cfg.p, result.eigenvalue
    if not lam > 0.0:
        raise ValueError(f"eigen_residual requires a positive eigenvalue, got {lam}")
    mx = np.max(w)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _in_range(_edge_kernel(h, _grouped_xi(h, cfg.xi), _log(w / mx), q))
    lhs = mx ** (1.0 - q) * v
    z = w ** (p - q)
    return lam * float(np.linalg.norm(lhs / lam - z) / np.linalg.norm(z))
