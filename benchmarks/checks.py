"""Output checks and the convergence certificate.

The certificate uses the benchmark's own ``scipy.sparse`` incidence and
never ``hypercp.solver``.  The solver's map T contracts the Thompson
metric d_T(x, y) = max_i |ln x_i - ln y_i| by c = (q-1)/(p-1), so for
any positive x the distance to the unique fixed point x* obeys
d_T(x, x*) <= d_T(x, T x) / (1 - c).  That bound is what a result must
meet; ``converged`` alone is not trusted.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp

CERT_LIMIT = 1e-5
NORM_RTOL = 1e-9


def incidence(members: np.ndarray, ptr: np.ndarray, n: int) -> sp.csr_matrix:
    """Edge-by-node 0/1 incidence matrix."""
    return sp.csr_matrix(
        (np.ones(members.size), members, ptr), shape=(ptr.size - 1, n)
    )


def _pnorm(v: np.ndarray, p: float) -> float:
    mx = float(v.max(initial=0.0))
    return 0.0 if mx == 0.0 else mx * float(np.sum((v / mx) ** p)) ** (1.0 / p)


def fixed_point_map(b: sp.csr_matrix, xi: np.ndarray, x: np.ndarray, q: float, p: float) -> np.ndarray:
    """T x: the gradient x^(q-1) * B^T(xi * (B x^q)^(1/q-1)), p*-normalised,
    then raised to 1/(p-1).  T is scale invariant, so x is first divided
    by its maximum to keep x^q inside the float range."""
    z = x / x.max()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        edge = b @ z**q
        g = z ** (q - 1.0) * (b.T @ (xi * edge ** (1.0 / q - 1.0)))
        return (g / _pnorm(g, p / (p - 1.0))) ** (1.0 / (p - 1.0))


def certificate(b: sp.csr_matrix, xi: np.ndarray, x: np.ndarray, q: float, p: float) -> float:
    """Certified bound on d_T(x, x*) over the non-isolated nodes; inf when
    x is not strictly positive there or T x is not finite."""
    active = np.diff(b.tocsc().indptr) > 0
    xa = x[active]
    if xa.size == 0 or not np.all(np.isfinite(xa)) or np.any(xa <= 0.0):
        return math.inf
    tx = fixed_point_map(b, xi, np.where(active, x, 0.0), q, p)[active]
    if not np.all(np.isfinite(tx)) or np.any(tx <= 0.0):
        return math.inf
    c = (q - 1.0) / (p - 1.0)
    return float(np.max(np.abs(np.log(xa) - np.log(tx)))) / (1.0 - c)


def check_scores(scores: np.ndarray, active: np.ndarray, p: float) -> list[str]:
    """Finite, strictly positive on non-isolated nodes, unit p-norm."""
    problems = []
    if not np.all(np.isfinite(scores)):
        problems.append("non-finite score")
    elif np.any(scores[active] <= 0.0):
        problems.append(f"{int(np.sum(scores[active] <= 0.0))} non-isolated nodes score <= 0")
    elif abs(_pnorm(np.abs(scores), p) - 1.0) > NORM_RTOL:
        problems.append(f"{p}-norm is {_pnorm(np.abs(scores), p)!r}, not 1")
    return problems


def check_solve(scores, converged: bool, b, xi, q: float, p: float):
    """All checks on one HyperNSM solve.

    Returns (problems, misses, certified bound).  Problems make the
    output malformed; misses are an answer the solver flagged as not
    converged or one whose certified error exceeds CERT_LIMIT.
    """
    problems = check_scores(scores, np.diff(b.tocsc().indptr) > 0, p)
    misses = [] if converged else ["converged is false"]
    cert = certificate(b, xi, scores, q, p)
    if not cert <= CERT_LIMIT:
        misses.append(f"certified error {cert:.3g} > {CERT_LIMIT:g}")
    return problems, misses, cert


def check_curves_csv(path, column: str, methods, n: int) -> list[str]:
    """A curves CSV holds k = 1..n for every method, values in [0, 1]."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["k", column, "method"]:
        return [f"{path}: bad header"]
    problems = []
    for method in methods:
        got = [r for r in rows[1:] if r[2] == method]
        ks = [int(r[0]) for r in got]
        vals = np.array([float(r[1]) for r in got])
        if ks != list(range(1, n + 1)):
            problems.append(f"{path}: {method} has {len(ks)} rows, not k = 1..{n}")
        elif not (np.all(np.isfinite(vals)) and vals.min() >= 0.0 and vals.max() <= 1.0):
            problems.append(f"{path}: {method} values outside [0, 1]")
    if len(rows) - 1 != len(methods) * n:
        problems.append(f"{path}: {len(rows) - 1} rows for {len(methods)} methods of {n}")
    return problems


def check_hitting_set(b: sp.csr_matrix, nodes) -> list[str]:
    """Every edge contains at least one node of the set."""
    chosen = np.zeros(b.shape[1])
    chosen[np.asarray(nodes, dtype=np.int64)] = 1.0
    missed = int(np.count_nonzero(b @ chosen == 0.0))
    return [f"hitting set misses {missed} edges"] if missed else []
