"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from hypercp import (
    GeneratorConfig,
    Hypergraph,
    SolverConfig,
    XiRule,
    borgatti_everett,
    clique_expansion,
    edge_probability,
    eigen_residual,
    graph_nsm,
    hypercycle,
    hypernsm,
    iteration_map,
    mle_objective,
    objective,
    profile_curve,
    rank_by_score,
    sample,
    thompson_distance,
    umhs,
)

from helpers import (
    edge_tuples,
    is_hitting_set,
    is_minimal_hitting_set,
    plain_map_steps,
    random_hypergraph,
)

RECIP = XiRule.RECIPROCAL


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


# ----- shared instances ---------------------------------------------------


@pytest.fixture(scope="module")
def convergence_runs():
    """20 random hypergraphs (n=50, sizes 2-6), each solved by hypernsm
    and by the plain map (steps and scores) from 3 seeded random starts."""
    runs = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        h = random_hypergraph(rng, 50, 150, smin=2, smax=6)
        res = hypernsm(h, SolverConfig(max_iter=400))
        plain = [plain_map_steps(h, SolverConfig(), s, max_maps=400) for s in (0, 1, 2)]
        runs.append((h, res, plain))
    return runs


def test_criterion_01_hypercycle_rankings():
    h, overlaps = hypercycle()
    t0 = time.perf_counter()
    res = hypernsm(h, SolverConfig())
    gres = graph_nsm(clique_expansion(h), SolverConfig())
    elapsed = time.perf_counter() - t0

    top5 = sorted(rank_by_score(res.scores)[:5].tolist())
    big_edge = set(max(edge_tuples(h), key=len))
    in_top15 = len(set(rank_by_score(gres.scores)[:15].tolist()) & big_edge)
    ok = top5 == overlaps and in_top15 >= 10 and elapsed < 1.0
    report(
        1,
        ok,
        f"hypercycle: hypernsm top5={top5} (overlaps {overlaps}), "
        f"graphnsm puts {in_top15}/15 big-edge nodes on top, {elapsed:.3f}s",
    )


def test_criterion_02_hypercycle_profile_shape():
    h, overlaps = hypercycle()
    res = hypernsm(h, SolverConfig())
    curve = profile_curve(h, res.scores, xi=None).values
    first_positive = int(np.argmax(curve > 0)) + 1 if np.any(curve > 0) else 0
    ok = (
        bool(np.all(curve[:22] == 0.0))
        and curve[27] == 1.0
        and first_positive >= 24
    )
    report(
        2,
        ok,
        f"profile zero through k=22, gamma(28)={curve[27]}, "
        f"first positive at k={first_positive} (overlaps enter at k=24)",
    )


def test_criterion_03_linear_convergence(convergence_runs):
    # the paper's linear rate belongs to the plain map: drive iteration_map
    # from seeded random starts and certify 1e-8 with it
    worst_tail, worst_maps, certified, solves_converged = 0.0, 0, True, True
    for h, res, plain in convergence_runs:
        solves_converged &= res.converged
        r = np.asarray(plain[0][0])
        certified &= 9.0 * r[-1] <= 1e-8
        worst_maps = max(worst_maps, r.size)
        ratios = r[1:] / r[:-1]
        tail = ratios[-max(5, ratios.size // 4):]
        worst_tail = max(worst_tail, float(tail.max()))
    ok = solves_converged and certified and worst_tail <= 0.95
    report(
        3,
        ok,
        f"20 instances: the plain map {'certifies' if certified else 'fails to certify'} "
        f"1e-8 in <= {worst_maps} maps (limit 400), "
        f"worst tail ratio {worst_tail:.4f} <= 0.95; all 20 accelerated solves converged",
    )


def test_criterion_04_global_uniqueness(convergence_runs):
    # hypernsm starts from the ones vector; the paper's claim is that the
    # map reaches the same optimum from any positive start
    worst = 0.0
    for h, res, plain in convergence_runs:
        for _, x in plain:
            worst = max(worst, float(np.max(np.abs(x - res.scores))))
    ok = worst < 1e-6
    report(4, ok, f"the plain map from 3 random starts per instance agrees with hypernsm "
                  f"entrywise within {worst:.2e} < 1e-6")


def test_criterion_05_eigen_residual(convergence_runs):
    # the change of variables amplifies the remaining iterate error by
    # about q/(p-q), so verifying the 1e-6 residual bound needs one
    # extra decade of stopping tolerance at this instance size
    worst = 0.0
    cfg = SolverConfig(tol=1e-9)
    for h, _, _ in convergence_runs:
        res = hypernsm(h, cfg)
        worst = max(worst, eigen_residual(h, res, cfg))
    ok = worst < 1e-6
    report(
        5,
        ok,
        f"worst nonlinear eigen-equation residual {worst:.2e} < 1e-6 "
        f"(solutions converged at tol=1e-9)",
    )


def test_criterion_06_contraction():
    # 10 random hypergraphs from the generative model (node degrees
    # high enough for the per-edge averaging the bound rests on)
    worst = 0.0
    checked = 0
    for s in range(10):
        h, _ = sample(GeneratorConfig(n=20, max_size=4, q_mu=10.0, seed=100 + s))
        rng = np.random.default_rng(1000 + s)
        for _ in range(10):
            x = rng.uniform(0.5, 1.5, 20)
            x /= np.sum(x**11.0) ** (1 / 11.0)
            y = rng.uniform(0.5, 1.5, 20)
            y /= np.sum(y**11.0) ** (1 / 11.0)
            ratio = thompson_distance(
                iteration_map(h, RECIP, x, 10.0, 11.0),
                iteration_map(h, RECIP, y, 10.0, 11.0),
            ) / thompson_distance(x, y)
            worst = max(worst, ratio)
            checked += 1
    ok = checked == 100 and worst <= 0.9 + 1e-12
    report(6, ok, f"100 pairs on 10 model hypergraphs: worst step ratio {worst:.4f} <= 0.9")


def test_criterion_07_ordering_objective_equals_mle():
    mismatches = 0
    for seed in range(10):
        cfg = GeneratorConfig(n=6, max_size=4, q_mu=10.0, seed=seed)
        h, _ = sample(cfg)
        edges = set(edge_tuples(h))

        blocks = []
        for r in range(2, 5):
            combos = np.array(list(itertools.combinations(range(6), r)))
            present = np.array([tuple(c) in edges for c in map(tuple, combos)])
            blocks.append((r, combos, present))

        best_obj, best_lik = {}, {}
        for perm in itertools.permutations(range(1, 7)):
            ranks = np.asarray(perm, dtype=float)
            loglik = 0.0
            for r, combos, present in blocks:
                mu = np.sum(((6 - ranks[combos]) / 6) ** 10.0, axis=1) ** 0.1
                s = mu / r
                p = 1.0 / (1.0 + np.exp(-s))
                loglik += float(np.sum(np.where(present, np.log(p), np.log1p(-p))))
            best_obj[perm] = mle_objective(h, perm, RECIP, 10.0)
            best_lik[perm] = loglik
        top_obj = {p for p, v in best_obj.items() if v >= max(best_obj.values()) - 1e-9}
        top_lik = {p for p, v in best_lik.items() if v >= max(best_lik.values()) - 1e-9}
        if top_obj != top_lik:
            mismatches += 1
    ok = mismatches == 0
    report(
        7,
        ok,
        f"10 instances x 720 permutations: ordering-objective argmax matches "
        f"exact log-likelihood argmax ({mismatches} mismatches)",
    )


def test_criterion_08_generator_calibration():
    n, max_size, trials = 8, 4, 10_000
    cfg = GeneratorConfig(n=n, max_size=max_size, q_mu=10.0)
    # each sampled edge counts under the planted ranks of its members
    counts: dict[tuple[int, ...], int] = {}
    for t in range(trials):
        h, ranks = sample(dataclasses.replace(cfg, seed=t))
        for e in edge_tuples(h):
            key = tuple(sorted(ranks[list(e)].tolist()))
            counts[key] = counts.get(key, 0) + 1
    worst_z, candidates = 0.0, 0
    for r in range(2, max_size + 1):
        for ranks in itertools.combinations(range(1, n + 1), r):
            p = edge_probability(ranks, cfg)
            sigma = math.sqrt(trials * p * (1 - p))
            z = abs(counts.get(ranks, 0) - trials * p) / sigma
            worst_z = max(worst_z, z)
            candidates += 1
    ok = candidates == 154 and worst_z <= 4.0
    report(
        8,
        ok,
        f"{trials} samples, {candidates} candidate edges: worst frequency "
        f"deviation {worst_z:.2f} binomial sigma <= 4",
    )


def test_criterion_09_two_uniform_equivalence():
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        pairs = set()
        while len(pairs) < 90:
            a, b = sorted(rng.choice(30, size=2, replace=False).tolist())
            pairs.add((a, b))
        covered = {v for p in pairs for v in p}
        for v in range(30):
            if v not in covered:
                pairs.add((min(v, (v + 1) % 30), max(v, (v + 1) % 30)))
        pairs = sorted(pairs)
        weights = rng.uniform(0.5, 3.0, size=len(pairs))

        h = Hypergraph(30, [list(p) for p in pairs], weights=weights.tolist())
        direct = hypernsm(h, SolverConfig(xi=XiRule.UNIT))
        via_graph = graph_nsm(h, SolverConfig())
        worst = max(worst, float(np.max(np.abs(direct.scores - via_graph.scores))))
        rescaled = hypernsm(h, SolverConfig(xi=XiRule.WEIGHTED_RECIPROCAL))
        worst = max(worst, float(np.max(np.abs(rescaled.scores - via_graph.scores))))
    ok = worst < 1e-10
    report(9, ok, f"10 weighted graphs (n=30): hypergraph and graph routes agree to {worst:.2e}")


def test_criterion_10_desk_scale_optimality():
    cfg = SolverConfig(tol=1e-10)
    ticks = np.arange(0.05, 1.0 + 1e-9, 0.05)
    worst_gap = -np.inf
    for i in range(5):
        rng = np.random.default_rng(4000 + i)
        h = random_hypergraph(rng, 5, 6, smin=2, smax=4)
        res = hypernsm(h, cfg)
        f_star = objective(h, RECIP, res.scores, cfg.q)

        from hypercp.hypergraph import xi_vector

        xiv = xi_vector(h, RECIP)
        grid_best = -np.inf
        mesh = np.meshgrid(*([ticks] * 5), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        for chunk in np.array_split(pts, 8):
            total = np.zeros(chunk.shape[0])
            for j, e in enumerate(edge_tuples(h)):
                total += xiv[j] * np.sum(chunk[:, list(e)] ** cfg.q, axis=1) ** (1 / cfg.q)
            norms = np.sum(chunk**cfg.p, axis=1) ** (1 / cfg.p)
            grid_best = max(grid_best, float(np.max(total / norms)))
        worst_gap = max(worst_gap, grid_best - f_star)
    ok = worst_gap <= 1e-9
    report(
        10,
        ok,
        f"5 hypergraphs (n=5), 3.2M-point grid each: max grid advantage "
        f"{worst_gap:.2e} <= 1e-9",
    )


def test_criterion_11_umhs_validity():
    bad = 0
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        h = random_hypergraph(rng, 15, 20, smin=2, smax=4)
        res = umhs(h, restarts=5, seed=i)
        if not (is_hitting_set(h, res.hitting_set) and is_minimal_hitting_set(h, res.hitting_set)):
            bad += 1
    ok = bad == 0
    report(11, ok, f"20 instances: every output is a minimal hitting set ({bad} failures)")


def _timed_per_iteration(h: Hypergraph) -> float:
    cfg = SolverConfig(tol=1e-300, max_iter=25)
    t0 = time.perf_counter()
    res = hypernsm(h, cfg)
    return (time.perf_counter() - t0) / res.iterations


def _big_random_hypergraph(rng, n, m):
    sizes = rng.integers(3, 8, size=m)
    mat = rng.integers(0, n, size=(m, 7))
    edges = []
    for row, s in zip(mat, sizes):
        e = np.unique(row[:s])
        while e.size < s:
            e = np.unique(np.concatenate([e, rng.integers(0, n, size=s - e.size)]))
        edges.append(e.tolist())
    return Hypergraph(n, edges)


def test_criterion_12_complexity_scaling():
    rng = np.random.default_rng(6000)
    n, m = 10_000, 40_000
    h1 = _big_random_hypergraph(rng, n, m)
    h2 = _big_random_hypergraph(rng, n, 2 * m)
    # each instance's per-iteration time is its fastest of 25 solves, taken in
    # turns: a burst of load from other processes slows some solves, never
    # speeds one up, so the fastest is the instance's own cost
    t1 = t2 = math.inf
    for _ in range(25):
        t1 = min(t1, _timed_per_iteration(h1))
        t2 = min(t2, _timed_per_iteration(h2))
    ratio = t2 / t1
    ok = 1.5 <= ratio <= 3.0
    report(
        12,
        ok,
        f"n=10^4, mean size 5: doubling edges scales per-iteration time by "
        f"{ratio:.2f}, fastest of 25 solves each (bounds [1.5, 3.0])",
    )


def test_criterion_13_planted_recovery():
    taus_h, taus_b = [], []
    for seed in range(20):
        h, ranks = sample(GeneratorConfig(n=50, max_size=4, q_mu=10.0, seed=seed))
        coreness = (50 - ranks).astype(float)
        res = hypernsm(h, SolverConfig())
        taus_h.append(kendalltau(res.scores, coreness).statistic)
        be = borgatti_everett(clique_expansion(h), SolverConfig())
        taus_b.append(kendalltau(be.scores, coreness).statistic)
    mean_h, mean_b = float(np.mean(taus_h)), float(np.mean(taus_b))
    ok = mean_h >= 0.5 and mean_h > mean_b
    report(
        13,
        ok,
        f"20 planted samples: mean Kendall tau hypernsm={mean_h:.3f} "
        f"(>= 0.5) vs borgatti-everett={mean_b:.3f}",
    )
