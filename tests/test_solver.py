import dataclasses
import itertools
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercp import (
    Hypergraph,
    SolverConfig,
    SolverResult,
    XiRule,
    eigen_residual,
    hypernsm,
    iteration_map,
    objective,
    objective_gradient,
    thompson_distance,
)
from hypercp import solver

from helpers import (
    dense_gradient,
    edge_tuples,
    longdouble_fixed_point,
    longdouble_map,
    naive_objective,
    plain_map_steps,
    random_hypergraph,
    reference_log_map,
)

RECIP = XiRule.RECIPROCAL
UNIT = XiRule.UNIT


def sweep_shaped_hypergraph():
    """500 nodes, 1500 edges of sizes 3-7 with weights: p-sweep's shape, a tenth of its size."""
    return random_hypergraph(np.random.default_rng(11), 500, 1500, smin=3, smax=7, weighted=True)


def positive_unit_vector(rng, n, p):
    x = rng.uniform(0.5, 1.5, size=n)
    return x / np.sum(x**p) ** (1 / p)


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.q == 10.0 and cfg.p == 11.0 and cfg.tol == 1e-8
        assert cfg.contraction_factor == pytest.approx(0.9)
        assert cfg.p_conjugate == pytest.approx(1.1)

    @pytest.mark.parametrize("p,q", [(10.0, 10.0), (9.0, 10.0), (11.0, 1.0), (11.0, 0.5),
                                     (math.inf, 10.0), (math.inf, math.inf), (math.nan, 10.0)])
    def test_rejects_bad_exponents(self, p, q):
        with pytest.raises(ValueError, match="p > q > 1"):
            SolverConfig(p=p, q=q)

    def test_rejects_bad_stopping(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)


class TestObjective:
    def test_single_nonzero_entry(self):
        h = Hypergraph(2, [[0, 1]])
        for q in (2.0, 5.0, 10.0):
            assert objective(h, RECIP, np.array([1.0, 0.0]), q) == pytest.approx(0.5)

    def test_two_equal_entries(self):
        h = Hypergraph(2, [[0, 1]])
        assert objective(h, UNIT, np.array([1.0, 1.0]), 2.0) == pytest.approx(math.sqrt(2))

    def test_one_homogeneous(self):
        rng = np.random.default_rng(3)
        h = random_hypergraph(rng, 10, 14)
        x = rng.uniform(0.1, 2.0, size=10)
        f = objective(h, RECIP, x, 10.0)
        assert objective(h, RECIP, 3.7 * x, 10.0) == pytest.approx(3.7 * f, rel=1e-13)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hypergraph(rng, 12, 18, weighted=True)
            x = rng.uniform(0.05, 1.0, size=12)
            for rule in XiRule:
                assert objective(h, rule, x, 10.0) == pytest.approx(
                    naive_objective(h, rule, x, 10.0), rel=1e-12
                )

    def test_rejects_negative(self):
        h = Hypergraph(2, [[0, 1]])
        with pytest.raises(ValueError, match="nonnegative"):
            objective(h, RECIP, np.array([1.0, -0.1]), 10.0)

    def test_extreme_entries_no_overflow(self):
        # raw x**q would overflow/underflow; rescaled path must not
        h = Hypergraph(3, [[0, 1, 2]])
        x = np.array([1e-160, 1e160, 1.0])
        val = objective(h, UNIT, x, 10.0)
        assert val == pytest.approx(1e160, rel=1e-10)


class TestGradientMap:
    def test_single_edge_scale_free(self):
        h = Hypergraph(2, [[0, 1]])
        for c in (1e-3, 1.0, 50.0):
            out = objective_gradient(h, UNIT, np.array([c, c]), 2.0)
            assert out == pytest.approx([2**-0.5, 2**-0.5], rel=1e-12)

    def test_regular_uniform_gives_constant(self):
        # 2-regular 3-uniform ring on 6 nodes
        edges = [[i, (i + 1) % 6, (i + 2) % 6] for i in range(6)]
        h = Hypergraph(6, edges)
        out = objective_gradient(h, RECIP, np.full(6, 1.0), 10.0)
        assert np.allclose(out, out[0])

    def test_path_hand_value(self):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        out = objective_gradient(h, RECIP, np.ones(3), 2.0)
        expected = np.array([2**-1.5, 2 * 2**-1.5, 2**-1.5])
        assert out == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            n = int(rng.integers(5, 51))
            h = random_hypergraph(rng, n, 2 * n, weighted=True)
            x = rng.uniform(0.2, 1.5, size=n)
            for rule in XiRule:
                got = objective_gradient(h, rule, x, 10.0)
                want = dense_gradient(h, rule, x, 10.0)
                assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_isolated_nodes_map_to_zero(self):
        h = Hypergraph(4, [[0, 1]])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        out = objective_gradient(h, RECIP, x, 10.0)
        assert out[2] == 0.0 and out[3] == 0.0

    def test_underflowed_edges_rescaled(self):
        # every member of edges {2,3} and {3,4} sits ~1e-33 below the max:
        # their q-power sums underflow the global rescale, so only they
        # are recomputed with their own max; the oracle runs in longdouble.
        # In the second instance the kernel's grouping by size moves the
        # four low edges (2,3,4), (2,3,5,6), (3,4) and (4,5).
        path = Hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]], weights=[2.0, 1.0, 0.5, 3.0])
        mixed = Hypergraph(7, [[0, 1, 2], [0, 5], [1, 6], [2, 3, 4], [2, 3, 5, 6], [3, 4], [4, 5]],
                           weights=[2.0, 1.0, 0.5, 3.0, 1.5, 0.25, 4.0])
        cases = [(path, np.array([1.0, 1e-20, 1e-33, 3e-34, 1e-34])),
                 (mixed, np.array([1.0, 1e-20, 1e-33, 3e-34, 1e-34, 2e-33, 5e-34]))]
        for (h, x), rule in itertools.product(cases, XiRule):
            got = objective_gradient(h, rule, x, 10.0)
            want = dense_gradient(h, rule, x.astype(np.longdouble), 10.0)
            assert np.all(np.isfinite(got))
            assert np.allclose(got, want.astype(np.float64), rtol=1e-13, atol=0)
            want_f = float(naive_objective(h, rule, x.astype(np.longdouble), 10.0))
            assert objective(h, rule, x, 10.0) == pytest.approx(want_f, rel=1e-13)
            assert objective(h, rule, 1e-300 * x, 10.0) == pytest.approx(1e-300 * want_f, rel=1e-13)

    def test_rejects_zero_on_covered_node(self):
        h = Hypergraph(2, [[0, 1]])
        with pytest.raises(ValueError, match="positive"):
            objective_gradient(h, RECIP, np.array([1.0, 0.0]), 10.0)

    @pytest.mark.parametrize("fn", [objective_gradient, lambda *a: iteration_map(*a, 11.0)],
                             ids=["objective_gradient", "iteration_map"])
    def test_rejects_negative_on_isolated_node(self, fn):
        # its log is NaN, which would turn every output entry to NaN
        h = Hypergraph(3, [[0, 1]])
        with pytest.raises(ValueError, match="positive"):
            fn(h, RECIP, np.array([1.0, 1.0, -1.0]), 10.0)

    @pytest.mark.parametrize(
        "fn",
        [objective_gradient, lambda h, xi, x, q: iteration_map(h, xi, x, q, 11.0),
         lambda h, xi, x, q: eigen_residual(h, SolverResult(x, 1.0, 1, True, []), SolverConfig(q=q, xi=xi))],
        ids=["objective_gradient", "iteration_map", "eigen_residual"],
    )
    def test_low_edge_overflow_reported(self, fn):
        # edge {1, 2} lies 1e-40 below the max: its kernel term carries
        # exp((1-q) r_e) ~ 1e360, which came back as a gradient of
        # [1, inf, inf] where the true one is [1, 0.536, 0.536] (as at 1e-30)
        h = Hypergraph(3, [[0, 1], [1, 2]])
        assert objective_gradient(h, UNIT, np.array([1.0, 1e-30, 1e-30]), 10.0) == pytest.approx(
            [1.0, 0.5359, 0.5359], rel=1e-4)
        with pytest.raises(ValueError, match="overflows the float range"):
            fn(h, UNIT, np.array([1.0, 1e-40, 1e-40]), 10.0)

    @pytest.mark.parametrize("scores, eigenvalue, match", [
        ([1.0, -0.5, 1.0], 1.0, "nonnegative"),  # its log is NaN: read as a kernel overflow
        ([1.0, 0.5, 1.0], 0.0, "positive eigenvalue"),  # returned NaN with a RuntimeWarning
    ], ids=["negative-score", "eigenvalue-0"])
    def test_eigen_residual_bad_result_rejected(self, scores, eigenvalue, match):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match=match):
            eigen_residual(h, SolverResult(np.array(scores), eigenvalue, 1, True, []), SolverConfig())

    def test_no_edges(self):
        # the gradient of f = 0 is 0, and a 0 gradient has no p*-normalization:
        # iteration_map returned [nan, nan, nan] with a RuntimeWarning
        h = Hypergraph(3, [])
        assert np.array_equal(objective_gradient(h, RECIP, np.ones(3), 10.0), np.zeros(3))
        with pytest.raises(ValueError, match="no edges"):
            iteration_map(h, RECIP, np.ones(3), 10.0, 11.0)
        # eigen_residual returned the eigenvalue itself (N(z) is 0 there)
        with pytest.raises(ValueError, match="no edges"):
            eigen_residual(h, SolverResult(np.ones(3), 2.0, 1, True, []), SolverConfig())

    def test_eigen_residual_edge_of_zeros_reported(self):
        # underflowed scores can leave an edge all 0: its kernel term is
        # infinite, which is not the overflow of a low but positive edge
        h = Hypergraph(3, [[0, 1], [1, 2]])
        result = SolverResult(np.array([1.0, 0.0, 0.0]), 1.0, 1, True, [])
        with pytest.raises(ValueError, match="scores are all 0"):
            eigen_residual(h, result, SolverConfig(xi=UNIT))

    @pytest.mark.parametrize("low", [False, True], ids=["plain", "low-edges"])
    def test_read_only_inputs_left_unchanged(self, low):
        # the map computes in place on arrays it allocates itself, never
        # on its caller's; a read-only input would raise on any write
        h = Hypergraph(7, [[0, 1, 2], [0, 5], [1, 6], [2, 3, 4], [2, 3, 5, 6], [3, 4], [4, 5]],
                       weights=[2.0, 1.0, 0.5, 3.0, 1.5, 0.25, 4.0])
        x = np.array([1.0, 1e-20, 1e-33, 3e-34, 1e-34, 2e-33, 5e-34]) if low else np.linspace(0.5, 1.5, 7)
        y = np.linspace(1.5, 0.5, 7)
        cfg = SolverConfig(xi=XiRule.WEIGHTED_RECIPROCAL)
        result = hypernsm(h, cfg)
        inputs = (x, y, result.scores)
        kept = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        objective(h, cfg.xi, x, cfg.q)
        objective_gradient(h, cfg.xi, x, cfg.q)
        iteration_map(h, cfg.xi, x, cfg.q, cfg.p)
        eigen_residual(h, result, cfg)
        thompson_distance(x, y)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))


class TestIterationMap:
    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        h = random_hypergraph(rng, 12, 20)
        x = rng.uniform(0.3, 1.2, size=12)
        base = iteration_map(h, RECIP, x, 10.0, 11.0)
        for lam in (1e-6, 0.37, 1.0, 4e5):
            assert np.allclose(iteration_map(h, RECIP, lam * x, 10.0, 11.0), base, rtol=1e-13)

    def test_output_unit_p_norm(self):
        rng = np.random.default_rng(10)
        h = random_hypergraph(rng, 10, 15)
        x = rng.uniform(0.3, 1.2, size=10)
        out = iteration_map(h, RECIP, x, 10.0, 11.0)
        assert np.sum(out**11.0) ** (1 / 11.0) == pytest.approx(1.0, abs=1e-12)

    def test_contraction_bound_dense_instances(self):
        # the per-pair factor (q-1)/(p-1) holds when node degrees are
        # high enough to average the per-edge terms; model samples are
        # the canonical dense family (see also the acceptance suite)
        from hypercp import GeneratorConfig, sample

        for s in range(4):
            h, _ = sample(GeneratorConfig(n=15, max_size=4, seed=30 + s))
            rng = np.random.default_rng(60 + s)
            for _ in range(25):
                x = positive_unit_vector(rng, 15, 11.0)
                y = positive_unit_vector(rng, 15, 11.0)
                lhs = thompson_distance(
                    iteration_map(h, RECIP, x, 10.0, 11.0),
                    iteration_map(h, RECIP, y, 10.0, 11.0),
                )
                assert lhs <= 0.9 * thompson_distance(x, y) + 1e-12

    def test_lipschitz_envelope_sparse_instances(self):
        # sparse hypergraphs can push single-pair ratios past the
        # nominal factor; they stay inside twice the factor
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = random_hypergraph(rng, 15, 25)
            for _ in range(10):
                x = positive_unit_vector(rng, 15, 11.0)
                y = positive_unit_vector(rng, 15, 11.0)
                lhs = thompson_distance(
                    iteration_map(h, RECIP, x, 10.0, 11.0),
                    iteration_map(h, RECIP, y, 10.0, 11.0),
                )
                assert lhs <= 2.0 * 0.9 * thompson_distance(x, y) + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        m=st.integers(1, 15),
        isolated=st.integers(0, 3),
        rule=st.sampled_from(list(XiRule)),
        qp=st.sampled_from([(10.0, 12.0), (10.0, 11.0), (10.0, 10.1), (3.0, 4.0), (2.0, 7.0)]),
        decades=st.floats(0.0, 30.0),
    )
    def test_map_matches_longdouble_map(self, seed, n, m, isolated, rule, qp, decades):
        # the map, taken in logs, against a dense longdouble map on scores
        # spread over up to 30 decades; isolated nodes stay at score 0
        rng = np.random.default_rng(seed)
        core = random_hypergraph(rng, n, m, smax=min(5, n), weighted=True)
        h = Hypergraph(n + isolated, edge_tuples(core), weights=core.weights)
        q, p = qp
        active = h.degrees > 0
        u = np.full(h.n, -np.inf)
        u[active] = rng.uniform(-decades, 0.0, size=n) * math.log(10.0) + rng.normal()
        x = np.exp(u)
        got = iteration_map(h, rule, x, q, p)
        want = np.log(longdouble_map(h, rule, x, q, p)[active])
        assert np.max(np.abs(np.log(got[active]) - want)) <= 1e-12
        assert np.all(got[~active] == 0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        m=st.integers(1, 15),
        isolated=st.integers(0, 2),
        rule=st.sampled_from(list(XiRule)),
        qp=st.sampled_from([(10.0, 12.0), (10.0, 10.1), (10.0, 11.0), (3.0, 4.0), (2.0, 7.0), (1.5, 2.5)]),
        depth=st.sampled_from([1.06, 1.02, 1.1, 1.3, 0.6, 0.0]),
        deep=st.sampled_from([0.9, 0.6, 0.3]),
        faint=st.sampled_from([0.3, 0.6, 0.0]),
    )
    def test_log_map_bits_match_reference(self, seed, n, m, isolated, rule, qp, depth, deep, faint):
        # The in-place map against the out-of-place one it replaced, bit
        # for bit.  xi is scaled as hypernsm scales it, and a `faint` share
        # of the edges other than the largest get a subnormal xi or 0: a
        # node with no nonzero kernel term is inactive (u = -inf), like an
        # isolated node.  A `deep` share of the scores, never all, sits
        # `depth` times 708/q below the rest (40 decades at q=10 for 1.3): an
        # edge whose members all lie deeper than 1 is rescaled, deeper
        # than about 1.1 at q=10 its kernel term overflows.
        rng = np.random.default_rng(seed)
        core = random_hypergraph(rng, n, m, smax=min(5, n), weighted=True)
        h = Hypergraph(n + isolated, edge_tuples(core), weights=core.weights)
        q, p = qp
        xi = solver._grouped_xi(h, rule)
        xi = np.ldexp(xi, -int(np.frexp(np.max(xi))[1]))
        dim = rng.random(h.m) < faint
        dim[np.argmax(xi)] = False
        xi[dim] = np.ldexp(xi[dim], -rng.integers(1050, 1110, size=np.count_nonzero(dim)))
        grouped = h.grouped_incidence
        active = grouped.bt @ (xi * h.sizes[grouped.order] ** (1.0 / q - 1.0)) > 0.0
        k = np.count_nonzero(active)
        u = np.full(h.n, -np.inf)
        sunk = rng.random(k) < deep
        sunk[rng.integers(k)] = False
        u[active] = np.where(sunk, -depth * 708.0 / q, 0.0) - rng.uniform(0.0, 3.0, k)
        with np.errstate(all="ignore"):
            want = reference_log_map(h, xi, u, q, p)
            got = solver._log_step(solver._log_gradient_terms(h, xi, u, q)[0], p)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_map_at_path_fixed_point_matches_longdouble_map(self):
        # p=10.1: scores fall to 1.5e-35 below the max.  Maps taken on
        # floats made gradient entries subnormal there and ended 1.8e-9 off
        h = Hypergraph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], weights=[1e300, 1, 1, 1, 1])
        x = longdouble_fixed_point(h, UNIT, 10.1, 10.0)
        want = longdouble_map(h, UNIT, x, 10.0, 10.1)
        assert np.min(x) < 1e-34
        assert np.max(np.abs(iteration_map(h, UNIT, x, 10.0, 10.1) / want - 1.0)) <= 1e-12


class TestThompsonDistance:
    def test_identity(self):
        x = np.array([0.3, 2.0])
        assert thompson_distance(x, x) == 0.0

    def test_scaling(self):
        x = np.array([0.5, 1.5, 2.5])
        assert thompson_distance(x, 2 * x) == pytest.approx(math.log(2))

    def test_direct_value(self):
        assert thompson_distance(
            np.array([1.0, math.e]), np.array([math.e, 1.0])
        ) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            thompson_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestSolver:
    def test_single_edge_closed_form(self):
        h = Hypergraph(2, [[0, 1]])
        cfg = SolverConfig(tol=1e-14, max_iter=5000)
        res = hypernsm(h, cfg)
        assert res.converged
        assert res.scores == pytest.approx([2 ** (-1 / 11.0)] * 2, rel=1e-12)
        assert eigen_residual(h, res, cfg) < 1e-12

    def test_unit_p_norm_and_positivity(self):
        rng = np.random.default_rng(13)
        h = random_hypergraph(rng, 20, 30)
        res = hypernsm(h, SolverConfig())
        assert np.sum(res.scores**11.0) ** (1 / 11.0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.scores > 0)

    def test_isolated_nodes_scored_zero(self):
        h = Hypergraph(5, [[0, 1], [1, 2]])
        res = hypernsm(h, SolverConfig())
        assert res.isolated_nodes == 2
        assert res.scores[3] == 0.0 and res.scores[4] == 0.0
        assert np.all(res.scores[:3] > 0)
        assert np.sum(res.scores**11.0) ** (1 / 11.0) == pytest.approx(1.0, abs=1e-12)

    def test_seed_independence(self):
        # hypernsm starts from the ones vector whatever cfg.seed says; the
        # plain map from two seeded random starts reaches its scores
        rng = np.random.default_rng(14)
        h = random_hypergraph(rng, 25, 40)
        a = hypernsm(h, SolverConfig(seed=1))
        assert np.array_equal(a.scores, hypernsm(h, SolverConfig(seed=2)).scores)
        for s in (1, 2):
            assert np.allclose(a.scores, plain_map_steps(h, SolverConfig(seed=s))[1], atol=1e-6)

    def test_multi_start_uniqueness(self):
        # hypernsm and the plain map from seeded random starts each stop
        # once their error bound is at most tol, so any two agree entrywise
        # within 2*tol relative
        rng = np.random.default_rng(15)
        for trial in range(5):
            h = random_hypergraph(rng, 15, 25)
            tight = SolverConfig(p=19.0, q=10.0)
            want = hypernsm(h, tight).scores
            for s in (0, 1, 2):
                x = plain_map_steps(h, dataclasses.replace(tight, seed=s))[1]
                assert np.max(np.abs(x - want)) < 10 * 1e-8
            want = hypernsm(h, SolverConfig()).scores
            for s in (0, 1, 2):
                x = plain_map_steps(h, SolverConfig(seed=s))[1]
                assert np.max(np.abs(x / want - 1.0)) <= 2 * 1e-8

    def test_hypercycle_overlap_nodes_on_top(self):
        from hypercp import hypercycle, rank_by_score

        h, overlaps = hypercycle()
        res = hypernsm(h, SolverConfig())
        assert sorted(rank_by_score(res.scores)[:5].tolist()) == overlaps

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            hypernsm(Hypergraph(4, []), SolverConfig())

    def test_anderson_solves_only_when_it_extrapolates(self):
        # after a restart hypernsm takes ANDERSON_MEMORY plain steps; the
        # extrapolations it used to form there were solved, then dropped
        rng = np.random.default_rng(20)
        accel = solver._Anderson(solver.ANDERSON_MEMORY, 6)
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            assert accel.update(rng.random(6), rng.random(6)) is None
            assert accel.update(rng.random(6), rng.random(6)) is not None
            assert lstsq.call_count == 1
            accel.clear(solver.ANDERSON_MEMORY)
            for _ in range(solver.ANDERSON_MEMORY):  # the first has no map to difference against
                assert accel.update(rng.random(6), rng.random(6)) is None
            assert lstsq.call_count == 1
            assert accel.update(rng.random(6), rng.random(6)).shape == (6,)
            assert lstsq.call_count == 2

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(16)
        h = random_hypergraph(rng, 20, 30)
        res = hypernsm(h, SolverConfig(max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.residual_trace) == 2

    def test_observed_linear_rate(self):
        # the paper's linear rate belongs to the plain map, not the
        # accelerated solve: drive iteration_map from a seeded random start
        rng = np.random.default_rng(17)
        h = random_hypergraph(rng, 30, 50)
        r = np.asarray(plain_map_steps(h, SolverConfig())[0])
        ratios = r[1:] / r[:-1]
        tail = ratios[-max(3, len(ratios) // 4):]
        assert np.all(tail <= 0.9 + 0.05)

    def test_contraction_trace_recorded(self):
        rng = np.random.default_rng(18)
        h = random_hypergraph(rng, 12, 20)
        res = hypernsm(h, SolverConfig())
        assert len(res.residual_trace) == res.iterations
        assert res.cert_bound == pytest.approx(9.0 * res.residual_trace[-1], rel=1e-6)
        # plain-map step ratios eventually sit at or below the contraction factor
        steps = plain_map_steps(h, SolverConfig())[0]
        ratios = np.asarray(steps[1:]) / np.asarray(steps[:-1])
        assert np.median(ratios[-5:]) <= 0.9 + 0.05

    def test_eigen_residual_converged_vs_early(self):
        rng = np.random.default_rng(19)
        h = random_hypergraph(rng, 15, 25)
        cfg = SolverConfig()
        full = hypernsm(h, cfg)
        early = hypernsm(h, dataclasses.replace(cfg, max_iter=1))
        r_full = eigen_residual(h, full, cfg)
        r_early = eigen_residual(h, early, cfg)
        assert r_full < 1e-6
        assert r_early > 10 * r_full

    def test_eigen_residual_other_exponents(self):
        # the change of variables must hold away from p - q = 1 too
        rng = np.random.default_rng(20)
        h = random_hypergraph(rng, 12, 20)
        cfg = SolverConfig(p=13.0, q=10.0, tol=1e-11, max_iter=4000)
        res = hypernsm(h, cfg)
        assert res.converged
        assert eigen_residual(h, res, cfg) < 1e-8

    @pytest.mark.parametrize("weight", [1e290, 1e300])
    @pytest.mark.parametrize("p", [10.5, 10.2])
    def test_extreme_weight_path_matches_longdouble_oracle(self, weight, p):
        # scores fall ~1e-33 below the max off the heavy edge, so some edge
        # q-power sums underflow a single global rescale; tol bounds the
        # error
        h = Hypergraph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], weights=[weight, 1, 1, 1, 1])
        cfg = SolverConfig(p=p, q=10.0, xi=UNIT, tol=1e-12, max_iter=5000)
        res = hypernsm(h, cfg)
        want = longdouble_fixed_point(h, UNIT, p, 10.0)
        assert res.converged
        assert np.max(np.abs(res.scores - want) / want) < 5e-11
        # the residual rescales underflowing edge sums as the solver does;
        # raw powers w^q gave 3.7e-7 * lambda at weight 1e300, p=10.2
        assert eigen_residual(h, res, cfg) <= 1e-10 * res.eigenvalue

    @pytest.mark.parametrize("rule", [UNIT, XiRule.WEIGHTED_RECIPROCAL])
    @pytest.mark.parametrize("p", [10.5, 10.2])
    def test_mixed_size_low_edges_match_longdouble_oracle(self, rule, p):
        # at the fixed point edges (3,4) and (4,5) sit ~1e-33 below the max
        # and are rescued; grouping by size moves them, since edge (0,1,2)
        # comes first in id order and last in the kernel's
        h = Hypergraph(6, [[0, 1, 2], [2, 3], [3, 4], [4, 5]], weights=[1e300, 1, 1, 1])
        cfg = SolverConfig(p=p, q=10.0, xi=rule, tol=1e-12, max_iter=5000)
        res = hypernsm(h, cfg)
        want = longdouble_fixed_point(h, rule, p, 10.0)
        assert want[5] < 1e-32
        assert res.converged
        assert np.max(np.abs(res.scores / want - 1.0)) <= res.cert_bound
        assert eigen_residual(h, res, cfg) <= 1e-10 * res.eigenvalue

    def test_huge_xi_does_not_overflow(self):
        # xi = 1e308 on one edge overflowed the gradient to NaN scores
        h = Hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]], weights=[1e308, 1, 1, 1])
        cfg = SolverConfig(p=11.0, q=10.0, xi=UNIT)
        res = hypernsm(h, cfg)
        assert res.converged
        assert np.all(np.isfinite(res.scores)) and np.all(res.scores > 0)
        assert 1e307 < res.eigenvalue < np.inf
        assert eigen_residual(h, res, cfg) < 1e-6 * res.eigenvalue
        tight = dataclasses.replace(cfg, tol=1e-14, max_iter=5000)
        res = hypernsm(h, tight)
        want = longdouble_fixed_point(h, UNIT, 11.0, 10.0)
        assert np.max(np.abs(res.scores - want) / want) < 5e-11
        assert eigen_residual(h, res, tight) < 1e-12 * res.eigenvalue

    def test_tiny_score_not_flushed_to_zero(self, caplog):
        # node 3 hangs off a 1e-200 edge and scores 2.56e-198 at p=11: far
        # below the max yet a float, so the solve in logs returns it
        # converged, where maps taken on floats flushed it to 0
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]], weights=[1, 1, 1e-200])
        cfg = SolverConfig(p=11.0, q=10.0, xi=UNIT)
        res = hypernsm(h, cfg)
        want = longdouble_fixed_point(h, UNIT, 11.0, 10.0)
        assert want[3] == pytest.approx(2.56e-198, rel=1e-3)
        assert res.converged and res.cert_bound <= cfg.tol
        assert np.max(np.abs(res.scores / want - 1.0)) <= 2e-8
        assert not [r for r in caplog.records if r.name == "hypercp.solver"]

    @pytest.mark.parametrize("p", [10.5])
    def test_underflowed_score_flagged(self, p, caplog):
        # the same node's true score is below the float range here: it
        # underflows to exactly 0, which used to come back with converged=True
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]], weights=[1, 1, 1e-200])
        res = hypernsm(h, SolverConfig(p=p, q=10.0, xi=UNIT))
        assert res.scores[3] == 0.0
        assert not res.converged
        messages = [r.getMessage() for r in caplog.records if r.name == "hypercp.solver"]
        assert messages == ["1 non-isolated node scores underflowed to 0"]
        # no certificate, yet the solve in logs carries on: the trace stays
        # finite and the other scores reach the longdouble fixed point
        assert res.cert_bound is None
        assert np.all(np.isfinite(res.residual_trace))
        assert res.iterations < 1000
        want = longdouble_fixed_point(h, UNIT, p, 10.0)
        assert np.max(np.abs(res.scores[:3] / want[:3] - 1.0)) <= 2e-8

    def test_scores_far_below_max_within_bound(self):
        # p=10.1: nodes 2 and 5 sit ~1e-35 below the max.  Maps taken on
        # floats made their gradient entries subnormal (~1e-317) and ended
        # 1.6e-6 off; in logs the solve certifies within tol
        h = Hypergraph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], weights=[1e300, 1, 1, 1, 1])
        cfg = SolverConfig(p=10.1, q=10.0, xi=UNIT)
        res = hypernsm(h, cfg)
        want = longdouble_fixed_point(h, UNIT, 10.1, 10.0)
        assert want[2] < 1e-34
        assert res.converged
        assert np.max(np.abs(res.scores / want - 1.0)) <= res.cert_bound <= cfg.tol

    def test_xi_beyond_float_range_flagged(self, caplog):
        # scaling xi by 2^-1024 makes the light edge's xi subnormal (weight
        # 1e-12), which widens cert_bound past the error it causes, or 0
        # (weight 1e-20), which leaves node 4 no kernel term: its score is
        # held at 0 and flagged
        edges = [[0, 1], [1, 2], [2, 3], [3, 4]]
        h = Hypergraph(5, edges, weights=[1e308, 1, 1, 1e-12])
        res = hypernsm(h, SolverConfig(xi=UNIT))
        want = longdouble_fixed_point(h, UNIT, 11.0, 10.0)
        assert not res.converged
        assert res.cert_bound >= np.max(np.abs(res.scores / want - 1.0)) > 1e-8
        h = Hypergraph(5, edges, weights=[1e308, 1, 1, 1e-20])
        res = hypernsm(h, SolverConfig(xi=UNIT))
        assert res.scores[4] == 0.0 and np.all(res.scores[:4] > 0.0)
        assert res.cert_bound is None and not res.converged
        messages = [r.getMessage() for r in caplog.records if r.name == "hypercp.solver"]
        assert messages == ["1 non-isolated node scores underflowed to 0"]

    @pytest.mark.parametrize("p,zeros", [(11.0, [3, 4]), (10.1, [2, 3, 4])])
    def test_edge_of_inactive_nodes_adds_zero(self, p, zeros, caplog):
        # scaling xi by 2^-997 rounds the xi of {2, 3} and {3, 4} to 0, so
        # nodes 3 and 4 are inactive and {3, 4} has no active member.  Its
        # kernel term, and that of {2, 3} once node 2 fell below 5e-35, was
        # 0 * inf = NaN, and the solve ended in a LinAlgError
        h = Hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]], weights=[1e300, 1, 1e-300, 1e-300])
        res = hypernsm(h, SolverConfig(p=p, q=10.0, xi=UNIT))
        live = np.setdiff1d(np.arange(5), zeros)
        assert np.all(res.scores[zeros] == 0.0)
        assert np.all(np.isfinite(res.scores)) and np.all(res.scores[live] > 0.0)
        assert np.sum(res.scores**p) == pytest.approx(1.0, rel=1e-12)
        assert res.cert_bound is None and not res.converged
        messages = [r.getMessage() for r in caplog.records if r.name == "hypercp.solver"]
        assert messages == [f"{len(zeros)} non-isolated node scores underflowed to 0"]
        assert objective(h, UNIT, res.scores, 10.0) == pytest.approx(
            naive_objective(h, UNIT, res.scores, 10.0), rel=1e-12)

    @pytest.mark.parametrize("seed,p", [*((s, p) for s in range(12) for p in (11.0, 10.1)), (None, 10.2)])
    def test_cert_bound_covers_map_rounding(self, seed, p):
        # at tolerances near 1e-13 the map's own rounding, not the step,
        # sets the error: solves like these came back converged with errors
        # of 3e-14 to 1.7e-13 over a cert_bound of 4e-15 or exactly 0
        if seed is None:
            h = Hypergraph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], weights=[1e300, 1, 1, 1, 1])
            rule, tol = UNIT, 1e-14
        else:
            h = random_hypergraph(np.random.default_rng(seed), 8, 10, weighted=True)
            rule, tol = XiRule.WEIGHTED_RECIPROCAL, 1e-15
        res = hypernsm(h, SolverConfig(p=p, q=10.0, xi=rule, tol=tol))
        err = np.max(np.abs(np.log(res.scores / longdouble_fixed_point(h, rule, p, 10.0, tol=1e-18))))
        assert err <= res.cert_bound
        assert err <= tol or not res.converged
        # the map's rounding, not max_iter, ends a solve that cannot reach tol
        assert res.iterations < 1000

    def test_map_count_pinned(self):
        # a p-sweep-shaped instance (sizes 3-7, weighted xi) over the
        # sweep's p grid took 22, 30, 39 and 90 maps (181 in all) when this
        # pin was set, and 302 before hypernsm preconditioned its Anderson
        # map; a solver change that adds more than 5% fails here.  From the
        # flat start it takes 24, 27, 35 and 72 (158)
        h = sweep_shaped_hypergraph()
        total = 0
        for p in (12.0, 11.0, 10.5, 10.1):
            res = hypernsm(h, SolverConfig(p=p, q=10.0, xi=XiRule.WEIGHTED_RECIPROCAL))
            assert res.converged
            total += res.iterations
        assert total <= 190

    @pytest.mark.parametrize("p", [11.0, 10.1])
    def test_preconditioned_solve_keeps_documented_guarantees(self, p, caplog):
        # the preconditioned map changes the path to the fixed point, not
        # the fixed point or the stop rule: the x^p-weighted RMS log error
        # stays within cert_bound and the max within the 5x of
        # test_cert_bound_tracks_longdouble_error.  The oracle starts at
        # the solve's scores only to save maps (tol=1e-12 is under a
        # thousandth of the bound either way).
        h = sweep_shaped_hypergraph()
        rule = XiRule.WEIGHTED_RECIPROCAL
        caplog.set_level(logging.DEBUG, logger="hypercp.solver")
        res = hypernsm(h, SolverConfig(p=p, q=10.0, xi=rule))
        assert res.converged and 0 < res.preconditioned_maps < res.iterations
        messages = [r.getMessage() for r in caplog.records if r.name == "hypercp.solver"]
        assert messages == [f"hypernsm: {res.iterations} maps, {res.preconditioned_maps} of them preconditioned"]
        want = longdouble_fixed_point(h, rule, p, 10.0, tol=1e-12, start=res.scores)
        log_err = np.log(res.scores / want)
        weights = want**p / np.sum(want**p)
        assert np.sqrt(np.sum(weights * log_err**2)) <= res.cert_bound
        assert np.max(np.abs(log_err)) <= 5.0 * res.cert_bound

    def test_stalled_preconditioned_solve_recovers(self):
        # at tol=1e-15 the preconditioned map stalls on these: STALL maps
        # without a new lowest step drop P and restart plain, as the run
        # with the guard switched off shows by taking more maps.  The first
        # two then converge; on the last two the step sticks under the
        # rounding floor, which neither stop rule catches, and another
        # STALL maps end the solve, flagged, where it ran all 1000 maps
        rule = XiRule.WEIGHTED_RECIPROCAL
        for seed, p, converges in ((165, 11.0, True), (268, 11.0, True), (191, 12.0, False), (286, 12.0, False)):
            h = random_hypergraph(np.random.default_rng(seed), 8, 10, weighted=True)
            cfg = SolverConfig(p=p, q=10.0, xi=rule, tol=1e-15)
            res = hypernsm(h, cfg)
            with mock.patch.object(solver, "STALL", cfg.max_iter):
                unguarded = hypernsm(h, cfg)
            assert res.iterations < unguarded.iterations
            assert unguarded.converged if converges else unguarded.iterations == cfg.max_iter
            assert res.converged == converges and res.iterations <= 200
            err = np.max(np.abs(np.log(res.scores / longdouble_fixed_point(h, rule, p, 10.0, tol=1e-18))))
            assert err <= 5.0 * res.cert_bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(1, 10),
        p=st.sampled_from([12.0, 11.0, 10.5, 10.1]),
        rule=st.sampled_from(list(XiRule)),
        path_weight=st.none() | st.floats(1.0, 1e300),
    )
    def test_cert_bound_tracks_longdouble_error(self, seed, n, m, p, rule, path_weight):
        # At the fixed point T's Jacobian J (in log x) is self-adjoint for
        # the x^p-weighted inner product, spectrum in [0, c]: to first
        # order the bound holds for the x^p-weighted RMS of the log error.
        # In the max norm |J| is 2c, and J (I - J)^-1, which maps the step
        # to the error, reached 5.0 c/(1-c) on random hypergraphs of <= 8
        # nodes; solves exceeded the bound by up to 3.1x.  1e-12 covers
        # rounding and the oracle's own tolerance.
        if path_weight is None:
            h = random_hypergraph(np.random.default_rng(seed), n, m, smax=min(5, n), weighted=True)
        else:
            h = Hypergraph(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], weights=[path_weight, 1, 1, 1, 1])
            rule = UNIT
        cfg = SolverConfig(p=p, q=10.0, xi=rule, seed=seed % 1000)
        res = hypernsm(h, cfg)
        want = longdouble_fixed_point(h, rule, p, 10.0)
        log_err = np.log(res.scores / want)
        weights = want**p / np.sum(want**p)
        assert res.converged == (res.cert_bound <= cfg.tol)
        assert np.sqrt(np.sum(weights * log_err**2)) <= res.cert_bound + 1e-12
        assert np.max(np.abs(res.scores / want - 1.0)) <= 5.0 * res.cert_bound + 1e-12

    def test_json_schema(self):
        h = Hypergraph(2, [[0, 1]])
        d = hypernsm(h, SolverConfig()).to_json_dict()
        assert set(d) == {"scores", "eigenvalue", "iterations", "converged", "residuals"}
        assert all(type(s) is float for s in d["scores"])
        assert isinstance(d["converged"], bool)


class TestDeskScaleOptimality:
    def grid_max(self, h, cfg, step=0.1):
        """Brute-force objective max over positive unit-p-norm directions."""
        ticks = np.arange(step, 1.0 + 1e-12, step)
        grids = np.meshgrid(*([ticks] * h.n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        norms = np.sum(pts**cfg.p, axis=1) ** (1 / cfg.p)
        xi = {XiRule.RECIPROCAL: None}
        best = -np.inf
        from helpers import xi_values

        xiv = xi_values(h, cfg.xi)
        total = np.zeros(pts.shape[0])
        for j, e in enumerate(edge_tuples(h)):
            total += xiv[j] * np.sum(pts[:, list(e)] ** cfg.q, axis=1) ** (1 / cfg.q)
        return float(np.max(total / norms))

    def test_solver_beats_grid(self):
        rng = np.random.default_rng(21)
        cfg = SolverConfig()
        for _ in range(3):
            h = random_hypergraph(rng, 4, 5, smin=2, smax=3)
            res = hypernsm(h, cfg)
            f_star = objective(h, cfg.xi, res.scores, cfg.q)
            assert f_star >= self.grid_max(h, cfg, step=0.1) - 1e-9
