import io

import numpy as np
import pytest

from hypercp import (
    Hypergraph,
    ProfileCurve,
    SolverConfig,
    XiRule,
    clique_expansion,
    hypercycle,
    hypernsm,
    intersection_curve,
    permuted_coordinates,
    profile_curve,
    profile_value,
    rank_by_score,
)
from hypercp.profiles import write_curves_csv

from helpers import naive_profile_value, random_hypergraph


class TestProfileValue:
    def test_whole_node_set_gives_one(self):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, 10, 15)
        assert profile_value(h, range(10)) == 1.0

    def test_single_covered_node_gives_zero(self):
        h = Hypergraph(4, [[0, 1], [1, 2, 3]])
        assert profile_value(h, [1]) == 0.0

    def test_untouched_set_gives_zero(self):
        h = Hypergraph(5, [[0, 1]])
        assert profile_value(h, [3, 4]) == 0.0

    def test_hypercycle_non_overlap_nodes(self):
        h, overlaps = hypercycle()
        rest = [i for i in range(28) if i not in overlaps]
        assert profile_value(h, rest) == 0.0

    @pytest.mark.parametrize("nodes", [[-1], [0, 5], [7]])
    def test_rejects_ids_outside_node_range(self, nodes):
        # -1 used to score node n-1 silently, and ids >= n raised IndexError
        h = Hypergraph(5, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError, match="out-of-range"):
            profile_value(h, nodes)

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 31))
            h = random_hypergraph(rng, n, 2 * n, weighted=True)
            nodes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            for rule in (None, XiRule.RECIPROCAL, XiRule.WEIGHTED_RECIPROCAL):
                assert profile_value(h, nodes, rule) == pytest.approx(
                    naive_profile_value(h, nodes, rule), rel=1e-12
                )


class TestProfileCurve:
    def test_ends_at_one_when_no_isolated(self):
        rng = np.random.default_rng(3)
        h = random_hypergraph(rng, 12, 20)
        scores = rng.uniform(size=12)
        curve = profile_curve(h, scores)
        assert curve.values[-1] == 1.0

    def test_prefixes_match_per_set_recount(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(5, 31))
            h = random_hypergraph(rng, n, 2 * n, weighted=True)
            scores = rng.uniform(size=n)
            order = np.lexsort((np.arange(n), scores))
            curve = profile_curve(h, scores, xi=XiRule.WEIGHTED_RECIPROCAL)
            for k in (1, n // 2, n):
                want = naive_profile_value(
                    h, order[:k], XiRule.WEIGHTED_RECIPROCAL
                )
                assert curve.values[k - 1] == pytest.approx(want, rel=1e-12)

    def test_hypercycle_shape_with_solver_scores(self):
        h, overlaps = hypercycle()
        res = hypernsm(h, SolverConfig())
        curve = profile_curve(h, res.scores)
        assert np.all(curve.values[:23] == 0.0)
        assert curve.values[27] == 1.0
        first_positive = int(np.argmax(curve.values > 0)) + 1
        assert first_positive >= 24

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng, 15, 25)
        scores = rng.uniform(size=15)
        a = profile_curve(h, scores)
        b = profile_curve(h, 100.0 * scores)
        c = profile_curve(h, np.exp(scores))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_weighted_curve_never_exceeds_one(self):
        # the contained and touched sums round differently; seeds 1, 2
        # and 3 pushed the last ratio to 1 + 1 ulp before the clamp
        for seed in range(20):
            rng = np.random.default_rng(seed)
            h = random_hypergraph(rng, 12, 20, weighted=True)
            scores = rng.uniform(size=12)
            curve = profile_curve(h, scores, xi=XiRule.WEIGHTED_RECIPROCAL)
            assert curve.values.max() <= 1.0
            assert curve.values[-1] == pytest.approx(1.0, rel=1e-12)
            order = np.lexsort((np.arange(12), scores))
            for k in (1, 6, 12):
                want = naive_profile_value(h, order[:k], XiRule.WEIGHTED_RECIPROCAL)
                assert curve.values[k - 1] == pytest.approx(want, rel=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng, 10, 14, cover_all=False)
        scores = rng.uniform(size=10)
        curve = profile_curve(h, scores)
        assert curve.values.min() >= 0.0 and curve.values.max() <= 1.0


class TestIntersectionCurve:
    def test_perfect_ranking(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        curve = intersection_curve(scores, [0, 1, 2])
        want = [1.0, 1.0, 1.0, 3 / 4, 3 / 5, 3 / 6]
        assert curve.values == pytest.approx(want)

    def test_final_value_is_core_fraction(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=20)
        curve = intersection_curve(scores, [3, 7, 11])
        assert curve.values[-1] == pytest.approx(3 / 20)

    def test_random_scores_average_near_core_density(self):
        rng = np.random.default_rng(8)
        n, core = 20, set(range(5))
        acc = np.zeros(n)
        trials = 1000
        for _ in range(trials):
            acc += intersection_curve(rng.permutation(n).astype(float), core).values
        mean = acc / trials
        # expected value at every k is |C|/n = 0.25
        assert np.all(np.abs(mean - 0.25) < 0.06)

    def test_counts_are_integers(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=15)
        curve = intersection_curve(scores, [1, 2, 3, 4])
        ks = np.arange(1, 16)
        prods = curve.values * ks
        assert np.allclose(prods, np.round(prods))

    def test_empty_core_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            intersection_curve(np.ones(3), [])


class TestRanking:
    def test_ties_break_by_index(self):
        order = rank_by_score(np.array([1.0, 2.0, 2.0, 0.5]))
        assert order.tolist() == [1, 2, 0, 3]


class TestPermutedCoordinates:
    def test_star_concentrates_on_first_row(self):
        g = Hypergraph(5, [[0, i] for i in range(1, 5)])
        scores = np.array([10.0, 1.0, 2.0, 3.0, 4.0])
        triples = permuted_coordinates(g, scores)
        assert all(r == 0 or c == 0 for r, c, _ in triples)

    def test_identity_scores_keep_coordinates(self):
        g = Hypergraph(4, [[0, 1], [2, 3]], weights=[2.0, 1.0])
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        triples = permuted_coordinates(g, scores)
        assert triples == [(0, 1, 2.0), (1, 0, 2.0), (2, 3, 1.0), (3, 2, 1.0)]

    def test_hypercycle_overlaps_occupy_leading_block(self):
        h, overlaps = hypercycle()
        res = hypernsm(h, SolverConfig())
        g = clique_expansion(h)
        triples = permuted_coordinates(g, res.scores)
        order = rank_by_score(res.scores)
        assert sorted(order[:5].tolist()) == overlaps
        lead = {(r, c) for r, c, _ in triples if r < 5 and c < 5}
        # overlap nodes of consecutive edges share an edge, so the
        # leading 5x5 block carries adjacency between them
        assert lead


class TestCsvOutput:
    def test_profile_csv_format(self):
        curve = ProfileCurve(values=np.array([0.0, 0.5, 1.0]), kind="profile", method_label="x")
        buf = io.StringIO()
        write_curves_csv([curve], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,gamma,method"
        assert lines[1].startswith("1,0.0,x")

    def test_intersection_header(self):
        curve = ProfileCurve(values=np.array([1.0]), kind="intersection", method_label="m")
        buf = io.StringIO()
        write_curves_csv([curve], buf)
        assert buf.getvalue().splitlines()[0] == "k,iota,method"

    def test_mixed_kinds_rejected(self):
        a = ProfileCurve(values=np.array([1.0]), kind="profile")
        b = ProfileCurve(values=np.array([1.0]), kind="intersection")
        with pytest.raises(ValueError, match="mix"):
            write_curves_csv([a, b], io.StringIO())

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            ProfileCurve(values=np.array([1.5]), kind="profile")
