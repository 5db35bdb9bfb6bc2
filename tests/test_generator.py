import itertools
import math

import numpy as np
import pytest

from hypercp import (
    GeneratorConfig,
    XiRule,
    edge_coreness,
    edge_probability,
    mle_objective,
    sample,
)
from hypercp.generator import candidate_count

from helpers import edge_tuples, model_log_likelihood, reference_sample


class TestEdgeCoreness:
    def test_most_peripheral_alone_is_zero(self):
        # a node of rank n contributes (n - n)/n = 0
        assert edge_coreness([10], 10, 10.0) == 0.0

    def test_linear_case(self):
        assert edge_coreness([1, 2], 10, 1.0) == pytest.approx(1.7)

    def test_large_exponent_approaches_max(self):
        rng = np.random.default_rng(2)
        n = 10
        for _ in range(50):
            ranks = rng.choice(n, size=3, replace=False) + 1
            exact_max = max((n - r) / n for r in ranks)
            approx = edge_coreness(ranks, n, 50.0)
            assert approx >= exact_max
            assert approx <= exact_max * 1.01 + 1e-12

    def test_monotone_in_rank(self):
        base = edge_coreness([2, 5], 10, 10.0)
        assert edge_coreness([3, 5], 10, 10.0) < base
        assert edge_coreness([2, 6], 10, 10.0) < base

    def test_adding_a_node_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ranks = list(rng.choice(12, size=3, replace=False) + 1)
            extra = next(r for r in range(1, 13) if r not in ranks)
            assert edge_coreness(ranks + [extra], 12, 10.0) >= edge_coreness(ranks, 12, 10.0)

    def test_rank_bounds_checked(self):
        with pytest.raises(ValueError, match="ranks"):
            edge_coreness([0, 1], 10, 10.0)
        with pytest.raises(ValueError, match="ranks"):
            edge_coreness([1, 11], 10, 10.0)


class TestEdgeProbability:
    def test_zero_coreness_is_half(self):
        cfg = GeneratorConfig(n=10, max_size=3)
        # only rank n has zero contribution; a singleton {n} is the
        # degenerate zero-coreness case of the formula
        assert edge_probability([10], cfg) == pytest.approx(0.5)

    def test_scalar_example(self):
        cfg = GeneratorConfig(n=10, max_size=2, q_mu=1.0)
        # xi = 1/2, coreness = 1.7, sigmoid(0.85)
        want = 1.0 / (1.0 + math.exp(-0.85))
        assert edge_probability([1, 2], cfg) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.7006, abs=5e-5)

    def test_always_above_half(self):
        cfg = GeneratorConfig(n=8, max_size=4)
        for r in range(2, 5):
            for combo in itertools.combinations(range(1, 9), r):
                p = edge_probability(list(combo), cfg)
                assert 0.5 <= p < 1.0

    def test_full_probability_table_shape(self):
        # n=10: 2^10 - 11 = 1013 candidate edges; within each size block
        # (lexicographic order) probabilities never increase, and block
        # maxima shrink as the size grows
        cfg = GeneratorConfig(n=10, max_size=10, q_mu=10.0)
        count = 0
        prev_block_max = float("inf")
        for r in range(2, 11):
            block = [
                edge_probability(list(c), cfg)
                for c in itertools.combinations(range(1, 11), r)
            ]
            count += len(block)
            assert all(a >= b - 1e-12 for a, b in zip(block, block[1:]))
            assert max(block) < prev_block_max
            prev_block_max = max(block)
        assert count == 1013


class TestSample:
    def test_determinism(self):
        cfg = GeneratorConfig(n=8, max_size=3, seed=42)
        h1, r1 = sample(cfg)
        h2, r2 = sample(cfg)
        assert h1 == h2
        assert np.array_equal(r1, r2)

    def test_seeds_differ(self):
        a, _ = sample(GeneratorConfig(n=8, max_size=3, seed=1))
        b, _ = sample(GeneratorConfig(n=8, max_size=3, seed=2))
        assert a != b

    def test_planted_perm_respected(self):
        perm = tuple(range(1, 9))
        _, ranks = sample(GeneratorConfig(n=8, max_size=3, seed=0, planted_perm=perm))
        assert ranks.tolist() == list(perm)

    def test_shuffled_ranks_recorded(self):
        _, ranks = sample(GeneratorConfig(n=12, max_size=3, seed=9))
        assert sorted(ranks.tolist()) == list(range(1, 13))

    def test_pairwise_degenerate_case(self):
        h, _ = sample(GeneratorConfig(n=10, max_size=2, seed=3))
        assert set(h.sizes.tolist()) == {2}

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            sample(GeneratorConfig(n=40, max_size=10))  # 1.22e9 candidates

    def test_candidate_count(self):
        assert candidate_count(10, 10) == 2**10 - 11
        assert candidate_count(8, 4) == 28 + 56 + 70

    def test_inclusion_frequencies_match_probabilities(self):
        # Monte Carlo calibration on a small instance: every candidate
        # edge's empirical frequency within 4 binomial sigma
        cfg = GeneratorConfig(n=6, max_size=3, q_mu=10.0, planted_perm=tuple(range(1, 7)))
        trials = 3000
        counts: dict[tuple[int, ...], int] = {}
        for t in range(trials):
            h, _ = sample(
                GeneratorConfig(
                    n=6, max_size=3, q_mu=10.0, seed=t, planted_perm=tuple(range(1, 7))
                )
            )
            for e in edge_tuples(h):
                counts[e] = counts.get(e, 0) + 1
        for r in (2, 3):
            for combo in itertools.combinations(range(6), r):
                ranks = [i + 1 for i in combo]
                p = edge_probability(ranks, cfg)
                sigma = math.sqrt(trials * p * (1 - p))
                assert abs(counts.get(combo, 0) - trials * p) <= 4 * sigma


class TestMleObjective:
    def test_empty_edge_set(self):
        from hypercp import Hypergraph

        h = Hypergraph(4, [])
        assert mle_objective(h, [1, 2, 3, 4], XiRule.RECIPROCAL, 10.0) == 0.0

    def test_invalid_perm_rejected(self):
        from hypercp import Hypergraph

        h = Hypergraph(3, [[0, 1]])
        with pytest.raises(ValueError, match="bijection"):
            mle_objective(h, [1, 1, 2], XiRule.RECIPROCAL, 10.0)

    def test_reversal_decreases_on_planted_sample(self):
        h, ranks = sample(GeneratorConfig(n=10, max_size=3, seed=5))
        fwd = mle_objective(h, ranks, XiRule.RECIPROCAL, 10.0)
        rev = mle_objective(h, 11 - ranks, XiRule.RECIPROCAL, 10.0)
        assert fwd > rev

    def test_argmax_matches_exact_likelihood(self):
        # exhaustive check over all permutations on tiny instances: the
        # objective and the true model log-likelihood pick the same
        # orderings (up to exact ties)
        for seed in range(3):
            cfg = GeneratorConfig(n=5, max_size=3, q_mu=10.0, seed=seed)
            h, _ = sample(cfg)
            obj, lik = {}, {}
            for perm in itertools.permutations(range(1, 6)):
                obj[perm] = mle_objective(h, perm, cfg.xi, cfg.q_mu)
                lik[perm] = model_log_likelihood(h, perm, cfg.max_size, cfg.xi, cfg.q_mu)
            top_obj = {p for p, v in obj.items() if v >= max(obj.values()) - 1e-9}
            top_lik = {p for p, v in lik.items() if v >= max(lik.values()) - 1e-9}
            assert top_obj == top_lik


@pytest.mark.parametrize("n, max_size, seed, perm", [
    (2, 2, 0, None),
    (5, 5, 1, None),
    (6, 3, 2, (6, 5, 4, 3, 2, 1)),
    (9, 4, 3, None),
    (12, 12, 4, None),
    (40, 4, 7, None),
])
def test_sample_matches_itertools_enumeration(n, max_size, seed, perm):
    cfg = GeneratorConfig(n=n, max_size=max_size, seed=seed, planted_perm=perm)
    h, ranks = sample(cfg)
    want_h, want_ranks = reference_sample(cfg)
    assert h == want_h
    assert ranks.tolist() == want_ranks.tolist()
