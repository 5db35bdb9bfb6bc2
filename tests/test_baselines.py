import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercp import (
    Hypergraph,
    SolverConfig,
    XiRule,
    borgatti_everett,
    clique_expansion,
    graph_nsm,
    hypernsm,
    umhs,
)

from helpers import dense_incidence, is_hitting_set, is_minimal_hitting_set, random_hypergraph


def star_graph(m: int) -> Hypergraph:
    return Hypergraph(m + 1, [[0, i] for i in range(1, m + 1)])


def dense_clique_adjacency(h: Hypergraph) -> np.ndarray:
    """B diag(w) B^T with its diagonal zeroed, B the dense node-by-edge incidence."""
    b = dense_incidence(h)
    a = b @ np.diag(h.weights) @ b.T
    np.fill_diagonal(a, 0.0)
    return a


class TestCliqueExpansion:
    def test_triangle_from_single_edge(self):
        h = Hypergraph(3, [[0, 1, 2]])
        g = clique_expansion(h)
        adjacency = dict(zip(g.edges, g.weights))
        for i, j in itertools.combinations(range(3), 2):
            assert adjacency[i, j] == 1.0
        assert len(adjacency) == 3

    def test_merged_edge_weight(self):
        h = Hypergraph(2, [[0, 1], [1, 0]])
        g = clique_expansion(h)
        assert dict(zip(g.edges, g.weights))[0, 1] == 2.0

    def test_identity_on_graphs(self):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, 10, 15, smin=2, smax=2, weighted=True)
        g = clique_expansion(h)
        adjacency = dict(zip(g.edges, g.weights))
        for e, w in zip(h.edges, h.weights):
            assert adjacency[e[0], e[1]] == pytest.approx(w)

    def test_total_weight_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = random_hypergraph(rng, 12, 15, smax=5, weighted=True)
            g = clique_expansion(h)
            sizes = h.sizes
            want = float(np.sum(h.weights * sizes * (sizes - 1) / 2))
            got = float(g.weights.sum())
            assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), m=st.integers(0, 15))
    def test_matches_dense_reference_and_is_idempotent(self, seed, n, m):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, n, m, smax=min(n, 5), cover_all=False, weighted=True)
        g = clique_expansion(h)
        assert set(g.sizes.tolist()) <= {2}
        want = dense_clique_adjacency(h)
        got = np.zeros((n, n))
        for (i, j), w in zip(g.edges, g.weights):
            got[i, j] = got[j, i] = w
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert clique_expansion(g) == g

    def test_pair_budget(self):
        h = Hypergraph(30, [list(range(30))])
        with pytest.raises(ValueError, match="budget"):
            clique_expansion(h, pair_budget=100)


class TestGraphNsm:
    def test_matches_hypergraph_solver_on_two_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            h = random_hypergraph(rng, 12, 25, smin=2, smax=2, weighted=True)
            g = clique_expansion(h)
            a = hypernsm(h, SolverConfig(xi=XiRule.UNIT))
            b = graph_nsm(g, SolverConfig())
            assert np.allclose(a.scores, b.scores, atol=1e-10)

    def test_uniform_xi_rescaling_changes_nothing(self):
        # weighted-reciprocal on 2-uniform edges is unit xi scaled by
        # 1/2, which the normalization absorbs
        rng = np.random.default_rng(4)
        h = random_hypergraph(rng, 10, 20, smin=2, smax=2, weighted=True)
        a = hypernsm(h, SolverConfig(xi=XiRule.WEIGHTED_RECIPROCAL))
        b = graph_nsm(clique_expansion(h), SolverConfig())
        assert np.allclose(a.scores, b.scores, atol=1e-10)

    def test_star_center_dominates(self):
        res = graph_nsm(star_graph(6), SolverConfig())
        assert np.argmax(res.scores) == 0
        assert res.scores[0] > 1.5 * res.scores[1:].max()

    def test_hypercycle_expansion_favors_big_edge(self):
        from hypercp import hypercycle, rank_by_score

        h, overlaps = hypercycle()
        res = graph_nsm(clique_expansion(h), SolverConfig())
        big_edge = max(h.edges, key=len)
        top15 = set(rank_by_score(res.scores)[:15].tolist())
        assert len(top15 & set(big_edge)) >= 10


class TestBorgattiEverett:
    def test_star_center_largest(self):
        res = borgatti_everett(star_graph(4))
        assert res.converged
        assert np.argmax(res.scores) == 0

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(10, 100))
            h = random_hypergraph(rng, n, 2 * n, smax=4, weighted=True)
            g = clique_expansion(h)
            res = borgatti_everett(g, SolverConfig(tol=1e-12, max_iter=20000))
            dense = dense_clique_adjacency(h)
            vals, vecs = np.linalg.eigh(dense)
            lead = np.abs(vecs[:, -1])
            assert res.converged
            assert np.allclose(res.scores, lead, atol=1e-8)
            assert res.eigenvalue == pytest.approx(vals[-1], rel=1e-8)

    def test_disconnected_mass_on_larger_clique(self):
        pairs = list(itertools.combinations(range(5), 2))
        pairs += list(itertools.combinations(range(5, 8), 2))
        g = Hypergraph(8, pairs)
        res = borgatti_everett(g, SolverConfig(tol=1e-12, max_iter=20000))
        assert res.scores[:5].min() > 100 * res.scores[5:].max()

    def test_bipartite_star_still_converges(self):
        # adjacency spectrum is symmetric; the diagonal shift must keep
        # the iteration from oscillating
        res = borgatti_everett(star_graph(9), SolverConfig(tol=1e-10, max_iter=5000))
        assert res.converged

    def test_rescaling_invariance_of_ranking(self):
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng, 15, 30, weighted=True)
        g = clique_expansion(h)
        a = borgatti_everett(g, SolverConfig(tol=1e-12, max_iter=20000))
        g2 = Hypergraph(g.n, g.edges, weights=g.weights * 37.5)
        b = borgatti_everett(g2, SolverConfig(tol=1e-12, max_iter=20000))
        assert np.allclose(a.scores, b.scores, atol=1e-8)
        assert np.array_equal(np.argsort(a.scores), np.argsort(b.scores))

    def test_empty_graph_rejected(self):
        g = Hypergraph(3, [])
        with pytest.raises(ValueError, match="no edges"):
            borgatti_everett(g)

    def test_isolated_node_scores_exactly_zero(self):
        # the random start used to leave 2.2e-15 on node 4, against the SolverResult contract
        res = borgatti_everett(Hypergraph(5, [[0, 1], [1, 2], [2, 3]]))
        assert res.converged and res.isolated_nodes == 1
        assert res.scores[4] == 0.0 and np.all(res.scores[:4] > 0.0)

    @pytest.mark.parametrize("weight", [1e154, 1e300, 1.7e308])
    def test_huge_weight_does_not_overflow(self, weight):
        # the 2-norm of an iterate overflowed, giving NaN scores after max_iter
        path = [[0, 1], [1, 2], [2, 3], [3, 4]]
        res = borgatti_everett(Hypergraph(5, path, weights=[weight, 1, 1, 1]))
        ref = borgatti_everett(Hypergraph(5, path, weights=[1] + [1 / weight] * 3))
        assert res.converged and res.iterations == ref.iterations
        np.testing.assert_allclose(res.scores, ref.scores, rtol=0, atol=1e-12)
        assert res.eigenvalue == pytest.approx(weight * ref.eigenvalue, rel=1e-12)
        assert res.to_json_dict()["residuals"] == []

    def test_overflowing_pair_weight(self):
        # two edges of weight 1e308 share the pair {0, 1}: its weight, 2e308,
        # overflowed to inf, so power iteration ran out with NaN scores and
        # the graph solver blamed an input weight of inf
        h = Hypergraph(3, [[0, 1, 2], [0, 1]], weights=[1e308, 1e308])
        res = borgatti_everett(h)
        ref = borgatti_everett(Hypergraph(3, [[0, 1, 2], [0, 1]]))
        assert res.converged and res.iterations == ref.iterations
        np.testing.assert_allclose(res.scores, ref.scores, rtol=1e-12)
        assert res.eigenvalue == np.inf
        for expand in (clique_expansion, graph_nsm):
            with pytest.raises(ValueError, match="pair weight .* overflows float64"):
                expand(h)


class TestUmhs:
    def test_single_edge_needs_one_node(self):
        h = Hypergraph(3, [[0, 1, 2]])
        res = umhs(h)
        assert res.set_size == 1

    def test_output_is_minimal_hitting_set(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hypergraph(rng, 15, 20, smax=4)
            res = umhs(h, restarts=5, seed=3)
            assert is_hitting_set(h, res.hitting_set)
            assert is_minimal_hitting_set(h, res.hitting_set)

    def test_hypercycle_set_small(self):
        from hypercp import hypercycle

        h, overlaps = hypercycle()
        res = umhs(h, restarts=5, seed=0)
        assert is_minimal_hitting_set(h, res.hitting_set)
        assert res.set_size <= 3

    def test_planted_hitting_set_recovered(self):
        # every edge is forced to contain one of three planted nodes
        rng = np.random.default_rng(8)
        core = [0, 1, 2]
        edges = []
        for _ in range(30):
            others = rng.choice(np.arange(3, 12), size=2, replace=False)
            edges.append([int(rng.choice(core))] + others.tolist())
        h = Hypergraph(12, edges)
        res = umhs(h, restarts=5, seed=1)
        assert is_hitting_set(h, res.hitting_set)
        assert res.set_size <= 3

    def test_ranking_layout(self):
        rng = np.random.default_rng(9)
        h = random_hypergraph(rng, 12, 18)
        res = umhs(h)
        assert sorted(res.ranking) == list(range(12))
        k = res.set_size
        assert set(res.ranking[:k]) == set(res.hitting_set)
        deg = h.degrees
        head, tail = res.ranking[:k], res.ranking[k:]
        assert all(deg[a] >= deg[b] for a, b in zip(head, head[1:]))
        assert all(deg[a] >= deg[b] for a, b in zip(tail, tail[1:]))

    def test_scores_follow_ranking(self):
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        res = umhs(h)
        s = res.scores(4)
        order = [res.ranking.index(i) for i in range(4)]
        assert np.array_equal(np.argsort(-s), np.array(res.ranking))

    def test_determinism(self):
        rng = np.random.default_rng(10)
        h = random_hypergraph(rng, 14, 20)
        a = umhs(h, restarts=5, seed=11)
        b = umhs(h, restarts=5, seed=11)
        assert a.ranking == b.ranking and a.hitting_set == b.hitting_set

    def test_restart_validation(self):
        h = Hypergraph(2, [[0, 1]])
        with pytest.raises(ValueError, match="restarts"):
            umhs(h, restarts=0)
        with pytest.raises(ValueError, match="no edges"):
            umhs(Hypergraph(2, []))


class TestTwoUniform:
    def test_round_trip_with_expansion(self):
        rng = np.random.default_rng(12)
        h = random_hypergraph(rng, 10, 18, smin=2, smax=2, weighted=True)
        h2 = clique_expansion(h)
        assert h2 == Hypergraph(10, [list(e) for e in h.edges], weights=h.weights.tolist())
