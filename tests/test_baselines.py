import io
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
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
    read_edge_list,
    umhs,
    write_edge_list,
)
from hypercp import baselines

from helpers import (
    canonical_b,
    dense_incidence,
    edge_tuples,
    is_hitting_set,
    is_minimal_hitting_set,
    random_hypergraph,
    reference_greedy_hitting_set,
)


def star_graph(m: int) -> Hypergraph:
    return Hypergraph(m + 1, [[0, i] for i in range(1, m + 1)])


def dense_clique_adjacency(h: Hypergraph) -> np.ndarray:
    """B diag(w) B^T with its diagonal zeroed, B the dense node-by-edge incidence."""
    b = dense_incidence(h)
    a = b @ np.diag(h.weights) @ b.T
    np.fill_diagonal(a, 0.0)
    return a


def canonical_clique_adjacency(h: Hypergraph) -> sp.csr_matrix:
    """B^T diag(w) B with its diagonal dropped, B in canonical edge order:
    each pair weight summed over its edges in ascending id order, the
    columns of each row ascending."""
    b = canonical_b(h)
    a = (b.T @ sp.diags(h.weights) @ b).tocsr()
    a.setdiag(0.0)
    a.eliminate_zeros()
    assert a.has_sorted_indices
    return a


def reference_power_iteration(h: Hypergraph, cfg: SolverConfig) -> tuple[np.ndarray, float]:
    """Borgatti-Everett by power iteration on the dense clique adjacency
    shifted by half its largest row sum, from the same seeded start and
    with the same step-size stop: (scores, eigenvalue)."""
    a = dense_clique_adjacency(h)
    a += 0.5 * a.sum(axis=1).max() * np.eye(h.n)
    x = np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=h.n)
    x[h.degrees == 0] = 0.0
    x /= np.linalg.norm(x)
    for _ in range(cfg.max_iter):
        y = a @ x
        y /= np.linalg.norm(y)
        step = np.linalg.norm(y - x)
        x = y
        if step < cfg.tol:
            break
    return x, float(x @ dense_clique_adjacency(h) @ x)


class TestCliqueExpansion:
    def test_triangle_from_single_edge(self):
        h = Hypergraph(3, [[0, 1, 2]])
        g = clique_expansion(h)
        adjacency = dict(zip(edge_tuples(g), g.weights))
        for i, j in itertools.combinations(range(3), 2):
            assert adjacency[i, j] == 1.0
        assert len(adjacency) == 3

    def test_merged_edge_weight(self):
        h = Hypergraph(2, [[0, 1], [1, 0]])
        g = clique_expansion(h)
        assert dict(zip(edge_tuples(g), g.weights))[0, 1] == 2.0

    def test_identity_on_graphs(self):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, 10, 15, smin=2, smax=2, weighted=True)
        g = clique_expansion(h)
        adjacency = dict(zip(edge_tuples(g), g.weights))
        for e, w in zip(edge_tuples(h), h.weights):
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
        for (i, j), w in zip(edge_tuples(g), g.weights):
            got[i, j] = got[j, i] = w
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert clique_expansion(g) == g

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 15), m=st.integers(1, 40))
    def test_matches_canonical_product_bits(self, seed, n, m):
        # each pair weight must be summed over its edges in canonical order
        # for the expansion to keep every bit; lognormal weights spread
        # enough for a different order to round differently
        rng = np.random.default_rng(seed)
        edges = [rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False)
                 for _ in range(m)]
        h = Hypergraph(n, edges, weights=rng.lognormal(0.0, 2.0, size=m))
        pairs = sp.triu(canonical_clique_adjacency(h), k=1).tocoo()
        order = np.lexsort((pairs.col, pairs.row))
        g = clique_expansion(h)
        assert g.members.tolist() == np.column_stack([pairs.row, pairs.col])[order].ravel().tolist()
        assert g.weights.tobytes() == pairs.data[order].tobytes()
        # Borgatti-Everett forms no pairs: it must match power iteration
        # on the dense adjacency from the same start
        cfg = SolverConfig(tol=1e-12)
        res = borgatti_everett(h, cfg)
        scores, eigenvalue = reference_power_iteration(h, cfg)
        np.testing.assert_allclose(res.scores, scores, rtol=0, atol=1e-12)
        assert res.eigenvalue == pytest.approx(eigenvalue, rel=1e-12)

    def test_keeps_labels(self):
        h = read_edge_list(io.StringIO("a b c # w=2\nb d\n"))
        g = clique_expansion(h)
        assert g.labels == h.labels == ["a", "b", "c", "d"]
        out = io.StringIO()
        write_edge_list(g, out)
        assert out.getvalue() == "a b # w=2.0\na c # w=2.0\nb c # w=2.0\nb d # w=1.0\n"
        graph = read_edge_list(io.StringIO("x y # w=1.5\ny z\n"))
        assert clique_expansion(graph) == graph

    def test_pair_budget(self):
        # one edge of 10,001 nodes has 50,005,000 pairs, just over the budget;
        # the guard raises before any pair is built
        h = Hypergraph(10_001, [list(range(10_001))])
        with pytest.raises(ValueError, match="budget"):
            clique_expansion(h)


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
        big_edge = max(edge_tuples(h), key=len)
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
        g2 = Hypergraph(g.n, edge_tuples(g), weights=g.weights * 37.5)
        b = borgatti_everett(g2, SolverConfig(tol=1e-12, max_iter=20000))
        assert np.allclose(a.scores, b.scores, atol=1e-8)
        assert np.array_equal(np.argsort(a.scores), np.argsort(b.scores))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 15), m=st.integers(1, 40))
    def test_same_scores_on_the_expansion(self, seed, n, m):
        # the operator B^T W B - D iterated on h is the adjacency of h's
        # clique expansion, which is its own expansion: the method is the
        # expansion's, though it never forms the expansion
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, n, m, smax=min(n, 6), cover_all=False, weighted=True)
        cfg = SolverConfig(tol=1e-12)
        res = borgatti_everett(h, cfg)
        ref = borgatti_everett(clique_expansion(h), cfg)
        np.testing.assert_allclose(res.scores, ref.scores, rtol=0, atol=1e-12)
        assert res.converged == ref.converged

    def test_runs_beyond_pair_budget(self):
        # the 10,001-clique of `test_pair_budget`: no pair is formed, so
        # only the expansion's methods hit the budget
        h = Hypergraph(10_001, [list(range(10_001))])
        res = borgatti_everett(h)
        assert res.converged and np.ptp(res.scores) <= 1e-9
        assert res.eigenvalue == pytest.approx(1e4, rel=1e-12)
        for expand in (clique_expansion, graph_nsm):
            with pytest.raises(ValueError, match="budget"):
                expand(h)

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


@st.composite
def hitting_set_cases(draw):
    """A hypergraph for UMHS, with a restart count and a seed: dense (at
    most 12 nodes, up to 150 edges) or sparse (up to 300 nodes and 300
    edges), edges of 2 to 12 nodes, some drawn twice so they merge, and
    nodes that no edge holds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = draw(st.booleans())
    n = draw(st.integers(2, 12) if dense else st.integers(13, 300))
    m = draw(st.integers(1, 150) if dense else st.integers(1, 300))
    largest = draw(st.integers(2, min(n, 12)))
    edges = [rng.choice(n, size=int(rng.integers(2, largest + 1)), replace=False) for _ in range(m)]
    edges += [edges[i] for i in rng.integers(0, m, size=draw(st.integers(0, m)))]
    isolated = draw(st.integers(0, 3))
    return Hypergraph(n + isolated, edges), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


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

    @settings(max_examples=150, deadline=None)
    @given(hitting_set_cases())
    def test_matches_reference_greedy(self, case):
        h, restarts, seed = case
        node_lists = baselines._node_edges(h)
        for r in range(restarts):
            want = reference_greedy_hitting_set(h, np.random.default_rng([seed, r]))
            got = baselines._greedy_minimal_hitting_set(h, np.random.default_rng([seed, r]), *node_lists)
            assert got == want
        res = umhs(h, restarts=restarts, seed=seed)
        with mock.patch.object(baselines, "_greedy_minimal_hitting_set",
                               lambda h, rng, *_: reference_greedy_hitting_set(h, rng)):
            ref = umhs(h, restarts=restarts, seed=seed)
        assert (res.ranking, res.hitting_set) == (ref.ranking, ref.hitting_set)

    def test_leaves_the_solver_layout_unbuilt(self):
        # UMHS counts and prunes on its own node -> edge lists
        h = random_hypergraph(np.random.default_rng(13), 14, 20)
        umhs(h)
        assert "grouped_incidence" not in vars(h)

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
        assert h2 == Hypergraph(10, [list(e) for e in edge_tuples(h)], weights=h.weights.tolist())
