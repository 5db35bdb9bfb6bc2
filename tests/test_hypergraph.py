import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercp import Hypergraph, XiRule, hypercycle, xi_vector

from helpers import canonical_incidence, random_hypergraph


@st.composite
def edge_lists(draw):
    """Edges with repeated nodes and permuted duplicates, plus weights."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    base = draw(st.lists(st.lists(node, min_size=2, max_size=7), max_size=25))
    base = [e for e in base if len(set(e)) >= 2]
    dups = draw(st.lists(st.sampled_from(base), max_size=15)) if base else []
    edges = base + [draw(st.permutations(e)) for e in dups]
    edges = draw(st.permutations(edges))
    weight = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    weights = draw(st.none() | st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


def test_basic_construction():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    assert h.m == 2
    assert h.edges == [(0, 1), (1, 2)]
    assert list(h.incident_edges(1)) == [0, 1]
    assert h.degrees.tolist() == [1, 2, 1]


def test_canonicalization_and_merge():
    h = Hypergraph(3, [[1, 0], [0, 1]], weights=[1, 2])
    assert h.m == 1
    assert h.edges == [(0, 1)]
    assert h.weights.tolist() == [3.0]


def test_within_edge_dedup():
    h = Hypergraph(4, [[2, 0, 2, 1]])
    assert h.edges == [(0, 1, 2)]


def test_edge_order_is_input_independent():
    a = Hypergraph(5, [[3, 4], [0, 1], [1, 2]])
    b = Hypergraph(5, [[1, 2], [0, 1], [4, 3]])
    assert a == b


@pytest.mark.parametrize(
    "edges,weights,err",
    [
        ([[0, 3]], None, "out of range"),
        ([[-1, 0]], None, "out of range"),
        ([[1, 1]], None, "2 distinct"),
        ([[0]], None, "2 distinct"),
        ([[]], None, "empty"),
        ([[0, 1]], [0.0], "positive"),
        ([[0, 1]], [-2.0], "positive"),
        ([[0, 1]], [float("inf")], "positive"),
        ([[0, 1]], [1.0, 2.0], "weights"),
        ([[0, 1.5, 2]], None, "integers"),
        ([[0, 2.0]], None, "integers"),
        ([[0, "1"]], None, "integers"),
        ([[0, 2**70]], None, "integers"),
        ([[0, 1]], [float("nan")], "positive"),
    ],
)
def test_rejects_bad_input(edges, weights, err):
    with pytest.raises(ValueError, match=err):
        Hypergraph(3, edges, weights=weights)


def test_integer_ids_of_mixed_numpy_types_are_accepted():
    # numpy types a uint64 and an int64 scalar together as float64
    assert Hypergraph(3, [[np.uint64(2), np.int64(0)]]).edges == [(0, 2)]


def test_rejects_node_count_beyond_int64_sort_keys():
    with pytest.raises(ValueError, match="overflow"):
        Hypergraph(2**62, [[0, 1], [1, 2]])


def test_hypercycle_shape():
    # five edges of sizes 3,4,5,6,15 sharing one node consecutively
    h, overlaps = hypercycle()
    assert h.n == 28
    assert h.m == 5
    assert sorted(h.sizes.tolist()) == [3, 4, 5, 6, 15]
    deg = h.degrees
    assert int((deg == 2).sum()) == 5
    assert int((deg == 1).sum()) == 23
    assert sorted(overlaps) == sorted(i for i in range(28) if deg[i] == 2)
    assert h.degree_sum() == 33


def test_degree_sum():
    assert Hypergraph(3, []).degree_sum() == 0
    assert Hypergraph(3, [[0, 1], [1, 2]]).degree_sum() == 4


def test_xi_vector_rules():
    h = Hypergraph(3, [[0, 1, 2], [0, 1]], weights=[1.0, 4.0])
    assert h.edges == [(0, 1), (0, 1, 2)]
    assert xi_vector(h, XiRule.RECIPROCAL).tolist() == [1 / 2, 1 / 3]
    assert xi_vector(h, XiRule.WEIGHTED_RECIPROCAL).tolist() == [2.0, 1 / 3]
    assert xi_vector(h, XiRule.UNIT).tolist() == [4.0, 1.0]


def test_incidence_transpose_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hypergraph(rng, 20, 30, cover_all=False)
        # node -> edge index must be exactly the transpose of edge -> node
        from_edges = {(i, j) for j, e in enumerate(h.edges) for i in e}
        from_nodes = {
            (i, int(j)) for i in range(h.n) for j in h.incident_edges(i)
        }
        assert from_edges == from_nodes


def test_degree_identities():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hypergraph(rng, 15, 25, cover_all=False)
        deg = h.degrees
        for i in range(h.n):
            assert deg[i] == sum(1 for e in h.edges if i in e)
        assert int(deg.sum()) == h.degree_sum() == sum(len(e) for e in h.edges)


def test_labels_validated():
    with pytest.raises(ValueError, match="unique"):
        Hypergraph(2, [[0, 1]], labels=["a", "a"])
    with pytest.raises(ValueError, match="labels"):
        Hypergraph(3, [[0, 1]], labels=["a", "b"])
    with pytest.raises(ValueError, match="representable"):
        Hypergraph(2, [[0, 1]], labels=["a b", "c"])
    with pytest.raises(ValueError, match="representable"):
        Hypergraph(2, [[0, 1]], labels=["#x", "c"])


def test_immutability_of_arrays():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        h.weights[0] = 5.0
    with pytest.raises(ValueError):
        h.members[0] = 2
    for b in (h.incidence, h.incidence_t):
        with pytest.raises(ValueError):
            b.data[0] = 2.0
        with pytest.raises(ValueError):
            b.indices[0] = 2


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_construction_matches_dict_merge_oracle(case):
    n, edges, weights = case
    h = Hypergraph(n, edges, weights=weights)
    offsets, members, merged = canonical_incidence(n, edges, weights)
    for got, want in ((h.offsets, offsets), (h.members, members), (h.weights, merged)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert h.edges == [tuple(members[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
    assert h.degrees.tolist() == [sum(i in e for e in h.edges) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_incidence_matrices_match_members(case):
    n, edges, weights = case
    h = Hypergraph(n, edges, weights=weights)
    dense = np.zeros((h.m, n))
    for e in range(h.m):
        dense[e, h.members[h.offsets[e] : h.offsets[e + 1]]] = 1.0
    assert h.incidence.shape == (h.m, n) and h.incidence_t.shape == (n, h.m)
    assert np.array_equal(h.incidence.toarray(), dense)
    assert np.array_equal(h.incidence_t.toarray(), dense.T)
    for i in range(n):
        want = [e for e in range(h.m) if i in h.members[h.offsets[e] : h.offsets[e + 1]]]
        assert h.incident_edges(i).tolist() == want  # ascending, as built
    assert h.degrees.tolist() == np.bincount(h.members, minlength=n).tolist()


def test_prefix_edges_sort_first_and_merge():
    h = Hypergraph(5, [[2, 1, 0], [1, 0], [0, 2], [3, 2, 1], [0, 1, 1], [4, 1, 0, 2]],
                   weights=[1.0, 0.1, 1.0, 1.0, 0.2, 1.0])
    assert h.edges == [(0, 1), (0, 1, 2), (0, 1, 2, 4), (0, 2), (1, 2, 3)]
    assert h.weights.tolist() == [0.1 + 0.2, 1.0, 1.0, 1.0, 1.0]
