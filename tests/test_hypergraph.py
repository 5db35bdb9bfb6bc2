import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercp import (
    GeneratorConfig,
    Hypergraph,
    XiRule,
    hypercycle,
    intersection_curve,
    mle_objective,
    objective,
    objective_gradient,
    permuted_coordinates,
    profile_curve,
    profile_value,
    rank_by_score,
    thompson_distance,
    xi_vector,
)

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


@pytest.mark.parametrize(
    "sizes,members,weights,err",
    [
        ([2, 2], [0, 1, 2], None, "sum to 4 but 3"),
        ([2], [0, 1, 2], None, "sum to 2 but 3"),
        ([2, 0], [0, 1], None, "empty"),
        ([3, -1], [0, 1], None, ">= 1"),
        ([2], [0.0, 1.0], None, "integer array"),
        ([2.0], [0, 1], None, "integer array"),
        ([], [], None, "integer array"),  # np.asarray([]) is float64
        ([[2]], [0, 1], None, "1-D"),
        ([2], [[0, 1]], None, "1-D"),
        ([2, 2], [0, 1, 1, 2], [1.0], "2 edges but 1 weights"),
        ([2], [0, 3], None, "out of range"),
        ([2], [1, 1], None, "2 distinct"),
    ],
)
def test_from_flat_rejects_bad_input(sizes, members, weights, err):
    with pytest.raises(ValueError, match=err):
        Hypergraph.from_flat(3, np.asarray(sizes), np.asarray(members), weights=weights)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), "3", None, -1])
def test_rejects_non_integral_or_negative_node_count(n):
    for build in (lambda: Hypergraph(n, [[0, 1]]),
                  lambda: Hypergraph.from_flat(n, np.array([2]), np.array([0, 1]))):
        with pytest.raises(ValueError, match="node count"):
            build()


def test_integer_node_count_of_numpy_type_is_accepted():
    assert Hypergraph(np.int32(3), [[0, 2]]).n == 3
    assert type(Hypergraph.from_flat(np.uint8(3), np.array([2]), np.array([0, 2])).n) is int


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
    flat = Hypergraph.from_flat(n, np.array([len(e) for e in edges], dtype=np.int64),
                                np.array([i for e in edges for i in e], dtype=np.int64),
                                weights=weights)
    offsets, members, merged = canonical_incidence(n, edges, weights)
    for g in (h, flat):
        for got, want in ((g.offsets, offsets), (g.members, members), (g.weights, merged)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert flat == h
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


H5 = Hypergraph(5, [[0, 1], [1, 2, 3], [3, 4]])

# Every entry point that takes node ids from outside; ranks are ids in
# 1..n, and the ids given take the place of rank 1.
ID_TAKERS = {
    "profile_value": lambda ids: profile_value(H5, ids),
    "intersection_curve": lambda ids: intersection_curve(np.arange(5.0), ids),
    "mle_objective": lambda ids: mle_objective(H5, [*ids, 2, 3, 4, 5], XiRule.RECIPROCAL, 10.0),
    "GeneratorConfig": lambda ids: GeneratorConfig(n=5, max_size=3, planted_perm=(*ids, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("entry, ids", [
    (entry, ids) for entry in ID_TAKERS for ids in ([1.5], ["1"], [2**70], [-1], [5], [])
    if ids or entry != "profile_value"  # no edge touches the empty set: its profile value is 0
], ids=str)
def test_outside_node_ids_rejected(entry, ids):
    # 1.5 and "1" used to count as node 1 or rank 1, or to raise IndexError or TypeError
    with pytest.raises(ValueError):
        ID_TAKERS[entry](ids)


SCORE_TAKERS = {
    "objective": lambda x: objective(H5, XiRule.RECIPROCAL, x, 10.0),
    "objective_gradient": lambda x: objective_gradient(H5, XiRule.RECIPROCAL, x, 10.0),
    "thompson_distance": lambda x: thompson_distance(x, np.ones(5)),
    "profile_curve": lambda x: profile_curve(H5, x),
    "permuted_coordinates": lambda x: permuted_coordinates(H5, x),
    "intersection_curve": lambda x: intersection_curve(x, [0]),
    "rank_by_score": rank_by_score,
}
BAD_SCORES = {
    "nan": [1.0, 1.0, np.nan, 1.0, 1.0],
    "inf": [1.0, 1.0, np.inf, 1.0, 1.0],
    "length": np.ones(4),
    "2-D": np.ones((1, 5)),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in SCORE_TAKERS for case in BAD_SCORES
    if case != "length" or entry not in ("intersection_curve", "rank_by_score")  # no n to match
])
def test_bad_score_vectors_rejected(entry, case):
    # NaN and inf used to give a number or a curve
    with pytest.raises(ValueError, match="score vector"):
        SCORE_TAKERS[entry](BAD_SCORES[case])
