import gzip
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercp import Hypergraph, read_edge_list, read_simplex_stream, write_edge_list
from hypercp.ingest import hypergraph_to_text, read_label_set

from helpers import canonical_incidence, random_hypergraph


class TestReadEdgeList:
    def test_two_edges(self):
        h = read_edge_list(io.StringIO("a b\nb c\n"))
        assert h.n == 3 and h.m == 2
        assert h.labels == ["a", "b", "c"]

    def test_weight_merge(self):
        h = read_edge_list(io.StringIO("a b # w=3\na b # w=1\n"))
        assert h.m == 1
        assert h.weights.tolist() == [4.0]

    def test_comments_and_blanks(self):
        h = read_edge_list(io.StringIO("% header\n\na b\n%tail\n"))
        assert h.m == 1

    def test_malformed_weight_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list(io.StringIO("a b\nc d # weight=2\n"))
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(io.StringIO("a b # w=abc\n"))

    def test_short_edge_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list(io.StringIO("a b\nb c\na a\n"))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(io.StringIO("a b # w=0\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_nonfinite_weight_reports_line(self, weight):
        with pytest.raises(ValueError, match="line 2: weight must be positive and finite"):
            read_edge_list(io.StringIO(f"a b\nb c # w={weight}\n"))

    def test_first_appearance_indexing(self):
        h = read_edge_list(io.StringIO("z y\nx z\n"))
        assert h.labels == ["z", "y", "x"]
        assert h.edges == [(0, 1), (0, 2)]


class TestRoundTrip:
    def test_read_write_read_identity(self):
        text = "b c\na b # w=2.5\nd a c\n"
        h1 = read_edge_list(io.StringIO(text))
        buf = io.StringIO()
        write_edge_list(h1, buf)
        h2 = read_edge_list(io.StringIO(buf.getvalue()))
        assert h1 == h2

    def test_write_is_deterministic(self):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, 10, 15, weighted=True)
        text1 = hypergraph_to_text(h)
        assert hypergraph_to_text(h) == text1
        # first-appearance reindexing may permute dense indices, but
        # never the label-level structure, at any round-trip depth
        h2 = read_edge_list(io.StringIO(text1))
        h3 = read_edge_list(io.StringIO(hypergraph_to_text(h2)))
        assert h2.edges_by_label() == h.edges_by_label() == h3.edges_by_label()

    def test_build_write_read_preserves_label_structure(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h1 = random_hypergraph(rng, 12, 18, weighted=True)
            h2 = read_edge_list(io.StringIO(hypergraph_to_text(h1)))
            assert h2.n == h1.n
            assert h2.edges_by_label() == h1.edges_by_label()

    def test_gzip_round_trip(self, tmp_path):
        h = Hypergraph(3, [[0, 1], [1, 2]], weights=[1.5, 2.0])
        path = tmp_path / "h.txt.gz"
        write_edge_list(h, path)
        with gzip.open(path, "rt") as f:
            assert "w=1.5" in f.read()
        h2 = read_edge_list(path)
        assert h2.edges_by_label() == h.edges_by_label()

    def test_plain_file_round_trip(self, tmp_path):
        h = Hypergraph(4, [[0, 1, 2], [2, 3]])
        path = tmp_path / "h.txt"
        write_edge_list(h, path)
        assert read_edge_list(path).edges_by_label() == h.edges_by_label()


def simplex_stream(nverts, flat_nodes) -> Hypergraph:
    """Read a simplex stream given as in-memory sizes and member labels."""
    return read_simplex_stream(
        io.StringIO("".join(f"{size}\n" for size in nverts)),
        io.StringIO("".join(f"{label}\n" for label in flat_nodes)),
    )


def dropped_count(caplog) -> int:
    """Single-node simplices the reader logged as dropped (0 if none)."""
    counts = [re.fullmatch(r"dropped (\d+) single-node simplices", r.getMessage())
              for r in caplog.records if r.name == "hypercp.ingest"]
    assert all(counts)
    return sum(int(c.group(1)) for c in counts)


class TestSimplexStream:
    def test_duplicate_simplices_merge(self, caplog):
        h = simplex_stream([2, 2], ["1", "2", "2", "1"])
        assert dropped_count(caplog) == 0
        assert h.m == 1
        assert h.weights.tolist() == [2.0]

    def test_singletons_dropped(self, caplog):
        h = simplex_stream([3, 1], ["1", "2", "3", "4"])
        assert dropped_count(caplog) == 1
        assert h.m == 1 and len(h.edges[0]) == 3

    def test_within_simplex_duplicates_collapse(self, caplog):
        h = simplex_stream([3], ["5", "5", "5"])
        assert dropped_count(caplog) == 1
        assert h.m == 0

    def test_multiplicity_weight(self):
        h = simplex_stream([2] * 7, ["a", "b"] * 7)
        assert h.weights.tolist() == [7.0]

    def test_weight_sum_counts_simplices(self, caplog):
        rng = np.random.default_rng(3)
        nverts, flat = [], []
        big = 0
        for _ in range(50):
            size = int(rng.integers(1, 5))
            nverts.append(size)
            flat.extend(str(x) for x in rng.choice(20, size=size, replace=False))
            if size >= 2:
                big += 1
        h = simplex_stream(nverts, flat)
        assert float(h.weights.sum()) == float(big)
        assert dropped_count(caplog) == 50 - big

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        simplices = [["a", "b"], ["c", "d", "e"], ["a", "b"], ["e", "a"]]
        perm = [simplices[i] for i in rng.permutation(4)]

        def to_h(sims):
            return simplex_stream([len(s) for s in sims], [x for s in sims for x in s])

        assert to_h(simplices).edges_by_label() == to_h(perm).edges_by_label()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="members"):
            simplex_stream([2, 2], ["1", "2", "3"])

    def test_file_reader(self, tmp_path, caplog):
        (tmp_path / "nverts.txt").write_text("2\n3\n1\n")
        (tmp_path / "simplices.txt").write_text("10\n11\n10\n11\n12\n99\n")
        h = read_simplex_stream(tmp_path / "nverts.txt", tmp_path / "simplices.txt")
        assert h.m == 2
        assert h.n == 3  # '99' only appears in the dropped singleton
        assert dropped_count(caplog) == 1

    def test_stream_loader_validates(self, tmp_path):
        (tmp_path / "nverts.txt").write_text("2\n2\n")
        (tmp_path / "simplices.txt").write_text("1\n2\n3\n")
        with pytest.raises(ValueError, match="members"):
            read_simplex_stream(tmp_path / "nverts.txt", tmp_path / "simplices.txt")
        (tmp_path / "nverts.txt").write_text("3\n0\n")
        with pytest.raises(ValueError, match="size must be >= 1"):
            read_simplex_stream(tmp_path / "nverts.txt", tmp_path / "simplices.txt")


class TestLabelSet:
    def test_reads_and_reports_missing(self):
        h = read_edge_list(io.StringIO("a b\nb c\n"))
        found, missing = read_label_set(io.StringIO("a c\nzz\n% note\n"), h)
        assert found == [0, 2]
        assert missing == ["zz"]

    def test_without_labels_uses_indices(self):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        found, missing = read_label_set(io.StringIO("0 2 7\n"), h)
        assert found == [0, 2]
        assert missing == ["7"]


def _text_from_oracle(n, edges, weights) -> str:
    offsets, members, merged = canonical_incidence(n, edges, weights)
    return "".join(
        " ".join(map(str, members[a:b].tolist())) + f" # w={w!r}\n"
        for a, b, w in zip(offsets.tolist(), offsets[1:].tolist(), merged.tolist())
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 15).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=6)
                     .filter(lambda e: len(set(e)) >= 2), max_size=30),
        )
    ),
    st.floats(1e-6, 1e6),
)
def test_write_read_write_keeps_bytes_and_structure(case, scale):
    n, edges = case
    weights = [scale * (1 + k % 3) / 7 for k in range(len(edges))]
    h = Hypergraph(n, edges, weights=weights)
    text = hypergraph_to_text(h)
    assert text == _text_from_oracle(n, edges, weights)
    h2 = read_edge_list(io.StringIO(text))
    assert h2.edges_by_label() == h.edges_by_label()
    # rereading reindexes labels by first appearance, so lines may
    # reorder, but each line's labels and weight bytes survive
    def lines(t):
        return sorted((sorted(line.split(" # ")[0].split()), line.split(" # ")[1])
                      for line in t.splitlines())
    text2 = hypergraph_to_text(h2)
    assert lines(text2) == lines(text)


# labels the text format can hold: no whitespace or '#', no leading '%'
_LABEL = st.text(alphabet='abc,"%1', min_size=1, max_size=3).filter(
    lambda lab: not lab.startswith("%"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_LABEL, min_size=2, max_size=6).filter(lambda row: len(set(row)) >= 2),
                max_size=25))
def test_edge_list_and_simplex_stream_agree(rows):
    # one simplex per line: both readers intern labels by first appearance,
    # collapse repeated labels in a row and count repeated rows as weight
    from_text = read_edge_list(io.StringIO("".join(" ".join(row) + "\n" for row in rows)))
    from_stream = simplex_stream([len(row) for row in rows], [lab for row in rows for lab in row])
    assert from_stream.n == from_text.n
    assert from_stream.labels == from_text.labels
    assert from_stream.offsets.tolist() == from_text.offsets.tolist()
    assert from_stream.members.tolist() == from_text.members.tolist()
    assert from_stream.weights.tolist() == from_text.weights.tolist()
