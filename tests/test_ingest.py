import gzip
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercp import Hypergraph, read_edge_list, write_edge_list
from hypercp.ingest import hypergraph_to_text, read_label_set

from helpers import canonical_incidence, edge_tuples, edges_by_label, random_hypergraph


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
        assert edge_tuples(h) == [(0, 1), (0, 2)]


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
        assert edges_by_label(h2) == edges_by_label(h) == edges_by_label(h3)

    def test_build_write_read_preserves_label_structure(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h1 = random_hypergraph(rng, 12, 18, weighted=True)
            h2 = read_edge_list(io.StringIO(hypergraph_to_text(h1)))
            assert h2.n == h1.n
            assert edges_by_label(h2) == edges_by_label(h1)

    def test_gzip_round_trip(self, tmp_path):
        h = Hypergraph(3, [[0, 1], [1, 2]], weights=[1.5, 2.0])
        path = tmp_path / "h.txt.gz"
        write_edge_list(h, path)
        with gzip.open(path, "rt") as f:
            assert "w=1.5" in f.read()
        h2 = read_edge_list(path)
        assert edges_by_label(h2) == edges_by_label(h)

    def test_plain_file_round_trip(self, tmp_path):
        h = Hypergraph(4, [[0, 1, 2], [2, 3]])
        path = tmp_path / "h.txt"
        write_edge_list(h, path)
        assert edges_by_label(read_edge_list(path)) == edges_by_label(h)


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
    assert edges_by_label(h2) == edges_by_label(h)
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
_ROW = st.lists(_LABEL, min_size=2, max_size=6).filter(lambda row: len(set(row)) >= 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ROW, st.sampled_from([None, 0.5, 3.0])), min_size=1, max_size=8)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=25)))
@example([(["a", "b", "a"], None), (["b", "a"], 0.5), (["c", "a"], None), (["a", "b"], None)])
def test_edge_list_reader_matches_dict_merge_oracle(rows):
    # rows drawn from a small pool repeat; labels from a small alphabet
    # repeat within a row.  Labels are interned by first appearance, a
    # repeated label collapses within its edge and repeated rows
    # (as label sets) merge, their weights summed in file order.
    text = "".join(" ".join(row) + ("" if w is None else f" # w={w!r}") + "\n" for row, w in rows)
    h = read_edge_list(io.StringIO(text))
    labels = list(dict.fromkeys(lab for row, _ in rows for lab in row))
    index = {lab: i for i, lab in enumerate(labels)}
    offsets, members, weights = canonical_incidence(
        len(labels), [[index[lab] for lab in row] for row, _ in rows],
        [1.0 if w is None else w for _, w in rows])
    assert h.n == len(labels)
    assert h.labels == labels
    assert h.offsets.tolist() == offsets.tolist()
    assert h.members.tolist() == members.tolist()
    assert h.weights.tolist() == weights.tolist()
