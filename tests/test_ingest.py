import gzip
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypercp import Hypergraph, read_edge_list, write_edge_list
from hypercp.hypergraph import sorted_rows
from hypercp.ingest import hypergraph_to_text, read_label_set

from helpers import (
    canonical_incidence,
    edge_tuples,
    edges_by_label,
    random_hypergraph,
    reference_hypergraph_to_text,
    reference_read_edge_list,
)


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

    def test_gzip_header_time_is_zero(self, tmp_path):
        # gzip's MTIME field, header bytes 4-7: a fixed time makes two
        # writes of one hypergraph give the same bytes
        path = tmp_path / "h.txt.gz"
        write_edge_list(Hypergraph(3, [[0, 1], [1, 2]]), path)
        assert path.read_bytes()[4:8] == bytes(4)

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

    def test_repeats_comments_and_separators(self):
        # a label repeated across lines is found once and a missing one
        # reported once; an indented '%' line is a comment; CRLF, tab and
        # ideographic space separate labels
        h = read_edge_list(io.StringIO("a b\nb c\nc d\n"))
        text = "c\ta\r\n  % b\r\nzz\u3000c a\r\n\r\nd zz\n"
        assert read_label_set(io.StringIO(text), h) == ([2, 0, 3], ["zz"])


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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=6)
                     .filter(lambda e: len(set(e)) >= 2), max_size=20),
        )
    ),
    st.data(),
)
@example((3, []), None)
def test_writer_matches_reference_comprehension(case, data):
    n, edges = case
    if data is None:
        weights, labels = None, None
    else:
        weights = data.draw(st.lists(
            st.sampled_from([1.0, 5e-324, 1 / 3, 1e308, 2.5e-7, 123456789.0]) | st.floats(1e-300, 1e300),
            min_size=len(edges), max_size=len(edges)))
        # equal edges merge, their weights summed in input order: the
        # constructor rejects a sum that overflows (1e308 twice)
        merged = {}
        for e, w in zip(edges, weights):
            merged[frozenset(e)] = merged.get(frozenset(e), 0.0) + w
        assume(all(map(math.isfinite, merged.values())))
        # 1- to 4-byte UTF-8, a lone surrogate as the reader can yield it, or plain indices
        labels = data.draw(st.none() | st.lists(
            st.text(alphabet="aé節𝄞\udc80%,", min_size=1, max_size=4).filter(lambda lab: lab[0] != "%"),
            min_size=n, max_size=n, unique=True))
    h = Hypergraph(n, edges, weights=weights, labels=labels)
    assert hypergraph_to_text(h) == reference_hypergraph_to_text(h)


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


def _read_or_error(read, source):
    """Everything the reader promises, or the exact error text."""
    try:
        h = read(source)
    except ValueError as exc:
        return str(exc)
    return h.n, h.offsets.tolist(), h.members.tolist(), h.weights.tobytes(), h.labels


def test_whitespace_sets_match_str_split():
    from hypercp.ingest import _WIDE_SPACE, _solid

    assert _solid(np.arange(256, dtype=np.uint8)).tolist() == [
        c >= 128 or not chr(c).isspace() for c in range(256)]
    wide = "".join(chr(c) for c in range(128, 0x110000) if chr(c).isspace())
    assert _WIDE_SPACE.findall(wide) == list(wide)
    assert _WIDE_SPACE.search("".join(chr(c) for c in range(128, 0x3001)
                                      if not chr(c).isspace())) is None


# one character of each whitespace class str.split knows, and none, which
# glues a word to the next word or to a '#'
_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
           "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
# 1-20 byte labels: NUL (so "a" and "a\0" must differ), multi-byte UTF-8,
# a lone surrogate, and pairs that agree on their first 8 bytes
_WORD = st.one_of(
    st.sampled_from(["a", "b", "a\0", "\0", "%a", "é", "節", "\ud800", "abcdefgh",
                     "abcdefgh\0", "abcdefghi", "abcdefghijklmnopqrst", "abcdefghijklmnopqrsu"]),
    st.text(alphabet=["a", "b", "\0", "é", "節"], min_size=1, max_size=6),
)
_TAIL = st.sampled_from(["", "", "#", "# w=2.5", "#w=0.5", " # w= 3", " # w=1_0", " # w=abc",
                         " # x=1", " #w", " # w=0", " # w=-1", " # w=nan", " # w=inf",
                         " # w=1e400", " # w=1 # 2", " # w=\u30002", " # w=", "# w=1.0"])
_LINE = st.tuples(st.sampled_from(["", "", "%", " %", "\u3000"]),
                  st.lists(st.tuples(_WORD, st.sampled_from(_SPACES)), max_size=5), _TAIL)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINE, max_size=8), st.lists(st.sampled_from(["\n", "\r\n"]), min_size=8, max_size=8),
       st.booleans())
@example([("", [("a", " "), ("b", " ")], ""), ("", [("a\0", " "), ("b", " ")], "")], ["\n"] * 8, False)
@example([("", [("a", " ")], ""), ("", [("a", " "), ("b", " ")], ""), ("", [("c", " ")], " # x=1")],
         ["\n"] * 8, True)
def test_reader_matches_reference_loop(lines, ends, trailing):
    text = "".join(lead + "".join(w + s for w, s in words) + tail + end
                   for (lead, words, tail), end in zip(lines, ends))
    if not trailing:
        text = text.rstrip("\n")
    assert (_read_or_error(read_edge_list, io.StringIO(text))
            == _read_or_error(reference_read_edge_list, io.StringIO(text)))


@pytest.mark.parametrize("name", ["h.txt", "h.txt.gz"])
def test_paths_translate_newlines_like_the_reference(tmp_path, name):
    text = "a b\rb c # w=2\r\n% c\rd\u3000a\n\n c  d \r"
    path = tmp_path / name
    with (gzip.open if name.endswith(".gz") else open)(path, "wt", encoding="utf-8", newline="") as f:
        f.write(text)
    h = read_edge_list(path)
    assert h.labels == ["a", "b", "c", "d"] and h.m == 4
    assert _read_or_error(read_edge_list, path) == _read_or_error(reference_read_edge_list, path)


@pytest.mark.parametrize("text, message", [
    # the first bad line in file order wins, whatever the kind of error
    ("a b\na\nc d\n# x=1\n", "line 2: a hyperedge needs at least 2 distinct labels"),
    ("a b\nc d # x=1\ne\n", "line 2: expected '# w=<float>', got 'x=1'"),
    ("a b # w=-1\nc d # w=x\n", "line 1: weight must be positive and finite, got -1.0"),
    ("a b\nc d # w=x\ne\nf g # y\n", "line 2: bad weight 'x'"),
    ("% a\n\n  b b # w=0\nc # w=x\n", "line 3: a hyperedge needs at least 2 distinct labels"),
    ("a b # w=inf\nc # x\n", "line 1: weight must be positive and finite, got inf"),
    # within a line: syntax, then the float, then the labels, then the value
    ("a # w=abc\n", "line 1: bad weight 'abc'"),
    ("a # x=0\n", "line 1: expected '# w=<float>', got 'x=0'"),
    ("a a # w=0\n", "line 1: a hyperedge needs at least 2 distinct labels"),
    ("# w=nan\n", "line 1: a hyperedge needs at least 2 distinct labels"),
    ("a b # w=nan\n", "line 1: weight must be positive and finite, got nan"),
    ("a b # w=\u3000x\n", "line 1: bad weight '\\u3000x'"),
    # a label that starts with '%' cannot be written back
    ("a %b\nb c\n", "line 1: label not representable in text format: '%b'"),
    ("a b\nc %d %e # w=0\n", "line 2: label not representable in text format: '%d'"),
    ("c %d # w=x\n", "line 1: bad weight 'x'"),
])
def test_first_bad_line_wins(text, message):
    for read in (read_edge_list, reference_read_edge_list):
        with pytest.raises(ValueError) as err:
            read(io.StringIO(text))
        assert str(err.value) == message


# rows of bytes with 0 and 255 (255 + 1 must not wrap to the padding's 0)
_BYTE_ROW = st.lists(st.sampled_from([0, 1, 97, 254, 255]), max_size=10).map(bytes)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _BYTE_ROW), max_size=24),
       st.binary(min_size=8, max_size=12), st.integers(0, 255))
@example([(False, b""), (True, b"\xff"), (True, b""), (False, b"\0"), (True, b"\xff\0"),
          (False, b"\xff"), (True, b"\0"), (True, b"\xff")], b"\xff" * 9, 0)
def test_sorted_rows_orders_byte_rows_like_sorted(rows, prefix, separator):
    # some rows share their first 8 or more bytes, so later passes run;
    # rows lie apart in one buffer, so reads past a row's end see other bytes
    rows = [prefix + row if shared else row for shared, row in rows]
    buf = np.frombuffer(bytes([separator]).join(rows) + bytes([separator]), dtype=np.uint8)
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    starts = np.cumsum(sizes + 1) - sizes - 1
    order, new = sorted_rows(buf, starts, sizes, 256)
    expected = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    assert order.tolist() == expected
    assert new.tolist() == [j == 0 or rows[expected[j]] != rows[expected[j - 1]]
                            for j in range(len(rows))]


def test_shared_prefix_labels_match_reference_loop():
    # thousands of labels and weight strings that agree on their first 8
    # or more bytes, so a refinement pass splits many tie groups at once
    rng = np.random.default_rng(32)
    names = [f"author_{i:07d}" for i in range(3000)] + [f"author_{i:07d}_x" for i in range(0, 3000, 7)]
    tails = ["", " # w=1.000000001", " # w=1.000000002", " # w=1.0000000010", " # w=2.5"]
    lines = [" ".join(rng.choice(names, size=rng.integers(2, 6))) + tails[rng.integers(len(tails))]
             for _ in range(5000)]
    text = "\n".join(lines) + "\n"
    assert read_edge_list(io.StringIO(text)).n > 3000
    assert (_read_or_error(read_edge_list, io.StringIO(text))
            == _read_or_error(reference_read_edge_list, io.StringIO(text)))


def test_long_label_memory_stays_linear():
    # with a key column per 8 bytes of the longest string for every string,
    # this 45 kB text peaked at about 100 MB
    text = "x" * 16_000 + " a\n" + "".join(f"a{i % 997} b{i % 991} c{i % 983}\n" for i in range(2000))
    tracemalloc.start()
    try:
        h = read_edge_list(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.labels[0] == "x" * 16_000 and h.m == 2001
    assert peak < 100 * len(text)


def test_merged_weight_past_float_range_rejected():
    # it was read as weight inf: the writer wrote w=inf, which the reader
    # rejects, and Borgatti-Everett returned NaN scores
    with pytest.raises(ValueError, match="merged weight of equal edges must be finite"):
        read_edge_list(io.StringIO("a b # w=1e308\na b # w=1e308\nb c\n"))


@pytest.mark.parametrize("name", ["h.txt", "h.txt.gz"])
def test_text_files_are_utf8(tmp_path, name):
    h = Hypergraph(3, [[0, 1], [1, 2]], weights=[1.5, 2.0], labels=["é", "節", "x"])
    path = tmp_path / name
    write_edge_list(h, path)
    data = path.read_bytes()
    if name.endswith(".gz"):
        data = gzip.decompress(data)
    assert data.decode("utf-8") == "é 節 # w=1.5\n節 x # w=2.0\n"
    h2 = read_edge_list(path)
    assert h2.labels == ["é", "節", "x"] and h2 == h
