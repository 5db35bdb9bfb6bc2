"""Benchmark inputs, built with numpy alone.

Nothing here imports ``hypercp``: the bytes the program under test reads
must not depend on the code being measured.  Hypergraphs are kept as a
flat incidence (``members`` concatenates the node ids of every edge,
``ptr`` holds the edge boundaries, CSR style) in the benchmark's own
node numbering, which is also the node label written to text files.
"""

from __future__ import annotations

import hashlib
import itertools
from math import comb

import numpy as np


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def arrays_sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def random_edges(rng: np.random.Generator, n: int, m: int, lo: int = 3, hi: int = 7):
    """Random hyperedges with sizes lo..hi drawn uniformly, in random order.

    Every edge has distinct nodes and no edge repeats, so the program's
    canonicalisation merges nothing and unit weights stay unit weights.
    Returns (members, ptr).
    """
    sizes = rng.integers(lo, hi + 1, size=m)
    valid = np.arange(hi) < sizes[:, None]
    mat = rng.integers(0, n, size=(m, hi))
    while True:
        # Padding gets distinct negative keys so only real repeats collide.
        keyed = np.sort(np.where(valid, mat, -1 - np.arange(hi)), axis=1)
        bad = np.flatnonzero(np.any(keyed[:, 1:] == keyed[:, :-1], axis=1))
        if bad.size == 0:
            break
        mat[bad] = rng.integers(0, n, size=(bad.size, hi))
    canon = np.sort(np.where(valid, mat, n), axis=1)
    _, first = np.unique(canon, axis=0, return_index=True)
    keep = np.sort(first)
    sizes, valid, mat = sizes[keep], valid[keep], mat[keep]
    return mat[valid].astype(np.int64), np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


def edge_list_text(members: np.ndarray, ptr: np.ndarray, suffix: bytes = b"") -> bytes:
    """The edge-list text format: one edge per line, decimal labels.

    Each line is its edge's node ids separated by single spaces, then
    `suffix` (for example b" # w=1.0"), then a newline.
    """
    vals = np.asarray(members, dtype=np.int64)
    if vals.size == 0:
        return b""
    pow10 = 10 ** np.arange(19, dtype=np.int64)
    ndig = np.searchsorted(pow10[1:], vals, side="right") + 1
    last = np.zeros(vals.size, dtype=bool)
    last[np.asarray(ptr[1:]) - 1] = True
    width = ndig + 1 + last * len(suffix)
    start = np.concatenate(([0], np.cumsum(width)[:-1]))
    buf = np.full(int(width.sum()), ord(" "), dtype=np.uint8)
    for d in range(int(ndig.max())):
        sel = ndig > d
        buf[start[sel] + d] = 48 + (vals[sel] // pow10[ndig[sel] - 1 - d]) % 10
    tail = start[last] + ndig[last]
    for j, ch in enumerate(suffix):
        buf[tail + j] = ch
    buf[tail + len(suffix)] = ord("\n")
    return buf.tobytes()


def planted_sample(n: int, max_size: int, q_mu: float, seed: int):
    """The planted-structure sample that ``hypercp generate`` should write.

    Replays the model with the same random stream: a rank permutation,
    then one uniform draw per candidate subset, candidates enumerated by
    size and then lexicographically, each kept with probability
    sigmoid(coreness / |e|).  Returns (members, ptr, ranks) with edges
    in canonical order (nodes sorted within an edge, edges sorted
    lexicographically); ranks[i] is node i's planted rank, 1 = most core.
    """
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(n).astype(np.int64) + 1
    node_of_rank = np.empty(n, dtype=np.int64)
    node_of_rank[ranks - 1] = np.arange(n)
    base = np.arange(1, n + 1, dtype=np.float64)
    core_term = ((n - base) / n) ** q_mu
    rows = []
    for r in range(2, max_size + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), r)),
            dtype=np.int64,
            count=comb(n, r) * r,
        ).reshape(-1, r)
        mu = np.sum(core_term[combos], axis=1) ** (1.0 / q_mu)
        prob = 1.0 / (1.0 + np.exp(-((1.0 / r) * mu)))
        keep = rng.random(prob.shape[0]) < prob
        edges = np.sort(node_of_rank[combos[keep]], axis=1)
        rows.append(np.pad(edges, ((0, 0), (0, max_size - r)), constant_values=-1))
    padded = np.concatenate(rows)
    padded = padded[np.lexsort(padded.T[::-1])]
    valid = padded >= 0
    ptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1)))).astype(np.int64)
    return padded[valid], ptr, ranks
