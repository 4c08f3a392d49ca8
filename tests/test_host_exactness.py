"""The numpy G(n,p) host and edge-deleting adversary against pure-Python oracles.

The oracles are the edge-list versions of `gnp` and `adversary_delete`: a
pair-by-pair comparison of p's binary digits with bits of the raw Philox
words, read in the block layout that `gnp` documents, and a greedy over a
list of edge tuples.  The `random` and `bipartite_push` greedy orders the
edges by bucket label, read pair by pair from raw words of the adversary's
stream in the same layout (`oracle_labels`), then by a pure-Python copy of
the keyed priority (the murmur3 finaliser on Python ints mod 2^w).  The
bit-matrix versions must reproduce their graphs exactly.

`adversary_delete` scans its 8 buckets in turn.  A bucket's keys between two
vertices that cannot run out of spare degree in it (safe vertices) are
deleted at word speed, and only the others are listed, sorted and scanned
by the greedy, which settles them one block of 4n keys at a time in the same
way.  The cases at n = 300 and 700 cover caps, classes and the triangle
killer; the cross-block cases (n of 1000 to 1400) scan buckets of dozens of
blocks, with a cap that runs out in a later block, a floor at the minimum
degree, and vertices whose live keys in a block equal their spare, and a
regular host covers buckets where every vertex is unsafe.  Each of those
also checks the blocked greedy against `reference_greedy_delete`, the
key-by-key scan it replaced, on every call's keys, and so does the
benchmark's resilience host at n = 4000, whose per-bucket key counts bound
the key buffers, memory maps that tracemalloc does not see.  Cases at
n = 1000 cover caps that run out in buckets 1, 2 and 4 (the last in the one
read that lists the last buckets among the few vertices with spare), a
bucket deleted whole but for the keys of its unsafe vertices, a cap inside a
bucket that would otherwise be deleted whole, a floor low enough that the
first buckets go whole, and bipartite_push at k = 3; each checks that a
bucket's listed keys carry its label and come in priority order.  One read
of the labels serving several buckets is checked against each pair's label,
and the priority order itself for a round trip, determinism and uniformity,
and the adversary for holding no array of keys in the heap.

`gnp` draws blocks of `_GNP_ROWS` rows, and a `PackedCopy` lists edge keys
`_KEY_ROWS` rows at a time and clears bits on packed bytes: the cases at n
from 1 to 1100 put rows and columns on both sides of a byte, a word and a
block, and compare with `reference_edge_keys` and `reference_without_edges`,
the code they replaced.  Both transpose 64 x 64 bit tiles with one helper,
checked against a bool-matrix transpose.  Neither path may hold an n x n
matrix: at n = 3000 the peak that tracemalloc sees stays under the n^2 bytes
of one bool matrix.  Nor may any n packed rows pass through the heap: kept
rows, a `PackedCopy`'s rows and `gnp`'s rows are written straight into a
memory map, which tracemalloc does not see, so at n = 3000 it sees a small
fraction of their n^2/8 bytes.
"""

import mmap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import bit_matrix, complete_graph, empty_graph
from spanembed import harness
from spanembed.graph_core import (
    _GNP_ROWS, _KEY_BLOCK, _KEY_ROWS, _ROW_BLOCK, Graph, PackedCopy, PairLabels, _columns, gnp, iter_bits, rng_for,
)
from spanembed.harness import ConfigError, _mix, _unmix, adversary_delete


def oracle_gnp(n, p, seed):
    """G(n, p) pair by pair from the raw words of `rng_for(seed, 0)`, in the layout
    that `gnp` documents.

    p's first eight binary digits and the remainder come from p as an exact
    fraction; if the remainder is 0, the digits stop after p's last 1.  For
    each block of 64 rows u0.. below n - 1, digit i takes one raw word per row
    u of the block and per word index w from u0 // 64 to the last, row by row;
    bit v % 64 of the word of (u, v // 64) is the digit of the pair (u, v).
    The pair is an edge when, at the first digit where it differs from p's,
    p's is 1.  Then each pair of the block whose digits all equal p's, in
    order of u and then v, is an edge when the next double is below the
    remainder.  p = 1 draws nothing.
    """
    adj = [0] * n
    if p == 1.0:
        return Graph(n, tuple(((1 << n) - 1) ^ (1 << u) for u in range(n)))
    if p > 0.0 and n > 1:
        scaled = Fraction(p) * 256
        top = scaled.numerator // scaled.denominator
        rest = scaled - top
        digits = [top >> (7 - i) & 1 for i in range(8)]
        if rest == 0:
            digits = digits[:max(i for i in range(8) if digits[i]) + 1]
        rng = rng_for(seed, 0)
        span = -(-n // 64)
        for u0 in range(0, n - 1, 64):
            block = range(u0, min(u0 + 64, n - 1))
            width = span - u0 // 64
            raw = [rng.bit_generator.random_raw(len(block) * width).tolist() for _ in digits]
            tied = []
            for u in block:
                for v in range(u + 1, n):
                    at, bit = (u - u0) * width + v // 64 - u0 // 64, v % 64
                    for i, digit in enumerate(digits):
                        if raw[i][at] >> bit & 1 != digit:
                            if digit:
                                adj[u] |= 1 << v
                                adj[v] |= 1 << u
                            break
                    else:
                        tied.append((u, v))
            if rest:
                for u, v in tied:
                    if rng.random() < rest:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# murmur3's fmix32 and fmix64 by word width: shifts, then odd multipliers
FMIX = {32: ((16, 13, 16), (0x85EBCA6B, 0xC2B2AE35)), 64: ((33, 33, 33), (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53))}


def oracle_fmix(h, width):
    (s0, s1, s2), (c0, c1) = FMIX[width]
    mask = (1 << width) - 1
    h ^= h >> s0
    h = h * c0 & mask
    h ^= h >> s1
    h = h * c1 & mask
    return h ^ (h >> s2)


def oracle_labels(n, rng, digits):
    """Each pair's bucket label, pair by pair from the raw words of `rng` in the
    layout that `gnp` documents, as a function of (u, v), u < v.

    For each block of 64 rows u0.. below n - 1, digit i of the label takes
    one raw word per row u of the block and per word index w from u0 // 64
    to the last, row by row; bit v % 64 of the word of (u, v // 64) is the
    pair's digit, and digit 0 is the label's top binary digit.
    """
    span = -(-n // 64)
    raw = {}
    for u0 in range(0, n - 1, 64):
        rows = min(u0 + 64, n - 1) - u0
        raw[u0] = [rng.bit_generator.random_raw(rows * (span - u0 // 64)).tolist() for _ in range(digits)]

    def label(u, v):
        u0 = u - u % 64
        at, bit = (u - u0) * (span - u0 // 64) + v // 64 - u0 // 64, v % 64
        return sum((words[at] >> bit & 1) << (digits - 1 - i) for i, words in enumerate(raw[u0]))

    return label


def oracle_scan_order(edges, n, rng):
    """`edges` sorted by their bucket label, then by the priority fmix(key ^ salt)
    of their keys u * n + v: one salt word drawn from `rng`, then the labels'
    words (`oracle_labels`, log2 of `harness._BUCKETS` digits).  The words
    are 32 bits wide when the keys fit an int32, as for n * n < 2^31."""
    width = 32 if n * n < 2**31 else 64
    salt = int(rng.integers(0, 1 << width, dtype=f"u{width // 8}"))
    label = oracle_labels(n, rng, harness._BUCKETS.bit_length() - 1)
    return sorted(edges, key=lambda e: (label(*e), oracle_fmix((e[0] * n + e[1]) ^ salt, width)))


def oracle_adversary_delete(g, strategy, gamma, k, p, seed=0, budget=None, target=0):
    n = g.n
    floor = ((k - 1) / k + gamma) * p * n
    deg = [g.degree(v) for v in range(n)]
    rng = rng_for(seed, stream=101)

    def greedy(edges, cap):
        out = []
        for u, v in edges:
            if cap is not None and len(out) >= cap:
                break
            if deg[u] - 1 >= floor - 1e-9 and deg[v] - 1 >= floor - 1e-9:
                deg[u] -= 1
                deg[v] -= 1
                out.append((u, v))
        return out

    if strategy == "random":
        return g.without_edges(greedy(oracle_scan_order(list(g.edges()), n, rng), budget))
    if strategy == "triangle_killer":
        nbrs = list(iter_bits(g.neighbours(target)))
        inside = [(u, v) for ii, u in enumerate(nbrs) for v in nbrs[ii + 1:] if g.has_edge(u, v)]
        order = rng.permutation(len(inside))
        ranked = sorted((inside[int(i)] for i in order), key=lambda e: -(deg[e[0]] + deg[e[1]]))
        g2 = g.without_edges(greedy(ranked, None))
        if any(g2.has_edge(u, v) for ii, u in enumerate(nbrs) for v in nbrs[ii + 1:]):
            raise ConfigError("triangle_killer blocked by the degree floor")
        return g2
    assert strategy == "bipartite_push"
    classes = [int(x) for x in rng.integers(0, k, size=n)]
    edges = [(u, v) for u, v in g.edges() if classes[u] == classes[v]]
    return g.without_edges(greedy(oracle_scan_order(edges, n, rng), budget))


@pytest.mark.parametrize(
    "n,p,seed",
    [(1, 0.5, 0), (2, 1.0, 0), (2, 0.5, 1), (3, 0.5, 2), (9, 0.3, 5), (50, 1.0, 1), (50, 0.0, 1), (301, 0.4, 3),
     (7, 0.5, 1), (8, 0.5, 2), (9, 1.0, 3), (511, 0.4, 4), (512, 0.4, 5), (513, 0.4, 6), (513, 1.0, 0),
     (700, 0.3, 7), (1025, 0.3, 8),
     (127, 0.4, 9), (128, 0.4, 10), (129, 0.4, 11), (257, 0.4, 12),
     (127, 1.0, 13), (128, 1.0, 14), (129, 1.0, 15), (257, 1.0, 16),
     (_GNP_ROWS - 1, 0.4, 17), (_GNP_ROWS, 0.4, 18), (_GNP_ROWS + 1, 0.4, 19), (2 * _GNP_ROWS + 1, 0.4, 20),
     (_GNP_ROWS - 1, 1.0, 21), (_GNP_ROWS, 1.0, 22), (_GNP_ROWS + 1, 1.0, 23), (2 * _GNP_ROWS + 1, 1.0, 24),
     (2 * _GNP_ROWS + 2, 0.5, 25), (2 * _GNP_ROWS + 2, 0.25, 26)],
)
def test_gnp_matches_oracle(n, p, seed):
    assert gnp(n, p, seed) == oracle_gnp(n, p, seed)


def reference_edge_keys(a):
    """The key builder that the blocked listing replaced, on the symmetric bool matrix `a`."""
    n = a.shape[0]
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    keys = np.empty(int(np.count_nonzero(a)) // 2, dtype=dtype)
    at = 0
    for u in range(n - 1):
        row = np.flatnonzero(a[u, u + 1:])
        keys[at:at + len(row)] = row + (u * n + u + 1)
        at += len(row)
    return keys


def reference_without_edges(g, edges):
    """The int-row deletion that `Graph.without_edges` replaced."""
    adj = list(g.adj)
    for u, v in edges:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def listed_keys(g, vertices=None):
    """The keys that a fresh `PackedCopy` of g lists for `vertices`, block by block."""
    return list(PackedCopy(g).edge_key_blocks(vertices))


@pytest.mark.parametrize(
    "n,p,seed",
    [(1, 0.5, 0), (7, 0.5, 1), (9, 0.6, 2), (513, 0.3, 3), (1100, 0.2, 4), (65, 0.5, 5), (130, 1.0, 6), (63, 0.0, 7),
     (1030, 0.3, 8)],
)
def test_edge_keys_match_reference(n, p, seed):
    """A `PackedCopy` lists the keys u * n + v of the whole graph, or of the
    subgraph induced on an ascending vertex list, in `edges()` order, one
    int64 block for each `_KEY_ROWS` rows of the list.  The lists include all vertices but one, all of them passed
    explicitly and every other vertex, which the packed mask of the list
    must cut on both sides of a byte and a word."""
    g = gnp(n, p, seed)
    a = bit_matrix(g)
    rng = rng_for(seed, stream=3)
    lists = (np.flatnonzero(rng.random(n) < 0.6), np.arange(1, n, 3), np.arange(n - 1, n), np.arange(0),
             np.delete(np.arange(n), n // 2), np.arange(n), np.arange(0, n, 2))
    for vs in (None, *lists):
        size = n if vs is None else len(vs)
        blocks = listed_keys(g, vs)
        assert len(blocks) == -(-size // _KEY_ROWS)
        keys = np.concatenate(blocks + [np.zeros(0, dtype=np.int64)])
        assert all(b.dtype == np.int64 for b in blocks)
        for i0, block in zip(range(0, size, _KEY_ROWS), blocks):  # each block's rows, in order
            rows = np.arange(n)[i0:i0 + _KEY_ROWS] if vs is None else vs[i0:i0 + _KEY_ROWS]
            assert np.isin(block // n, rows).all()
        at = np.arange(n) if vs is None else vs
        i, j = np.divmod(reference_edge_keys(a[np.ix_(at, at)]).astype(np.int64), size)
        assert np.array_equal(keys, at[i] * n + at[j])
    assert np.concatenate(listed_keys(g)).tolist() == [u * n + v for u, v in g.edges()]


@pytest.mark.parametrize("n,p,seed", [(8, 0.9, 0), (9, 0.5, 1), (520, 0.3, 2), (1030, 0.1, 3)])
def test_deletion_matches_reference_and_keeps_the_source(n, p, seed):
    """`Graph.without_edges` and `PackedCopy.delete` against the int-row deletion:
    unsorted keys with repeats, both orders of an edge, absent edges and a
    loop, as int64 or int32; no keys; and every key twice, more than
    `_KEY_BLOCK` keys on the largest host.  The copy is taken from kept rows,
    or packed afresh from the tuples of a twin built by `from_edges`, and the
    source is left as it was."""
    g = gnp(n, p, seed)
    adj = g.adj
    rng = rng_for(seed, stream=4)
    edges = list(g.edges())
    pairs = [edges[int(i)] for i in rng.choice(len(edges), size=len(edges) // 3)]  # with repeats
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]  # either order
    pairs += [(0, n - 1), (n - 1, 0), (n // 2, n // 2)]  # maybe absent, and a loop
    expect = reference_without_edges(g, pairs)
    keys = np.array([u * n + v for u, v in pairs])
    every = np.array([u * n + v for u, v in edges])
    assert g.without_edges(pairs) == expect
    assert g.without_edges([]) == g
    for ks, out in ((keys, expect), (keys.astype(np.int32), expect), (np.zeros(0, dtype=np.int32), g),
                    (np.concatenate([every, every[::-1]]), empty_graph(n))):
        edit = PackedCopy(g)
        edit.delete(ks)
        assert edit.graph() == out
    if n > 1000:
        assert 2 * len(every) > _KEY_BLOCK
    assert g.adj == adj
    twin = Graph.from_edges(n, edges)
    edit = PackedCopy(twin)
    edit.delete(keys)
    assert edit.graph() == expect and twin.without_edges(pairs) == expect
    assert twin._rows is None and twin == g


def packed(a):
    """The rows of the bool matrix `a` as packed little-endian words, 64 columns a word."""
    bytes_ = np.packbits(a, axis=1, bitorder="little")
    out = np.zeros((len(a), 8 * -(-a.shape[1] // 64)), dtype=np.uint8)
    out[:, :bytes_.shape[1]] = bytes_
    return out.view("<u8")


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 700])
def test_tile_transpose_matches_bool_transpose(n):
    """`_columns`, the bit-tile transpose that `gnp` and `PackedCopy.graph()`
    share, against a bool-matrix transpose: each block of at most 64 rows of a
    random n x n matrix becomes the words of its columns.  A `PackedCopy`
    whose upper triangle lost random edges rebuilds its lower triangle to
    match."""
    rng = rng_for(n, stream=5)
    a = rng.random((n, n)) < 0.5
    rows = packed(a)
    for u0 in range(0, n, 64):
        cols = _columns(rows[u0:u0 + 64])
        bits = np.unpackbits(cols.view(np.uint8), bitorder="little").reshape(-1, 64).view(bool)
        assert np.array_equal(bits[:n, :len(a[u0:u0 + 64])], a[u0:u0 + 64].T) and not bits[n:].any()
    g = gnp(n, 0.5, n)
    edges = list(g.edges())
    drop = [edges[int(i)] for i in rng.choice(len(edges), size=len(edges) // 2)] if edges else []
    edit = PackedCopy(g)
    edit.delete(np.array([u * n + v if rng.random() < 0.5 else v * n + u for u, v in drop], dtype=np.int64))
    assert edit.graph() == reference_without_edges(g, drop)


@pytest.mark.parametrize("n,classes", [(130, None), (300, None), (300, 3)])
def test_label_reads_match_brute_force(n, classes):
    """One read of `PairLabels` serving a count, a take and a whole listing of
    two labels, over random live vertices (and classes), against each pair's
    label read as `oracle_labels` reads it: the counts per vertex, the listed
    keys, and the rows left, less the keys with two safe ends."""
    g = gnp(n, 0.5, n)
    rng = rng_for(n, stream=6)
    live = rng.random(n) < 0.8
    safe = rng.random(n) < 0.7
    group = None if classes is None else rng.integers(0, classes, size=n)
    labels = PairLabels(n, rng_for(n, stream=7), 3)
    label = oracle_labels(n, rng_for(n, stream=7), 3)
    out = [np.zeros(g.m, dtype=np.int64) for _ in range(2)]
    edit = PackedCopy(g)
    occ, took, listed = edit.read_labels(
        labels, live, group, [(2, None, None), (2, safe, out[0]), (5, np.zeros(n, dtype=bool), out[1])]
    )
    keys = {b: [(u, v) for u, v in g.edges() if label(u, v) == b and live[u] and live[v]
                and (group is None or group[u] == group[v])] for b in (2, 5)}
    assert occ.tolist() == np.bincount(np.array(keys[2], dtype=np.int64).ravel(), minlength=n).tolist()
    cleared = [e for e in keys[2] if safe[e[0]] and safe[e[1]]]
    assert sorted(out[0][:took].tolist()) == sorted(u * n + v for u, v in keys[2] if (u, v) not in set(cleared))
    assert sorted(out[1][:listed].tolist()) == [u * n + v for u, v in keys[5]]
    assert edit.graph() == reference_without_edges(g, cleared)


def test_deletion_rejects_an_end_outside_the_graph():
    g = complete_graph(9)
    for pairs in ([(0, 9)], [(9, 0)], [(-1, 3)], [(3, -1)], [(1, 2), (2, 10)]):
        with pytest.raises(ValueError, match="outside"):
            g.without_edges(pairs)
    assert g == complete_graph(9)


@pytest.mark.parametrize(
    "strategy,p,gamma,k,seed,budget,target",
    [
        ("random", 0.4, 0.2, 2, 0, None, 0),
        ("random", 0.4, 0.05, 3, 1, 500, 0),
        ("bipartite_push", 0.4, 0.2, 2, 3, None, 0),
        ("bipartite_push", 0.4, 0.05, 3, 4, 200, 0),
        ("triangle_killer", 0.3, 0.05, 2, 2, None, 0),
        ("triangle_killer", 0.3, 0.0, 2, 1, None, 7),
    ],
)
def test_adversary_matches_oracle(strategy, p, gamma, k, seed, budget, target):
    host = gnp(300, p, seed)
    args = (host, strategy, gamma, k, p)
    kwargs = dict(seed=seed, budget=budget, target=target)
    expect = oracle_adversary_delete(*args, **kwargs)
    assert expect.m < host.m
    if budget is not None:
        assert host.m - expect.m == budget  # the cap binds
    assert adversary_delete(*args, **kwargs) == expect


@pytest.mark.parametrize(
    "strategy,p,gamma,k,seed,budget",
    [("random", 0.5, 0.2, 2, 0, None), ("random", 0.5, 0.2, 2, 1, 3000),
     ("bipartite_push", 0.5, 0.2, 2, 2, None), ("triangle_killer", 0.8, 0.05, 1, 3, None)],
)
def test_adversary_across_row_blocks_matches_oracle(strategy, p, gamma, k, seed, budget):
    """At n = 700 the host's rows, and the 560 or so neighbours whose edges the
    triangle killer reads, span two row blocks."""
    host = gnp(700, p, seed)
    assert host.n > _ROW_BLOCK and (strategy != "triangle_killer" or host.degree(0) > _ROW_BLOCK)
    args = (host, strategy, gamma, k, p)
    expect = oracle_adversary_delete(*args, seed=seed, budget=budget)
    assert expect.m < host.m
    assert adversary_delete(*args, seed=seed, budget=budget) == expect


def test_blocked_triangle_killer_matches_oracle():
    host = gnp(300, 0.4, 5)
    for fn in (oracle_adversary_delete, adversary_delete):
        with pytest.raises(ConfigError, match="blocked"):
            fn(host, "triangle_killer", 0.2, 2, 0.4, seed=5, target=0)


def reference_greedy_delete(a, keys, spare, cap):
    """The key-by-key greedy that `harness._greedy_delete` replaced; `spare` is a list."""
    n = a.shape[0]
    size = 4 * n  # the greedy's block
    left = len(keys) if cap is None else cap
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(keys), size):
        if left <= 0:
            break
        # Spare degree only falls, so an edge with a spent end at the start of
        # the block is skipped by the scan as well; drop those up front.
        has = np.asarray(spare) > 0
        bu, bv = np.divmod(keys[start:start + size], n)
        live = np.flatnonzero(has[bu] & has[bv])
        block = []
        for i, u, v in zip(live.tolist(), bu[live].tolist(), bv[live].tolist()):
            if spare[u] > 0 and spare[v] > 0:
                spare[u] -= 1
                spare[v] -= 1
                block.append(i)
                left -= 1
                if left <= 0:
                    break
        hits.append(np.asarray(block, dtype=np.int64) + start)
    du, dv = np.divmod(keys[np.concatenate(hits)], n)
    a[du, dv] = False
    a[dv, du] = False


@pytest.fixture
def greedy_calls(monkeypatch):
    """Each `_greedy_delete` call the adversary makes: its inputs, then the keys it selects and the spare it leaves."""
    calls = []
    greedy = harness._greedy_delete

    def recording(keys, spare, cap):
        inputs = (keys.copy(), spare.tolist(), cap)
        count = greedy(keys, spare, cap)
        calls.append((inputs, keys[:count].copy(), spare.tolist()))
        return count

    monkeypatch.setattr(harness, "_greedy_delete", recording)
    return calls


def assert_matches_reference(call):
    """Run the reference on the call's inputs and compare what both delete and leave;
    the selected keys must also come in scan order.  The call's record is left as it was."""
    (keys, spare, cap), got, got_spare = call
    n = len(spare)
    expect = np.ones((n, n), dtype=bool)
    spare = list(spare)  # the reference debits it in place
    reference_greedy_delete(expect, keys, spare, cap)
    du, dv = np.divmod(got, n)
    deleted = np.ones((n, n), dtype=bool)
    deleted[du, dv] = False
    deleted[dv, du] = False
    assert np.array_equal(deleted, expect)
    assert spare == got_spare
    order = np.argsort(keys)
    assert (np.diff(order[np.searchsorted(keys, got, sorter=order)]) > 0).all()


def block_profile(keys, spare, n):
    """Per block of the scan while some vertex has spare, over the vertices
    with spare at its start: the share whose live keys in the block outnumber
    their spare (unsafe), and the numbers whose live keys equal their spare
    and exceed it by one."""
    spare = list(spare)
    out = []
    for start in range(0, len(keys), 4 * n):
        block = keys[start:start + 4 * n]
        sp = np.asarray(spare)
        has = sp > 0
        if not has.any():
            break
        bu, bv = np.divmod(block, n)
        live = has[bu] & has[bv]
        occ = np.bincount(bu[live], minlength=n) + np.bincount(bv[live], minlength=n)
        out.append((float(np.mean(occ[has] > sp[has])), int(np.sum(occ[has] == sp[has])),
                    int(np.sum(occ[has] == sp[has] + 1))))
        reference_greedy_delete(np.zeros((n, n), dtype=bool), block, spare, None)
    return out


@pytest.mark.parametrize(
    "strategy,n,p,gamma,k,seed,budget,target",
    [
        ("random", 1000, 0.6, 0.2, 2, 0, None, 0),
        ("random", 1000, 0.6, 0.2, 2, 1, 80_000, 0),  # 89 992 deletions uncapped, 75 267 after bucket 1
        ("bipartite_push", 1400, 0.6, 0.2, 2, 2, None, 0),
        ("triangle_killer", 1100, 0.8, 0.05, 1, 3, None, 5),
    ],
)
def test_cross_block_adversary_matches_oracle(greedy_calls, strategy, n, p, gamma, k, seed, budget, target):
    """The one bucket scanned whole in order (the triangle killer's keys) spans
    several blocks of the greedy."""
    host = gnp(n, p, seed)
    args = (host, strategy, gamma, k, p)
    kwargs = dict(seed=seed, budget=budget, target=target)
    expect = oracle_adversary_delete(*args, **kwargs)
    assert adversary_delete(*args, **kwargs) == expect
    assert max(len(keys) for (keys, _, _), _, _ in greedy_calls) >= 4 * (4 * n)
    for call in greedy_calls:
        assert_matches_reference(call)
    if budget is not None:
        assert budget > 4 * n  # so the cap runs out after the first block
        assert host.m - expect.m == budget


@pytest.mark.parametrize("slack", [0, 100])
def test_tight_floor_matches_oracle(greedy_calls, slack):
    host = gnp(1000, 0.6, 1)
    gamma = (host.min_degree() - slack - 0.5) / (0.6 * 1000) - 1 / 2  # floor `slack` under the min degree at k = 2
    expect = oracle_adversary_delete(host, "random", gamma, 2, 0.6, seed=1)
    assert adversary_delete(host, "random", gamma, 2, 0.6, seed=1) == expect
    for call in greedy_calls:
        assert_matches_reference(call)
    if slack == 0:
        # spare from 0 up, under the ~75 keys a vertex has in a bucket: bucket
        # 0 is listed but for the keys between safe vertices, and its scan
        # has vertices on both sides of the safe test's `<=` boundary in its
        # second block
        (keys, spare, _), _, _ = greedy_calls[0]
        profile = block_profile(keys, spare, host.n)
        assert len(profile) >= 4 and profile[1][1] > 0 and profile[1][2] > 0
    else:
        # spare far above a bucket's keys: every vertex is safe in bucket 0,
        # which is deleted whole at word speed with no key listed
        assert len(greedy_calls[0][0][0]) == 0 and len(greedy_calls[1][0][0]) > 0


def test_regular_host_floor_matches_oracle(greedy_calls):
    """K_300 with a spare of 1 at every vertex, so that the greedy picks a
    maximal matching: each vertex's ~37 keys in bucket 0 outnumber its spare,
    so no key is deleted at word speed, and each vertex's ~8 live keys in the
    scan's first block outnumber it too, so the Python scan reads that block
    whole."""
    n = 300
    host = complete_graph(n)
    gamma = (n - 2.5) / n - 1 / 2  # floor 1.5 under the degree n - 1 at k = 2, p = 1
    expect = oracle_adversary_delete(host, "random", gamma, 2, 1.0, seed=2)
    assert adversary_delete(host, "random", gamma, 2, 1.0, seed=2) == expect
    (keys, spare, _), _, _ = greedy_calls[0]
    assert set(spare) == {1}
    profile = block_profile(keys, spare, n)
    for call in greedy_calls:
        assert_matches_reference(call)
    assert len(profile) >= 4 and profile[0][0] == 1.0


def test_blocked_triangle_killer_greedy_matches_reference(greedy_calls):
    host = gnp(1100, 0.8, 3)
    for fn in (oracle_adversary_delete, adversary_delete):
        with pytest.raises(ConfigError, match="blocked"):
            fn(host, "triangle_killer", 0.3, 1, 0.8, seed=3, target=5)
    assert len(greedy_calls[0][0][0]) >= 4 * (4 * host.n)
    for call in greedy_calls:
        assert_matches_reference(call)


def test_resilience_host_matches_reference(greedy_calls):
    """The `resilience-gnp-n4000` benchmark host, seed 0, with 3 200 032 edges
    and about 400 000 in each of the 8 buckets.  Every vertex is safe in bucket
    0, which is deleted with no key listed, and 7 are unsafe in bucket 1, so
    its scan lists 1452 keys.  Bucket 2 is listed whole, 399 691 keys, and
    leaves 572 of the 4000 vertices with spare degree, so buckets 3 to 7,
    listed among those alone, hold about 8900 keys each.  The keys live in
    memory maps, which tracemalloc does not see, so these counts are what
    bound them."""
    host = gnp(4000, 0.4, 0)
    adversary_delete(host, "random", 0.2, 2, 0.4, seed=0)
    counts = [len(keys) for (keys, _, _), _, _ in greedy_calls]
    with_spare = [sum(s > 0 for s in spare) for (_, spare, _), _, _ in greedy_calls]
    assert len(counts) == harness._BUCKETS == 8
    assert counts[:3] == [0, 1452, 399_691] and max(counts[3:]) <= 0.003 * host.m
    assert with_spare[:4] == [host.n, host.n, 3992, 572]
    for call in greedy_calls:
        assert_matches_reference(call)


def scan_stream(strategy, k, n, seed):
    """The salt of the adversary's int32 priority words at `seed` and its bucket
    labels (`oracle_labels`): `bipartite_push` draws its classes from the same
    stream first."""
    rng = rng_for(seed, stream=101)
    if strategy == "bipartite_push":
        rng.integers(0, k, size=n)
    salt = rng.integers(0, 1 << 32, dtype="u4")
    return salt, oracle_labels(n, rng, harness._BUCKETS.bit_length() - 1)


@pytest.mark.parametrize(
    "strategy,k,gamma,seed,budget",
    [
        ("random", 2, 0.2, 1, 60_000),  # 37 830 deletions in bucket 0, 75 267 after bucket 1
        ("random", 2, 0.2, 1, 80_000),  # 89 106 after bucket 2
        ("random", 2, 0.2, 1, 89_900),  # 89 760 after bucket 3, 89 917 after bucket 4, 89 992 uncapped
        ("random", 2, 0.0, 1, None),  # buckets 0 to 2 deleted whole, 594 of the 1000 vertices keep spare past bucket 3
        ("bipartite_push", 3, 0.05, 2, None),  # buckets 0 to 4 spend no vertex
    ],
)
def test_later_buckets_match_oracle(greedy_calls, strategy, k, gamma, seed, budget):
    """Each bucket of the scan order in turn: a cap that runs out in bucket 1,
    which the cap has listed whole, one that runs out in bucket 2, listed
    whole in the read of bucket 1, and one that runs out in bucket 4, in the
    last read, which lists buckets 3 to 7 among the few vertices that still
    have spare degree; a floor low enough that the first buckets are deleted
    whole, and bipartite_push at k = 3.  Each bucket's listed keys have its
    label, and are scanned in priority order."""
    n, p = 1000, 0.6
    host = gnp(n, p, seed)
    args = (host, strategy, gamma, k, p)
    expect = oracle_adversary_delete(*args, seed=seed, budget=budget)
    assert adversary_delete(*args, seed=seed, budget=budget) == expect
    for call in greedy_calls:
        assert_matches_reference(call)
    salt, label = scan_stream(strategy, k, n, seed)
    for bucket, ((keys, _, _), _, _) in enumerate(greedy_calls):
        words = keys.view("u4").copy()
        _mix(words, salt)
        assert all(label(*divmod(int(key), n)) == bucket for key in keys)
        assert (np.diff(words.astype(np.int64)) > 0).all()
    deleted = [len(got) for _, got, _ in greedy_calls]
    if budget is not None:
        last = 1 if budget < 75_267 else 2 if budget < 89_106 else 4
        assert len(greedy_calls) == last + 1 and host.m - expect.m == budget
        assert greedy_calls[last][0][2] == deleted[last] > 0  # the cap binds there
        if last == 1:  # bucket 1 is listed whole, although all but 25 vertices are safe in it
            assert len(greedy_calls[1][0][0]) == sum(label(u, v) == 1 for u, v in host.edges())
    else:
        assert len(greedy_calls) == harness._BUCKETS
    if gamma == 0.0:
        assert [len(keys) for (keys, _, _), _, _ in greedy_calls[:3]] == [0, 0, 0]
        assert sum(s > 0 for s in greedy_calls[3][2]) > n // 2


def test_whole_bucket_lists_only_keys_at_unsafe_vertices(greedy_calls):
    """Bucket 1 of the n = 1000 host at seed 1 holds 37 612 keys and 25 unsafe
    vertices: the keys between safe vertices are deleted at word speed, and
    the scan lists the 1999 others, each with an unsafe end, in order."""
    n, p = 1000, 0.6
    host = gnp(n, p, 1)
    expect = oracle_adversary_delete(host, "random", 0.2, 2, p, seed=1)
    assert adversary_delete(host, "random", 0.2, 2, p, seed=1) == expect
    _, label = scan_stream("random", 2, n, 1)
    (keys, spare, _), _, _ = greedy_calls[1]
    start = np.asarray(greedy_calls[0][2])  # spare at bucket 1's start
    ends = np.array([e for e in host.edges() if label(*e) == 1])
    occ = np.bincount(ends.ravel(), minlength=n)
    unsafe = occ > start
    assert len(ends) == 37_612 and np.count_nonzero(unsafe) == 25 and len(keys) == 1999
    u, v = np.divmod(keys.astype(np.int64), n)
    assert (unsafe[u] | unsafe[v]).all()
    assert np.count_nonzero(unsafe[ends[:, 0]] | unsafe[ends[:, 1]]) == len(keys)
    assert_matches_reference(greedy_calls[1])


def test_cap_inside_a_whole_bucket_lists_it_in_order(greedy_calls):
    """Every vertex is safe in bucket 0 of the n = 1000 host at seed 1, so it
    would be deleted whole; a cap of 20 000 of its 37 830 keys needs its
    order, so the scan lists all of them and stops there."""
    n, p = 1000, 0.6
    host = gnp(n, p, 1)
    expect = oracle_adversary_delete(host, "random", 0.2, 2, p, seed=1, budget=20_000)
    assert adversary_delete(host, "random", 0.2, 2, p, seed=1, budget=20_000) == expect
    assert host.m - expect.m == 20_000 and len(greedy_calls) == 1
    (keys, _, cap), got, _ = greedy_calls[0]
    assert len(keys) == 37_830 and cap == len(got) == 20_000
    assert_matches_reference(greedy_calls[0])


def traced_peak(fn, *args):
    """Bytes that `fn(*args)` holds at its peak, beyond what was live before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_host_and_adversary_hold_no_square_matrix():
    """At n = 3000 an n x n bool matrix is 9 MB: `gnp` stays under it, and the
    `random` adversary under it plus its int32 keys."""
    n, p = 3000, 0.4
    assert traced_peak(gnp, n, p, 0) < n * n
    host = gnp(n, p, 0)
    assert traced_peak(adversary_delete, host, "random", 0.2, 2, p) < 4 * host.m + n * n


def in_memory_map(a):
    """Whether the `.base` chain of array `a` ends in a buffer of an `mmap.mmap`."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


def test_packed_rows_are_written_once_into_a_memory_map():
    """At n = 3000 the packed rows take n^2/8 = 1.1 MB.  The rows that
    `Graph(n, masks)` packs, and a `PackedCopy` of kept rows or of the tuples
    of a graph built by `from_edges`, are written straight into a memory map:
    what tracemalloc sees of each stays under n^2/64 bytes.  Kept rows stay
    read-only, and a copy of them is writable."""
    n = 3000
    g = gnp(n, 0.4, 0)
    masks, twin = g.adj, Graph.from_edges(n, g.edges())
    assert traced_peak(PackedCopy, g) < n * n // 64
    assert traced_peak(Graph, n, masks) < n * n // 64
    assert traced_peak(PackedCopy, twin) < n * n // 64
    rows, edit = g.packed_rows(), PackedCopy(g)
    assert in_memory_map(rows) and in_memory_map(edit._rows) and in_memory_map(Graph(n, masks).packed_rows())
    assert in_memory_map(PackedCopy(twin)._rows)
    assert not rows.flags.writeable and edit._rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0


@pytest.mark.parametrize("n", [70, 3000])
def test_copy_hands_its_rows_to_its_graph(n):
    """`PackedCopy.graph()` gives the result the copy's mapped rows as its kept
    rows, read-only, so its `packed_rows()` packs nothing; the copy deletes
    nothing after that."""
    g = gnp(n, 0.4, 1)
    edit = PackedCopy(g)
    edit.delete(np.concatenate(listed_keys(g))[::3])
    h = edit.graph()
    rows = h.packed_rows()
    assert in_memory_map(rows) and np.shares_memory(rows, edit._rows)
    assert not rows.flags.writeable and np.array_equal(rows, Graph(n, h.adj).packed_rows())
    assert traced_peak(h.packed_rows) < 1024 and h.packed_rows() is rows
    with pytest.raises(ValueError, match="read-only"):
        edit.delete(np.array([u * n + v for u, v in h.edges()][:1]))
    assert h == Graph(n, h.adj)


def test_gnp_holds_only_small_blocks():
    """At n = 3000 `gnp` holds, in what tracemalloc sees, less than n^2/32
    bytes: its packed rows are in a memory map, which its result keeps, and
    only blocks of `_GNP_ROWS` rows of words are in the heap."""
    n, p = 3000, 0.4
    gnp(2, p, 0)  # numpy.random loads on the first draw, outside the trace
    assert traced_peak(gnp, n, p, 0) < n * n // 32


@pytest.mark.parametrize("strategy", ["random", "bipartite_push"])
def test_adversary_holds_one_key_array(strategy):
    """At n = 3000 the int32 keys would take 7.2 MB, and half of them 3.6 MB.
    The adversary's one key array is a memory map, which tracemalloc does not
    see, and neither are its packed copy of the rows or the result, which
    keeps them; what it does see (blocks of 64 rows, `_KEY_BLOCK` or 4n keys)
    stays under n^2/8 bytes plus 2 bytes a key, so no array of half the keys
    fits in the heap."""
    n, p = 3000, 0.4
    host = gnp(n, p, 0)
    assert traced_peak(adversary_delete, host, strategy, 0.2, 2, p) < n * n // 8 + 2 * host.m


@pytest.mark.parametrize(
    "words",
    [np.array([0, 1, 2, 12345, 2**31 - 2, 2**31 - 1], dtype=np.int32),
     np.array([2**32, 2**32 + 1, 2**40 + 7, 2**62, 2**63 - 1], dtype=np.int64)],
    ids=["int32", "int64"],
)
def test_priority_mixer_round_trips(words):
    """`_mix` is the keyed fmix32 or fmix64 of the oracle, and `_unmix` undoes it."""
    width = 8 * words.itemsize
    view = words.copy().view(f"u{words.itemsize}")
    salt = view.dtype.type(0x9E3779B97F4A7C15 & ((1 << width) - 1))
    _mix(view, salt)
    assert view.tolist() == [oracle_fmix(w ^ int(salt), width) for w in words.tolist()]
    _unmix(view, salt)
    assert view.view(words.dtype).tolist() == words.tolist()


def adversary_salt(seed, dtype):
    """The salt of the `random` adversary's priority order at `seed`, for keys of `dtype`."""
    width = np.dtype(dtype).itemsize
    return rng_for(seed, stream=101).integers(0, 1 << 8 * width, dtype=f"u{width}")


def priority_order(keys, salt):
    """`keys` in the adversary's priority order under `salt`, ordered as
    `_delete_in_buckets` orders a bucket: mixed to words, sorted and unmixed."""
    words = keys.astype(salt.dtype)
    _mix(words, salt)
    words.sort()
    _unmix(words, salt)
    return words.view(keys.dtype)


def test_priority_order_is_a_seeded_permutation():
    keys = np.concatenate(listed_keys(gnp(300, 0.5, 0))).astype(np.int32)
    first = priority_order(keys, adversary_salt(0, keys.dtype))
    assert first.dtype == keys.dtype and np.array_equal(np.sort(first), keys)
    assert np.array_equal(priority_order(keys, adversary_salt(0, keys.dtype)), first)
    assert not np.array_equal(priority_order(keys, adversary_salt(1, keys.dtype)), first)
    big = np.arange(2**33, 2**33 + 5000, 3, dtype=np.int64)
    out = priority_order(big, adversary_salt(0, big.dtype))
    assert np.array_equal(np.sort(out), big) and not np.array_equal(out, big)


def test_priority_order_is_uniform_on_complete_graph():
    """K_20's 190 keys over 2000 seeds: each key's mean rank lies within 4
    sigma of 94.5, and each two consecutive keys come in either order about
    half the time (within 4 sigma of 1/2)."""
    keys = np.concatenate(listed_keys(complete_graph(20))).astype(np.int32)
    seeds = 2000
    ranks = np.empty((seeds, len(keys)))
    for seed in range(seeds):
        out = priority_order(keys, adversary_salt(seed, keys.dtype))
        ranks[seed, np.searchsorted(keys, out)] = np.arange(len(keys))
    sigma = np.sqrt((len(keys) ** 2 - 1) / 12 / seeds)
    assert np.abs(ranks.mean(axis=0) - 94.5).max() < 4 * sigma
    before = (ranks[:, :-1] < ranks[:, 1:]).mean(axis=0)
    assert np.abs(before - 0.5).max() < 4 * np.sqrt(0.25 / seeds)
