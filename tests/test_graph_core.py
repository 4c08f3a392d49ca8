import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bit_matrix, complete_graph, degree_into, empty_graph, graph_from_bit_matrix
from spanembed import graph_core
from spanembed.graph_core import (
    _GNP_ROWS,
    _compare_digits,
    Graph,
    Labelling,
    VertexSet,
    bandwidth_of_labelling,
    bit_positions,
    degeneracy_order,
    gnp,
    iter_bits,
    mask_of,
    paley,
    parse_graph_text,
    rng_for,
    row_mask_counts,
    unpack_rows,
    write_graph_file,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestGnp:
    def test_p_zero_empty(self):
        assert gnp(5, 0.0, 7).m == 0

    def test_p_one_complete(self):
        assert gnp(5, 1.0, 7).m == 10

    def test_edge_count_within_3_sigma(self):
        # mean 0.3*C(1000,2) = 149850, sigma = sqrt(149850*0.7) ~ 324
        g = gnp(1000, 0.3, 1)
        assert abs(g.m - 149850) <= 972
        assert g.m == 149983  # frozen for this seed

    def test_determinism(self):
        assert gnp(300, 0.25, 9).adj == gnp(300, 0.25, 9).adj

    def test_adjacency_symmetry_probes(self):
        g = gnp(200, 0.3, 4)
        rng = rng_for(4, stream=999)
        for _ in range(1000):
            u, v = int(rng.integers(200)), int(rng.integers(200))
            assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, 0)


def truncated_digits(p, k):
    """p's first k binary digits, cut after the last 1 when they are all of p, and
    the remainder p * 2^k - floor(p * 2^k), as an exact fraction."""
    scaled = Fraction(p) * 2**k
    top = math.floor(scaled)
    digits = [top >> (k - 1 - i) & 1 for i in range(k)]
    if scaled == top:
        digits = digits[:max(i for i in range(k) if digits[i]) + 1]
    return digits, scaled - top


class CountingRng:
    """A generator that counts the raw words and the doubles drawn from it."""

    def __init__(self, rng):
        self.rng, self.raw, self.doubles = rng, 0, 0
        self.bit_generator = self

    def random_raw(self, size):
        self.raw += math.prod(size)
        return self.rng.bit_generator.random_raw(size)

    def random(self, size):
        self.doubles += size
        return self.rng.random(size)


class TestGnpLaw:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_digit_comparison_is_exact(self, k):
        """Every sequence of k <= 6 digits of U fits in one word: bit s of word i is
        digit i of s.  Through `_compare_digits`, p's k-digit truncation q / 2^k is
        the share found below p, and the sequences left undecided, with the
        remainder's share, make up the rest of p exactly.  Without a remainder
        the digits stop after p's last 1, and what is left is not below p."""
        words = [np.array([sum((s >> (k - 1 - i) & 1) << s for s in range(2**k))], dtype=np.uint64) for i in range(k)]
        every = np.array([2 ** 2**k - 1], dtype=np.uint64)
        ps = [Fraction(q, 2**k) for q in range(1, 2**k)] + [0.4, 0.3, 1 / 3, 0.999, 1e-3, 2**-k / 3]
        for p in ps:
            digits, rest = truncated_digits(p, k)
            edge, undecided = _compare_digits(digits, words, every)
            below, tied = int(edge[0]).bit_count(), int(undecided[0]).bit_count()
            assert below == math.floor(Fraction(p) * 2**k)
            assert tied == 2 ** (k - len(digits))
            assert Fraction(below, 2**k) + Fraction(tied, 2**k) * rest == Fraction(p)

    @pytest.mark.parametrize("seed", range(3))
    def test_row_degrees_within_6_sigma(self, seed):
        n, p = 2000, 0.3
        g = gnp(n, p, seed)
        mean, sigma = p * (n - 1), math.sqrt((n - 1) * p * (1 - p))
        assert max(abs(g.degree(v) - mean) for v in range(n)) <= 6 * sigma

    @pytest.mark.parametrize("p,digits", [(0.5, 1), (0.25, 2), (1.0, 0), (0.4, 8)])
    def test_fallback_doubles(self, monkeypatch, p, digits):
        """p = 1/2 and 1/4 stop after their last 1-digit and p = 1 draws nothing, so
        none takes a fallback double; p = 0.4 compares 8 digits and leaves about
        2^-8 of the pairs to one double each.  Each digit takes one raw word per
        row of a block and word of columns from the block's diagonal word on."""
        n = 300
        rng = CountingRng(rng_for(7, 0))
        monkeypatch.setattr(graph_core, "rng_for", lambda seed, stream: rng)
        g = gnp(n, p, 7)
        monkeypatch.undo()
        assert g == gnp(n, p, 7)
        words = (n + 63) // 64
        per_digit = sum((min(u0 + _GNP_ROWS, n - 1) - u0) * (words - u0 // 64) for u0 in range(0, n - 1, _GNP_ROWS))
        assert rng.raw == digits * per_digit
        pairs = n * (n - 1) // 2
        if p == 0.4:
            assert abs(rng.doubles - pairs / 256) <= 6 * math.sqrt(pairs / 256)
        else:
            assert rng.doubles == 0


class TestBitMatrix:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 201])
    def test_round_trip(self, n):
        g = gnp(n, 0.4, n)
        a = bit_matrix(g)
        assert a.dtype == bool and a.shape == (n, n)
        assert (a == a.T).all() and not a.diagonal().any()
        assert int(a.sum()) == 2 * g.m
        assert all(a[u, v] == g.has_edge(u, v) for u in range(n) for v in range(n))
        assert graph_from_bit_matrix(a) == g

    def test_matrix_is_a_copy(self):
        g = complete_graph(5)
        bit_matrix(g)[0, 1] = False
        assert g.has_edge(0, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            graph_from_bit_matrix(np.zeros((3, 4), dtype=bool))


class TestPackedRows:
    # at n = 1100 the degree table reads the kept rows in three blocks
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1100])
    def test_rows_and_degree_table_match_adjacency(self, n):
        g = gnp(n, 0.4, n)
        rng = rng_for(n, stream=5)
        rows = g.packed_rows()
        assert rows.dtype == np.dtype("<u8") and rows.shape == (n, (n + 63) // 64)
        assert [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in rows] == list(g.adj)
        masks = [0, (1 << n) - 1, g.neighbours(0)]
        masks += [mask_of(np.flatnonzero(rng.random(n) < q).tolist()) for q in (0.1, 0.5, 0.9)]
        vertices = rng.permutation(n).tolist()  # not in ascending order
        assert (g.packed_rows(vertices) == rows[vertices]).all()
        assert (bit_matrix(g, vertices) == bit_matrix(g)[vertices]).all()
        assert (unpack_rows(rows[n // 2 :], n) == bit_matrix(g)[n // 2 :]).all()  # a slice of packed rows
        table = g.degree_table(masks, vertices)
        assert table.dtype == np.int32
        assert table.tolist() == [[degree_into(g, v, m) for m in masks] for v in vertices]
        assert g.degree_table(masks).tolist() == [[degree_into(g, v, m) for m in masks] for v in range(n)]

    def test_empty_vertex_and_mask_lists(self):
        g = gnp(65, 0.4, 3)
        assert g.packed_rows([]).shape == (0, 2)
        assert bit_matrix(g, []).shape == (0, 65)
        assert g.degree_table([g.neighbours(0), 7], []).shape == (0, 2)
        assert g.degree_table([], [3, 1]).shape == (2, 0)
        assert g.degree_table([]).shape == (65, 0)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1000])
    def test_row_mask_counts_match_direct_counts(self, n):
        """On a sample of rows and on all of them, with one mask and with eight; at
        n = 1000 the eight masks split the rows into two blocks."""
        g = gnp(n, 0.3, n + 1)
        rng = rng_for(n, stream=6)
        rows = g.packed_rows()
        masks = [mask_of(np.flatnonzero(rng.random(n) < q).tolist()) for q in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)]
        masks.append((1 << n) - 1)
        sample = rng.choice(n, size=min(n, 24), replace=False)
        for vs in (sample, np.arange(n)):
            for ms in (masks[:1], masks):
                table = row_mask_counts(rows[vs], ms)
                assert table.dtype == np.int32  # signed: a negated count of 0 sorts last
                assert table.tolist() == [[(g.neighbours(v) & m).bit_count() for m in ms] for v in vs.tolist()]

    @pytest.mark.parametrize("mask", [0, 1, 1 << 63, 1 << 64, (1 << 63) | (1 << 64), (1 << 130) - 1])
    def test_bit_positions_of_fixed_masks(self, mask):
        assert bit_positions(mask).tolist() == list(iter_bits(mask))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 4000])
    def test_bit_positions_of_random_masks(self, n):
        rng = rng_for(n, stream=6)
        for q in (0.1, 0.5, 0.9):
            mask = mask_of(np.flatnonzero(rng.random(n) < q).tolist()) | (1 << (n - 1))
            positions = bit_positions(mask)
            assert positions.dtype == np.int64
            assert positions.tolist() == list(iter_bits(mask))


class TestRowCache:
    """A graph built from rows keeps them, read-only, from the start; a graph
    built by `from_edges` keeps none, and no request makes it keep them."""

    def test_full_rows_are_kept_and_read_only(self):
        g = gnp(130, 0.4, 1)
        rows = g.packed_rows()
        assert g.packed_rows() is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert g.degree_table([g.neighbours(3)]).tolist() == [[degree_into(g, v, g.neighbours(3))] for v in range(130)]
        assert g.packed_rows() is rows

    def test_row_subsets_with_and_without_kept_rows(self):
        g = gnp(130, 0.4, 2)
        twin = Graph.from_edges(130, g.edges())
        vertices = rng_for(2, stream=5).permutation(130)[:40].tolist()
        rows = g.packed_rows()
        for h in (g, twin):
            for vs in (vertices, np.array(vertices), [], tuple(vertices[:3])):
                sliced = h.packed_rows(vs)
                assert np.array_equal(sliced, rows[list(vs)])
                sliced[...] = 0  # a fresh array: writing to it leaves the graph alone
        assert np.array_equal(twin.packed_rows(), rows) and twin._rows is None
        assert np.array_equal(g.packed_rows(), Graph(130, g.adj).packed_rows())

    @pytest.mark.parametrize("keep", [False, True])
    def test_deletion_leaves_the_source_and_keeps_nothing(self, keep):
        """The source keeps rows, or is built by `from_edges` and gains none."""
        g = gnp(70, 0.5, 3)
        if not keep:
            g = Graph.from_edges(70, g.edges())
        adj, rows = g.adj, g.packed_rows().copy()
        h = g.without_edges(list(g.edges())[::2])
        assert g.adj == adj and h.m == g.m - (g.m + 1) // 2
        assert not h._rows.flags.writeable  # the result keeps its copy's rows
        assert np.array_equal(g.packed_rows(), rows) and (g._rows is None) == (not keep)

    @pytest.mark.parametrize("keep", [False, True])
    def test_edges_inside_a_set_go_and_the_source_stays(self, keep):
        """`without_edges_inside` drops exactly the edges with both ends in the
        set, across word boundaries, from either store; the source keeps its
        edges and gains no rows."""
        g = gnp(130, 0.5, 5)
        if not keep:
            g = Graph.from_edges(130, g.edges())
        a = bit_matrix(g)
        inside = (np.arange(130) % 3 == 0) | (np.arange(130) >= 120)
        cleared = a.copy()
        cleared[np.ix_(inside, inside)] = False
        h = g.without_edges_inside(mask_of(np.flatnonzero(inside).tolist()))
        assert h == graph_from_bit_matrix(cleared) and not h._rows.flags.writeable
        assert np.array_equal(bit_matrix(g), a) and (g._rows is None) == (not keep)
        assert g.without_edges_inside(0) == g


class TestNeighbourLists:
    """`from_edges` keeps each vertex's neighbours as an ascending tuple; a graph
    built from rows keeps none."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tuples_are_the_rows_and_walks_agree(self, seed):
        rng = rng_for(seed, stream=13)
        n = 40
        pairs = rng.choice(n, size=(90, 2)).tolist()
        edges = [(u, v) for u, v in pairs if u != v]
        edges += [(v, u) for u, v in edges[:10]] + edges[10:15]  # each edge again, either way round
        g = Graph.from_edges(n, edges)
        plain = Graph(n, g.adj)  # the same graph, built from its masks
        assert g.neighbour_lists() == tuple(tuple(iter_bits(a)) for a in g.adj)
        assert list(g.edges()) == list(plain.edges())
        assert g.bfs_distances([0, 7], limit=3) == plain.bfs_distances([0, 7], limit=3)
        assert degeneracy_order(g) == degeneracy_order(plain)

    def test_a_graph_of_rows_keeps_none(self):
        g = gnp(50, 0.3, 1)
        assert g.neighbour_lists() == tuple(tuple(iter_bits(a)) for a in g.adj)
        g.bfs_distances([0])
        list(g.edges())
        assert g._nbrs is None


class TestPaley:
    def test_q5_is_five_cycle(self):
        g = paley(5)
        assert g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))
        dists = g.bfs_distances([0])
        assert all(d >= 0 for d in dists)

    def test_q13_regularity(self):
        g = paley(13)
        assert all(g.degree(v) == 6 for v in range(13))
        assert g.m == 39

    @pytest.mark.parametrize("q", [4, 7, 9, 15])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            paley(q)


class TestBandwidth:
    def test_path_in_order(self):
        g = path_graph(5)
        assert bandwidth_of_labelling(g, Labelling.identity(5)) == 1

    def test_cycle_wrap(self):
        assert bandwidth_of_labelling(cycle_graph(6), Labelling.identity(6)) == 5

    def test_zigzag_c6(self):
        # stretches of the 6 edges under 0,1,5,2,4,3 are all at most 2
        assert bandwidth_of_labelling(cycle_graph(6), Labelling((0, 1, 5, 2, 4, 3))) == 2

    def test_edgeless(self):
        assert bandwidth_of_labelling(empty_graph(4), Labelling.identity(4)) == 0


class TestDegeneracyOrder:
    def test_tree(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        _, d = degeneracy_order(g)
        assert d == 1

    def test_k4(self):
        _, d = degeneracy_order(complete_graph(4))
        assert d == 3

    def test_squared_five_cycle(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)])
        _, d = degeneracy_order(g)
        assert d == 4

    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=40, deadline=4000)
    def test_back_degree_property(self, n, p):
        g = gnp(n, p, 5)
        order, d = degeneracy_order(g)
        removed_after = {}
        for pos, v in enumerate(order.order):
            later = order.order[pos + 1:]
            back = sum(1 for w in later if g.has_edge(v, w))
            removed_after[v] = back
        assert max(removed_after.values()) <= d


class TestVertexSetAndLabelling:
    def test_set_algebra(self):
        a = VertexSet.from_iter(8, [0, 1, 2])
        b = VertexSet.from_iter(8, [2, 3])
        assert (a & b).to_list() == [2]
        assert (a | b).to_list() == [0, 1, 2, 3]
        assert (a - b).to_list() == [0, 1]
        assert len(a ^ b) == 3
        assert 1 in a and 1 not in b

    def test_labelling_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Labelling((0, 0, 1))


class TestGraphFile:
    def test_round_trip(self):
        """At every row width the reader writes word-aligned rows: one word, a full
        word, one bit over, and three words; a graph built by `from_edges`
        equals its parsed twin, which keeps rows instead of tuples."""
        for n in (1, 2, 40, 63, 64, 65, 130):
            g = gnp(n, 0.2, n)
            g2 = parse_graph_text(write_graph_file(g))
            assert g2 == g and g2.packed_rows().shape == (n, (n + 63) // 64)
            assert list(g2.edges()) == list(g.edges())
            twin = Graph.from_edges(n, g.edges())
            parsed = parse_graph_text(write_graph_file(twin))
            assert parsed == twin and twin == parsed and parsed._nbrs is None and twin._rows is None

    def test_header_format(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert write_graph_file(g).splitlines()[0] == "graph 3 1"

    @pytest.mark.parametrize(
        "text",
        [
            "graph 3 1\n1 1\n",      # self-loop
            "graph 3 2\n0 1\n0 1\n",  # duplicate
            "graph 3 1\n1 0\n",      # u >= v
            "graph 3 2\n0 1\n",      # count mismatch
            "0 1\n",                  # missing header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_graph_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("graph 3 2\n0 1\n1 1\n", "self-loop at 1"),
            ("graph 4 3\n0 1\n2 3\n0 1\n", r"duplicate edge \(0,1\)"),
            ("graph 3 1\n1 0\n", r"edge \(1,0\) violates 0 <= u < v < n"),
            ("graph 3 1\n0 3\n", r"edge \(0,3\) violates 0 <= u < v < n"),
            ("graph 3 1\n-1 2\n", r"edge \(-1,2\) violates 0 <= u < v < n"),
            ("graph 3 2\n0 1\n", "expected 2 edge lines, found 1"),
            ("graph 4 2\n0 1\n\n2\n3\n", "expected 2 edge lines, found 3"),
            ("graph 3 1\n0 1\n1 2\n", "expected 1 edge lines, found 2"),
            ("0 1\n", "missing graph header"),
            ("", "missing graph header"),
            ("graph 3\n0 1\n", "malformed graph header"),
            ("graph -3 0\n", "malformed graph header"),
            ("graph 3 1\n0 x\n", "invalid literal for int"),
            ("graph 3 1\n0 1 2\n", "too many values to unpack"),
            ("graph 3 1\n2\n", "not enough values to unpack"),
            # the first fault in file order, whatever its kind
            ("graph 5 3\n0 1\n2 2\n0 x\n", "self-loop at 2"),
            ("graph 5 3\n0 1\n0 x\n2 2\n", "invalid literal for int"),
            ("graph 5 3\n0 1\n1 2 3\n0 1\n", "too many values to unpack"),
        ],
    )
    def test_names_the_first_fault(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_graph_text(text)

    def test_spelling_variants_read_the_same_graph(self):
        """Texts that `write_graph_file` would not write: blank lines, CRLF ends,
        tabs, signs and leading zeros, and a last line with no newline."""
        g = gnp(30, 0.3, 5)
        text = write_graph_file(g)
        head, *body = text.splitlines()
        variants = [
            text.replace("\n", "\r\n"),
            "\n \n" + text.replace("\n", "\n\n"),
            head + "\n" + "\n".join(" \t" + ln.replace(" ", "\t ") for ln in body),
            head + "\n" + "\n".join("+0" + ln.replace(" ", " 00") for ln in body),
            head + "\n" + "\n\n".join(body) + "\n \n",
        ]
        for variant in variants:
            assert parse_graph_text(variant) == g
