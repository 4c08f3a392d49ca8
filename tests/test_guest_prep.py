import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanembed.graph_core import Graph, Labelling, bandwidth_of_labelling, iter_bits
from spanembed.guest_prep import (
    Colouring,
    GuestPrepError,
    SwitchError,
    _two_step_local,
    assign_guest,
    build_block_structure,
    check_bounded_order,
    check_zero_free,
    switch_colours,
)
from spanembed.harness import make_guest

from helpers import cell_counts, complete_graph, complete_reduced, empty_graph, even_targets, window_tree


class TestZeroFree:
    def test_no_zeros(self):
        n = 400
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        assert check_zero_free(col, l, 50, 32)

    def test_adjacent_zero_blocks_fail(self):
        n = 256
        l = Labelling.identity(n)
        sigma = [1 + (v % 2) for v in range(n)]
        blocklen = 32
        sigma[0] = 0
        sigma[blocklen + 1] = 0  # blocks 0 and 1 both carry colour zero
        col = Colouring(tuple(sigma), 2)
        assert not check_zero_free(col, l, 3, blocklen)

    def test_spread_zeros_pass_window(self):
        n = 1600
        l = Labelling.identity(n)
        blocklen = 32
        sigma = [1 + (v % 2) for v in range(n)]
        for blk in (0, 11, 22):  # pairwise >= 10 blocks apart
            sigma[blk * blocklen] = 0
        col = Colouring(tuple(sigma), 2)
        assert check_zero_free(col, l, 10, blocklen)
        assert not check_zero_free(col, l, 12, blocklen)


class TestSwitchColours:
    def setup_method(self):
        self.n = 48
        self.h = Graph.from_edges(self.n, [(i, i + 1) for i in range(self.n - 1)])
        self.l = Labelling.identity(self.n)
        self.col = Colouring(tuple((v % 2) + 1 for v in range(self.n)), 2)

    def test_identity_is_noop(self):
        out = switch_colours(self.h, self.col, self.l, 2, {1: 1, 2: 2}, blocklen=8)
        assert out.sigma == self.col.sigma

    def test_swap_mid_block(self):
        pi = {1: 2, 2: 1}
        out = switch_colours(self.h, self.col, self.l, 2, pi, blocklen=8)
        assert out.is_proper(self.h)
        assert all(out.sigma[v] == self.col.sigma[v] for v in range(16))
        assert all(out.sigma[v] == pi[self.col.sigma[v]] for v in range(24, self.n))

    def test_zero_block_rejected(self):
        sigma = list(self.col.sigma)
        sigma[18] = 0
        bad = Colouring(tuple(sigma), 2)
        with pytest.raises(SwitchError):
            switch_colours(self.h, bad, self.l, 2, {1: 2, 2: 1}, blocklen=8)

    def test_three_colours_on_squared_path(self):
        n = 60
        edges = [(u, u + s) for u in range(n) for s in (1, 2) if u + s < n]
        h = Graph.from_edges(n, edges)
        l = Labelling.identity(n)
        col = Colouring(tuple((v % 3) + 1 for v in range(n)), 3)
        pi = {1: 2, 2: 3, 3: 1}
        out = switch_colours(h, col, l, 1, pi, blocklen=12)
        assert out.is_proper(h)
        assert all(out.sigma[v] == pi[col.sigma[v]] for v in range(24, n))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_switch_keeps_every_colour_zero_vertex(seed):
    # a small guest of bandwidth <= k under a random labelling, coloured in
    # labelling order with a sparse colour 0, switched at a random zero-free
    # block (when there is one) under a random pi
    rnd = random.Random(seed)
    n, k = rnd.randint(4, 40), rnd.choice((2, 3))
    order = list(range(n))
    rnd.shuffle(order)
    l = Labelling(tuple(order))
    edges = [
        (order[p], order[q]) for q in range(n) for p in range(max(0, q - k), q) if rnd.random() < 0.6
    ]
    h = Graph.from_edges(n, edges)
    sigma = [0] * n
    for v in order:
        taken = {sigma[w] for w in iter_bits(h.neighbours(v)) if l.pos[w] < l.pos[v]}
        free = [c for c in range(1, k + 1) if c not in taken]
        sigma[v] = 0 if not free or (0 not in taken and rnd.random() < 0.1) else rnd.choice(free)
    col = Colouring(tuple(sigma), k)
    blocklen = rnd.randint(1, max(1, n // 4))
    blocks = range(-(-n // blocklen))
    zero_free = [t for t in blocks if all(sigma[v] for v in order[t * blocklen:(t + 1) * blocklen])]
    block_t = rnd.choice(zero_free or blocks)
    values = rnd.sample(range(1, k + 1), k)
    pi = {c: values[c - 1] for c in range(1, k + 1)}
    try:
        out = switch_colours(h, col, l, block_t, pi, blocklen=blocklen)
    except SwitchError:
        return  # the block holds colour 0, or the search ran out of budget
    assert all(out.sigma[v] == 0 for v in col.zero_vertices())


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_two_step_locality_matches_its_definition(seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 14)
    density = rnd.random()
    h = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rnd.random() < density])
    f = [(rnd.randrange(3), rnd.randrange(2)) for _ in range(n)]
    special = rnd.getrandbits(n) if rnd.random() < 0.7 else 0
    expected = all(
        f[z][0] == f[x][0]
        for x in range(n) if not (special >> x) & 1
        for z, dist in enumerate(h.bfs_distances([x], limit=2)) if dist >= 0
    )
    assert _two_step_local(h, f, special) == expected


class TestAssignGuest:
    def test_even_cycle(self):
        n, r, k = 1000, 2, 2
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(r, k)
        m = even_targets(n, r, k)
        ga = assign_guest(h, l, col, red, m, xi=0.05, blocklen=32, seed=1)
        counts = cell_counts(ga)
        assert sum(counts.values()) == n
        assert max(abs(counts.get(c, 0) - m[c]) for c in m) <= 0.01 * n
        # homomorphism, rechecked here edge by edge
        for u, v in h.edges():
            assert red.has_edge(ga.f[u], ga.f[v])
        assert not ga.zero_routed

    def test_odd_cycle_routes_zero(self):
        n, r, k = 1001, 2, 2
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(r, k)
        m = even_targets(n, r, k)
        ga = assign_guest(h, l, col, red, m, xi=0.05, blocklen=32, seed=1)
        assert len(ga.zero_routed) == 1
        zv = ga.zero_routed[0]
        row = ga.blocks.section_of_position(l.pos[zv])
        assert ga.f[zv] == red.extension[row]

    def test_edgeless_guest(self):
        n, r, k = 480, 2, 2
        h = empty_graph(n)
        l = Labelling.identity(n)
        col = Colouring(tuple((v % 2) + 1 for v in range(n)), 2)
        red = complete_reduced(r, k)
        ga = assign_guest(h, l, col, red, even_targets(n, r, k), xi=0.08, blocklen=32, seed=0)

    def test_two_step_locality(self):
        n = 1000
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(2, 2)
        ga = assign_guest(h, l, col, red, even_targets(n, 2, 2), xi=0.05, blocklen=32, seed=3)
        special = ga.special
        for x in range(n):
            if x in special:
                continue
            i = ga.f[x][0]
            dist = h.bfs_distances([x], limit=2)
            for z in range(n):
                if dist[z] >= 0:
                    assert ga.f[z][0] == i

    def test_prefix_rule(self):
        n = 1000
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(2, 2)
        ga = assign_guest(h, l, col, red, even_targets(n, 2, 2), xi=0.05, blocklen=32, seed=4)
        for pos in range(math.isqrt(32 * n // (4 * 2))):  # sqrt(beta) * n
            v = l.order[pos]
            assert ga.f[v] == (0, col.sigma[v] - 1)

    def test_bad_bandwidth_rejected(self):
        n = 400
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        scrambled = Labelling(tuple(reversed(range(n))))
        red = complete_reduced(2, 2)
        with pytest.raises(GuestPrepError):
            assign_guest(h, scrambled, col, red, even_targets(n, 2, 2), xi=0.05, blocklen=32, seed=0)

    def test_switching_active_at_large_n(self):
        # blocks short enough that sections hold several intervals, so the
        # random-permutation switching machinery actually runs; needs a
        # low-bandwidth guest at large n (window-5 tree)
        n, r, k = 50_000, 2, 2
        h, col = window_tree(n, 5)
        l = Labelling.identity(n)
        blocklen = 44
        assert 4 * k * bandwidth_of_labelling(h, l) <= blocklen
        red = complete_reduced(r, k)
        ga = assign_guest(h, l, col, red, even_targets(n, r, k), xi=0.02, blocklen=blocklen, seed=5)
        assert any(ga.blocks.switching_blocks(i) for i in range(r))
        assert ga.sigma_prime.sigma != col.sigma  # a switch really happened
        assert ga.sigma_prime.is_proper(h)


def _floor_sqrt(x: Fraction) -> int:
    """The largest m >= 0 with m * m <= x, by exact comparisons."""
    m = math.floor(math.sqrt(x))
    while (m + 1) ** 2 <= x:
        m += 1
    while m * m > x:
        m -= 1
    return m


@pytest.mark.parametrize("n, k, blocklen", [(2017, 2, 32), (10_000, 4, 96), (737, 2, 16), (929, 2, 16), (4000, 2, 184)])
def test_block_grid_is_exact(n, k, blocklen):
    """Every beta-scaled quantity is the floor (or ceiling) of its exact value at
    beta = blocklen / (4kn), where a float beta would round some of them off by one."""
    beta = Fraction(blocklen, 4 * k * n)
    l = Labelling.identity(n)
    sigma = [1 + v % k for v in range(n)]
    red, m = complete_reduced(2, k), even_targets(n, 2, k)
    blocks = build_block_structure(n, k, blocklen, m, Colouring(tuple(sigma), k), l, 2)
    assert blocks.nblocks == math.ceil(Fraction(n, blocklen))
    assert blocks.b == max(1, _floor_sqrt(k * k / beta))  # floor(k / sqrt(beta))
    prefix = _floor_sqrt(beta * n * n)  # floor(sqrt(beta) * n)

    def assign_with_zero_at(pos):
        col = Colouring(tuple(sigma[:pos] + [0] + sigma[pos + 1:]), k)
        return assign_guest(empty_graph(n), l, col, red, m, xi=0.05, blocklen=blocklen, seed=0)

    assign_with_zero_at(prefix)  # the first position past the prefix
    with pytest.raises(GuestPrepError, match="colour zero in the first"):
        assign_with_zero_at(prefix - 1)  # the last position inside it


class TestBoundedOrder:
    def test_edgeless_no_violations(self):
        h = empty_graph(6)
        rep = check_bounded_order(h, Labelling.identity(6), None, None, 0, 0.5, 10)
        assert all(not v for v in rep.values())

    def test_triangle_case_analysis(self):
        # first vertex of a triangle: a later edge between its later
        # neighbours drops its budget to d_tilde - 2, which still covers its
        # zero back-degree at d_tilde = 2 but not at d_tilde = 1
        h = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        rep = check_bounded_order(h, Labelling.identity(3), None, None, 2, 0.5, 10)
        assert rep["back_degree"] == []
        rep1 = check_bounded_order(h, Labelling.identity(3), None, None, 1, 0.5, 10)
        assert 0 in rep1["back_degree"]

    def test_k4_last_vertex_violates(self):
        h = complete_graph(4)
        rep = check_bounded_order(h, Labelling.identity(4), None, None, 2, 0.5, 10)
        assert 3 in rep["back_degree"]  # back-degree 3 over budget 2

    def test_path_in_path_order_clean(self):
        h = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
        rep = check_bounded_order(h, Labelling.identity(8), None, None, 3, 0.5, 100)
        assert rep["back_degree"] == []
        assert rep["locality"] == []
        assert rep["buffer_locality"] == []

    def test_restriction_counts_toward_back_degree(self):
        h = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        restr = {2: {10, 11, 12}}
        rep = check_bounded_order(h, Labelling.identity(4), restr, None, 3, 0.5, 100)
        assert 2 in rep["back_degree"]  # |J| + 1 earlier neighbour = 4 > 3


def _pinned_input(name):
    """(guest, labelling, colouring, reduced graph, targets, xi, blocklen, seed) of one pinned input."""
    if name == "edgeless":
        n = 480
        col = Colouring(tuple((v % 2) + 1 for v in range(n)), 2)
        return empty_graph(n), Labelling.identity(n), col, complete_reduced(2, 2), even_targets(n, 2, 2), 0.08, 32, 0
    if name == "path_zero_in_switching_block":
        # the colour-0 vertex sits in block 200, the first switching block of
        # section 0, so that section switches at block 201 instead
        n = 20_000
        sigma = [1 + v % 2 for v in range(n)]
        sigma[200 * 16 + 5] = 0
        h = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        col = Colouring(tuple(sigma), 2)
        return h, Labelling.identity(n), col, complete_reduced(2, 2), even_targets(n, 2, 2), 0.05, 16, 0
    if name == "switching_tree":
        n = 50_000
        h, col = window_tree(n, 5)
        return h, Labelling.identity(n), col, complete_reduced(2, 2), even_targets(n, 2, 2), 0.02, 44, 5
    family, n, k, r, blocklen, xi, seed = {
        "cycle_1000": ("hamilton_cycle", 1000, 2, 2, 16, 0.05, 1),
        "cycle_1001": ("hamilton_cycle", 1001, 2, 2, 16, 0.05, 1),
        "cycle_20001": ("hamilton_cycle", 20001, 2, 2, 16, 0.05, 0),
        "power_cycle": ("power_cycle:2", 576, 3, 2, 48, 0.06, 2),
        "triangle_factor": ("f_factor:triangle", 624, 3, 2, 24, 0.06, 3),
        "power_path": ("power_path:2", 624, 3, 2, 24, 0.06, 4),
        "tree_six_rows": ("bounded_tree:3", 4000, 2, 6, 184, 0.2, 0),
        "tree_short_prefix": ("bounded_tree:3", 1920, 2, 6, 168, 0.45, 0),
        "skewed_targets": ("hamilton_cycle", 1000, 2, 2, 16, 0.05, 1),
    }[name]
    h, l, col, _ = make_guest(family, n, seed)
    m = even_targets(n, r, k)
    if name == "skewed_targets":  # same row masses, columns 100 off the even split
        m = {(i, j): m[(i, j)] + (100 if j == i else -100) for i, j in m}
    return h, l, col, complete_reduced(r, k), m, xi, blocklen, seed


# digest of (f, special set, sigma', zero_routed, section bounds), or the failure's (stage, message)
PINNED_ASSIGNMENTS = {
    "cycle_1000": "d112d4b8a1f40d97",
    "cycle_1001": "de682b3d905f94bf",
    "power_cycle": "af394523374c0ddd",
    "triangle_factor": "560a75d405b5faaf",
    "power_path": "cc359a58bd455f33",
    "tree_six_rows": "687a8133f6d52200",
    "edgeless": "2f02476d00a2b477",
    "cycle_20001": "b6addb26b1d40c23",
    "path_zero_in_switching_block": "ecf8b652e089b2ed",
    "switching_tree": "b8ce911305604fb7",
    "skewed_targets": ("part_sizes", "[part_sizes] assignment failed after retries (failed: part_sizes)"),
    "tree_short_prefix": ("prefix_rule", "[prefix_rule] assignment failed after retries (failed: prefix_rule)"),
}


@pytest.mark.parametrize("name, expected", PINNED_ASSIGNMENTS.items(), ids=list(PINNED_ASSIGNMENTS))
def test_assign_guest_pinned(name, expected):
    h, l, col, red, m, xi, blocklen, seed = _pinned_input(name)
    if isinstance(expected, tuple):
        with pytest.raises(GuestPrepError) as err:
            assign_guest(h, l, col, red, m, xi=xi, blocklen=blocklen, seed=seed)
        assert (err.value.stage, str(err.value)) == expected
        return
    ga = assign_guest(h, l, col, red, m, xi=xi, blocklen=blocklen, seed=seed)
    data = repr((ga.f, format(ga.special.mask, "x"), ga.sigma_prime.sigma, ga.zero_routed, ga.blocks.section_bounds))
    assert hashlib.sha256(data.encode()).hexdigest()[:16] == expected
