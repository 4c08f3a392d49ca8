import math

import pytest

from spanembed.graph_core import Graph, Labelling, bandwidth_of_labelling
from spanembed.guest_prep import (
    Colouring,
    GuestPrepError,
    SwitchError,
    assign_guest,
    check_bounded_order,
    check_zero_free,
    switch_colours,
)
from spanembed.harness import make_guest

from helpers import cell_counts, complete_reduced, even_targets


class TestZeroFree:
    def test_no_zeros(self):
        n = 400
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        assert check_zero_free(col, l, 50, 8 / (2 * n), 2)

    def test_adjacent_zero_blocks_fail(self):
        n = 256
        l = Labelling.identity(n)
        sigma = [1 + (v % 2) for v in range(n)]
        blocklen = math.floor(4 * 2 * (8 / (2 * n)) * n)  # 16
        sigma[0] = 0
        sigma[blocklen + 1] = 0  # blocks 0 and 1 both carry colour zero
        col = Colouring(tuple(sigma), 2)
        assert not check_zero_free(col, l, 3, 8 / (2 * n), 2)

    def test_spread_zeros_pass_window(self):
        n = 1600
        l = Labelling.identity(n)
        blocklen = math.floor(4 * 2 * (8 / (2 * n)) * n)
        sigma = [1 + (v % 2) for v in range(n)]
        for blk in (0, 11, 22):  # pairwise >= 10 blocks apart
            sigma[blk * blocklen] = 0
        col = Colouring(tuple(sigma), 2)
        assert check_zero_free(col, l, 10, 8 / (2 * n), 2)
        assert not check_zero_free(col, l, 12, 8 / (2 * n), 2)


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


class TestAssignGuest:
    def test_even_cycle(self):
        n, r, k = 1000, 2, 2
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(r, k)
        m = even_targets(n, r, k)
        ga = assign_guest(h, l, col, red, m, xi=0.05, beta=8 / (k * n), seed=1)
        assert all(ga.certs.values())
        counts = cell_counts(ga)
        assert sum(counts.values()) == n
        assert max(abs(counts.get(c, 0) - m[c]) for c in m) <= 0.01 * n
        # homomorphism, rechecked independently of the cert flag
        for u, v in h.edges():
            assert red.has_edge(ga.f[u], ga.f[v])
        assert not ga.zero_routed

    def test_odd_cycle_routes_zero(self):
        n, r, k = 1001, 2, 2
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(r, k)
        m = even_targets(n, r, k)
        ga = assign_guest(h, l, col, red, m, xi=0.05, beta=8 / (k * n), seed=1)
        assert all(ga.certs.values())
        assert len(ga.zero_routed) == 1
        zv = ga.zero_routed[0]
        row = ga.blocks.section_of_position(l.pos[zv])
        assert ga.f[zv] == red.extension[row]

    def test_edgeless_guest(self):
        n, r, k = 480, 2, 2
        h = Graph.empty(n)
        l = Labelling.identity(n)
        col = Colouring(tuple((v % 2) + 1 for v in range(n)), 2)
        red = complete_reduced(r, k)
        ga = assign_guest(h, l, col, red, even_targets(n, r, k), xi=0.08, beta=8 / (k * n), seed=0)
        assert all(ga.certs.values())

    def test_two_step_locality(self):
        n = 1000
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        red = complete_reduced(2, 2)
        ga = assign_guest(h, l, col, red, even_targets(n, 2, 2), xi=0.05, beta=8 / (2 * n), seed=3)
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
        beta = 8 / (2 * n)
        ga = assign_guest(h, l, col, red, even_targets(n, 2, 2), xi=0.05, beta=beta, seed=4)
        for pos in range(math.floor(math.sqrt(beta) * n)):
            v = l.order[pos]
            assert ga.f[v] == (0, col.sigma[v] - 1)

    def test_bad_bandwidth_rejected(self):
        n = 400
        h, l, col, _ = make_guest("hamilton_cycle", n, 0)
        scrambled = Labelling(tuple(reversed(range(n))))
        red = complete_reduced(2, 2)
        with pytest.raises(GuestPrepError):
            assign_guest(h, scrambled, col, red, even_targets(n, 2, 2), xi=0.05, beta=8 / (2 * n), seed=0)

    def test_switching_active_at_large_n(self):
        # beta small enough that sections hold several intervals, so the
        # random-permutation switching machinery actually runs; needs a
        # low-bandwidth guest at large n (window-5 tree)
        from spanembed.graph_core import rng_for

        n, r, k = 50_000, 2, 2
        rng = rng_for(5, stream=7)
        window, dmax = 5, 3
        edges, colour, degs = [], [1], [0]
        bal = 1
        for v in range(1, n):
            lo = max(0, v - window)
            want = 1 if bal >= 0 else 2
            cands = [u for u in range(lo, v) if degs[u] < dmax and colour[u] == want]
            if not cands:
                cands = [u for u in range(lo, v) if degs[u] < dmax]
            u = cands[int(rng.integers(len(cands)))]
            edges.append((u, v))
            degs[u] += 1
            degs.append(1)
            colour.append(3 - colour[u])
            bal += 1 if colour[v] == 1 else -1
        h = Graph.from_edges(n, edges)
        l = Labelling.identity(n)
        col = Colouring(tuple(colour), 2)
        beta = 0.00011
        assert bandwidth_of_labelling(h, l) <= beta * n
        red = complete_reduced(r, k)
        ga = assign_guest(h, l, col, red, even_targets(n, r, k), xi=0.02, beta=beta, seed=5)
        assert all(ga.certs.values())
        assert any(ga.blocks.switching_blocks(i) for i in range(r))
        assert ga.sigma_prime.sigma != col.sigma  # a switch really happened
        assert ga.sigma_prime.is_proper(h)


class TestBoundedOrder:
    def test_edgeless_no_violations(self):
        h = Graph.empty(6)
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
        h = Graph.complete(4)
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
