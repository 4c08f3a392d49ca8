import math

import numpy as np
import pytest

from spanembed.graph_core import Graph, VertexSet, gnp, rng_for
from spanembed.regularity import (
    RegularityError,
    check_lower_regular,
    check_super_regular,
    check_two_sided_regular,
    energy_partition,
    min_degree_regular_partition,
)


def bipartite_slice(n, p, seed):
    g = gnp(n, p, seed)
    half = n // 2
    return g, VertexSet.from_iter(n, range(half)), VertexSet.from_iter(n, range(half, n))


class TestCheckLowerRegular:
    def test_complete_bipartite_always_regular(self):
        g = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
        x, y = VertexSet.from_iter(6, range(3)), VertexSet.from_iter(6, range(3, 6))
        for eps in (0.2, 0.5, 0.9):
            v = check_lower_regular(g, x, y, eps, 1.0, 1.0, mode="exact")
            assert v.kind == "lower_regular" and v.exact

    def test_tiny_irregular_with_witness(self):
        # X={a,b}, Y={c,d}, only edge a-c; the zero-density half-size subpair witnesses
        g = Graph.from_edges(4, [(0, 2)])
        x, y = VertexSet.from_iter(4, [0, 1]), VertexSet.from_iter(4, [2, 3])
        v = check_lower_regular(g, x, y, 0.4, 0.9, 1.0, mode="exact")
        assert v.kind == "irregular"
        wx, wy = v.witness
        assert len(wx) >= math.ceil(0.4 * 2) and len(wy) >= math.ceil(0.4 * 2)
        dens = g.edges_between(wx.mask, wy.mask) / (1.0 * len(wx) * len(wy))
        assert dens < 0.9 - 0.4

    def test_seeded_14x14_exact_regression(self):
        g, x, y = bipartite_slice(28, 0.5, 3)
        v = check_lower_regular(g, x, y, 0.3, 0.3, 0.5, mode="exact")
        assert v.kind == "lower_regular"  # frozen by exhaustive enumeration

    def test_exact_cap(self):
        g, x, y = bipartite_slice(42, 0.5, 1)
        with pytest.raises(ValueError):
            check_lower_regular(g, x, y, 0.3, 0.3, 0.5, mode="exact")

    def test_sampled_matches_exact_at_small_sizes(self):
        # acceptance shape: the sampled verdict includes the exhaustive
        # fallback below 14, so the two never disagree there
        for seed in range(50):
            g, x, y = bipartite_slice(24, 0.4, seed)
            exact = check_lower_regular(g, x, y, 0.25, 0.45, 0.4, mode="exact")
            samp = check_lower_regular(g, x, y, 0.25, 0.45, 0.4, mode="sampled", seed=seed)
            assert exact.kind == samp.kind

    def test_low_degree_count_bound(self):
        # a certified pair has fewer than eps|X| vertices of small degree;
        # dense pairs so that exact certification is not vacuous at size 12
        eps, d, p = 0.3, 0.8, 0.85
        certified = 0
        for seed in range(30):
            g, x, y = bipartite_slice(24, p, seed + 100)
            v = check_lower_regular(g, x, y, eps, d, p, mode="exact")
            if v.kind != "lower_regular":
                continue
            certified += 1
            low = sum(1 for u in x if g.degree_into(u, y.mask) < (d - eps) * p * len(y))
            assert low < eps * len(x)
        assert certified >= 10

    def test_alteration_stability(self):
        # perturbing each side by mu|X| vertices keeps lower-regularity at
        # eps + 4 sqrt(mu); at side 12 that cap saturates near 1, which is
        # what the bound honestly gives at this scale
        eps, d, p = 0.3, 0.75, 0.9
        checked = 0
        for seed in range(40):
            g = gnp(26, p, seed + 500)
            x = VertexSet.from_iter(26, range(12))
            y = VertexSet.from_iter(26, range(12, 24))
            v = check_lower_regular(g, x, y, eps, d, p, mode="exact")
            if v.kind != "lower_regular":
                continue
            for mu in (1 / 12, 2 / 12):
                swap = max(1, int(mu * 12))
                xs, ys = x.to_list(), y.to_list()
                x2 = VertexSet.from_iter(26, xs[swap:] + [24])
                y2 = VertexSet.from_iter(26, ys[swap:] + [25])
                eps_hat = min(0.99, eps + 4 * math.sqrt(swap / 12))
                v2 = check_lower_regular(g, x2, y2, eps_hat, d, p, mode="exact")
                assert v2.kind == "lower_regular"
                checked += 1
        assert checked >= 10


class TestSuperRegular:
    def test_complete_bipartite(self):
        g = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
        x, y = VertexSet.from_iter(6, range(3)), VertexSet.from_iter(6, range(3, 6))
        assert check_super_regular(g, g, x, y, 0.2, 1.0, 1.0)

    def test_isolated_vertex_fails(self):
        g = Graph.from_edges(6, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        x, y = VertexSet.from_iter(6, [0, 1, 2]), VertexSet.from_iter(6, [3, 4, 5])
        assert not check_super_regular(g, g, x, y, 0.05, 0.3, 1.0)

    def test_degree_starved_vertex_fails(self):
        n, p = 80, 0.5
        host = gnp(n, p, 9)
        x = VertexSet.from_iter(n, range(40))
        y = VertexSet.from_iter(n, range(40, 80))
        # strip vertex 0 down to ~0.1 p |Y| edges into Y
        keep = int(0.1 * p * 40)
        nbrs = [v for v in range(40, 80) if host.has_edge(0, v)]
        g = host.without_edges([(0, v) for v in nbrs[keep:]])
        assert not check_super_regular(g, host, x, y, 0.05, 0.3, p)


class TestEnergyPartition:
    def test_edgeless_trivial(self):
        res = energy_partition(Graph.empty(40), [VertexSet.full(40)], 0.25, 0.5, seed=1)
        assert res.regular and res.rounds == 1
        assert res.irregular_counts == [0]
        assert len(res.residues[0]) == 0

    def test_complete_single_round(self):
        res = energy_partition(Graph.complete(40), [VertexSet.full(40)], 0.25, 1.0, seed=1)
        assert res.regular and res.rounds == 1

    def test_seeded_gnp_regression(self):
        g = gnp(600, 0.35, 4)
        res = energy_partition(g, [VertexSet.full(600)], 0.25, 0.35, seed=4)
        assert res.regular
        assert res.rounds == 1  # frozen
        assert res.energy_history[0] == pytest.approx(0.3747, abs=5e-3)  # frozen

    def test_planted_structure_gains_energy(self):
        rng = np.random.default_rng(5)
        n, edges = 120, []
        for u in range(n):
            for v in range(u + 1, n):
                base = 0.95 if (u < 30 and 60 <= v < 90) else 0.25
                if rng.random() < base:
                    edges.append((u, v))
        g = Graph.from_edges(n, edges)
        a = VertexSet.from_iter(n, range(60))
        b = VertexSet.from_iter(n, range(60, 120))
        res = energy_partition(g, [a, b], 0.25, 0.25, seed=2)
        assert res.regular
        gains = [res.energy_history[i + 1] - res.energy_history[i] for i in range(len(res.energy_history) - 1)]
        assert all(gain >= -1e-9 for gain in gains)
        need = 0.25**5 / 1000
        for i, trig in enumerate(res.triggered_rounds):
            if trig:
                assert res.energy_history[i + 1] - res.energy_history[i] >= need

    def test_energy_cap(self):
        g = gnp(200, 0.5, 8)
        parts = [VertexSet.from_iter(200, range(100)), VertexSet.from_iter(200, range(100, 200))]
        res = energy_partition(g, parts, 0.3, 0.5, seed=8)
        cap = res.L**2 + 16 * res.L * len(parts) ** 2
        assert all(e <= cap for e in res.energy_history)


class TestMinDegreePartition:
    def test_complete_graph(self):
        g = Graph.complete(120)
        part = min_degree_regular_partition(g, 0.1, 0.5, 1.0, 4, seed=2)
        r = len(part.clusters)
        assert part.reduced_min_degree == r - 1
        assert len(part.exceptional) <= 0.1 * 120

    def test_edgeless_fails_certificate(self):
        g = Graph.empty(80)
        with pytest.raises(RegularityError):
            min_degree_regular_partition(g, 0.1, 0.3, 0.5, 4, seed=1, retries=1)

    def test_seeded_gnp_with_deletions(self):
        host = gnp(1000, 0.4, 5)
        floor = 0.7 * 0.4 * 1000
        rng = rng_for(5, stream=77)
        deg = [host.degree(v) for v in range(1000)]
        edges = list(host.edges())
        drop = []
        for i in rng.permutation(len(edges)):
            u, v = edges[int(i)]
            if deg[u] - 1 >= floor and deg[v] - 1 >= floor:
                deg[u] -= 1
                deg[v] -= 1
                drop.append((u, v))
        g = host.without_edges(drop)
        part = min_degree_regular_partition(g, 0.2, 0.1, 0.4, 4, seed=5)
        r = len(part.clusters)
        assert part.reduced_min_degree >= (part.alpha - 0.1 - 0.2) * r
        assert part.reduced_min_degree >= 0.4 * r  # alpha ~ 0.7
        sizes = {len(c) for c in part.clusters}
        assert max(sizes) - min(sizes) <= 1


class TestTwoSidedRegular:
    def test_balanced_random_pair_regular(self):
        g, x, y = bipartite_slice(300, 0.4, 21)
        v = check_two_sided_regular(g, x, y, 0.25, 0.4, seed=1, noise_sigmas=3.0)
        assert v.ok

    def test_planted_dense_strip_caught(self):
        n = 60
        edges = [(a, b) for a in range(15) for b in range(30, 45)]
        g = Graph.from_edges(n, edges)
        x = VertexSet.from_iter(n, range(30))
        y = VertexSet.from_iter(n, range(30, 60))
        v = check_two_sided_regular(g, x, y, 0.2, 0.5, seed=1)
        assert not v.ok and v.witness is not None
