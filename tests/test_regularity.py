import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from helpers import complete_graph, deleted_to_floor, degree_into, edges_between, empty_graph, graph_from_bit_matrix
from spanembed import regularity
from spanembed.graph_core import Graph, VertexSet, gnp, iter_bits, mask_of, rng_for
from spanembed.harness import adversary_delete
from spanembed.regularity import (
    PairVerdict,
    RegularityError,
    _energy,
    _energy_term,
    _random_subsets,
    _subset_degree_table,
    check_lower_regular,
    check_super_regular,
    check_two_sided_regular,
    energy_partition,
    inheritance_table,
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
            assert v.kind == "lower_regular"

    def test_tiny_irregular_with_witness(self):
        # X={a,b}, Y={c,d}, only edge a-c; the zero-density half-size subpair witnesses
        g = Graph.from_edges(4, [(0, 2)])
        x, y = VertexSet.from_iter(4, [0, 1]), VertexSet.from_iter(4, [2, 3])
        v = check_lower_regular(g, x, y, 0.4, 0.9, 1.0, mode="exact")
        assert v.kind == "irregular"
        wx, wy = v.witness
        assert len(wx) >= math.ceil(0.4 * 2) and len(wy) >= math.ceil(0.4 * 2)
        dens = edges_between(g, wx.mask, wy.mask) / (1.0 * len(wx) * len(wy))
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
            low = sum(1 for u in x if degree_into(g, u, y.mask) < (d - eps) * p * len(y))
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


def refining_instance(name):
    """Two halves with a planted dense block between them, so the partitioner
    refines for several rounds: (graph, initial parts, p)."""
    if name == "planted-120":  # the setup of test_planted_structure_gains_energy
        rng = np.random.default_rng(5)
        n, edges = 120, []
        for u in range(n):
            for v in range(u + 1, n):
                base = 0.95 if (u < 30 and 60 <= v < 90) else 0.25
                if rng.random() < base:
                    edges.append((u, v))
        g, p = Graph.from_edges(n, edges), 0.25
    else:
        n, p = 240, 0.25
        rng = rng_for(1, stream=9)
        a = rng.random((n, n)) < p
        a[: n // 4, n // 2 : 3 * n // 4] = rng.random((n // 4, n // 4)) < 0.95
        a = np.triu(a, 1)
        g = graph_from_bit_matrix(a | a.T)
    return g, [VertexSet.from_iter(n, range(n // 2)), VertexSet.from_iter(n, range(n // 2, n))], p


def partition_digest(res):
    """sha256 prefix of the refinement's masks, the energy history and the irregular counts."""
    masks = [[v.mask for v in group] for group in res.refinement]
    return hashlib.sha256(repr((masks, res.energy_history, res.irregular_counts)).encode()).hexdigest()[:16]


class TestEnergyPartition:
    def test_edgeless_trivial(self):
        res = energy_partition(empty_graph(40), [VertexSet.full(40)], 0.25, 0.5, seed=1)
        assert res.regular and res.rounds == 1
        assert res.irregular_counts == [0]
        assert len(res.residues[0]) == 0

    def test_complete_single_round(self):
        res = energy_partition(complete_graph(40), [VertexSet.full(40)], 0.25, 1.0, seed=1)
        assert res.regular and res.rounds == 1

    def test_seeded_gnp_regression(self):
        g = gnp(600, 0.35, 4)
        res = energy_partition(g, [VertexSet.full(600)], 0.25, 0.35, seed=4)
        assert res.regular
        assert res.rounds == 1  # frozen
        assert res.energy_history[0] == pytest.approx(0.3747, abs=5e-3)  # frozen

    def test_planted_structure_gains_energy(self):
        g, parts, p = refining_instance("planted-120")
        res = energy_partition(g, parts, 0.25, p, seed=2)
        assert res.regular
        gains = [res.energy_history[i + 1] - res.energy_history[i] for i in range(len(res.energy_history) - 1)]
        assert all(gain >= -1e-9 for gain in gains)
        need = 0.25**5 / 1000
        for i, trig in enumerate(res.triggered_rounds):
            if trig:
                assert res.energy_history[i + 1] - res.energy_history[i] >= need

    @pytest.mark.parametrize(
        "instance, seed, rounds, irregular, digest",
        [
            ("planted-120", 2, 3, [1, 39, 0], "c26e7ab45fe239ac"),
            ("planted-240", 3, 3, [1, 13, 113], "6fec5b068f4ed7d7"),
        ],
        ids=["planted-120", "planted-240"],
    )
    def test_refining_partition_pinned(self, instance, seed, rounds, irregular, digest):
        # several refinement rounds, each reading every part's rows once for
        # all its pairs; the 60- and 120-vertex halves of round 1 and the
        # 29-vertex chunks of planted-240's round 2 take the sampled route
        g, parts, p = refining_instance(instance)
        res = energy_partition(g, parts, 0.25, p, seed=seed)
        assert (res.rounds, res.irregular_counts) == (rounds, irregular)
        assert partition_digest(res) == digest

    @pytest.mark.parametrize("L", [1.0, 100.0])  # L = 1 caps about half of the pairs
    def test_energy_matches_pairwise_reference(self, L):
        """`_energy` against the loop it replaced: one `edges_between` count per part pair."""
        n, p = 300, 0.3
        g = gnp(n, p, 6)
        order = rng_for(6, stream=9).permutation(n).tolist()
        parts = [(i % 2, mask_of(order[i::24])) for i in range(24)]
        origin_sizes = [n // 2, n - n // 2]
        expect = 0.0
        for a in range(len(parts)):
            oa, ma = parts[a]
            sa = ma.bit_count()
            for b in range(a + 1, len(parts)):
                ob, mb = parts[b]
                sb = mb.bit_count()
                dens = edges_between(g, ma, mb) / (p * sa * sb)
                expect += sa * sb * _energy_term(dens, L) / (origin_sizes[oa] * origin_sizes[ob])
        assert _energy(parts, origin_sizes, g, p, L) == expect

    def test_energy_cap(self):
        g = gnp(200, 0.5, 8)
        parts = [VertexSet.from_iter(200, range(100)), VertexSet.from_iter(200, range(100, 200))]
        res = energy_partition(g, parts, 0.3, 0.5, seed=8)
        cap = res.L**2 + 16 * res.L * len(parts) ** 2
        assert all(e <= cap for e in res.energy_history)


class TestMinDegreePartition:
    def test_complete_graph(self):
        g = complete_graph(120)
        part = min_degree_regular_partition(g, 0.1, 0.5, 1.0, 4, seed=2)
        r = len(part.clusters)
        assert part.reduced_min_degree == r - 1
        assert len(part.exceptional) <= 0.1 * 120

    def test_edgeless_fails_certificate(self):
        g = empty_graph(80)
        with pytest.raises(RegularityError):
            min_degree_regular_partition(g, 0.1, 0.3, 0.5, 4, seed=1, retries=1)

    def test_seeded_gnp_with_deletions(self):
        host = gnp(1000, 0.4, 5)
        g = deleted_to_floor(host, 0.2, 2, 0.4, 5, stream=77)
        part = min_degree_regular_partition(g, 0.2, 0.1, 0.4, 4, seed=5)
        r = len(part.clusters)
        assert part.reduced_min_degree >= (part.alpha - 0.1 - 0.2) * r
        assert part.reduced_min_degree >= 0.4 * r  # alpha ~ 0.7
        sizes = {len(c) for c in part.clusters}
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "adversary,eps,d,r0",
        [("random", 0.25, 0.1, 4), ("bipartite_push", 0.3, 0.7, 12)],
        ids=["smoke", "push-r0=12"],
    )
    def test_dense_pairs_are_the_regular_pairs_of_density_d(self, adversary, eps, d, r0):
        # the smoke host as the pipeline's partition sees it, and a pushed host
        # on which some regular pairs are sparse and some dense pairs irregular
        p = 0.4
        g = adversary_delete(gnp(1000, p, 0), adversary, 0.2, 2, p, seed=0)
        part = min_degree_regular_partition(g, eps, d, p, r0, seed=0, budget=64)
        cl = part.clusters
        regular, dense = set(), set()
        for a, b in itertools.combinations(range(len(cl)), 2):
            if check_lower_regular(g, cl[a], cl[b], eps, d, p, budget=64, seed=7 * a + b).ok:
                regular.add((a, b))
            if edges_between(g, cl[a].mask, cl[b].mask) / (p * len(cl[a]) * len(cl[b])) >= d:
                dense.add((a, b))
        assert part.dense_regular_pairs == regular & dense
        if r0 == 12:
            assert regular - dense and dense - regular

    def test_large_v0_fails_before_any_pair_check(self, monkeypatch):
        # every attempt leaves |V0| > eps * n (328 in the last): it fails on V0 alone
        calls = []
        monkeypatch.setattr(
            regularity, "check_lower_regular", lambda *args, **kwargs: calls.append(args) or PairVerdict("lower_regular")
        )
        g = adversary_delete(gnp(1000, 0.4, 0), "random", 0.2, 2, 0.4, seed=0)
        with pytest.raises(RegularityError, match=r"after 3 attempts: \|V0\|=328 > eps\*n=100\.0$"):
            min_degree_regular_partition(g, 0.1, 0.9, 0.4, 12, seed=0)
        assert calls == []


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


# Reference scan: one bitmask per candidate subpair, scored with
# `edges_between`, in the engine's scan order.  It draws its random subpairs
# with the engine's own batched draw (`_random_subsets`, tested on its own
# below), so the block engine must reproduce its verdicts and witnesses
# exactly.


def scan_subpairs(g, x, y, eps, budget, seed, joint_cuts=True):
    xs, ys = x.to_list(), y.to_list()
    mx_thr = max(1, math.ceil(eps * len(xs) - 1e-12))
    my_thr = max(1, math.ceil(eps * len(ys) - 1e-12))
    deg_x = sorted(xs, key=lambda v: ((g.neighbours(v) & y.mask).bit_count(), v))
    deg_y = sorted(ys, key=lambda v: ((g.neighbours(v) & x.mask).bit_count(), v))
    cuts = sorted({mx_thr, (mx_thr + len(xs)) // 2, len(xs) // 2, len(xs)} - {0})
    for c in cuts:
        if c >= mx_thr:
            yield mask_of(deg_x[:c]), y.mask
            yield mask_of(deg_x[-c:]), y.mask
    cuts = sorted({my_thr, (my_thr + len(ys)) // 2, len(ys) // 2, len(ys)} - {0})
    for c in cuts:
        if c >= my_thr:
            yield x.mask, mask_of(deg_y[:c])
            yield x.mask, mask_of(deg_y[-c:])
    if joint_cuts:
        yield mask_of(deg_x[:mx_thr]), mask_of(deg_y[:my_thr])
        yield mask_of(deg_x[-mx_thr:]), mask_of(deg_y[-my_thr:])
    rng = rng_for(seed, stream=21)
    drawn_x = _random_subsets(rng, budget, len(xs), mx_thr)
    drawn_y = _random_subsets(rng, budget, len(ys), my_thr)
    for xa, ya in zip(drawn_x.tolist(), drawn_y.tolist()):
        yield mask_of(xs[i] for i in xa), mask_of(ys[j] for j in ya)


def scan_verdict(g, x, y, eps, p, budget, seed, bad, ok_kind, joint_cuts=True):
    full = edges_between(g, x.mask, y.mask) / (p * len(x) * len(y))
    for xmask, ymask in scan_subpairs(g, x, y, eps, budget, seed, joint_cuts):
        dens = edges_between(g, xmask, ymask) / (p * xmask.bit_count() * ymask.bit_count())
        if bad(dens, full, xmask.bit_count(), ymask.bit_count()):
            return PairVerdict("irregular", (VertexSet(g.n, xmask), VertexSet(g.n, ymask)))
    return PairVerdict(ok_kind, None)


def scan_lower(g, x, y, eps, d, p, budget, seed):
    return scan_verdict(
        g, x, y, eps, p, budget, seed, lambda dens, full, sx, sy: dens < d - eps - 1e-12, "lower_regular"
    )


def scan_two_sided(g, x, y, eps, p, budget, seed, noise_sigmas):
    def bad(dens, full, sx, sy):
        q = min(1.0, max(full * p, p))
        stderr = math.sqrt(max(q * (1.0 - q), 1e-12) / (p * p * sx * sy))
        return abs(dens - full) > eps + noise_sigmas * stderr + 1e-12

    return scan_verdict(g, x, y, eps, p, budget, seed, bad, "regular", joint_cuts=False)


def scan_super(g, host, x, y, eps, d, p, budget, seed):
    if not scan_lower(g, x, y, eps, d, p, budget, seed).ok:
        return False
    for side, other in ((x, y), (y, x)):
        for v in side:
            need = (d - eps) * max(p * len(other), degree_into(host, v, other.mask) / 2.0)
            if degree_into(g, v, other.mask) < need - 1e-12:
                return False
    return True


SCAN_SIDES = [(15, 15), (15, 32), (41, 23), (120, 97), (450, 310)]


def scan_case(sx, sy, seed):
    """Seeded pair of a gnp graph with interleaved vertex ids and a thinned corner."""
    n = sx + sy + 7
    q = (0.3, 0.5, 0.7)[seed % 3]
    host = gnp(n, q, seed)
    perm = [int(v) for v in rng_for(seed, stream=5).permutation(n)]
    x, y = VertexSet.from_iter(n, perm[:sx]), VertexSet.from_iter(n, perm[sx : sx + sy])
    corner = [(u, v) for u in perm[: sx // 3] for v in perm[sx : sx + sy // 3] if host.has_edge(u, v)]
    g = host.without_edges(corner[: len(corner) * (seed % 4) // 4])
    return g, host, x, y, q


class TestEngineMatchesScan:
    """The block engine gives the old scan's verdicts and witnesses above the exact fallback."""

    @pytest.mark.parametrize("sides", SCAN_SIDES, ids=[f"{a}x{b}" for a, b in SCAN_SIDES])
    def test_sampled_checks_match_scan(self, sides):
        kinds = []
        for case, (eps, budget) in enumerate((e, b) for e in (0.1, 0.25, 0.4) for b in (0, 5, 64)):
            seed = 10 * sides[0] + case
            g, host, x, y, p = scan_case(*sides, seed)
            for d in (eps + 0.05, eps + 0.45, eps + 0.9):
                got = check_lower_regular(g, x, y, eps, d, p, budget=budget, seed=seed)
                assert got == scan_lower(g, x, y, eps, d, p, budget, seed)
                kinds.append(got.kind)
                assert check_super_regular(g, host, x, y, eps, d, p, budget=budget, seed=seed) == scan_super(
                    g, host, x, y, eps, d, p, budget, seed
                )
            for sigmas in (0.0, 1.0, 3.0):
                got = check_two_sided_regular(g, x, y, eps, p, budget=budget, seed=seed, noise_sigmas=sigmas)
                assert got == scan_two_sided(g, x, y, eps, p, budget, seed, sigmas)
                kinds.append(got.kind)
        assert kinds.count("irregular") >= len(kinds) / 4
        assert kinds.count("irregular") < len(kinds)

    def test_vacuous_lower_bound_certifies_without_probing(self):
        # with d <= eps no nonnegative density breaks the bound; the old scan
        # agrees, and an edgeless pair is certified as well
        g, host, x, y, p = scan_case(41, 23, 3)
        for eps, d in ((0.25, 0.1), (0.3, 0.3)):
            got = check_lower_regular(g, x, y, eps, d, p, budget=64, seed=3)
            assert got == scan_lower(g, x, y, eps, d, p, 64, 3)
            assert got == PairVerdict("lower_regular", None)
            assert check_super_regular(g, host, x, y, eps, d, p, budget=64, seed=3)
        empty = empty_graph(g.n)
        assert check_lower_regular(empty, x, y, 0.25, 0.1, p).kind == "lower_regular"
        assert check_super_regular(empty, host, x, y, 0.25, 0.1, p)
        # the inheritance table asks only for a host neighbour on both sides,
        # and an empty side fails
        everyone = complete_graph(g.n)
        for masks, verdict in (([x.mask, y.mask], True), ([0, y.mask], False)):
            deg = everyone.degree_table(masks)
            table = inheritance_table(empty, everyone, range(g.n), masks, [(0, 1), (1, 0)], deg, 0.25, 0.1, p)
            assert table.shape == (g.n, 2) and (table == verdict).all()

    def test_vacuous_route_reads_no_row(self, monkeypatch):
        # above the exact fallback with d <= eps, neither check reads an
        # adjacency row of g or of the host, one at a time or in bulk
        def unread(*args):
            raise AssertionError("adjacency row read")

        g, host, x, y, p = scan_case(41, 23, 3)
        deg = host.degree_table([x.mask, y.mask])
        monkeypatch.setattr(Graph, "neighbours", unread)
        monkeypatch.setattr(Graph, "packed_rows", unread)
        for eps, d in ((0.25, 0.1), (0.3, 0.3)):
            assert check_lower_regular(g, x, y, eps, d, p, budget=64, seed=3).kind == "lower_regular"
            assert check_super_regular(g, host, x, y, eps, d, p, budget=64, seed=3)
            table = inheritance_table(g, host, range(g.n), [x.mask, y.mask], [(0, 1)], deg, eps, d, p)
            assert (table[:, 0] == ((deg[:, 0] > 0) & (deg[:, 1] > 0))).all()


# The energy partitioner's part sizes on the tree (333) and resilience (1000)
# workloads, where the engine scores 64 random subpairs in one batch.
BENCH_SIDES = (333, 1000)


def circulant_case(side, seed):
    """A pair whose G[X, Y] is a circulant band: the i-th vertex of X (by id) is
    adjacent to the j-th of Y iff (j - i) mod side < 0.4 side.  Every vertex has
    the same degree across, so no one-sided cut deviates from the pair density;
    a witness, if any, is a double cut or a random subpair."""
    n = 2 * side + 7
    perm = rng_for(seed, stream=5).permutation(n)
    xs, ys = np.sort(perm[:side]), np.sort(perm[side : 2 * side])
    w = round(0.4 * side)
    a = np.zeros((n, n), dtype=bool)
    a[np.ix_(xs, ys)] = (np.arange(side)[None, :] - np.arange(side)[:, None]) % side < w
    a |= a.T
    return graph_from_bit_matrix(a), VertexSet.from_iter(n, xs.tolist()), VertexSet.from_iter(n, ys.tolist()), w / side


def witness_kind(g, x, y, eps, budget, seed, verdict, joint_cuts):
    """Where the scan finds the witness: "cut" (one-sided or double), "random", or None."""
    if verdict.witness is None:
        return None
    cands = list(scan_subpairs(g, x, y, eps, budget, seed, joint_cuts))
    i = cands.index((verdict.witness[0].mask, verdict.witness[1].mask))
    return "random" if i >= len(cands) - budget else "cut"


@pytest.mark.parametrize("side", BENCH_SIDES)
def test_batch_matches_scan_at_benchmark_shapes(side):
    """Verdicts and witnesses equal the scan's, at budgets 64 and 0, on thinned
    corners and on circulant bands; the witnesses come from cuts and from random
    subpairs, and some pairs have none."""
    cases = []
    for seed in range(4):  # seed % 4 quarters of the corner are thinned
        g, _host, x, y, p = scan_case(side, side, seed)
        cases.append((seed, g, x, y, p))
    cases += [(seed, *circulant_case(side, seed)) for seed in range(2)]
    kinds = Counter()
    for seed, g, x, y, p in cases:
        for eps in (0.05, 0.25):
            for budget in (0, 64):
                for sigmas in (0.0, 3.0):
                    got = check_two_sided_regular(g, x, y, eps, p, budget=budget, seed=seed, noise_sigmas=sigmas)
                    assert got == scan_two_sided(g, x, y, eps, p, budget, seed, sigmas)
                    kinds[witness_kind(g, x, y, eps, budget, seed, got, joint_cuts=False)] += 1
                for d in (eps + 0.95, eps + 0.8):
                    got = check_lower_regular(g, x, y, eps, d, p, budget=budget, seed=seed)
                    assert got == scan_lower(g, x, y, eps, d, p, budget, seed)
                    kinds[witness_kind(g, x, y, eps, budget, seed, got, joint_cuts=True)] += 1
    assert kinds["cut"] > 0 and kinds["random"] > 0 and kinds[None] > 0


class TestRandomSubsets:
    """The engine's batched draw of random subpairs: one call per side per pair."""

    @pytest.mark.parametrize("size, thr", [(1, 1), (15, 4), (40, 40), (333, 100)])
    def test_rows_are_thr_distinct_indices(self, size, thr):
        rows = _random_subsets(rng_for(size, stream=21), 64, size, thr)
        assert rows.shape == (64, thr)
        assert rows.min() >= 0 and rows.max() < size
        assert all(len(set(row)) == thr for row in rows.tolist())

    def test_tied_keys_still_give_thr_indices(self):
        # a generator whose keys all tie: rows are cut by position, not by key
        class Tied:
            def random(self, shape):
                return np.zeros(shape)

        assert all(len(set(row)) == 4 for row in _random_subsets(Tied(), 3, 10, 4).tolist())

    def test_same_seed_same_draw(self):
        a = _random_subsets(rng_for(5, stream=21), 64, 333, 100)
        assert np.array_equal(a, _random_subsets(rng_for(5, stream=21), 64, 333, 100))
        assert not np.array_equal(a, _random_subsets(rng_for(6, stream=21), 64, 333, 100))

    def test_inclusion_frequency_is_thr_over_size(self):
        # 4000 rows of 10 of 40: each index's count is Binomial(4000, 1/4),
        # whose standard deviation is 0.0068 in frequency; the bound is 5 of them
        rows = _random_subsets(rng_for(0, stream=21), 4000, 40, 10)
        freq = np.bincount(rows.ravel(), minlength=40) / 4000
        assert np.abs(freq - 0.25).max() <= 0.035

    def test_budget_zero_draws_nothing_and_decides_on_cuts(self):
        rng = rng_for(0, stream=21)
        assert _random_subsets(rng, 0, 120, 6).shape == (0, 6)
        assert rng.random() == rng_for(0, stream=21).random()  # the generator did not move
        # no cut of a circulant band deviates, so budget 0 certifies it, and at
        # budget 64 a random subpair is the witness
        g, x, y, p = circulant_case(120, 0)
        assert check_two_sided_regular(g, x, y, 0.05, p, budget=0, seed=0).kind == "regular"
        assert check_lower_regular(g, x, y, 0.05, 0.85, p, budget=0, seed=0).kind == "lower_regular"
        got = check_two_sided_regular(g, x, y, 0.05, p, budget=64, seed=0)
        assert witness_kind(g, x, y, 0.05, 64, 0, got, joint_cuts=False) == "random"


def reference_inheritance(g, nbrs, amask, bmask, eps, d, p):
    """The Z1 inheritance screen written out: prefix cuts of N(v) & A, sorted by degree."""

    def screen(xmask, ymask):
        sx, sy = xmask.bit_count(), ymask.bit_count()
        if sx == 0 or sy == 0:
            return False
        if d - eps <= 0:
            return True
        degs = sorted((g.neighbours(v) & ymask).bit_count() for v in iter_bits(xmask))
        thr = max(1, math.ceil(eps * sx - 1e-12))
        return all(sum(degs[:i]) / (p * i * sy) >= d - eps - 1e-12 for i in range(thr, sx + 1))

    nx = nbrs & amask
    return screen(nx, bmask) and screen(nx, nbrs & bmask)


def test_inheritance_screen_matches_reference():
    """Every entry of the table, both orientations of the pair, in both regimes and on
    empty neighbourhoods.  Each vertex is listed six times, so that the vertices
    span several blocks of host rows and every copy must agree."""
    g, host, x, y, p = scan_case(41, 23, 6)
    sparse = gnp(g.n, 0.03, 6)  # host neighbourhoods of a few vertices, some empty
    masks, edges = [x.mask, y.mask], [(0, 1), (1, 0)]
    vertices = np.tile(np.arange(g.n), 6)
    assert len(vertices) > regularity._SCREEN_ROWS
    verdicts = []
    for h in (host, sparse):
        deg = h.degree_table(masks, vertices)
        for eps, d in ((0.2, 0.9), (0.3, 0.6), (0.25, 0.1)):
            table = inheritance_table(g, h, vertices, masks, edges, deg, eps, d, p).reshape(6, g.n, 2)
            for v in range(g.n):
                for e, (a, b) in enumerate(edges):
                    got = reference_inheritance(g, h.neighbours(v), masks[a], masks[b], eps, d, p)
                    assert (table[:, v, e] == got).all()
                    verdicts.append(got)
    assert 0.1 * len(verdicts) < sum(verdicts) < 0.9 * len(verdicts)


def reference_prefix_inheritance_ok(g, xmask, ymask, eps, d, p):
    """The one-pair screen as a scan of every degree-sorted prefix cut of size at least eps|X|."""
    sx, sy = xmask.bit_count(), ymask.bit_count()
    if sx == 0 or sy == 0:
        return False
    if d - eps <= 0:
        return True
    bound = d - eps
    thr = max(1, math.ceil(eps * sx - 1e-12))
    run = 0
    for size, deg in enumerate(sorted((g.neighbours(v) & ymask).bit_count() for v in iter_bits(xmask)), 1):
        run += deg
        if size >= thr and run / (p * size * sy) < bound - 1e-12:
            return False
    return True


def test_prefix_screen_matches_the_scan():
    """The threshold-size cut decides the screen as the scan of every prefix does,
    on random graphs, sides, p and eps <= d, with both verdicts common.  The table
    reads the pair (X, Y) through a vertex w added to G, whose host neighbourhood
    is X | Y: then both halves of w's entry are the one-pair screen of (X, Y)."""
    rng = rng_for(0, stream=61)
    verdicts = Counter()
    for seed in range(3000):
        n = int(rng.integers(2, 81))
        g = gnp(n, float(rng.uniform(0.05, 0.95)), seed)
        side = rng.integers(0, 3, size=n)  # 0: X, 1: Y, 2: neither
        xmask, ymask = mask_of(np.flatnonzero(side == 0).tolist()), mask_of(np.flatnonzero(side == 1).tolist())
        eps = float(rng.uniform(0.05, 0.6))
        d, p = float(rng.uniform(eps, 1.0)), float(rng.uniform(0.05, 1.0))
        with_w = Graph.from_edges(n + 1, g.edges())
        star = Graph.from_edges(n + 1, [(n, v) for v in iter_bits(xmask | ymask)])
        deg = star.degree_table([xmask, ymask], [n])
        got = bool(inheritance_table(with_w, star, [n], [xmask, ymask], [(0, 1)], deg, eps, d, p)[0, 0])
        assert got == reference_prefix_inheritance_ok(g, xmask, ymask, eps, d, p)
        verdicts[got] += 1
    assert min(verdicts[True], verdicts[False]) > 300


def test_subset_degree_table_counts_neighbours_in_every_subset():
    rng = rng_for(0, stream=62)
    sides = [(20, 14), (1, 1)] + [(int(rng.integers(1, 21)), int(rng.integers(1, 15))) for _ in range(10)]
    for seed, (nx, ny) in enumerate(sides):
        n = nx + ny + int(rng.integers(0, 5))
        g = gnp(n, float(rng.uniform(0.1, 0.9)), seed)
        perm = rng.permutation(n).tolist()
        xs, ys = perm[:nx], perm[nx : nx + ny]
        table = _subset_degree_table(g, xs, ys)
        assert table.shape == (1 << ny, nx)
        for s in range(1 << ny):
            smask = mask_of(ys[j] for j in iter_bits(s))
            assert table[s].tolist() == [(g.neighbours(x) & smask).bit_count() for x in xs]
