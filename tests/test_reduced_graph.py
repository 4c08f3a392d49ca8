import functools
import hashlib
import itertools
import sys

import pytest

from spanembed import graph_core
from spanembed.graph_core import Graph, gnp, paley, rng_for
from spanembed.reduced_graph import (
    BackboneIndex,
    HostPrepError,
    find_backbone,
    prepare_host,
    validate_k_equitable,
)

from helpers import backbone_edges, complete_graph, deleted_to_floor, degree_into, gnp_by_doubles


class TestBackboneStructure:
    def test_edge_count_formula(self):
        # r k(k-1)/2 within rows + (r-1) k(k-1) across adjacent rows
        for r, k in [(3, 2), (2, 3), (4, 2)]:
            expect = r * k * (k - 1) // 2 + (r - 1) * k * (k - 1)
            assert len(backbone_edges(r, k)) == expect
        assert len(backbone_edges(3, 2)) == 7

    def test_edge_rules(self):
        idx = BackboneIndex(3, 2)
        assert idx.is_backbone_edge((0, 0), (1, 1))
        assert not idx.is_backbone_edge((0, 0), (1, 0))  # same column
        assert not idx.is_backbone_edge((0, 0), (2, 1))  # rows too far


class TestFindBackbone:
    def test_complete_reduced_graph(self):
        verts = list(range(6))
        edges = {frozenset(e) for e in itertools.combinations(verts, 2)}
        emb, ext = find_backbone(complete_graph(6), 3, 2, seed=1)
        assert sorted(emb.values()) == verts
        for e in backbone_edges(3, 2):
            a, b = tuple(e)
            assert frozenset((emb[a], emb[b])) in edges
        for i, z in ext.items():
            assert all(frozenset((z, emb[(i, j)])) in edges for j in range(2))

    def test_no_cross_row_edges_fails(self):
        with pytest.raises(HostPrepError):
            find_backbone(Graph.from_edges(4, [(0, 1), (2, 3)]), 2, 2, seed=1)

    def test_dense_random_reduced_graph(self):
        # spec example: 12 vertices, delta forced >= 8, relabel to [4] x [3]
        g = gnp(12, 0.9, 6)
        adj = [set() for _ in range(12)]
        edges = {frozenset(e) for e in g.edges()}
        for e in edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        rng = rng_for(6, stream=1)
        for v in range(12):
            while len(adj[v]) < 8:
                w = int(rng.integers(12))
                if w != v and w not in adj[v]:
                    adj[v].add(w)
                    adj[w].add(v)
                    edges.add(frozenset((v, w)))
        emb, ext = find_backbone(Graph.from_edges(12, map(tuple, edges)), 4, 3, seed=6)
        for e in backbone_edges(4, 3):
            a, b = tuple(e)
            assert frozenset((emb[a], emb[b])) in edges
        for i, z in ext.items():
            assert z not in {emb[(i, j)] for j in range(3)}
            assert all(frozenset((z, emb[(i, j)])) in edges for j in range(3))


def reference_find_backbone(
    reduced_edges: set[frozenset],
    vertices: list,
    r: int,
    k: int,
    gamma: float,
    seed: int = 0,
    budget: int = 10**6,
) -> tuple[dict[tuple[int, int], object], dict[int, object]]:
    """The backbone search on a set of frozenset edges and a dict of neighbour sets, as
    it was before the search read the cluster graph's bitmasks; kept as the oracle."""
    if len(vertices) != r * k:
        raise ValueError("vertex count must equal r*k")
    adj: dict[object, set] = {v: set() for v in vertices}
    for e in reduced_edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)

    steps = 0
    best_depth = 0
    rng = rng_for(seed, stream=41)

    def row_candidates(prev_row: list | None, used: set) -> list[tuple]:
        """Ordered k-tuples forming a clique, fully joined to the previous row
        except possibly at the same column."""
        free = [v for v in vertices if v not in used]
        results = []

        def extend(tup: list):
            if len(tup) == k:
                results.append(tuple(tup))
                return
            j = len(tup)
            for v in free:
                if v in tup:
                    continue
                if any(v not in adj[u] for u in tup):
                    continue
                if prev_row is not None:
                    ok = all(v in adj[prev_row[jj]] for jj in range(k) if jj != j)
                    if not ok:
                        continue
                tup.append(v)
                extend(tup)
                tup.pop()

        extend([])
        return results

    for restart in range(8):
        order_noise = {v: float(x) for v, x in zip(vertices, rng.random(len(vertices)))}
        rows: list[tuple] = []
        used: set = set()
        stack: list[list[tuple]] = []
        cands = row_candidates(None, used)
        cands.sort(key=lambda t: sum(len(adj[v]) for v in t) + order_noise[t[0]], reverse=True)
        stack.append(cands)
        while stack:
            steps += 1
            if steps > budget:
                raise HostPrepError("backbone", f"budget exhausted at depth {best_depth}/{r}")
            if not stack[-1]:
                stack.pop()
                if rows:
                    for v in rows.pop():
                        used.discard(v)
                continue
            tup = stack[-1].pop()
            rows.append(tup)
            used.update(tup)
            best_depth = max(best_depth, len(rows))
            if len(rows) == r:
                embedding = {(i, j): rows[i][j] for i in range(r) for j in range(k)}
                extension: dict[int, object] = {}
                for i in range(r):
                    z = next(
                        (v for v in vertices if v not in rows[i] and all(v in adj[u] for u in rows[i])),
                        None,
                    )
                    if z is None:
                        break
                    extension[i] = z
                if len(extension) == r:
                    return embedding, extension
                for v in rows.pop():
                    used.discard(v)
                continue
            nxt = row_candidates(rows[-1], used)
            nxt.sort(key=lambda t: sum(len(adj[v]) for v in t) + order_noise[t[0]], reverse=True)
            stack.append(nxt)
    raise HostPrepError("backbone", f"no spanning backbone found (deepest row {best_depth}/{r})")


def outcome(search):
    try:
        return search()
    except HostPrepError as exc:
        return str(exc)


@pytest.mark.parametrize("r,k", [(2, 2), (3, 2), (4, 3), (6, 2)])
def test_backbone_search_matches_reference(r, k):
    found = failed = 0
    for density in (0.3, 0.5, 0.7, 0.85, 1.0):
        for seed in range(6):
            g = gnp(r * k, density, seed)
            edges = {frozenset(e) for e in g.edges()}
            want = outcome(lambda: reference_find_backbone(edges, list(range(r * k)), r, k, 0.2, seed=seed))
            assert outcome(lambda: find_backbone(g, r, k, seed)) == want
            found += isinstance(want, tuple)
            failed += isinstance(want, str)
    assert found and failed


class TestKEquitable:
    def test_equal(self):
        assert validate_k_equitable({(0, 0): range(10), (0, 1): range(10)})

    def test_off_by_two(self):
        assert not validate_k_equitable({(0, 0): range(10), (0, 1): range(12)})

    def test_mixed_rows(self):
        clusters = {
            (0, 0): range(7), (0, 1): range(8),
            (1, 0): range(8), (1, 1): range(8),
            (2, 0): range(8), (2, 1): range(7),
        }
        assert validate_k_equitable(clusters)


def cut_into_own_row(cut):
    """A vertex v of cell (0, 0) of the complete 200-vertex host, and the host
    preparation after G loses `cut` of v's 50 edges into cell (0, 1)."""
    host = complete_graph(200)
    before = prepare_host(host, host, 1.0, 0.2, 2, 0.3, 0.4, 4, seed=2)
    v = next(iter(before.clusters[(0, 0)]))
    g = host.without_edges([(v, w) for w in before.clusters[(0, 1)].to_list()[:cut]])
    return v, prepare_host(g, host, 1.0, 0.2, 2, 0.3, 0.4, 4, seed=2)


class TestPrepareHost:
    def test_complete_graph(self):
        g = complete_graph(120)
        hs = prepare_host(g, g, 1.0, 0.2, 2, 0.1, 0.5, 4, seed=2)
        assert len(hs.v0) <= 2
        assert hs.reduced.contains_backbone()
        assert hs.reduced.validate_extension()

    def test_weak_vertex_moves_to_a_strong_row(self):
        # v keeps its host edges but loses 34 of its 50 G-edges into the other
        # cluster of its row: it joins W and is redistributed to row 1
        v, hs = cut_into_own_row(34)
        assert v in hs.clusters[(1, 0)]

    def test_vertex_at_the_weak_threshold_stays(self):
        # a cut of 33 leaves v exactly (0.4 - 2 * 0.3 / 10) * 50 = 17 G-edges
        # into the other cluster of its row: not weak, so it keeps its cell
        v, hs = cut_into_own_row(33)
        assert v in hs.clusters[(0, 0)]

    def test_two_cliques_precondition_rejected(self):
        # disjoint K_30 + K_30 has min degree 29 < (1/2 + gamma) * 60
        edges = [(a, b) for a in range(30) for b in range(a + 1, 30)]
        edges += [(a, b) for a in range(30, 60) for b in range(a + 1, 60)]
        g = Graph.from_edges(60, edges)
        with pytest.raises(HostPrepError) as ei:
            prepare_host(g, g, 1.0, 0.2, 2, 0.1, 0.5, 4, seed=1)
        assert ei.value.stage == "precondition"

    def test_seeded_adversarial_instance(self):
        host = gnp(1000, 0.4, 7)
        g = deleted_to_floor(host, 0.2, 2, 0.4, 99)
        hs = prepare_host(g, host, 0.4, 0.2, 2, 0.25, 0.1, 4, seed=7)
        assert len(hs.v0) <= 0.05 * 1000
        n_check = len(hs.v0) + sum(len(c) for c in hs.clusters.values())
        assert n_check == 1000
        # clusters and V0 are genuinely disjoint
        mask = hs.v0.mask
        for c in hs.clusters.values():
            assert not (mask & c.mask)
            mask |= c.mask
        assert validate_k_equitable(hs.clusters)
        # extension cells adjacent to their whole row
        assert hs.reduced.validate_extension()

    def test_vacuous_read_cell_rule_rejects_a_vertex_blind_to_a_cell(self):
        # With d <= eps/2 the inheritance screen asks only that v see both cells
        # of every reduced edge.  Here p|U| <= 1/(1 - 0.9 eps), so the degree
        # windows let a vertex with no host neighbour in a cell through, and the
        # read-cell rule alone keeps such vertices out of the clusters.
        host = gnp(300, 0.5, 0)
        g = deleted_to_floor(host, 0.05, 2, 0.5, 0)
        hs = prepare_host(g, host, 0.5, 0.05, 2, 0.9, 0.1, 30, seed=0)
        cells = hs.reduced.index.cells()
        edges = [(hs.clusters[cells[a]].mask, hs.clusters[cells[b]].mask) for a, b in hs.reduced.graph.edges()]
        kept = [v for c in hs.clusters.values() for v in c]
        blind = {v for v in kept for ends in edges if not all(degree_into(host, v, m) for m in ends)}
        assert blind == set()

    def test_degree_window_holds_on_every_kept_vertex(self):
        # a floor-deleted G(n, p) host, and the tree workload's configuration at
        # p = 0.25 (no adversary), where the first cells' screen alone let
        # vertices drift out of their windows in the final cells
        for n, p, seed, eps, r0, g_of in [
            (800, 0.4, 11, 0.25, 4, lambda host: deleted_to_floor(host, 0.2, 2, 0.4, 12)),
            (4000, 0.25, 0, 0.3, 12, lambda host: host),
        ]:
            host = gnp(n, p, seed)
            hs = prepare_host(g_of(host), host, p, 0.2, 2, eps, 0.1, r0, seed=seed)
            kept = [v for c in hs.clusters.values() for v in c]
            assert len(kept) > 0.875 * n
            for v in kept:
                nv = host.neighbours(v)
                for c in hs.clusters.values():
                    assert abs((nv & c.mask).bit_count() - p * len(c)) <= eps * p * len(c) + 1.0

    def test_g_rows_are_packed_once(self, monkeypatch):
        # On a graph that is its own host, every adjacency row that host
        # preparation reads is a slice of G's kept rows, packed once when G
        # was built: no row is packed from ints again, where reading them
        # afresh per use packed 4.7 n.
        g = paley(1009)
        packed = []
        pack = graph_core._packed

        def counting(masks, count, words):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "packed_rows" and caller.f_locals["self"] is g:
                packed.append(count)
            return pack(masks, count, words)

        monkeypatch.setattr(graph_core, "_packed", counting)
        hs = prepare_host(g, g, 0.5, 0.1, 2, 0.25, 0.1, 4, seed=0)
        assert hs.reduced.contains_backbone()
        assert sum(packed) == 0


@functools.lru_cache(maxsize=None)
def floor_host(n, p, seed):
    host = gnp_by_doubles(n, p, seed)
    return host, deleted_to_floor(host, 0.2, 2, p, seed)


def prepared(n, p, seed, eps, d, r0):
    """sha256 of (V0 mask, sorted cell -> cluster mask), or the HostPrepError message."""
    host, g = floor_host(n, p, seed)
    try:
        hs = prepare_host(g, host, p, 0.2, 2, eps, d, r0, seed=seed)
    except HostPrepError as exc:
        return str(exc)
    text = repr((hs.v0.mask, sorted((cell, c.mask) for cell, c in hs.clusters.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_row(n, seed, eps, d, expected, p=0.4, r0=4):
    """A row of `test_prepare_host_pinned`.  Its id is its configuration alone,
    n-seed-eps-d, with p and r0 put in only where they differ from 0.4 and 4, so
    that a re-pin keeps the test's name."""
    named = [f"p={p}"] * (p != 0.4) + [f"r0={r0}"] * (r0 != 4)
    row_id = "-".join(map(str, (n, seed, eps, d, *named)))
    return pytest.param(n, p, seed, eps, d, r0, expected, id=row_id)


# Outputs of the per-vertex screens that the degree tables replaced, on hosts
# drawn with `gnp_by_doubles`, so that they pin `prepare_host` alone.  (0.25, 0.1)
# is vacuous: with d <= eps/2 the inheritance screen only asks that v see both
# cells of every reduced edge; the other configurations run the whole screen.  At n = 1000 the
# partition leaves no exceptional vertex, so W is empty; at n = 1001 and 1003 it
# leaves some, and d = 0.35 makes the strong-row test choose rows, or find none.
# At p = 0.25 and 0.3 the closing screen moves the vertices that drift out of
# their degree windows in the final cells into V0.
@pytest.mark.parametrize(
    "n,p,seed,eps,d,r0,expected",
    [
        pinned_row(1000, 0, 0.25, 0.1, "4ee0376ab6c6eb471b7b1281ab53023941b111c27be1aa35535b5e693cc7837a"),
        pinned_row(1000, 1, 0.25, 0.1, "1cf1b16cf6a9a08b236dd8e85b3c71a4a36848ce74460eac3fd491f05006849f"),
        pinned_row(1000, 0, 0.3, 0.2, "d4553de85d3e1042768c1c481cbf967e6df86161b01db37e6af66336d6d3a74a"),
        pinned_row(1000, 1, 0.3, 0.2, "a3612313d71cd3dc65a4cbf532a7085acf7c63b0d6b14333d6caf919c7808e5d"),
        pinned_row(1000, 0, 0.08, 0.1, "[cleanup] a cluster was emptied by the vertex screens"),
        pinned_row(1000, 1, 0.08, 0.1, "[cleanup] a cluster was emptied by the vertex screens"),
        pinned_row(1001, 0, 0.3, 0.35, "636b52cd729c1034b944a8ff5b3b81f64fc65150403feb48e462938eba3ab5e2"),
        pinned_row(1003, 0, 0.3, 0.35, "[redistribute] no strong row under quota for vertex 126"),
        pinned_row(1000, 0, 0.25, 0.1, "34723eae8cb4794ed0a67c51c2618738c4ccc6a3f4db926a719612bb864eb548", p=0.25),
        pinned_row(1000, 0, 0.25, 0.1, "7449d7386983b45871d4ce320ac312591c556175e8a4654f139aad07a67ecc3a", p=0.3),
    ],
)
def test_prepare_host_pinned(n, p, seed, eps, d, r0, expected):
    assert prepared(n, p, seed, eps, d, r0) == expected
