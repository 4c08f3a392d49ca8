import itertools

import numpy as np
import pytest

from spanembed.embedder import (
    BufferPlan,
    EmbedError,
    _FreeCounts,
    choose_buffers,
    embed,
    embedding_violations,
    verify_embedding,
)
from spanembed.graph_core import Graph, Labelling, VertexSet, bit_positions, gnp, mask_of, rng_for, row_mask_counts
from spanembed.pre_embedding import RestrictionPair

from helpers import complete_graph, cycle_graph, empty_graph, fold_labelling, two_cell_setup
from test_embed_exactness import K3_CFG, pipeline_embed_calls


class TestEmbed:
    def test_complete_host_any_order(self):
        n = 40
        guest, f_star, clusters = two_cell_setup(n)
        g = complete_graph(n)
        buffers = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), 0.1, order=fold_labelling(n))
        res = embed(g, guest, clusters, f_star, RestrictionPair(), buffers, fold_labelling(n), seed=1)
        assert verify_embedding(g, guest, res.phi)

    def test_edgeless_guest_bijections(self):
        n = 30
        guest = empty_graph(n)
        f_star = tuple((0, v % 2) for v in range(n))
        clusters = {
            (0, 0): VertexSet.from_iter(n, range(0, n, 2)),
            (0, 1): VertexSet.from_iter(n, range(1, n, 2)),
        }
        g = empty_graph(n)
        buffers = BufferPlan({c: VertexSet.empty(n) for c in clusters})
        res = embed(g, guest, clusters, f_star, RestrictionPair(), buffers, Labelling.identity(n), seed=1)
        assert verify_embedding(g, guest, res.phi)

    def test_size_mismatch_rejected(self):
        n = 30
        guest, f_star, clusters = two_cell_setup(n)
        clusters[(0, 0)] = clusters[(0, 0)] - VertexSet.from_iter(n, [0])
        with pytest.raises(EmbedError):
            embed(complete_graph(n), guest, clusters, f_star, RestrictionPair(),
                  BufferPlan({c: VertexSet.empty(n) for c in clusters}), fold_labelling(n), seed=1)

    def test_respects_image_restrictions(self):
        n = 40
        guest, f_star, clusters = two_cell_setup(n)
        g = complete_graph(n)
        restr = RestrictionPair(J={4: (5,)})  # image of guest 4 must neighbour host 5
        buffers = BufferPlan({c: VertexSet.empty(n) for c in clusters})
        res = embed(g, guest, clusters, f_star, restr, buffers, fold_labelling(n), seed=2)
        from spanembed.pre_embedding import restriction_image

        img = restriction_image(g, clusters, f_star[4], (5,))
        assert (img >> res.phi[4]) & 1

    def test_dense_random_host(self):
        n = 60
        guest, f_star, clusters = two_cell_setup(n)
        g = gnp(n, 0.7, 5)
        buffers = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), 0.15, order=fold_labelling(n))
        res = embed(g, guest, clusters, f_star, RestrictionPair(), buffers, fold_labelling(n), seed=5)
        assert verify_embedding(g, guest, res.phi)

    def test_impossible_guest_fails_with_stuck_vertex(self):
        n = 20
        guest, f_star, clusters = two_cell_setup(n)
        g = empty_graph(n)
        buffers = BufferPlan({c: VertexSet.empty(n) for c in clusters})
        with pytest.raises(EmbedError) as ei:
            embed(g, guest, clusters, f_star, RestrictionPair(), buffers, fold_labelling(n), seed=1)
        assert ei.value.stuck is not None


class TestChooseBuffers:
    def test_counts_and_independence(self):
        n = 60
        guest, f_star, clusters = two_cell_setup(n)
        plan = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), 0.1, order=fold_labelling(n))
        all_buf = list(plan.buffers[(0, 0)]) + list(plan.buffers[(0, 1)])
        for a, b in itertools.combinations(all_buf, 2):
            assert not guest.has_edge(a, b)
        for cell, bs in plan.buffers.items():
            assert len(bs) >= 1

    def test_skip_mask_respected(self):
        n = 40
        guest, f_star, clusters = two_cell_setup(n)
        skip = (1 << 0) | (1 << 1)
        plan = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), 0.2, skip_mask=skip)
        assert 0 not in plan.mask_vertices() if hasattr(plan, "mask_vertices") else not (plan.mask() & skip)


class TestVerifyEmbedding:
    def test_identity_embedding(self):
        g = gnp(20, 0.4, 7)
        phi = {v: v for v in range(20)}
        assert verify_embedding(g, g, phi)

    def test_broken_edge_reported(self):
        g = cycle_graph(6)
        phi = {v: v for v in range(6)}
        phi[0], phi[3] = 3, 0  # swaps break cycle edges
        viols = embedding_violations(g, g, phi)
        assert viols and any("edge" in v for v in viols)

    def test_not_total_reported(self):
        g = cycle_graph(6)
        assert not verify_embedding(g, g, {0: 0})

    def test_collision_reported(self):
        g = empty_graph(4)
        viols = embedding_violations(g, g, {0: 1, 1: 1, 2: 2, 3: 3})
        assert any("collide" in v for v in viols)

    def test_restriction_violation_reported(self):
        g = complete_graph(4)
        phi = {v: v for v in range(4)}
        viols = embedding_violations(g, g, phi, images={0: 0b1110})
        assert any("restriction" in v for v in viols)

    def test_reads_each_image_row_once(self, monkeypatch):
        # a partial map of a sparse guest into a host that keeps rows: the
        # messages are the edge-by-edge ones in `guest.edges()` order, and no
        # image row is built more than once per guest vertex (`has_edge` reads
        # one word of a kept row and builds none)
        g = gnp(60, 0.5, 3)
        guest = Graph.from_edges(40, gnp(40, 0.2, 4).edges())
        perm = rng_for(5, stream=3).permutation(60).tolist()
        phi = {x: perm[x] for x in range(40) if x % 7}
        broken = [(u, v) for u, v in guest.edges() if u in phi and v in phi and not g.has_edge(phi[u], phi[v])]
        assert len(broken) > 10
        expected = [f"not total: {len(phi)}/40"]
        expected += [f"edge ({u},{v}) -> ({phi[u]},{phi[v]}) missing in host" for u, v in broken]
        calls = []
        neighbours = Graph.neighbours
        monkeypatch.setattr(Graph, "neighbours", lambda self, v: calls.append(v) or neighbours(self, v))
        assert embedding_violations(g, guest, phi) == expected
        assert len(calls) <= guest.n


def test_free_counts_follow_places_swaps_and_undos(monkeypatch):
    """On the host and clusters that the `K3_CFG` seed-0 run hands to `embed`, a
    seeded run of the main phase's three moves: place a guest on a free host,
    swap a placed guest to a free host of its cluster, and undo the latest
    placements.  After every move the kept table equals a fresh count of each
    host's free neighbours, in all and in each cluster."""
    [(args, kwargs)] = pipeline_embed_calls(monkeypatch, K3_CFG, [0])
    g, clusters = args[0], args[2]
    rows = g.packed_rows()
    free = ((1 << g.n) - 1) & ~mask_of(kwargs["initial_phi"].values())
    counts = _FreeCounts(rows, clusters, free)
    cluster_of = {h: c.mask for c in clusters.values() for h in c}
    placed: list[int] = []
    rng = rng_for(0, stream=7)
    moves = {"place": 0, "swap": 0, "undo": 0}
    for _ in range(400):
        kind = ["place", "swap", "undo"][int(rng.choice(3, p=[0.6, 0.25, 0.15]))] if placed else "place"
        if kind == "place":
            h = int(rng.choice(bit_positions(free & mask_of(cluster_of))))
            placed.append(h)
            free ^= 1 << h
            counts.shift(h, -1)
        elif kind == "swap":
            at = int(rng.integers(len(placed)))
            w = placed[at]
            options = bit_positions(free & cluster_of[w])
            if not len(options):
                continue
            w2 = placed[at] = int(rng.choice(options))
            free ^= (1 << w) | (1 << w2)
            counts.shift(w, 1)
            counts.shift(w2, -1)
        else:
            for _ in range(min(len(placed), int(rng.integers(1, 6)))):
                h = placed.pop()
                free |= 1 << h
                counts.shift(h, 1)
        moves[kind] += 1
        fresh = row_mask_counts(rows, [free] + [c.mask & free for c in clusters.values()]).T
        assert np.array_equal(counts.table, fresh)
    assert min(moves.values()) >= 40
