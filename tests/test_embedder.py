import itertools

import pytest

from spanembed.embedder import (
    BufferPlan,
    EmbedError,
    choose_buffers,
    embed,
    embedding_violations,
    verify_embedding,
)
from spanembed.graph_core import Graph, Labelling, VertexSet, gnp
from spanembed.pre_embedding import RestrictionPair

from helpers import cycle_graph, fold_labelling, two_cell_setup


class TestEmbed:
    def test_complete_host_any_order(self):
        n = 40
        guest, f_star, clusters = two_cell_setup(n)
        g = Graph.complete(n)
        buffers = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), 0.1, order=fold_labelling(n))
        res = embed(g, guest, clusters, f_star, RestrictionPair(), buffers, fold_labelling(n), seed=1)
        assert verify_embedding(g, guest, res.phi)

    def test_edgeless_guest_bijections(self):
        n = 30
        guest = Graph.empty(n)
        f_star = tuple((0, v % 2) for v in range(n))
        clusters = {
            (0, 0): VertexSet.from_iter(n, range(0, n, 2)),
            (0, 1): VertexSet.from_iter(n, range(1, n, 2)),
        }
        g = Graph.empty(n)
        buffers = BufferPlan({c: VertexSet.empty(n) for c in clusters})
        res = embed(g, guest, clusters, f_star, RestrictionPair(), buffers, Labelling.identity(n), seed=1)
        assert verify_embedding(g, guest, res.phi)

    def test_size_mismatch_rejected(self):
        n = 30
        guest, f_star, clusters = two_cell_setup(n)
        clusters[(0, 0)] = clusters[(0, 0)] - VertexSet.from_iter(n, [0])
        with pytest.raises(EmbedError):
            embed(Graph.complete(n), guest, clusters, f_star, RestrictionPair(),
                  BufferPlan({c: VertexSet.empty(n) for c in clusters}), fold_labelling(n), seed=1)

    def test_respects_image_restrictions(self):
        n = 40
        guest, f_star, clusters = two_cell_setup(n)
        g = Graph.complete(n)
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
        g = Graph.empty(n)
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
        g = Graph.empty(4)
        viols = embedding_violations(g, g, {0: 1, 1: 1, 2: 2, 3: 3})
        assert any("collide" in v for v in viols)

    def test_restriction_violation_reported(self):
        g = Graph.complete(4)
        phi = {v: v for v in range(4)}
        viols = embedding_violations(g, g, phi, images={0: 0b1110})
        assert any("restriction" in v for v in viols)
