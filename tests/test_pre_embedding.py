import functools
import hashlib
from types import SimpleNamespace

import pytest

from spanembed.graph_core import VertexSet, gnp, iter_bits
from spanembed.guest_prep import Colouring
from spanembed.harness import make_guest
from spanembed.pre_embedding import (
    _anchor_candidates,
    _choose_host_row,
    _independent_neighbourhood,
    PreEmbedError,
    pre_embed,
    reserve_set,
    restriction_image,
    validate_restriction_pair,
    RestrictionPair,
)
from spanembed.reduced_graph import prepare_host

from helpers import deleted_to_floor, degree_into, gnp_by_doubles, pre_embed_instance


PARAMS = dict(eps=0.25, d=0.1, p=0.4, mu=0.15, delta=2, forbid_c4=False)


class TestReserveSet:
    def test_mu_one_is_everything(self):
        g = gnp(60, 0.5, 1)
        s = reserve_set(g, g, {}, 1.0, seed=1)
        assert len(s) == 60

    def test_tiny_mu_empty(self):
        g = gnp(60, 0.5, 1)
        s = reserve_set(g, g, {}, 0.01, seed=1)
        assert len(s) == 0

    def test_seeded_probe_certified(self):
        host = gnp(1000, 0.4, 8)
        g = deleted_to_floor(host, 0.2, 2, 0.4, 8)
        hs = prepare_host(g, host, 0.4, 0.2, 2, 0.25, 0.1, 4, seed=8)
        s = reserve_set(g, host, hs.clusters, 0.05, seed=8, delta_max=2, eps=0.25)
        assert len(s) == 50
        for c in hs.clusters.values():
            assert (c.mask & s.mask).bit_count() <= 2 * 0.05 * len(c) + 2


class TestPreEmbed:
    def test_empty_v0_trivial(self):
        g, host, hs, guest, lab, assignment = pre_embed_instance(seed=3)
        hs.v0 = VertexSet.empty(g.n)
        reserve = reserve_set(g, host, hs.clusters, 0.15, seed=3)
        state, f_star, restr = pre_embed(
            g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve, **PARAMS, seed=3
        )
        assert not state.phi
        assert f_star == assignment.f
        assert not restr.J

    def test_invariants_on_seeded_instances(self):
        for seed, v0_target in [(0, 1), (1, 3), (2, 8), (4, 5)]:
            g, host, hs, guest, lab, assignment = pre_embed_instance(seed=seed, v0_target=v0_target)
            reserve = reserve_set(g, host, hs.clusters, 0.15, seed=seed)
            state, f_star, restr = pre_embed(
                g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve, **PARAMS, seed=seed
            )
            im = state.image_mask()
            # exceptional set fully covered, images inside V0 + reserve
            assert hs.v0.mask & ~im == 0
            assert im & ~(hs.v0.mask | reserve.mask) == 0
            # injective, edge-preserving where both ends are embedded
            assert len(set(state.phi.values())) == len(state.phi)
            for x, v in state.phi.items():
                for y in iter_bits(guest.neighbours(x)):
                    if y in state.phi:
                        assert g.has_edge(v, state.phi[y])
            # each anchor's embedded neighbour images sit in N_G(v_t) cap reserve
            for anchor, v_t in state.anchors:
                for y in iter_bits(guest.neighbours(anchor)):
                    w = state.phi[y]
                    assert g.has_edge(v_t, w) and w in reserve
            # anchors pairwise far apart in the guest
            anchors = [a for a, _ in state.anchors]
            sep = 2 * hs.r + 20
            for i, a in enumerate(anchors):
                dist = guest.bfs_distances([a], limit=sep - 1)
                for b in anchors[i + 1:]:
                    assert dist[b] == -1  # further than sep - 1
            # rerouted assignment is still a homomorphism
            dom = state.domain_mask()
            for u, v in guest.edges():
                if ((dom >> u) & 1) or ((dom >> v) & 1):
                    continue
                assert hs.reduced.has_edge(f_star[u], f_star[v])

    def test_cycle_anchors_embed_three_each_and_cover_v0(self):
        g, host, hs, guest, lab, assignment = pre_embed_instance(seed=5, v0_target=1)
        reserve = reserve_set(g, host, hs.clusters, 0.15, seed=5)
        state, _, _ = pre_embed(
            g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve, **PARAMS, seed=5
        )
        # each anchor sits on its exceptional vertex, with its two cycle neighbours
        assert len(state.phi) == 3 * len(state.anchors)
        assert all(state.phi[x] == v for x, v in state.anchors)
        assert set(hs.v0) <= set(state.phi.values())


@functools.lru_cache(maxsize=None)
def cached_instance(seed, v0_target):
    return pre_embed_instance(seed=seed, v0_target=v0_target, draw=gnp_by_doubles)


def pre_embedded(seed, v0_target, mu, delta, eps, d):
    """("success", sha256 of (sorted phi, anchors, f*, sorted J)), or the
    PreEmbedError's stage with the sha256 of its stage and message."""
    g, host, hs, guest, lab, assignment = cached_instance(seed, v0_target)
    reserve = reserve_set(g, host, hs.clusters, mu, seed=seed)
    try:
        state, f_star, restr = pre_embed(
            g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve,
            eps=eps, d=d, p=0.4, mu=mu, delta=delta, forbid_c4=(delta == 3), seed=seed,
        )
    except PreEmbedError as exc:
        return exc.stage, hashlib.sha256(repr((exc.stage, str(exc))).encode()).hexdigest()
    text = repr((sorted(state.phi.items()), state.anchors, f_star, sorted(restr.J.items())))
    return "success", hashlib.sha256(text.encode()).hexdigest()


# One fixture per outcome: a success and each failure stage that an instance
# reaches, as (seed, v0_target, mu, delta, eps, d).  The hosts are drawn with
# `gnp_by_doubles`, so the digests pin `pre_embed` alone.
@pytest.mark.parametrize(
    "fixture,outcome,digest",
    [
        ((0, 1, 0.15, 2, 0.25, 0.1), "success",
         "366d5367b994fab2e6bdf096994da1ead9f22f15f9a471725eff4ed07e7d23b4"),
        ((0, 1, 0.15, 2, 0.05, 0.5), "common-size",
         "954c11d3275b14374f30b4cb8011f269a0fb9f96146a448dcbdedd54fa3a003e"),
        ((0, 1, 0.15, 3, 0.1, 0.3), "pair-regularity",
         "9a21066da7dcdbb01be84c35d320a365042b506d21cfff2a58e60e4772af9e29"),
        ((0, 1, 0.04, 2, 0.05, 0.5), "row-filter",
         "12d81b5b95d98cb35177cca09b6ee19db994ff58a6d98ac67c3d5df1a6c731f6"),
        ((1, 3, 0.04, 2, 0.05, 0.5), "candidates",
         "6e2586d9a8ad7a263e553baa80caa6a017dce7d1482187072d8f51a11a8e3212"),
        ((8, 12, 0.04, 2, 0.25, 0.1), "stuck-guard",
         "4595376ef04f7f04210ca0ecd8ed4fb3a51dd44de36a9e4aac7128911f0b713c"),
        ((11, 60, 0.15, 2, 0.25, 0.1), "anchors",
         "f1d3bd4b340e91103d4c820d1ca9cf6490ae6ad8f0bd311f1f64251bd5ed6e3a"),
    ],
)
def test_pre_embed_pinned(fixture, outcome, digest):
    assert pre_embedded(*fixture) == (outcome, digest)


class TestRestrictionValidation:
    def test_empty_pair_vacuous(self):
        g = gnp(40, 0.5, 1)
        report = validate_restriction_pair(
            RestrictionPair(), {}, {}, g, g, 0.1, 0.01, 2, 0.25, 0.5, 0.1,
            f_star=(), guest=g, skip=set(),
        )
        assert report["all_ok"]["ok"]

    def test_degree_budget_violation(self):
        from spanembed.graph_core import Graph

        guest = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        restr = RestrictionPair(J={0: (7, 8)})
        g = gnp(40, 0.5, 2)
        cells = {(0, 0): VertexSet.from_iter(40, range(20))}
        f_star = ((0, 0),) * 4
        report = validate_restriction_pair(
            restr, cells, {(0, 0): 4}, g, g, 0.9, 1e-6, 2, 0.9, 0.5, 0.1,
            f_star=f_star, guest=guest, skip=set(),
        )
        assert not report["degree_budget"]["ok"]
        assert 0 in report["degree_budget"]["violations"]

    def test_fixture_from_seeded_run(self):
        g, host, hs, guest, lab, assignment = pre_embed_instance(seed=7, v0_target=4)
        reserve = reserve_set(g, host, hs.clusters, 0.15, seed=7)
        state, f_star, restr = pre_embed(
            g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve, **PARAMS, seed=7
        )
        im = state.image_mask()
        clusters_prime = {c: VertexSet(g.n, vs.mask & ~im) for c, vs in hs.clusters.items()}
        parts = {}
        dom = state.domain_mask()
        for v in range(g.n):
            if not ((dom >> v) & 1):
                parts[f_star[v]] = parts.get(f_star[v], 0) + 1
        report = validate_restriction_pair(
            restr, clusters_prime, parts, host, g,
            rho=0.1, zeta=0.01, delta=2, eps=0.25, p=0.4, d=0.1,
            f_star=f_star, guest=guest, skip=set(state.phi.keys()), seed=7,
        )
        assert report["all_ok"]["ok"], {k: v for k, v in report.items() if not v["ok"]}

    def test_restriction_image_mask(self):
        g = gnp(30, 0.5, 3)
        cells = {(0, 0): VertexSet.from_iter(30, range(15))}
        img = restriction_image(g, cells, (0, 0), [20])
        assert img == g.neighbours(20) & cells[(0, 0)].mask


def reference_anchor_candidates(h, l, assignment, r, forbid_c4):
    """Anchors read from one BFS ball per guest vertex, scanned over all n vertices;
    kept as the oracle of the one-BFS-per-row search."""
    out = []
    f, sig = assignment.f, assignment.sigma_prime.sigma
    for x in l.order:
        if sig[x] == 0 or not _independent_neighbourhood(h, x, forbid_c4):
            continue
        dist = h.bfs_distances([x], limit=r + 2)
        if all(f[z][0] == f[x][0] and sig[z] != 0 for z in range(h.n) if dist[z] >= 0):
            out.append(x)
    return out


@pytest.mark.parametrize("family", ["hamilton_cycle", "bounded_tree:3", "f_factor:path3"])
def test_anchor_candidates_match_ball_scan(family):
    n = 600
    guest, lab, col, _ = make_guest(family, n, 3)
    # rows are consecutive stretches of the labelling; every 97th vertex takes colour 0
    sigma = tuple(0 if lab.pos[v] % 97 == 50 else c for v, c in enumerate(col.sigma))
    for r in (2, 3, 5):
        f = tuple((lab.pos[v] * r // n, 0) for v in range(n))
        assignment = SimpleNamespace(f=f, sigma_prime=Colouring(sigma, col.k))
        for forbid_c4 in (False, True):
            got = list(_anchor_candidates(guest, lab, assignment, r, forbid_c4))
            assert got == reference_anchor_candidates(guest, lab, assignment, r, forbid_c4)
            assert 0 < len(got) < n


def reference_choose_host_row(g, host, y_mask, clusters, v0_mask, r, k, eps, d, p, prefer=0):
    """The per-vertex loop that `_choose_host_row` replaced; kept as the oracle of
    its degree-table form."""
    n = g.n
    kept_rows = {i: [] for i in range(r)}
    for y in iter_bits(y_mask):
        if v0_mask and (host.neighbours(y) & v0_mask).bit_count() >= max(eps * p * n, 2 * p * v0_mask.bit_count() + 4):
            continue
        deviant = False
        for cell, c in clusters.items():
            dy = (host.neighbours(y) & c.mask).bit_count()
            if abs(dy - p * len(c)) > eps * p * len(c) + 1.0:
                deviant = True
                break
        if deviant:
            continue
        for i in range(r):
            if all(
                degree_into(g, y, clusters[(i, j)].mask) >= d * p * len(clusters[(i, j)])
                for j in range(k)
            ):
                kept_rows[i].append(y)
    best = max(range(r), key=lambda i: (len(kept_rows[i]), -((i - prefer) % r)))
    return best, kept_rows[best]


@pytest.mark.parametrize("eps,d", [(0.25, 0.1), (0.1, 0.65), (0.05, 0.7), (0.3, 0.75), (0.3, 1.1)])
def test_choose_host_row_matches_loop(eps, d):
    g, host, hs, *_ = pre_embed_instance(seed=2, v0_target=8)
    r, k = hs.r, hs.k
    outside = ((1 << g.n) - 1) & ~hs.v0.mask
    y_masks = [g.neighbours(v) for v in list(hs.v0)[:3]] + [outside]
    y0 = next(iter_bits(outside))
    # the exceptional set itself, and a large one that y0 sees entirely
    for v0_mask in (hs.v0.mask, host.neighbours(y0)):
        for y_mask in y_masks:
            for prefer in range(r):
                args = (g, host, y_mask, hs.clusters, v0_mask, r, k, eps, d, 0.4)
                assert _choose_host_row(*args, prefer=prefer) == reference_choose_host_row(*args, prefer=prefer)
