"""Tests of the benchmark's output check.  Run: python3 -m pytest perfbench"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from spanembed.graph_core import Graph, gnp, paley  # noqa: E402
from spanembed.harness import ExperimentConfig  # noqa: E402

from perfbench.check import check_embedding, check_guest, check_host  # noqa: E402


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


# a 6-cycle guest in a host made of the same cycle plus the chord 0-3
GUEST = cycle(6)
HOST = Graph.from_edges(6, [*((v, (v + 1) % 6) for v in range(6)), (0, 3)])
PHI = {v: v for v in range(6)}


def test_valid_embedding_passes():
    assert check_embedding(GUEST, HOST, PHI) == []
    assert check_guest("hamilton_cycle", GUEST) == []


def test_images_swapped_across_a_non_edge_rejected():
    phi = dict(PHI)
    phi[1], phi[4] = phi[4], phi[1]  # guest edge 0-1 now lands on the non-edge 0-4
    assert not HOST.has_edge(phi[0], phi[1])
    assert check_embedding(GUEST, HOST, phi)


def test_phi_missing_a_vertex_rejected():
    phi = dict(PHI)
    del phi[5]
    assert check_embedding(GUEST, HOST, phi)


def test_phi_not_injective_rejected():
    assert check_embedding(GUEST, HOST, {**PHI, 5: 0})


def test_g_with_an_edge_outside_the_host_rejected():
    cfg = ExperimentConfig(n=60, p=0.5, k=2, gamma=0.01)
    host = gnp(60, 0.5, seed=1)
    assert check_host(cfg, host, host) == []
    u = 0
    v = next(w for w in range(1, 60) if not host.has_edge(u, w))
    g = Graph.from_edges(60, [*host.edges(), (u, v)])
    assert "G has an edge that is not in the host" in check_host(cfg, host, g)


def test_degree_floor_enforced():
    cfg = ExperimentConfig(n=60, p=0.5, k=2, gamma=0.01)
    host = gnp(60, 0.5, seed=1)
    g = host.without_edges([(0, w) for w in range(1, 60) if host.has_edge(0, w)])
    assert any(problem.startswith("delta(G)") for problem in check_host(cfg, host, g))


def test_paley_host_checked_against_residues():
    cfg = ExperimentConfig(n=29, p=0.5, k=2, gamma=0.01, mode="bijumbled", paley_q=29)
    host = paley(29)
    assert check_host(cfg, host, host) == []
    rotated = Graph(29, host.adj[1:] + host.adj[:1])
    assert check_host(cfg, rotated, rotated)


def test_guest_shapes():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert check_guest("hamilton_cycle", two_triangles)
    star = Graph.from_edges(5, [(0, v) for v in range(1, 5)])
    assert check_guest("bounded_tree:4", star) == []
    assert check_guest("bounded_tree:3", star)
    assert check_guest("bounded_tree:3", cycle(5))
