"""The numpy G(n,p) host and edge-deleting adversary against pure-Python oracles.

The oracles are the edge-list versions of `gnp` and `adversary_delete`: one
Philox double per pair from `triu_indices`, and a greedy over a list of edge
tuples.  The bit-matrix versions must reproduce their graphs exactly.
"""

import numpy as np
import pytest

from spanembed.graph_core import Graph, gnp, iter_bits, rng_for
from spanembed.harness import ConfigError, adversary_delete


def oracle_gnp(n, p, seed):
    adj = [0] * n
    if p > 0.0 and n > 1:
        rng = rng_for(seed, stream=0)
        iu, iv = np.triu_indices(n, k=1)
        hit = rng.random(iu.shape[0]) < p
        for u, v in zip(iu[hit].tolist(), iv[hit].tolist()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def oracle_adversary_delete(g, strategy, gamma, k, p, seed=0, budget=None, target=0):
    n = g.n
    floor = ((k - 1) / k + gamma) * p * n
    deg = [g.degree(v) for v in range(n)]
    rng = rng_for(seed, stream=101)

    def greedy(edges, cap):
        out = []
        for u, v in edges:
            if cap is not None and len(out) >= cap:
                break
            if deg[u] - 1 >= floor - 1e-9 and deg[v] - 1 >= floor - 1e-9:
                deg[u] -= 1
                deg[v] -= 1
                out.append((u, v))
        return out

    if strategy == "random":
        edges = list(g.edges())
        order = rng.permutation(len(edges))
        return g.without_edges(greedy([edges[int(i)] for i in order], budget))
    if strategy == "triangle_killer":
        nbrs = list(iter_bits(g.adj[target]))
        inside = [(u, v) for ii, u in enumerate(nbrs) for v in nbrs[ii + 1:] if g.has_edge(u, v)]
        order = rng.permutation(len(inside))
        ranked = sorted((inside[int(i)] for i in order), key=lambda e: -(deg[e[0]] + deg[e[1]]))
        g2 = g.without_edges(greedy(ranked, None))
        if any(g2.has_edge(u, v) for ii, u in enumerate(nbrs) for v in nbrs[ii + 1:]):
            raise ConfigError("triangle_killer blocked by the degree floor")
        return g2
    assert strategy == "bipartite_push"
    classes = [int(x) for x in rng.integers(0, k, size=n)]
    edges = [(u, v) for u, v in g.edges() if classes[u] == classes[v]]
    order = rng.permutation(len(edges))
    return g.without_edges(greedy([edges[int(i)] for i in order], budget))


@pytest.mark.parametrize(
    "n,p,seed",
    [(1, 0.5, 0), (2, 1.0, 0), (2, 0.5, 1), (3, 0.5, 2), (9, 0.3, 5), (50, 1.0, 1), (50, 0.0, 1), (301, 0.4, 3)],
)
def test_gnp_matches_oracle(n, p, seed):
    assert gnp(n, p, seed) == oracle_gnp(n, p, seed)


@pytest.mark.parametrize(
    "strategy,p,gamma,k,seed,budget,target",
    [
        ("random", 0.4, 0.2, 2, 0, None, 0),
        ("random", 0.4, 0.05, 3, 1, 500, 0),
        ("bipartite_push", 0.4, 0.2, 2, 3, None, 0),
        ("bipartite_push", 0.4, 0.05, 3, 4, 200, 0),
        ("triangle_killer", 0.3, 0.05, 2, 0, None, 0),
        ("triangle_killer", 0.3, 0.0, 2, 1, None, 7),
    ],
)
def test_adversary_matches_oracle(strategy, p, gamma, k, seed, budget, target):
    host = gnp(300, p, seed)
    args = (host, strategy, gamma, k, p)
    kwargs = dict(seed=seed, budget=budget, target=target)
    expect = oracle_adversary_delete(*args, **kwargs)
    assert expect.m < host.m
    if budget is not None:
        assert host.m - expect.m == budget  # the cap binds
    assert adversary_delete(*args, **kwargs) == expect


def test_blocked_triangle_killer_matches_oracle():
    host = gnp(300, 0.4, 5)
    for fn in (oracle_adversary_delete, adversary_delete):
        with pytest.raises(ConfigError, match="blocked"):
            fn(host, "triangle_killer", 0.2, 2, 0.4, seed=5, target=0)
