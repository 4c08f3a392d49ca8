"""The sampled bijumbledness search and the Paley host against their loop versions.

The references build a mask per degree cut and per random pair and count
e(X, Y) with `helpers.edges_between`, and build Paley rows by one shift-or per
residue.  The fast versions must give the same ratio, bit for bit, the same
witness masks and the same graphs.
"""

import pytest

from helpers import edges_between
from spanembed.graph_core import Graph, gnp, paley, rng_for
from spanembed.harness import adversary_delete
from spanembed.oracles import _discrepancy, bijumbled_check


def reference_sampled_bijumbled_max(g, p, k, seed):
    n = g.n
    best = -1.0
    best_pair = (0, 0)

    def consider(xmask, ymask):
        nonlocal best, best_pair
        if not xmask or not ymask or (xmask & ymask):
            return
        e = edges_between(g, xmask, ymask)
        r = _discrepancy(e, p, xmask.bit_count(), ymask.bit_count())
        if r > best:
            best = r
            best_pair = (xmask, ymask)

    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))
    for cut in range(1, n):
        lo = 0
        for v in by_degree[:cut]:
            lo |= 1 << v
        hi = ((1 << n) - 1) & ~lo
        consider(lo, hi)
    rng = rng_for(seed, stream=11)
    for _ in range(k):
        sx = int(rng.integers(1, n))
        sy = int(rng.integers(1, n - sx + 1))
        perm = rng.permutation(n)
        xmask = 0
        for v in perm[:sx]:
            xmask |= 1 << int(v)
        ymask = 0
        for v in perm[sx:sx + sy]:
            ymask |= 1 << int(v)
        consider(xmask, ymask)
    return best, best_pair


def reference_paley(q):
    residues = {(x * x) % q for x in range(1, q)}
    adj = [0] * q
    for u in range(q):
        for r in residues:
            adj[u] |= 1 << ((u + r) % q)
    return Graph(q, tuple(adj))


def _density(g):
    return 2.0 * g.m / (g.n * (g.n - 1))


HOSTS = {
    "paley17": lambda: paley(17),
    "paley29": lambda: paley(29),
    "paley101": lambda: paley(101),
    "paley2017": lambda: paley(2017),
    "gnp15": lambda: gnp(15, 0.5, 0),
    "gnp16": lambda: gnp(16, 0.5, 2),
    "gnp40-sparse": lambda: gnp(40, 0.1, 1),
    "gnp120-dense": lambda: gnp(120, 0.8, 2),
    "gnp300": lambda: gnp(300, 0.3, 3),
    "gnp1000": lambda: gnp(1000, 0.05, 4),
    "adversary300": lambda: adversary_delete(gnp(300, 0.4, 5), "random", 0.2, 2, 0.4, seed=5),
}

CASES = [
    (host, k, seed)
    for host in ("paley17", "paley29", "paley101", "gnp15", "gnp40-sparse", "gnp120-dense")
    for k, seed in ((0, 0), (50, 1), (700, 2), (2000, 3))
] + [
    ("gnp16", 700, 3),  # two draws tie at the maximum: the first one is the witness
    ("gnp300", 0, 0), ("gnp300", 700, 6),
    ("gnp1000", 0, 0), ("gnp1000", 50, 7), ("gnp1000", 2000, 8),
    ("adversary300", 0, 0), ("adversary300", 700, 9),
    ("paley2017", 0, 0), ("paley2017", 2000, 1),
]


@pytest.mark.parametrize("host,k,seed", CASES)
def test_sampled_search_matches_reference(host, k, seed):
    g = HOSTS[host]()
    p = _density(g)
    ratio, (x, y) = reference_sampled_bijumbled_max(g, p, k, seed)
    _, info = bijumbled_check(g, p, float("inf"), mode="sampled", k=k, seed=seed)
    assert info["ratio"] == ratio
    assert (info["x"], info["y"]) == (x, y)


def test_paley2017_frozen_witness():
    _, info = bijumbled_check(paley(2017), 0.5, float("inf"), mode="sampled", k=2000, seed=0)
    assert info["ratio"] == 10.749697978455178
    assert (info["x_size"], info["y_size"]) == (810, 1207)


@pytest.mark.parametrize("q", [5, 13, 17, 29, 101, 2017])
def test_paley_matches_reference(q):
    assert paley(q) == reference_paley(q)
