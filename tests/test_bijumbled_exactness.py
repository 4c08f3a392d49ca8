"""The Paley host against its loop version, and the circulant certificate against
exact values.

The reference builds Paley rows by one shift-or per residue; the fast builder
must give the same graphs.  The certificate must equal sqrt(q)/2, the known
spectral value, on Paley hosts, and must never fall below the exhaustive
maximum discrepancy on circulants small enough to enumerate.
"""

import math

import pytest

from spanembed.graph_core import Graph, gnp, paley
from spanembed.oracles import _exhaustive_bijumbled_max, circulant_nu_upper


def reference_paley(q):
    residues = {(x * x) % q for x in range(1, q)}
    adj = [0] * q
    for u in range(q):
        for r in residues:
            adj[u] |= 1 << ((u + r) % q)
    return Graph(q, tuple(adj))


def _density(g):
    return 2.0 * g.m / (g.n * (g.n - 1))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


@pytest.mark.parametrize("q", [5, 13, 17, 29, 101, 2017])
def test_paley_matches_reference(q):
    assert paley(q) == reference_paley(q)


@pytest.mark.parametrize("q", [13, 17, 101, 2017])
def test_certificate_is_the_paley_spectrum(q):
    g = paley(q)
    assert circulant_nu_upper(g, _density(g)) == pytest.approx(math.sqrt(q) / 2, abs=1e-9)


SMALL_CIRCULANTS = {f"C{n}": (lambda n=n: cycle(n)) for n in range(5, 15)} | {"paley13": lambda: paley(13)}


@pytest.mark.parametrize("complemented", [False, True], ids=["graph", "complement"])
@pytest.mark.parametrize("name", list(SMALL_CIRCULANTS))
def test_certificate_bounds_the_exhaustive_maximum(name, complemented):
    g = SMALL_CIRCULANTS[name]()
    if complemented:
        g = complement(g)
    p = _density(g)
    ratio, _ = _exhaustive_bijumbled_max(g, p)
    assert circulant_nu_upper(g, p) >= ratio


def test_no_certificate_for_a_random_host():
    assert circulant_nu_upper(gnp(300, 0.3, 3), 0.3) is None
