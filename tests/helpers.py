"""Shared fixture builders for the test suite."""

import numpy as np

from spanembed.graph_core import Graph, Labelling, VertexSet, gnp, iter_bits, rng_for, unpack_rows
from spanembed.guest_prep import Colouring, assign_guest
from spanembed.harness import make_guest
from spanembed.reduced_graph import BackboneIndex, ReducedGraph, prepare_host

# the desk-scale resilience configuration the acceptance suite runs
SMOKE_CFG = dict(
    n=1000, p=0.4, k=2, gamma=0.2, adversary="random", guest_family="hamilton_cycle",
    eps=0.25, d=0.1, mu=0.15,
)

# degenerate mode with a bounded-degree tree: the values of the benchmark's
# tree-degenerate-n4000 workload
TREE_CFG = dict(
    mode="degenerate", guest_family="bounded_tree:3", adversary="none",
    n=4000, p=0.4, k=2, gamma=0.2, eps=0.3, d=0.1, mu=0.15, r0=12,
    D=1, Delta=3, xi_guest=0.45,
)


def empty_graph(n):
    """The graph on n vertices with no edge."""
    return Graph(n, tuple([0] * n))


def complete_graph(n):
    """The graph on n vertices with every edge."""
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def bit_matrix(g, vertices=None):
    """The adjacency rows of `vertices` (all by default) of g as a fresh bool matrix with n columns."""
    return unpack_rows(g.packed_rows(vertices), g.n)


def graph_from_bit_matrix(a):
    """Graph whose adjacency is the n x n bool matrix `a`, which must be symmetric with a zero diagonal."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
    rows = np.packbits(a, axis=1, bitorder="little")
    return Graph(n, tuple(int.from_bytes(row, "little") for row in rows))


def gnp_by_doubles(n, p, seed):
    """G(n, p) from one double of `rng_for(seed, 0)` per pair u < v, in row-major
    order: the stream that `gnp` drew before it compared binary digits.  Tests
    that pin what later stages make of a host draw it here, so that their pins
    do not move with `gnp`'s stream."""
    a = np.zeros((n, n), dtype=bool)
    if p > 0.0 and n > 1:
        iu = np.triu_indices(n, k=1)
        a[iu] = rng_for(seed, stream=0).random(len(iu[0])) < p
    return graph_from_bit_matrix(a | a.T)


def edges_between(g, xmask, ymask):
    """Number of edges of g with one end in X, the other in Y (X, Y disjoint): one
    popcount per vertex of X, the reference for every packed edge count."""
    if xmask & ymask:
        raise ValueError("edges_between requires disjoint sets")
    return sum((g.neighbours(x) & ymask).bit_count() for x in iter_bits(xmask))


def degree_into(g, v, mask):
    """|N(v) & mask| in g."""
    return (g.neighbours(v) & mask).bit_count()


def backbone_edges(r, k):
    """The backbone's edges, as frozensets of two cells."""
    idx = BackboneIndex(r, k)
    cells = idx.cells()
    return {frozenset((cells[a], cells[b])) for a, b in idx.graph().edges()}


def cell_counts(assignment):
    """Number of guest vertices that a GuestAssignment maps to each cell."""
    counts = {}
    for cell in assignment.f:
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def move_touches(log):
    """Number of recorded moves in a MoveLog that start or end at each cell."""
    out = {}
    for _, src, dst, _ in log.moves:
        out[src] = out.get(src, 0) + 1
        out[dst] = out.get(dst, 0) + 1
    return out


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def fold_labelling(n):
    order = []
    for i in range((n + 1) // 2):
        order.append(i)
        if n - 1 - i != i:
            order.append(n - 1 - i)
    return Labelling(tuple(order))


def two_cell_setup(n):
    """Even cycle into two cells by parity: cell (0,0) even ids, (0,1) odd."""
    guest = cycle_graph(n)
    f_star = tuple((0, v % 2) for v in range(n))
    clusters = {
        (0, 0): VertexSet.from_iter(n, range(0, n, 2)),
        (0, 1): VertexSet.from_iter(n, range(1, n, 2)),
    }
    return guest, f_star, clusters


def deleted_to_floor(host, gamma, k, p, seed, stream=42):
    """Random adversary pushed all the way to the degree floor."""
    floor = ((k - 1) / k + gamma) * p * host.n
    rng = rng_for(seed, stream=stream)
    deg = [host.degree(v) for v in range(host.n)]
    edges = list(host.edges())
    drop = []
    for i in rng.permutation(len(edges)):
        u, v = edges[int(i)]
        if deg[u] - 1 >= floor and deg[v] - 1 >= floor:
            deg[u] -= 1
            deg[v] -= 1
            drop.append((u, v))
    return host.without_edges(drop)


def complete_reduced(r, k):
    """Every pair of cells adjacent; row i extends to cell (i + 1 mod r, 0)."""
    return ReducedGraph(BackboneIndex(r, k), complete_graph(r * k), {i: ((i + 1) % r, 0) for i in range(r)})


def even_targets(n, r, k):
    cells = [(i, j) for i in range(r) for j in range(k)]
    base = n // len(cells)
    rem = n - base * len(cells)
    return {cell: base + (1 if idx < rem else 0) for idx, cell in enumerate(cells)}


def window_tree(n, seed, window=5, dmax=3):
    """Tree on 0..n-1 whose edges span at most `window` labels, with its proper 2-colouring.

    Each vertex takes a parent among the `window` before it with degree below
    `dmax`, preferring the colour class that is behind.
    """
    rng = rng_for(seed, stream=7)
    edges, colour, degs = [], [1], [0]
    bal = 1
    for v in range(1, n):
        lo = max(0, v - window)
        want = 1 if bal >= 0 else 2
        cands = [u for u in range(lo, v) if degs[u] < dmax and colour[u] == want]
        if not cands:
            cands = [u for u in range(lo, v) if degs[u] < dmax]
        u = cands[int(rng.integers(len(cands)))]
        edges.append((u, v))
        degs[u] += 1
        degs.append(1)
        colour.append(3 - colour[u])
        bal += 1 if colour[v] == 1 else -1
    return Graph.from_edges(n, edges), Colouring(tuple(colour), 2)


def pre_embed_instance(n=1000, seed=0, v0_target=None, eps=0.25, draw=gnp):
    """Host structure, guest, and assignment with V0 padded to a target size; the
    host is `draw(n, 0.4, seed)`."""
    p, k, gamma = 0.4, 2, 0.2
    host = draw(n, p, seed)
    g = deleted_to_floor(host, gamma, k, p, seed)
    hs = prepare_host(g, host, p, gamma, k, eps, 0.1, 4, seed=seed)
    if v0_target is not None and len(hs.v0) < v0_target:
        short = v0_target - len(hs.v0)
        cells = sorted(hs.clusters)
        moved = hs.v0.mask
        for t in range(short):
            cell = cells[t % len(cells)]
            v = max(iter_bits(hs.clusters[cell].mask))
            hs.clusters[cell] = hs.clusters[cell] - VertexSet.from_iter(n, [v])
            moved |= 1 << v
        hs.v0 = VertexSet(n, moved)
    guest, lab, col, _ = make_guest("hamilton_cycle", n, seed)
    cells = sorted(hs.clusters)
    v0s = len(hs.v0)
    base = v0s // len(cells)
    m = {c: len(hs.clusters[c]) + base for c in cells}
    for c in cells[: v0s - base * len(cells)]:
        m[c] += 1
    assignment = assign_guest(guest, lab, col, hs.reduced, m, xi=0.05, blocklen=32, seed=seed)
    return g, host, hs, guest, lab, assignment
