"""Backbone structure on [r] x [k] and the host-side cleanup pipeline.

The backbone graph joins cells (i, j), (i', j') exactly when j != j' and
|i - i'| <= 1; its row cliques form the clique factor.  `prepare_host` turns a
raw host subgraph into an exceptional set plus a k-equitable cluster partition
whose reduced graph carries a spanning backbone copy, screening degree windows
and inheritance on the final cells and certifying size windows and regularity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import Graph, StageError, VertexSet, bit_positions, iter_bits, mask_of, rng_for
from .regularity import (
    check_lower_regular,
    check_super_regular,
    inheritance_table,
    min_degree_regular_partition,
    RegularityError,
)

__all__ = [
    "BackboneIndex",
    "ReducedGraph",
    "HostStructure",
    "find_backbone",
    "prepare_host",
    "validate_k_equitable",
    "HostPrepError",
]


# Host preparation settings: the sample budget of every pair check, the Z1
# degree screen as a fraction of the certificate window eps, the seeded
# restarts of the whole preparation and the backbone search's step budget.
# The closing screen on the final cells (no Z2 proxy) needs no setting.
PAIR_BUDGET = 64
SCREEN_FRAC = 0.9
HOST_RETRIES = 3
BACKBONE_STEPS = 10**6


class HostPrepError(StageError):
    """Host preparation failed; `stage` names the failing step."""


@dataclass(frozen=True)
class BackboneIndex:
    """Index space [r] x [k] with the backbone edge rule; cell (i, j) is vertex i*k + j."""

    r: int
    k: int

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.r) for j in range(self.k)]

    def vertex(self, cell: tuple[int, int]) -> int:
        return cell[0] * self.k + cell[1]

    def is_backbone_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[1] != b[1] and abs(a[0] - b[0]) <= 1

    def graph(self) -> Graph:
        """The backbone on the r*k cell vertices."""
        pairs = itertools.combinations(self.cells(), 2)
        return Graph.from_edges(
            self.r * self.k,
            ((self.vertex(a), self.vertex(b)) for a, b in pairs if self.is_backbone_edge(a, b)),
        )


@dataclass
class ReducedGraph:
    """Reduced graph on the [r] x [k] cells with a distinguished backbone copy.

    `graph` has vertex i*k + j for cell (i, j); `extension` maps each row i to
    a cell z_i outside row i adjacent to every cell of row i.
    """

    index: BackboneIndex
    graph: Graph
    extension: dict[int, tuple[int, int]] = field(default_factory=dict)

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return self.graph.has_edge(self.index.vertex(a), self.index.vertex(b))

    def contains_backbone(self) -> bool:
        return all(self.graph.has_edge(u, v) for u, v in self.index.graph().edges())

    def validate_extension(self) -> bool:
        for i in range(self.index.r):
            z = self.extension.get(i)
            if z is None or z[0] == i:
                return False
            if any(not self.has_edge(z, (i, j)) for j in range(self.index.k)):
                return False
        return True


def find_backbone(
    cluster_graph: Graph, r: int, k: int, seed: int
) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """Search for a spanning backbone copy inside a cluster graph on r*k vertices.

    Returns (embedding cell -> vertex, extension row -> vertex).  Backtracks
    row by row with candidate scoring and seeded restarts; raises
    HostPrepError("backbone") with the deepest row reached when the search
    fails or its step budget runs out.
    """
    m = cluster_graph.n
    if m != r * k:
        raise ValueError("vertex count must equal r*k")
    adj = [cluster_graph.neighbours(v) for v in range(m)]
    deg = [a.bit_count() for a in adj]
    steps = 0
    best_depth = 0
    rng = rng_for(seed, stream=41)

    def row_candidates(prev_row: tuple | None, used: int) -> list[tuple]:
        """Ordered k-tuples of unused vertices forming a clique, fully joined to
        the previous row except possibly at the same column, in ascending order."""
        free = ((1 << m) - 1) & ~used
        if prev_row is None:
            joined = [free] * k
        else:
            joined = [
                cluster_graph.common_neighbourhood(prev_row[:j] + prev_row[j + 1 :], within=free) for j in range(k)
            ]
        results = []

        def extend(tup: list, common: int):
            if len(tup) == k:
                results.append(tuple(tup))
                return
            for v in iter_bits(common & joined[len(tup)]):
                tup.append(v)
                extend(tup, common & adj[v])
                tup.pop()

        extend([], free)
        results.sort(key=lambda t: sum(deg[v] for v in t) + noise[t[0]], reverse=True)
        return results

    for _restart in range(8):
        noise = rng.random(m).tolist()
        rows: list[tuple] = []
        used = 0
        stack = [row_candidates(None, used)]
        while stack:
            steps += 1
            if steps > BACKBONE_STEPS:
                raise HostPrepError("backbone", f"budget exhausted at depth {best_depth}/{r}")
            if not stack[-1]:
                stack.pop()
                if rows:
                    used &= ~mask_of(rows.pop())
                continue
            tup = stack[-1].pop()
            rows.append(tup)
            used |= mask_of(tup)
            best_depth = max(best_depth, len(rows))
            if len(rows) < r:
                stack.append(row_candidates(rows[-1], used))
                continue
            # the extension z_i of row i: its least common neighbour
            ext = [cluster_graph.common_neighbourhood(row) for row in rows]
            if all(ext):
                embedding = {(i, j): rows[i][j] for i in range(r) for j in range(k)}
                return embedding, {i: (z & -z).bit_length() - 1 for i, z in enumerate(ext)}
            used &= ~mask_of(rows.pop())
    raise HostPrepError("backbone", f"no spanning backbone found (deepest row {best_depth}/{r})")


def validate_k_equitable(clusters: dict[tuple[int, int], object]) -> bool:
    """True iff within every row the cluster sizes differ by at most 1."""
    rows: dict[int, list[int]] = {}
    for (i, _j), c in clusters.items():
        rows.setdefault(i, []).append(len(c))
    return all(max(sizes) - min(sizes) <= 1 for sizes in rows.values())


@dataclass
class HostStructure:
    """Output of host preparation, which returns one only when every certificate holds."""

    v0: VertexSet
    clusters: dict[tuple[int, int], VertexSet]
    reduced: ReducedGraph

    @property
    def r(self) -> int:
        return self.reduced.index.r

    @property
    def k(self) -> int:
        return self.reduced.index.k


def _pad_for_equitability(
    cluster_masks: dict[tuple[int, int], int], r: int, k: int
) -> int:
    """Remove lowest-id vertices until every row's sizes differ by <= 1.

    Mutates cluster_masks; returns the mask of removed vertices.
    """
    removed = 0
    for i in range(r):
        target = min(cluster_masks[(i, j)].bit_count() for j in range(k))
        for j in range(k):
            m = cluster_masks[(i, j)]
            drop = mask_of(itertools.islice(iter_bits(m), m.bit_count() - target))
            cluster_masks[(i, j)] &= ~drop
            removed |= drop
    return removed


def prepare_host(
    g: Graph,
    host: Graph,
    p: float,
    gamma: float,
    k: int,
    eps: float,
    d: float,
    r0: int,
    seed: int,
) -> HostStructure:
    """Partition the host into V0 plus k-equitable clusters indexed by a backbone copy.

    Pipeline: min-degree regular partition; drop clusters to a multiple of k;
    spanning-backbone search in the reduced graph; screen vertices with wrong
    host degrees or failing regularity inheritance (Z1); redistribute
    clique-factor degree violators and the old exceptional set by strong-degree
    rows; screen the final cells (no Z2 proxy) until every kept vertex is in
    its degree window and inherits regularity at eps; certify the size window,
    k-equitability and regularity, raising HostPrepError("certificates") that
    names every certificate that failed.
    """
    floor = ((k - 1) / k + gamma) * p * g.n
    if g.min_degree() < floor - 1e-9:
        raise HostPrepError("precondition", f"min degree {g.min_degree()} < {floor:.1f}")

    last_err: Exception | None = None
    for attempt in range(HOST_RETRIES):
        try:
            return _prepare_host_once(g, host, p, gamma, k, eps, d, r0, seed + 1009 * attempt)
        except HostPrepError as exc:
            last_err = exc
        except RegularityError as exc:
            last_err = HostPrepError("regular-partition", str(exc))
    raise last_err


def _prepare_host_once(g, host, p, gamma, k, eps, d, r0, seed) -> HostStructure:
    n = g.n
    # the partition itself runs at the working eps; eps_star only scales the
    # vertex screens (an eps/10-scale partition check is pure noise at n ~ 10^3)
    eps_star = eps / 10.0
    part = min_degree_regular_partition(g, eps, d, p, max(r0, 2 * k), seed=seed, budget=PAIR_BUDGET)
    clusters = list(part.clusters)
    v0_mask = part.exceptional.mask

    drop = len(clusters) % k
    for c in clusters[:drop]:
        v0_mask |= c.mask
    clusters = clusters[drop:]
    r = len(clusters) // k
    if r < 2:
        raise HostPrepError("regular-partition", f"only {len(clusters)} clusters for k={k}")

    # the dense regular pairs among the surviving clusters
    cluster_graph = Graph.from_edges(
        len(clusters),
        ((a - drop, b - drop) for a, b in part.dense_regular_pairs if a >= drop and b >= drop),
    )
    need = ((k - 1) / k + gamma / 2.0) * k * r
    if cluster_graph.min_degree() < need - 1e-9:
        raise HostPrepError("reduced-degree", f"min reduced degree {cluster_graph.min_degree()} < {need:.2f}")

    embedding, extension = find_backbone(cluster_graph, r, k, seed)
    idx = BackboneIndex(r, k)
    cells = idx.cells()
    u: dict[tuple[int, int], int] = {cell: clusters[cid].mask for cell, cid in embedding.items()}
    vertex_of = {cid: idx.vertex(cell) for cell, cid in embedding.items()}
    reduced = ReducedGraph(
        index=idx,
        graph=Graph.from_edges(r * k, ((vertex_of[a], vertex_of[b]) for a, b in cluster_graph.edges())),
        extension={i: cells[vertex_of[extension[i]]] for i in range(r)},
    )
    if not reduced.contains_backbone():
        raise HostPrepError("backbone", "embedding misses a backbone edge")
    red_edges = list(reduced.graph.edges())

    # ---- Z1: degree-window and inheritance violators ---------------------
    # The degree screen runs at a fraction of the certificate window eps (an
    # asymptotically-tiny eps* would sweep in almost everything at desk-scale
    # cluster sizes); +1 absorbs self-membership.  The inheritance screen runs
    # at eps/2 on every reduced edge, on the vertices the degree screen keeps.
    masks = [u[cell] for cell in cells]
    size = np.array([m.bit_count() for m in masks])
    active = bit_positions(((1 << n) - 1) & ~v0_mask)
    host_deg = host.degree_table(masks + [v0_mask], active)
    exp = p * size
    bad = (np.abs(host_deg[:, :-1] - exp) > SCREEN_FRAC * eps * exp + 1.0).any(axis=1)
    bad |= host_deg[:, -1] > max(2 * eps_star * p * n, 2.0 * p * v0_mask.bit_count() + 4)
    kept = np.compress(~bad, active)
    kept = np.compress(inheritance_table(g, host, kept, masks, red_edges, host_deg[~bad], eps / 2.0, d, p).all(1), kept)
    z1 = ((1 << n) - 1) & ~v0_mask & ~mask_of(kept.tolist())
    work = {cell: u[cell] & ~z1 for cell in cells}
    z1 |= _pad_for_equitability(work, r, k)

    # ---- W: clique-factor degree violators + old exceptional set ---------
    g_deg = g.degree_table(masks)
    weak = g_deg < (d - 2 * eps_star) * p * size
    w_mask = v0_mask & ~z1
    for i, j in cells:
        members = bit_positions(work[(i, j)])
        others = [i * k + j2 for j2 in range(k) if j2 != j]
        w_mask |= mask_of(np.compress(weak[members][:, others].any(axis=1), members).tolist())
    for cell in cells:
        work[cell] &= ~w_mask
    w_mask |= _pad_for_equitability(work, r, k)

    # ---- redistribute W by strong-degree rows with a per-row quota -------
    strong_row = (g_deg >= 2 * d * p * size).reshape(n, r, k).all(axis=2)
    quota = max(1, math.ceil(100.0 * k * eps_star * n / (max(r, 1) * gamma)))
    row_load = [0] * r
    cell_load = {cell: 0 for cell in cells}
    final = dict(work)  # the cells V'
    for wv in iter_bits(w_mask):
        chosen_row = next((i for i in range(r) if row_load[i] < quota and strong_row[wv, i]), -1)
        if chosen_row < 0:
            raise HostPrepError("redistribute", f"no strong row under quota for vertex {wv}")
        j_best = min(range(k), key=lambda j2: (cell_load[(chosen_row, j2)], j2))
        final[(chosen_row, j_best)] |= 1 << wv
        row_load[chosen_row] += 1
        cell_load[(chosen_row, j_best)] += 1

    # ---- closing screen: the per-vertex certificates on the final cells ---
    # Each pass moves every vertex outside its degree window in some final
    # cell (+1 absorbs self-membership), or failing inheritance at eps on some
    # reduced edge, into V0 and pads again, until no such vertex is left.
    v0_final = z1 | _pad_for_equitability(final, r, k)
    while True:
        if any(final[cell] == 0 for cell in cells):
            raise HostPrepError("cleanup", "a cluster was emptied by the vertex screens")
        final_masks = [final[cell] for cell in cells]
        members = bit_positions(((1 << n) - 1) & ~v0_final)
        cell_deg = host.degree_table(final_masks, members)
        cell_exp = p * np.array([m.bit_count() for m in final_masks])
        typical = (np.abs(cell_deg - cell_exp) <= eps * cell_exp + 1.0).all(axis=1)
        typical[typical] = inheritance_table(g, host, members[typical], final_masks, red_edges, cell_deg[typical], eps, d, p).all(1)
        if typical.all():
            break
        drop = mask_of(members[~typical].tolist())
        final = {cell: m & ~drop for cell, m in final.items()}
        v0_final |= drop | _pad_for_equitability(final, r, k)
    cluster_sets = {cell: VertexSet(n, final[cell]) for cell in cells}

    # ---- certificates -----------------------------------------------------
    certs = {
        "size_window": all(n / (4 * k * r) <= len(c) <= 4 * n / (k * r) for c in cluster_sets.values()),
        "k_equitable": validate_k_equitable(cluster_sets),
        "regular_on_reduced": all(
            check_lower_regular(g, *(cluster_sets[cells[c]] for c in e), eps, d, p, budget=PAIR_BUDGET, seed=seed + 3).ok
            for e in red_edges
        ) and all(
            check_super_regular(g, host, *(cluster_sets[(i, j)] for j in js), eps, d, p, budget=PAIR_BUDGET, seed=seed + 5)
            for i in range(r) for js in itertools.combinations(range(k), 2)
        ),
    }
    failed = [name for name, ok in certs.items() if not ok]
    if failed:
        raise HostPrepError("certificates", f"failed: {', '.join(failed)}")

    covered = v0_final
    for cell in cells:
        if final[cell] & covered:
            raise HostPrepError("partition", "cluster overlaps V0 or another cluster")
        covered |= final[cell]
    if covered != (1 << n) - 1:
        raise HostPrepError("partition", "clusters + V0 do not cover V(G)")

    return HostStructure(v0=VertexSet(n, v0_final), clusters=cluster_sets, reduced=reduced)
