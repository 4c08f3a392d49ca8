"""Backbone structure on [r] x [k] and the host-side cleanup pipeline.

The backbone graph joins cells (i, j), (i', j') exactly when j != j' and
|i - i'| <= 1; its row cliques form the clique factor.  `prepare_host` turns a
raw host subgraph into an exceptional set plus a k-equitable cluster partition
whose reduced graph carries a spanning backbone copy, certifying size windows,
regularity, inheritance, and degree windows along the way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .graph_core import Graph, StageError, VertexSet, iter_bits, mask_of, rng_for
from .regularity import (
    _inheritance_ok,
    _lower_bound_vacuous,
    check_lower_regular,
    check_super_regular,
    min_degree_regular_partition,
    RegularityError,
)

__all__ = [
    "BackboneIndex",
    "ReducedGraph",
    "HostStructure",
    "backbone_edges",
    "find_backbone",
    "prepare_host",
    "validate_k_equitable",
    "HostPrepError",
]


class HostPrepError(StageError):
    """Host preparation failed; `stage` names the failing step."""


@dataclass(frozen=True)
class BackboneIndex:
    """Index space [r] x [k] with the backbone edge rule."""

    r: int
    k: int

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.r) for j in range(self.k)]

    def is_backbone_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[1] != b[1] and abs(a[0] - b[0]) <= 1


def backbone_edges(r: int, k: int) -> set[frozenset]:
    idx = BackboneIndex(r, k)
    cells = idx.cells()
    return {
        frozenset((a, b))
        for a, b in itertools.combinations(cells, 2)
        if idx.is_backbone_edge(a, b)
    }


@dataclass
class ReducedGraph:
    """Reduced graph on [r] x [k] cells with a distinguished backbone copy.

    `edges` holds frozensets of cell pairs; `extension` maps each row i to a
    cell z_i outside row i adjacent to every cell of row i.
    """

    index: BackboneIndex
    edges: set[frozenset]
    extension: dict[int, tuple[int, int]] = field(default_factory=dict)

    def has_edge(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a != b and frozenset((a, b)) in self.edges

    def degree(self, a: tuple[int, int]) -> int:
        return sum(1 for e in self.edges if a in e)

    def min_degree(self) -> int:
        return min(self.degree(c) for c in self.index.cells())

    def contains_backbone(self) -> bool:
        return backbone_edges(self.index.r, self.index.k) <= self.edges

    def validate_extension(self) -> bool:
        for i in range(self.index.r):
            z = self.extension.get(i)
            if z is None or z[0] == i:
                return False
            if any(not self.has_edge(z, (i, j)) for j in range(self.index.k)):
                return False
        return True


def find_backbone(
    reduced_edges: set[frozenset],
    vertices: list,
    r: int,
    k: int,
    gamma: float,
    seed: int = 0,
    budget: int = 10**6,
) -> tuple[dict[tuple[int, int], object], dict[int, object]]:
    """Search for a spanning backbone copy inside an abstract reduced graph.

    `reduced_edges` are frozensets over `vertices` (any hashable ids, len r*k).
    Returns (embedding cell -> vertex, extension row -> vertex).  Backtracks
    row by row with candidate scoring and seeded restarts; raises
    HostPrepError("backbone") with the deepest row reached when the step
    budget runs out.
    """
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


def validate_k_equitable(clusters) -> bool:
    """True iff within every row the cluster sizes differ by at most 1.

    Accepts either a dict (i, j) -> sized collection or a list of rows.
    """
    rows: dict[int, list[int]] = {}
    if isinstance(clusters, dict):
        for (i, _j), c in clusters.items():
            rows.setdefault(i, []).append(len(c))
    else:
        for i, row in enumerate(clusters):
            rows[i] = [len(c) for c in row]
    return all(max(sizes) - min(sizes) <= 1 for sizes in rows.values() if sizes)


@dataclass
class HostStructure:
    """Output of host preparation: exceptional set, clusters, reduced graph, certificates."""

    v0: VertexSet
    clusters: dict[tuple[int, int], VertexSet]
    reduced: ReducedGraph
    certs: dict[str, bool]
    p: float

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
        sizes = {j: cluster_masks[(i, j)].bit_count() for j in range(k)}
        target = min(sizes.values())
        for j in range(k):
            excess = sizes[j] - target
            if excess <= 0:
                continue
            vs = list(iter_bits(cluster_masks[(i, j)]))[:excess]
            drop = mask_of(vs)
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
    eps_star: float | None = None,
    z2_factor: float = 0.1,
    screen_frac: float = 0.9,
    two_sided_screen: bool = True,
    budget: int = 64,
    cert_samples: int = 200,
    retries: int = 3,
) -> HostStructure:
    """Partition the host into V0 plus k-equitable clusters indexed by a backbone copy.

    Pipeline: min-degree regular partition; drop clusters to a multiple of k;
    spanning-backbone search in the reduced graph; screen vertices with wrong
    host degrees or failing regularity inheritance (Z1); redistribute
    clique-factor degree violators and the old exceptional set by strong-degree
    rows; screen vertices seeing too much of the moved sets (Z2); certify the
    size window, regularity, inheritance, and degree window on samples.
    """
    n = g.n
    if eps_star is None:
        eps_star = eps / 10.0
    floor = ((k - 1) / k + gamma) * p * n
    if g.min_degree() < floor - 1e-9:
        raise HostPrepError("precondition", f"min degree {g.min_degree()} < {floor:.1f}")

    last_err: Exception | None = None
    for attempt in range(retries):
        try:
            return _prepare_host_once(
                g, host, p, gamma, k, eps, d, r0, seed + 1009 * attempt,
                eps_star, z2_factor, screen_frac, two_sided_screen, budget, cert_samples,
            )
        except HostPrepError as exc:
            last_err = exc
        except RegularityError as exc:
            last_err = HostPrepError("regular-partition", str(exc))
    raise last_err


def _prepare_host_once(
    g, host, p, gamma, k, eps, d, r0, seed,
    eps_star, z2_factor, screen_frac, two_sided_screen, budget, cert_samples,
) -> HostStructure:
    n = g.n
    # the partition itself runs at the working eps; eps_star only scales the
    # vertex screens (an eps/10-scale partition check is pure noise at n ~ 10^3)
    part = min_degree_regular_partition(
        g, eps, d, p, max(r0, 2 * k), seed=seed, budget=budget
    )
    clusters = list(part.clusters)
    v0_mask = part.exceptional.mask

    drop = len(clusters) % k
    if drop:
        for c in clusters[:drop]:
            v0_mask |= c.mask
        clusters = clusters[drop:]
    r = len(clusters) // k
    if r < 2:
        raise HostPrepError("regular-partition", f"only {len(clusters)} clusters for k={k}")

    # reduced adjacency among surviving clusters, from dense regular pairs
    index_of = {}
    offset = drop
    reduced_pairs = set()
    for a, b in part.dense_regular_pairs:
        if a >= offset and b >= offset:
            reduced_pairs.add(frozenset((a - offset, b - offset)))
    degs = [0] * len(clusters)
    for e in reduced_pairs:
        a, b = tuple(e)
        degs[a] += 1
        degs[b] += 1
    need = ((k - 1) / k + gamma / 2.0) * k * r
    if min(degs) < need - 1e-9:
        raise HostPrepError("reduced-degree", f"min reduced degree {min(degs)} < {need:.2f}")

    embedding, extension = find_backbone(
        reduced_pairs, list(range(len(clusters))), r, k, gamma, seed=seed
    )
    u: dict[tuple[int, int], int] = {cell: clusters[cid].mask for cell, cid in embedding.items()}
    cell_of_cluster = {cid: cell for cell, cid in embedding.items()}
    red_edges = {
        frozenset((cell_of_cluster[a], cell_of_cluster[b]))
        for e in reduced_pairs
        for a, b in [tuple(e)]
    }
    ext_cells = {i: cell_of_cluster[extension[i]] for i in range(r)}
    idx = BackboneIndex(r, k)
    reduced = ReducedGraph(index=idx, edges=red_edges, extension=ext_cells)
    if not reduced.contains_backbone():
        raise HostPrepError("backbone", "embedding misses a backbone edge")

    cells = idx.cells()
    # ---- Z1: degree-window and inheritance violators ---------------------
    # The degree screen runs at a fraction of the certificate window eps (an
    # asymptotically-tiny eps* would sweep in almost everything at desk-scale
    # cluster sizes); +1 absorbs self-membership.
    # The inheritance screen reads N(v) & U_a against U_b (and N(v) & U_b when
    # two-sided); with d <= eps/2 it fails only on an empty side, and clusters
    # are nonempty, so then v need only see every cell the screen reads.
    z1 = 0
    active = ((1 << n) - 1) & ~v0_mask
    red_edge_list = [tuple(e) for e in red_edges]
    vacuous = _lower_bound_vacuous(d, eps / 2.0)
    read_cells = {c for e in red_edge_list for c in (e if two_sided_screen else e[:1])}
    for v in iter_bits(active):
        bad = False
        if v0_mask and (host.adj[v] & v0_mask).bit_count() > max(2 * eps_star * p * n, 2.0 * p * v0_mask.bit_count() + 4):
            bad = True
        if not bad:
            for cell in cells:
                dv = (host.adj[v] & u[cell]).bit_count()
                exp = p * u[cell].bit_count()
                if abs(dv - exp) > screen_frac * eps * exp + 1.0:
                    bad = True
                    break
        if not bad and vacuous:
            bad = any(not host.adj[v] & u[cell] for cell in read_cells)
        elif not bad:
            bad = not all(
                _inheritance_ok(g, host.adj[v], u[a], u[b], eps / 2.0, d, p, two_sided_screen)
                for a, b in red_edge_list
            )
        if bad:
            z1 |= 1 << v
    work = {cell: u[cell] & ~z1 for cell in cells}
    z1 |= _pad_for_equitability(work, r, k)

    # ---- W: clique-factor degree violators + old exceptional set ---------
    w_mask = v0_mask & ~z1
    for i in range(r):
        for j in range(k):
            for v in iter_bits(work[(i, j)]):
                for j2 in range(k):
                    if j2 == j:
                        continue
                    if g.degree_into(v, u[(i, j2)]) < (d - 2 * eps_star) * p * u[(i, j2)].bit_count():
                        w_mask |= 1 << v
                        break
    for cell in cells:
        work[cell] &= ~w_mask
    w_mask |= _pad_for_equitability(work, r, k)

    # ---- redistribute W by strong-degree rows with a per-row quota -------
    quota = max(1, math.ceil(100.0 * k * eps_star * n / (max(r, 1) * gamma)))
    row_load = [0] * r
    cell_load = {cell: 0 for cell in cells}
    assign: dict[int, tuple[int, int]] = {}
    for wv in iter_bits(w_mask):
        chosen_row = -1
        for i in range(r):
            if row_load[i] >= quota:
                continue
            if all(
                g.degree_into(wv, u[(i, j2)]) >= 2 * d * p * u[(i, j2)].bit_count()
                for j2 in range(k)
            ):
                chosen_row = i
                break
        if chosen_row < 0:
            raise HostPrepError("redistribute", f"no strong row under quota for vertex {wv}")
        j_best = min(range(k), key=lambda j2: (cell_load[(chosen_row, j2)], j2))
        assign[wv] = (chosen_row, j_best)
        row_load[chosen_row] += 1
        cell_load[(chosen_row, j_best)] += 1
    vprime = dict(work)
    for wv, cell in assign.items():
        vprime[cell] |= 1 << wv

    # ---- Z2: vertices seeing too much of the symmetric differences -------
    sym = {cell: u[cell] ^ vprime[cell] for cell in cells}
    z2 = 0
    alive = ((1 << n) - 1) & ~z1
    for v in iter_bits(alive):
        for cell in cells:
            if (host.adj[v] & sym[cell]).bit_count() >= z2_factor * p * u[cell].bit_count():
                z2 |= 1 << v
                break
    final = {cell: vprime[cell] & ~z2 for cell in cells}
    z2 |= _pad_for_equitability(final, r, k)
    v0_final = z1 | z2

    if any(final[cell].bit_count() == 0 for cell in cells):
        raise HostPrepError("cleanup", "a cluster was emptied by the vertex screens")
    cluster_sets = {cell: VertexSet(n, final[cell]) for cell in cells}
    v0 = VertexSet(n, v0_final)

    # ---- certificates -----------------------------------------------------
    certs: dict[str, bool] = {}
    sizes = [len(c) for c in cluster_sets.values()]
    certs["size_window"] = all(n / (4 * k * r) <= s <= 4 * n / (k * r) for s in sizes)
    certs["k_equitable"] = validate_k_equitable(cluster_sets)

    rng = rng_for(seed, stream=43)
    ok = True
    for e in red_edges:
        a, b = tuple(e)
        verdict = check_lower_regular(
            g, cluster_sets[a], cluster_sets[b], eps, d, p,
            mode="sampled", budget=budget, seed=seed + 3,
        )
        if not verdict.ok:
            ok = False
            break
    if ok:
        for i in range(r):
            for j1 in range(k):
                for j2 in range(j1 + 1, k):
                    if not check_super_regular(
                        g, host, cluster_sets[(i, j1)], cluster_sets[(i, j2)],
                        eps, d, p, budget=budget, seed=seed + 5,
                    ):
                        ok = False
    certs["regular_on_reduced"] = ok

    probe_vertices = [int(v) for v in rng.permutation(n) if not ((v0_final >> int(v)) & 1)]
    inh_ok = True
    for v in probe_vertices[: max(10, cert_samples // 10)]:
        a, b = red_edge_list[int(rng.integers(len(red_edge_list)))]
        if not _inheritance_ok(g, host.adj[v], final[a], final[b], eps, d, p, two_sided_screen):
            inh_ok = False
            break
    certs["inheritance"] = inh_ok

    deg_ok = True
    for t in range(cert_samples):
        v = probe_vertices[t % len(probe_vertices)]
        cell = cells[int(rng.integers(len(cells)))]
        dv = (host.adj[v] & final[cell]).bit_count()
        exp = p * len(cluster_sets[cell])
        if abs(dv - exp) > eps * exp + 1.0:
            deg_ok = False
            break
    certs["degree_window"] = deg_ok

    if not all(certs.values()):
        failed = ", ".join(k_ for k_, v_ in certs.items() if not v_)
        raise HostPrepError("certificates", f"failed: {failed}")

    covered = v0_final
    for cell in cells:
        if final[cell] & covered:
            raise HostPrepError("partition", "cluster overlaps V0 or another cluster")
        covered |= final[cell]
    if covered != (1 << n) - 1:
        raise HostPrepError("partition", "clusters + V0 do not cover V(G)")

    return HostStructure(v0=v0, clusters=cluster_sets, reduced=reduced, certs=certs, p=p)
