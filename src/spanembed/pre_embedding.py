"""Cover the exceptional set: reserve sampling, anchored pre-embedding, rerouting.

Each exceptional host vertex v receives a guest anchor x whose neighbourhood is
independent; the neighbours of x are embedded onto reserve vertices chosen from
a filtered neighbourhood of v, the guest assignment is rerouted around x so the
anchor's row matches the chosen host row, and the anchor's second
neighbourhood picks up image restrictions for the final embedding stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph_core import Graph, Labelling, StageError, VertexSet, iter_bits, mask_of, rng_for
from .guest_prep import GuestAssignment
from .reduced_graph import ReducedGraph
from .regularity import check_lower_regular

__all__ = [
    "RestrictionPair",
    "PreEmbedState",
    "reserve_set",
    "pre_embed",
    "validate_restriction_pair",
    "restriction_image",
    "PreEmbedError",
]


# Reserve certification: common-neighbourhood probes per draw, their slack and
# the seeded redraws.  Sample budgets of the pair checks while choosing a tuple
# and while validating the restriction pair.  A vertex of V0 stops the
# pre-embedding when fewer than STUCK_GUARD * mu * p * n free reserve vertices
# remain in its neighbourhood.
RESERVE_PROBES = 100
RESERVE_SLACK = 3.0
RESERVE_RETRIES = 5
TUPLE_PAIR_BUDGET = 24
RESTRICTION_PAIR_BUDGET = 64
STUCK_GUARD = 0.25


class PreEmbedError(StageError):
    """Pre-embedding failed; `stage` identifies the loop step or L-condition."""


@dataclass
class RestrictionPair:
    """Restricting host vertices J_x per guest vertex; images derive from f*.

    I_x is materialised on demand against a cluster family: the guest's cell
    intersected with the common G-neighbourhood of J_x.
    """

    J: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def restricted(self) -> list[int]:
        return [x for x, js in self.J.items() if js]

    def host_load(self) -> dict[int, int]:
        load: dict[int, int] = {}
        for js in self.J.values():
            for u in js:
                load[u] = load.get(u, 0) + 1
        return load


def restriction_image(
    g: Graph, clusters: dict[tuple[int, int], VertexSet], cell: tuple[int, int], js
) -> int:
    """Mask of the allowed images: cluster cap common G-neighbourhood of J."""
    return g.common_neighbourhood(js, within=clusters[cell].mask)


@dataclass
class PreEmbedState:
    phi: dict[int, int]  # guest -> host
    reserve: VertexSet
    t: int
    anchors: list[tuple[int, int]]  # (guest anchor, host exceptional vertex)
    transcript: list[str] = field(default_factory=list)

    def image_mask(self) -> int:
        return mask_of(self.phi.values())

    def domain_mask(self) -> int:
        return mask_of(self.phi.keys())


def reserve_set(
    g: Graph,
    host: Graph,
    clusters: dict[tuple[int, int], VertexSet],
    mu: float,
    seed: int = 0,
    delta_max: int = 2,
    eps: float = 0.2,
) -> VertexSet:
    """Seeded uniform reserve of floor(mu*n) vertices, probe-certified to meet
    host common neighbourhoods and clusters near-proportionally."""
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu must lie in (0, 1]")
    n = g.n
    size = math.floor(mu * n)
    if mu >= 1.0:
        return VertexSet.full(n)
    if size == 0:
        return VertexSet.empty(n)
    p_est = 2.0 * host.m / (n * (n - 1))
    for attempt in range(RESERVE_RETRIES):
        rng = rng_for(seed + attempt, stream=71)
        s = VertexSet.from_iter(n, (int(v) for v in rng.permutation(n)[:size]))
        ok = True
        for _ in range(RESERVE_PROBES):
            ell = int(rng.integers(1, delta_max + 1))
            vs = [int(v) for v in rng.choice(n, size=ell, replace=False)]
            t_mask = host.common_neighbourhood(vs)
            t_size = t_mask.bit_count()
            hit = (t_mask & s.mask).bit_count()
            allowed = RESERVE_SLACK * (eps * mu * t_size + eps * mu * (p_est**ell) * n) + 2.0
            if abs(hit - mu * t_size) > allowed:
                ok = False
                break
        if ok:
            for c in clusters.values():
                if (c.mask & s.mask).bit_count() > 2 * mu * len(c) + 2:
                    ok = False
                    break
        if ok:
            return s
    raise PreEmbedError("reserve", f"probe certification failed after {RESERVE_RETRIES} attempts")


def _independent_neighbourhood(h: Graph, x: int, forbid_c4: bool = False) -> bool:
    nbrs = list(iter_bits(h.adj[x]))
    for a in range(len(nbrs)):
        for b in range(a + 1, len(nbrs)):
            if h.has_edge(nbrs[a], nbrs[b]):
                return False
            if forbid_c4:
                common = h.adj[nbrs[a]] & h.adj[nbrs[b]] & ~(1 << x)
                if common:
                    return False
    return True


def _anchor_candidates(
    h: Graph,
    l: Labelling,
    assignment: GuestAssignment,
    r: int,
    forbid_c4: bool,
) -> list[int]:
    """Guest vertices usable as anchors, in labelling order: independent
    neighbourhood and a constant-row, zero-free assignment on their (r+2)-ball.

    The ball of x avoids every vertex off x's row or of colour 0 exactly when
    no such vertex lies within distance r+2 of x, so one BFS per row, from all
    the vertices that row's anchors must not see, decides every x at once.
    """
    f = assignment.f
    sig = assignment.sigma_prime.sigma
    reached = {
        i: h.bfs_distances([z for z in range(h.n) if f[z][0] != i or sig[z] == 0], limit=r + 2)
        for i in {cell[0] for cell in f}
    }
    return [
        x for x in l.order
        if reached[f[x][0]][x] == -1 and _independent_neighbourhood(h, x, forbid_c4)
    ]


def _choose_host_row(
    g: Graph,
    host: Graph,
    y_mask: int,
    clusters: dict[tuple[int, int], VertexSet],
    v0_mask: int,
    r: int,
    k: int,
    eps: float,
    d: float,
    p: float,
    prefer: int = 0,
) -> tuple[int, list[int]]:
    """Filter candidate host vertices and pick the majority strong-degree row.

    Drops vertices with deviant host degrees (into the exceptional set or any
    cluster), keeps those with G-degree >= d p |V_{i,j}| into every cluster of
    some row, and returns the row with the most qualifiers plus its vertices.
    Ties rotate through `prefer` so successive anchors spread across rows.
    """
    n = g.n
    ys = list(iter_bits(y_mask))
    masks = [clusters[(i, j)].mask for i in range(r) for j in range(k)]
    size = np.array([m.bit_count() for m in masks])
    host_deg = host.degree_table(masks + [v0_mask], ys)
    deviant = (np.abs(host_deg[:, :-1] - p * size) > eps * p * size + 1.0).any(axis=1)
    deviant |= host_deg[:, -1] >= max(eps * p * n, 2 * p * v0_mask.bit_count() + 4)
    strong = (g.degree_table(masks, ys) >= d * p * size).reshape(-1, r, k).all(axis=2) & ~deviant[:, None]
    counts = strong.sum(axis=0).tolist()
    best = max(range(r), key=lambda i: (counts[i], -((i - prefer) % r)))
    return best, np.compress(strong[:, best], ys).tolist()


def _greedy_tuple(
    g: Graph,
    host: Graph,
    w_pool: list[int],
    ell: int,
    row_clusters: dict[int, VertexSet],
    eps: float,
    d: float,
    p: float,
    delta: int,
    seed: int,
) -> list[int]:
    """Sequential greedy choice of ell host vertices keeping all subset conditions.

    Each accepted vertex must preserve, for every subset L of the chosen set:
    common-G-degree floors into the target row's clusters, host common
    neighbourhood size windows (globally and per cluster), and sampled
    lower-regularity of cluster-restricted host intersections for subset pairs.
    """
    n = g.n
    k = len(row_clusters)
    chosen: list[int] = []
    g_masks: dict[tuple, dict[int, int]] = {(): {j: c.mask for j, c in row_clusters.items()}}
    ga_masks: dict[tuple, dict[int, int]] = {(): {j: c.mask for j, c in row_clusters.items()}}
    ga_global: dict[tuple, int] = {(): (1 << n) - 1}
    rng = rng_for(seed, stream=81)
    order = [w_pool[int(i)] for i in rng.permutation(len(w_pool))]
    failure = "candidates"
    for w in order:
        if len(chosen) == ell:
            break
        if w in chosen:
            continue
        lam_new: list[tuple] = []
        ok = True
        reason = ""
        subsets = list(g_masks.keys())
        trial_g, trial_ga, trial_gn = {}, {}, {}
        for lam in subsets:
            lam2 = tuple(sorted(lam + (w,)))
            sz = len(lam2)
            gm = {j: g_masks[lam][j] & g.adj[w] for j in row_clusters}
            gam = {j: ga_masks[lam][j] & host.adj[w] for j in row_clusters}
            gg = ga_global[lam] & host.adj[w]
            if gg.bit_count() > (1 + eps) ** sz * p**sz * n:
                ok, reason = False, "common-size"
                break
            for j, c in row_clusters.items():
                exp = p**sz * len(c)
                if gm[j].bit_count() < (d / 4.0) ** sz * exp:
                    ok, reason = False, "common-degree"
                    break
                if not ((1 - eps) ** sz * exp <= gam[j].bit_count() <= (1 + eps) ** sz * exp):
                    ok, reason = False, "common-size"
                    break
            if not ok:
                break
            trial_g[lam2], trial_ga[lam2], trial_gn[lam2] = gm, gam, gg
            lam_new.append(lam2)
        if ok and delta >= 2:
            # pairwise lower-regularity between cluster-restricted intersections
            all_ga = dict(ga_masks)
            all_ga.update(trial_ga)
            for lam2 in lam_new:
                if len(lam2) >= delta:
                    continue
                for lam_other, gam_other in all_ga.items():
                    if not lam_other or len(lam_other) >= delta:
                        continue
                    if delta == 2 and set(lam2) & set(lam_other):
                        continue
                    for j1 in row_clusters:
                        for j2 in row_clusters:
                            if j1 == j2:
                                continue
                            xm, ym = trial_ga[lam2][j1], gam_other[j2]
                            if xm == 0 or ym == 0 or (xm & ym):
                                ok, reason = False, "pair-regularity"
                                break
                            verdict = check_lower_regular(
                                g, VertexSet(n, xm), VertexSet(n, ym),
                                eps, d, p, mode="sampled",
                                budget=TUPLE_PAIR_BUDGET, seed=seed + 13 * j1 + j2,
                            )
                            if not verdict.ok:
                                ok, reason = False, "pair-regularity"
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if not ok:
            failure = reason
            continue
        chosen.append(w)
        g_masks.update(trial_g)
        ga_masks.update(trial_ga)
        ga_global.update(trial_gn)
    if len(chosen) < ell:
        raise PreEmbedError(failure, f"greedy tuple stalled at {len(chosen)}/{ell}")
    return chosen


def pre_embed(
    g: Graph,
    host: Graph,
    v0: VertexSet,
    clusters: dict[tuple[int, int], VertexSet],
    reduced: ReducedGraph,
    guest: Graph,
    labelling: Labelling,
    assignment: GuestAssignment,
    reserve: VertexSet,
    eps: float,
    d: float,
    p: float,
    mu: float,
    delta: int,
    forbid_c4: bool,
    seed: int = 0,
) -> tuple[PreEmbedState, tuple[tuple[int, int], ...], RestrictionPair]:
    """Embed anchors over every exceptional vertex and reroute the assignment.

    Loop invariants: the covered exceptional vertex always has the fewest free
    reserve neighbours; anchors sit pairwise at guest distance >= 2r+20; images
    stay inside V0 plus the reserve; the rerouted assignment f* remains a
    reduced-graph homomorphism.  Raises PreEmbedError naming the stalled step.
    """
    n = g.n
    r, k = reduced.index.r, reduced.index.k

    f_star = list(assignment.f)
    restr = RestrictionPair()
    state = PreEmbedState(phi={}, reserve=reserve, t=0, anchors=[])
    if len(v0) == 0:
        return state, tuple(f_star), restr

    candidates = _anchor_candidates(guest, labelling, assignment, r, forbid_c4)
    if len(candidates) < len(v0):
        raise PreEmbedError("anchors", f"{len(candidates)} anchor candidates for |V0|={len(v0)}")
    sep = 2 * r + 20
    used_anchor: set[int] = set()
    colour_load: dict[int, int] = {}
    uncovered = set(v0)
    im_mask = 0
    row_clusters_cache = {
        i: {j: clusters[(i, j)] for j in range(k)} for i in range(r)
    }

    while uncovered:
        state.t += 1
        avail = {
            v: ((g.adj[v] & reserve.mask) & ~im_mask).bit_count() for v in uncovered
        }
        v = min(uncovered, key=lambda u: (avail[u], u))
        if avail[v] < STUCK_GUARD * mu * p * n:
            raise PreEmbedError(
                "stuck-guard",
                f"vertex {v} has {avail[v]} free reserve neighbours < {STUCK_GUARD * mu * p * n:.1f}",
            )
        dom = list(state.phi.keys())
        dist_from_dom = guest.bfs_distances(dom, limit=sep) if dom else None
        # anchors cycle colour classes out of phase with the row rotation: the
        # anchor's colour decides which column its restricted second
        # neighbours land in, so (row, colour) pairs must all be visited
        sig = assignment.sigma_prime.sigma
        lag = 1 + ((state.t - 1) // r) % k
        x = fallback = None
        for cand in candidates:
            if cand in used_anchor or cand in state.phi:
                continue
            if dist_from_dom is not None and dist_from_dom[cand] != -1:
                continue
            if fallback is None:
                fallback = cand
            if sig[cand] == lag:
                x = cand
                break
        if x is None:
            x = fallback
        if x is None:
            raise PreEmbedError("anchors", f"no anchor at distance >= {sep} from the domain")
        used_anchor.add(x)
        colour_load[sig[x]] = colour_load.get(sig[x], 0) + 1

        y_mask = (g.adj[v] & reserve.mask) & ~im_mask
        i_t, w_pool = _choose_host_row(
            g, host, y_mask, clusters, v0.mask & ~im_mask, r, k, eps, d, p,
            prefer=state.t % r,
        )
        if not w_pool:
            raise PreEmbedError("row-filter", f"no strong-degree host candidates for {v}")
        nbrs = sorted(iter_bits(guest.adj[x]))
        ws = _greedy_tuple(
            g, host, w_pool, len(nbrs), row_clusters_cache[i_t],
            eps, d, p, delta, seed=seed + 977 * state.t,
        )

        state.phi[x] = v
        state.transcript.append(f"anchor {state.t} {x} {v}")
        for y, w in zip(nbrs, ws):
            state.phi[y] = w
            state.transcript.append(f"leaf {state.t} {y} {w}")
        state.anchors.append((x, v))
        im_mask = state.image_mask()
        # a leaf image may itself be exceptional; that counts as covered too
        uncovered = {u for u in uncovered if not ((im_mask >> u) & 1)}

        # reroute the assignment around x: walk rows from i_t back to the
        # anchor's home row s, shell by shell
        s_row = assignment.f[x][0]
        dist = guest.bfs_distances([x], limit=abs(i_t - s_row) + 2)
        step = -1 if i_t > s_row else (1 if i_t < s_row else 0)
        for z in range(n):
            dz = dist[z]
            if dz < 2 or z in state.phi:
                continue
            if step == 0:
                row = i_t if dz == 2 else None
            else:
                row = i_t + step * (dz - 2)
                if (step == -1 and row < s_row) or (step == 1 and row > s_row):
                    row = None
            if row is None:
                continue
            col = f_star[z][1] if f_star[z][0] in (s_row, row) else None
            if col is None:
                raise PreEmbedError("reroute", f"shell vertex {z} assigned off-row {f_star[z]}")
            f_star[z] = (row, col)
        for z in range(n):
            if dist[z] == 2 and z not in state.phi:
                js = tuple(sorted(state.phi[y] for y in iter_bits(guest.adj[z]) if y in state.phi))
                if js:
                    restr.J[z] = js
                    state.transcript.append(f"reroute {z} {f_star[z][0]} {f_star[z][1]}")

    # homomorphism check over the remaining guest
    dom_mask = state.domain_mask()
    for uu, vv in guest.edges():
        if ((dom_mask >> uu) & 1) or ((dom_mask >> vv) & 1):
            continue
        if not reduced.has_edge(f_star[uu], f_star[vv]):
            raise PreEmbedError("reroute", f"f* breaks edge ({uu},{vv})")
    return state, tuple(f_star), restr


def validate_restriction_pair(
    restr: RestrictionPair,
    clusters: dict[tuple[int, int], VertexSet],
    guest_parts: dict[tuple[int, int], int],
    host: Graph,
    g: Graph,
    rho: float,
    zeta: float,
    delta: int,
    delta_j: int,
    eps: float,
    p: float,
    d: float,
    f_star: tuple[tuple[int, int], ...] | None = None,
    guest: Graph | None = None,
    skip: set[int] | None = None,
    seed: int = 0,
) -> dict[str, dict]:
    """Per-condition report for the restriction pair against the given clusters.

    Checks: restricted-vertex counts per cell, image sizes and containment,
    the degree budget |J_x| + deg(x) <= delta, per-host-vertex load <= delta_j,
    host common-neighbourhood size windows, and sampled lower-regularity of the
    restricted pairs along guest edges.
    """
    skip = skip or set()
    report: dict[str, dict] = {}
    by_cell: dict[tuple[int, int], list[int]] = {}
    for x, js in restr.J.items():
        if js and f_star is not None:
            by_cell.setdefault(f_star[x], []).append(x)
    bad = [
        cell for cell, xs in by_cell.items()
        if guest_parts.get(cell, 0) and len(xs) > rho * guest_parts[cell]
    ]
    report["restricted_count"] = {"ok": not bad, "violations": bad}

    img_bad, win_bad = [], []
    if f_star is not None:
        for x, js in restr.J.items():
            if not js:
                continue
            cell = f_star[x]
            img = restriction_image(g, clusters, cell, js)
            if img.bit_count() < zeta * (d * p) ** len(js) * len(clusters[cell]):
                img_bad.append(x)
            hostmask = host.common_neighbourhood(js, within=clusters[cell].mask)
            if img & ~hostmask:
                img_bad.append(x)
            exp = len(clusters[cell])
            lo = ((1 - eps) * p) ** len(js) * exp
            hi = ((1 + eps) * p) ** len(js) * exp
            if not (lo - 1.0 <= hostmask.bit_count() <= hi + 1.0):
                win_bad.append(x)
    report["image_size"] = {"ok": not img_bad, "violations": img_bad}
    report["gamma_window"] = {"ok": not win_bad, "violations": win_bad}

    deg_bad = []
    if guest is not None:
        for x, js in restr.J.items():
            deg_here = sum(1 for y in iter_bits(guest.adj[x]) if y not in skip)
            if js and len(js) + deg_here > delta:
                deg_bad.append(x)
    report["degree_budget"] = {"ok": not deg_bad, "violations": deg_bad}

    load = restr.host_load()
    load_bad = [u for u, c in load.items() if c > delta_j]
    report["host_load"] = {"ok": not load_bad, "violations": load_bad}

    pair_bad = []
    if guest is not None and f_star is not None:
        for x in restr.restricted():
            for y in iter_bits(guest.adj[x]):
                if y in skip:
                    continue
                xm = host.common_neighbourhood(restr.J[x], within=clusters[f_star[x]].mask)
                ym = host.common_neighbourhood(restr.J.get(y, ()), within=clusters[f_star[y]].mask)
                if xm == 0 or ym == 0 or (xm & ym):
                    pair_bad.append((x, y))
                    continue
                verdict = check_lower_regular(
                    g, VertexSet(g.n, xm), VertexSet(g.n, ym), eps, d, p,
                    mode="sampled", budget=RESTRICTION_PAIR_BUDGET, seed=seed + x + y,
                )
                if not verdict.ok:
                    pair_bad.append((x, y))
    report["pair_regularity"] = {"ok": not pair_bad, "violations": pair_bad}
    report["all_ok"] = {"ok": all(v["ok"] for k_, v in report.items() if k_ != "all_ok"), "violations": []}
    return report
