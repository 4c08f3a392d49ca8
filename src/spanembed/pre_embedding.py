"""Cover the exceptional set: reserve sampling, anchored pre-embedding, rerouting.

Each exceptional host vertex v receives a guest anchor x whose neighbourhood is
independent; the neighbours of x are embedded onto reserve vertices chosen from
a filtered neighbourhood of v, the guest assignment is rerouted around x so the
anchor's row matches the chosen host row, and the anchor's second
neighbourhood picks up image restrictions for the final embedding stage.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Iterator
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
# remain in its neighbourhood.  A valid restriction pair restricts at most RHO
# of a cell's guest vertices, and leaves each restricted vertex at least
# ZETA (d p)^|J_x| of its cluster: the paper's rho and zeta.
RESERVE_PROBES = 100
RESERVE_SLACK = 3.0
RESERVE_RETRIES = 5
TUPLE_PAIR_BUDGET = 24
RESTRICTION_PAIR_BUDGET = 64
RHO = 0.1
ZETA = 0.01
STUCK_GUARD = 0.25


class PreEmbedError(StageError):
    """Pre-embedding failed; `stage` identifies the loop step or L-condition."""


@dataclass
class RestrictionPair:
    """Restricting host vertices J_x per guest vertex; images derive from f*.

    J holds only nonempty J_x.  I_x is materialised on demand against a cluster
    family: the guest's cell intersected with the common G-neighbourhood of J_x.
    """

    J: dict[int, tuple[int, ...]] = field(default_factory=dict)


def restriction_image(
    g: Graph, clusters: dict[tuple[int, int], VertexSet], cell: tuple[int, int], js
) -> int:
    """Mask of the allowed images: cluster cap common G-neighbourhood of J."""
    return g.common_neighbourhood(js, within=clusters[cell].mask)


@dataclass
class PreEmbedState:
    phi: dict[int, int] = field(default_factory=dict)  # guest -> host
    anchors: list[tuple[int, int]] = field(default_factory=list)  # (guest anchor, host exceptional vertex)

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
    nbrs = h.neighbour_list(x)
    for a in range(len(nbrs)):
        for b in range(a + 1, len(nbrs)):
            if h.has_edge(nbrs[a], nbrs[b]):
                return False
            if forbid_c4:
                common = h.neighbours(nbrs[a]) & h.neighbours(nbrs[b]) & ~(1 << x)
                if common:
                    return False
    return True


def _anchor_candidates(
    h: Graph,
    l: Labelling,
    assignment: GuestAssignment,
    r: int,
    forbid_c4: bool,
) -> Iterator[int]:
    """Yield the guest vertices usable as anchors, in labelling order:
    independent neighbourhood and a constant-row, zero-free assignment on
    their (r+2)-ball.

    The ball of x avoids every vertex off x's row or of colour 0 exactly when
    no such vertex lies within distance r+2 of x, so one BFS per row, from all
    the vertices that row's anchors must not see, decides every x of the row;
    it runs when the scan first reaches the row.
    """
    f = assignment.f
    sig = assignment.sigma_prime.sigma
    reached = {}
    for x in l.order:
        i = f[x][0]
        if i not in reached:
            reached[i] = h.bfs_distances([z for z in range(h.n) if f[z][0] != i or sig[z] == 0], limit=r + 2)
        if reached[i][x] == -1 and _independent_neighbourhood(h, x, forbid_c4):
            yield x


def _replay(seen: list, more: Iterator) -> Iterator:
    """Yield the items of `seen`, then those that `more` still holds, each
    appended to `seen` when drawn, so that a later replay starts over without
    drawing them again."""
    yield from seen
    for x in more:
        seen.append(x)
        yield x


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


def _restricted_pair_ok(g: Graph, xm: int, ym: int, eps: float, d: float, p: float, budget: int, seed: int) -> bool:
    """Are the restricted sides X, Y nonempty, disjoint and sampled lower-regular?"""
    if xm == 0 or ym == 0 or xm & ym:
        return False
    return check_lower_regular(
        g, VertexSet(g.n, xm), VertexSet(g.n, ym), eps, d, p, mode="sampled", budget=budget, seed=seed
    ).ok


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
    # each subset L of the chosen vertices -> its common G-neighbourhood and its
    # common host neighbourhood in each cluster, and its common host neighbourhood
    masks = {j: c.mask for j, c in row_clusters.items()}
    common = {(): (masks, masks, (1 << n) - 1)}

    def broken(trial) -> str | None:
        """The first condition that the new subsets in `trial` break, or None."""
        for lam, (gm, hm, hg) in trial.items():
            sz = len(lam)
            if hg.bit_count() > (1 + eps) ** sz * p**sz * n:
                return "common-size"
            for j, c in row_clusters.items():
                exp = p**sz * len(c)
                if gm[j].bit_count() < (d / 4.0) ** sz * exp:
                    return "common-degree"
                if not ((1 - eps) ** sz * exp <= hm[j].bit_count() <= (1 + eps) ** sz * exp):
                    return "common-size"
        # pairwise lower-regularity between cluster-restricted intersections
        for lam, (_, hm, _) in trial.items():
            if len(lam) >= delta:
                continue
            for other, (_, hm_other, _) in {**common, **trial}.items():
                if not other or len(other) >= delta or (delta == 2 and set(lam) & set(other)):
                    continue
                for j1, j2 in itertools.permutations(row_clusters, 2):
                    if not _restricted_pair_ok(
                        g, hm[j1], hm_other[j2], eps, d, p, TUPLE_PAIR_BUDGET, seed + 13 * j1 + j2
                    ):
                        return "pair-regularity"
        return None

    chosen: list[int] = []
    failure = "candidates"
    for i in rng_for(seed, stream=81).permutation(len(w_pool)):
        if len(chosen) == ell:
            break
        w = w_pool[int(i)]
        g_w, host_w = g.neighbours(w), host.neighbours(w)
        trial = {
            tuple(sorted(lam + (w,))): (
                {j: gm[j] & g_w for j in row_clusters},
                {j: hm[j] & host_w for j in row_clusters},
                hg & host_w,
            )
            for lam, (gm, hm, hg) in common.items()
        }
        reason = broken(trial)
        if reason:
            failure = reason
            continue
        chosen.append(w)
        common.update(trial)
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
    state = PreEmbedState()
    if len(v0) == 0:
        return state, tuple(f_star), restr

    # listed as far as a round reads them; fewer than |V0| means all of them
    more = _anchor_candidates(guest, labelling, assignment, r, forbid_c4)
    candidates = list(itertools.islice(more, len(v0)))
    if len(candidates) < len(v0):
        raise PreEmbedError("anchors", f"{len(candidates)} anchor candidates for |V0|={len(v0)}")
    sep = 2 * r + 20
    sig = assignment.sigma_prime.sigma
    uncovered = set(v0)
    im_mask = 0
    while uncovered:
        t = len(state.anchors) + 1  # the round, counted from 1
        free = reserve.mask & ~im_mask
        avail = {v: (g.neighbours(v) & free).bit_count() for v in uncovered}
        v = min(uncovered, key=lambda u: (avail[u], u))
        if avail[v] < STUCK_GUARD * mu * p * n:
            raise PreEmbedError(
                "stuck-guard",
                f"vertex {v} has {avail[v]} free reserve neighbours < {STUCK_GUARD * mu * p * n:.1f}",
            )
        # the anchor is the first candidate that the domain's sep-ball misses
        # and whose colour is `lag`, else the first it misses.  Anchors cycle
        # colour classes out of phase with the row rotation: the anchor's colour
        # decides which column its restricted second neighbours land in, so
        # (row, colour) pairs must all be visited
        dist = guest.bfs_distances(state.phi, limit=sep)
        lag = 1 + ((t - 1) // r) % k
        far = (cand for cand in _replay(candidates, more) if dist[cand] == -1)
        x = next(far, None)
        if x is None:
            raise PreEmbedError("anchors", f"no anchor at distance >= {sep} from the domain")
        if sig[x] != lag:
            x = next((cand for cand in far if sig[cand] == lag), x)

        i_t, w_pool = _choose_host_row(
            g, host, g.neighbours(v) & free, clusters, v0.mask & ~im_mask, r, k, eps, d, p, prefer=t % r,
        )
        if not w_pool:
            raise PreEmbedError("row-filter", f"no strong-degree host candidates for {v}")
        nbrs = guest.neighbour_list(x)
        ws = _greedy_tuple(
            g, host, w_pool, len(nbrs), {j: clusters[(i_t, j)] for j in range(k)},
            eps, d, p, delta, seed=seed + 977 * t,
        )
        state.phi[x] = v
        state.phi.update(zip(nbrs, ws))
        state.anchors.append((x, v))
        im_mask = state.image_mask()
        # a leaf image may itself be exceptional; that counts as covered too
        uncovered = {u for u in uncovered if not ((im_mask >> u) & 1)}

        # reroute the assignment around x: the shell at distance 2 + s from x
        # moves to row i_t + s steps towards the anchor's home row, which the
        # BFS limit lets no shell pass; the second neighbours of x are restricted
        s_row = assignment.f[x][0]
        dist = guest.bfs_distances([x], limit=abs(i_t - s_row) + 2)
        step = (s_row > i_t) - (s_row < i_t)
        for z in range(n):
            if dist[z] < 2 or z in state.phi:
                continue
            row = i_t + step * (dist[z] - 2)
            if f_star[z][0] not in (s_row, row):
                raise PreEmbedError("reroute", f"shell vertex {z} assigned off-row {f_star[z]}")
            f_star[z] = (row, f_star[z][1])
            if dist[z] == 2:
                js = tuple(sorted(state.phi[y] for y in guest.neighbour_list(z) if y in state.phi))
                if js:
                    restr.J[z] = js

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
    eps: float,
    p: float,
    d: float,
    f_star: tuple[tuple[int, int], ...],
    guest: Graph,
    skip: set[int],
    seed: int = 0,
) -> dict[str, dict]:
    """Per-condition report for the restriction pair against the given clusters.

    Checks: restricted-vertex counts per cell, image sizes and containment,
    the degree budget |J_x| + deg(x) <= delta, per-host-vertex load <= delta,
    host common-neighbourhood size windows, and sampled lower-regularity of the
    restricted pairs along guest edges.  Guest vertices in `skip` are already
    embedded and count neither for the degree budget nor as pair ends.
    """
    # each restricted vertex's host image: its cluster cap the common host
    # neighbourhood of J_x; an unrestricted vertex's is its whole cluster
    host_img = {x: restriction_image(host, clusters, f_star[x], js) for x, js in restr.J.items()}
    by_cell = collections.Counter(f_star[x] for x in restr.J)
    count_bad = [
        cell for cell, count in by_cell.items()
        if guest_parts.get(cell, 0) and count > rho * guest_parts[cell]
    ]

    img_bad, win_bad = [], []
    for x, js in restr.J.items():
        size = len(clusters[f_star[x]])
        img = restriction_image(g, clusters, f_star[x], js)
        if img.bit_count() < zeta * (d * p) ** len(js) * size:
            img_bad.append(x)
        if img & ~host_img[x]:
            img_bad.append(x)
        lo = ((1 - eps) * p) ** len(js) * size
        hi = ((1 + eps) * p) ** len(js) * size
        if not (lo - 1.0 <= host_img[x].bit_count() <= hi + 1.0):
            win_bad.append(x)

    deg_bad = [
        x for x, js in restr.J.items()
        if len(js) + sum(1 for y in guest.neighbour_list(x) if y not in skip) > delta
    ]
    load = collections.Counter(u for js in restr.J.values() for u in js)

    pair_bad = []
    for x in restr.J:
        for y in guest.neighbour_list(x):
            if y in skip:
                continue
            if not _restricted_pair_ok(
                g, host_img[x], host_img.get(y, clusters[f_star[y]].mask), eps, d, p,
                RESTRICTION_PAIR_BUDGET, seed + x + y,
            ):
                pair_bad.append((x, y))

    report = {
        name: {"ok": not bad, "violations": bad}
        for name, bad in [
            ("restricted_count", count_bad),
            ("image_size", img_bad),
            ("gamma_window", win_bad),
            ("degree_budget", deg_bad),
            ("host_load", [u for u, c in load.items() if c > delta]),
            ("pair_regularity", pair_bad),
        ]
    }
    report["all_ok"] = {"ok": all(v["ok"] for v in report.values()), "violations": []}
    return report
