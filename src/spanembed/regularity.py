"""Regular-pair predicates and sparse regular partitions.

Two verdict routes exist for every pair: an exhaustive check (exact answer,
exponential in the smaller side, capped at 20) and a sampled check that probes
degree-sorted prefix cuts first and seeded random threshold-size subpairs
second.  Sampled mode silently upgrades to exhaustive when both sides have at
most 14 vertices, so the two routes agree on everything the oracle can reach.
Every sampled predicate runs on one engine, `_first_bad_subpair`, which reads
G[X, Y] once into a 0/1 block and scores its candidate subpairs as exact edge
counts: the one-sided cuts off cumulative degree sums, then the double cuts and
random subpairs all at once, with one batched matrix product.  A pair's random
subpairs come from two draws, one for all X-index sets and one for all Y-index
sets (`_random_subsets`).  Verdicts carry no density: the energy and the
partition's dense-pair test count a pair's edges in one packed degree table
(`_pair_edge_counts`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .graph_core import Graph, VertexSet, bit_positions, iter_bits, mask_of, rng_for, unpack_rows

__all__ = [
    "PairVerdict",
    "RegularPartitionResult",
    "EnergyPartitionResult",
    "check_lower_regular",
    "check_super_regular",
    "energy_partition",
    "inheritance_table",
    "min_degree_regular_partition",
    "RegularityError",
]

EXACT_SIDE_CAP = 20
EXHAUSTIVE_FALLBACK_SIZE = 14
DEFAULT_SAMPLE_BUDGET = 2000
MAX_ROUNDS = 50  # refinement rounds of the energy-increment partitioner
_SCREEN_ROWS = 256  # host rows that `inheritance_table` unpacks at once


class RegularityError(RuntimeError):
    """Raised when a partition certificate cannot be established."""


@dataclass(frozen=True)
class PairVerdict:
    kind: str  # lower_regular | regular | irregular
    witness: tuple[VertexSet, VertexSet] | None = None

    @property
    def ok(self) -> bool:
        return self.kind != "irregular"


def _threshold(eps: float, size):
    """Smallest integer t with t >= eps * size (and at least 1), of one size or of each in an array."""
    return np.maximum(1, np.ceil(eps * np.asarray(size) - 1e-12)).astype(np.int64)


def _lower_bound_vacuous(d: float, eps: float) -> bool:
    """d - eps <= 0: no density breaks the lower bound, so every lower-regular
    test, super-regular floor and inheritance screen holds on nonempty sides."""
    return d - eps <= 0


def _takes_exact_route(x: VertexSet, y: VertexSet, exact: bool) -> bool:
    """Exhaustive when asked for, or when both sides are at most 14; sides are capped at 20."""
    if not exact and (len(x) > EXHAUSTIVE_FALLBACK_SIZE or len(y) > EXHAUSTIVE_FALLBACK_SIZE):
        return False
    if len(x) > EXACT_SIDE_CAP or len(y) > EXACT_SIDE_CAP:
        raise ValueError(f"exact mode capped at side size {EXACT_SIDE_CAP}")
    return True


def _subset_degree_table(g: Graph, xs: list[int], ys: list[int]) -> np.ndarray:
    """D[S, i] = number of neighbours of xs[i] inside the subset S of ys (all 2^|ys| S)."""
    nx, ny = len(xs), len(ys)
    cols = np.array([[(nbrs >> y) & 1 for y in ys] for nbrs in map(g.neighbours, xs)], dtype=np.int32)
    table = np.zeros((1 << ny, nx), dtype=np.int32)
    for j in range(ny):
        step = 1 << j
        table[step : 2 * step] = table[:step] + cols[:, j]
    return table


def _exact_extreme_subpairs(
    g: Graph, x: VertexSet, y: VertexSet, eps: float, p: float
) -> tuple[float, tuple[int, int], float, tuple[int, int]]:
    """Exact min and max subpair p-density over |X'| >= eps|X|, |Y'| >= eps|Y|.

    Enumerates the smaller side's subsets; for each such Y' the extremal X' is a
    degree-sorted prefix, so the other side never needs explicit enumeration.
    Returns (min_density, argmin_pair, max_density, argmax_pair) with pairs as
    (xmask, ymask).
    """
    xs, ys = x.to_list(), y.to_list()
    if len(ys) > len(xs):
        mn, pmn, mx, pmx = _exact_extreme_subpairs(g, y, x, eps, p)
        return mn, (pmn[1], pmn[0]), mx, (pmx[1], pmx[0])
    mx_thr = _threshold(eps, len(xs))
    my_thr = _threshold(eps, len(ys))
    table = _subset_degree_table(g, xs, ys)  # (2^|ys|, |xs|)
    sizes = np.array([s.bit_count() for s in range(1 << len(ys))], dtype=np.int32)
    valid = sizes >= my_thr
    srt = np.sort(table[valid], axis=1)
    csum_lo = np.cumsum(srt, axis=1, dtype=np.int64)
    csum_hi = np.cumsum(srt[:, ::-1], axis=1, dtype=np.int64)
    lens = np.arange(1, len(xs) + 1, dtype=np.float64)
    sy = sizes[valid].astype(np.float64)
    dens_lo = csum_lo[:, mx_thr - 1 :] / (p * lens[mx_thr - 1 :][None, :] * sy[:, None])
    dens_hi = csum_hi[:, mx_thr - 1 :] / (p * lens[mx_thr - 1 :][None, :] * sy[:, None])
    valid_subsets = np.flatnonzero(valid)

    def locate(dens: np.ndarray, pick_min: bool, reverse: bool) -> tuple[float, tuple[int, int]]:
        flat = int(dens.argmin() if pick_min else dens.argmax())
        row, col = divmod(flat, dens.shape[1])
        ymask_local = int(valid_subsets[row])
        length = mx_thr + col
        degs = table[ymask_local]
        order = np.argsort(degs, kind="stable")
        chosen = order[::-1][:length] if reverse else order[:length]
        xmask = mask_of(xs[int(i)] for i in chosen)
        ymask = mask_of(ys[j] for j in iter_bits(ymask_local))
        return float(dens[row, col]), (xmask, ymask)

    mn, pmn = locate(dens_lo, pick_min=True, reverse=False)
    mx, pmx = locate(dens_hi, pick_min=False, reverse=True)
    return mn, pmn, mx, pmx


def _pair_block(g: Graph, xs: np.ndarray, ys: np.ndarray, x_rows: np.ndarray | None = None) -> np.ndarray:
    """G[X, Y] as a uint8 0/1 block, one row per vertex of xs.

    X's adjacency rows are read as packed rows (`Graph.packed_rows(xs)`), or
    taken from `x_rows` when a caller has packed them already, and unpacked
    32 at a time, so no full unpacked row of X is ever held.
    """
    packed = g.packed_rows(xs) if x_rows is None else x_rows
    block = np.empty((len(xs), len(ys)), dtype=np.uint8)
    for lo in range(0, len(xs), 32):
        block[lo : lo + 32] = np.take(unpack_rows(packed[lo : lo + 32], g.n), ys, axis=1)
    return block


def _cuts(deg: np.ndarray, order: np.ndarray, thr: int):
    """Degree-sorted prefix and suffix cuts of one side against all of the other,
    in scan order, each as (indices, edge count) read off one cumulative sum."""
    n = len(deg)
    csum = np.concatenate(([0], np.cumsum(deg[order], dtype=np.int64)))
    for c in sorted({thr, (thr + n) // 2, n // 2, n}):
        if c >= thr:
            yield order[:c], int(csum[c])
            yield order[n - c :], int(csum[n] - csum[n - c])


def _random_subsets(rng: np.random.Generator, rows: int, size: int, thr: int) -> np.ndarray:
    """`rows` uniform thr-subsets of range(size), one per row, from one draw: each
    row holds the positions of the thr smallest of size uniform keys.  The
    partition by position, not a `keys <= kth` threshold, keeps every row at
    exactly thr distinct indices even where keys tie."""
    return np.argpartition(rng.random((rows, size)), thr - 1, axis=1)[:, :thr]


def _first_bad_subpair(
    g: Graph, xs: np.ndarray, ys: np.ndarray, block: np.ndarray, eps: float, budget: int, seed: int, bad,
    joint_cuts: bool = True,
) -> tuple[VertexSet, VertexSet] | None:
    """The first candidate subpair (X', Y') with bad(e(X', Y'), |X'|, |Y'|), or None.

    The engine behind every sampled predicate, on the 0/1 block G[X, Y] of
    `_pair_block`.  Candidates in scan order: degree-sorted prefix and suffix
    cuts of X against all of Y, the same for Y, with joint_cuts the two
    threshold-size double cuts, then `budget` seeded random threshold-size
    subpairs: one `_random_subsets` draw on the stream-21 generator gives all
    X-index sets, and a second gives all Y-index sets.  A one-sided cut's edge
    count is an entry of a cumulative degree sum.  The double cuts and random
    subpairs are scored together by one float32 product of their X indicators
    with the block, taken 32 block rows at a time so that no float copy of the
    block exists, then gathered at their Y indices and summed in float64.
    Every partial sum of the product is an integer of at most |X| < 2^24,
    exact in float32, so every count is exact.  `bad` decides the whole batch
    at once; the first bad candidate in scan order is the witness, and vertex
    sets are built for it only.
    """
    nx, ny = block.shape
    deg_x, deg_y = block.sum(axis=1, dtype=np.int32), block.sum(axis=0, dtype=np.int32)
    mx_thr, my_thr = _threshold(eps, nx), _threshold(eps, ny)
    # a stable sort over ascending vertex ids is the (degree, vertex) order
    ox, oy = np.argsort(deg_x, kind="stable"), np.argsort(deg_y, kind="stable")
    all_x, all_y = np.arange(nx), np.arange(ny)

    def witness(xi: np.ndarray, yi: np.ndarray) -> tuple[VertexSet, VertexSet]:
        return VertexSet(g.n, mask_of(xs[xi].tolist())), VertexSet(g.n, mask_of(ys[yi].tolist()))

    for xi, e in _cuts(deg_x, ox, mx_thr):
        if bad(e, len(xi), ny):
            return witness(xi, all_y)
    for yi, e in _cuts(deg_y, oy, my_thr):
        if bad(e, nx, len(yi)):
            return witness(all_x, yi)
    rng = rng_for(seed, stream=21)
    cx, cy = _random_subsets(rng, budget, nx, mx_thr), _random_subsets(rng, budget, ny, my_thr)
    if joint_cuts:
        cx = np.vstack([ox[:mx_thr], ox[nx - mx_thr :], cx])
        cy = np.vstack([oy[:my_thr], oy[ny - my_thr :], cy])
    if not len(cx):
        return None
    ind = np.zeros((len(cx), nx), dtype=np.float32)
    np.put_along_axis(ind, cx, 1.0, axis=1)
    prod = np.zeros((len(cx), ny), dtype=np.float32)
    for lo in range(0, nx, 32):
        prod += ind[:, lo : lo + 32] @ block[lo : lo + 32].astype(np.float32)
    e = np.take_along_axis(prod, cy, axis=1).sum(axis=1, dtype=np.float64)
    hit = np.flatnonzero(bad(e, mx_thr, my_thr))
    return witness(cx[hit[0]], cy[hit[0]]) if len(hit) else None


def check_lower_regular(
    g: Graph,
    x: VertexSet,
    y: VertexSet,
    eps: float,
    d: float,
    p: float,
    mode: str = "sampled",
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> PairVerdict:
    """Is every eps-fraction subpair of (X, Y) of p-density at least d - eps?

    mode="exact" enumerates all subpairs (sides capped at 20); mode="sampled"
    probes prefix cuts and seeded random subpairs, upgrading to exact when both
    sides are at most 14, and certifies without probing when d - eps <= 0.
    """
    if len(x) == 0 or len(y) == 0 or (x.mask & y.mask):
        raise ValueError("sides must be nonempty and disjoint")
    if p <= 0:
        raise ValueError("p must be positive")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    bound = d - eps
    if _takes_exact_route(x, y, exact=mode == "exact"):
        mn, pmn, _, _ = _exact_extreme_subpairs(g, x, y, eps, p)
        if mn < bound - 1e-12:
            wit = (VertexSet(g.n, pmn[0]), VertexSet(g.n, pmn[1]))
            return PairVerdict("irregular", wit)
        return PairVerdict("lower_regular")
    if _lower_bound_vacuous(d, eps):
        return PairVerdict("lower_regular")
    xs, ys = bit_positions(x.mask), bit_positions(y.mask)
    wit = _first_bad_subpair(
        g, xs, ys, _pair_block(g, xs, ys), eps, budget, seed, lambda e, sx, sy: e / (p * sx * sy) < bound - 1e-12
    )
    return PairVerdict("lower_regular" if wit is None else "irregular", wit)


def _density_stderr(full: float, p: float, sx: int, sy: int) -> float:
    q = min(1.0, max(full * p, p))
    return math.sqrt(max(q * (1.0 - q), 1e-12) / (p * p * sx * sy))


def check_two_sided_regular(
    g: Graph,
    x: VertexSet,
    y: VertexSet,
    eps: float,
    p: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
    noise_sigmas: float = 0.0,
    *,
    _x_rows: np.ndarray | None = None,
) -> PairVerdict:
    """Does every eps-fraction subpair stay within eps of the pair density?

    This is the d'-centred (two-sided) regularity notion used by the energy
    partitioner, with d' taken as the full-pair density.  With noise_sigmas > 0
    a subpair only witnesses irregularity when its deviation clears eps plus
    that many standard errors of the subpair density estimate; at desk-scale
    part sizes this keeps binomial noise from masquerading as structure.
    `_x_rows` is private to `energy_partition`, which hands in X's packed
    rows (see `_pair_block`) so that each part's rows are read once per round.
    """
    if x.mask & y.mask:
        raise ValueError("sides must be disjoint")
    xs, ys = bit_positions(x.mask), bit_positions(y.mask)
    block = _pair_block(g, xs, ys, _x_rows)
    full = int(block.sum(dtype=np.int64)) / (p * len(xs) * len(ys))

    def margin(sx: int, sy: int) -> float:
        return eps + noise_sigmas * _density_stderr(full, p, sx, sy) + 1e-12

    if _takes_exact_route(x, y, exact=False):
        mn, pmn, mx, pmx = _exact_extreme_subpairs(g, x, y, eps, p)
        for dens, pair in ((mn, pmn), (mx, pmx)):
            if abs(dens - full) > margin(pair[0].bit_count(), pair[1].bit_count()):
                wit = (VertexSet(g.n, pair[0]), VertexSet(g.n, pair[1]))
                return PairVerdict("irregular", wit)
        return PairVerdict("regular")
    # Joint double cuts are skipped here: at desk-scale part sizes they deviate
    # by ~eps on genuinely random pairs and would trigger endless refinement.
    wit = _first_bad_subpair(
        g, xs, ys, block, eps, budget, seed,
        lambda e, sx, sy: abs(e / (p * sx * sy) - full) > margin(sx, sy),
        joint_cuts=False,
    )
    return PairVerdict("regular" if wit is None else "irregular", wit)


def check_super_regular(
    g: Graph,
    host: Graph,
    x: VertexSet,
    y: VertexSet,
    eps: float,
    d: float,
    p: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    seed: int = 0,
) -> bool:
    """Lower-regular (sampled) plus the per-vertex degree floor into the other side.

    Every x in X needs deg_G(x, Y) >= (d - eps) * max(p|Y|, deg_host(x, Y)/2),
    and symmetrically for Y; with d - eps <= 0 that floor holds for every vertex.
    """
    if not check_lower_regular(g, x, y, eps, d, p, mode="sampled", budget=budget, seed=seed).ok:
        return False
    if _lower_bound_vacuous(d, eps):
        return True
    for side, other in ((x, y), (y, x)):
        vs = side.to_list()
        need = (d - eps) * np.maximum(p * len(other), host.degree_table([other.mask], vs)[:, 0] / 2.0)
        if (g.degree_table([other.mask], vs)[:, 0] < need - 1e-12).any():
            return False
    return True


def inheritance_table(
    g: Graph, host: Graph, vertices, masks: list[int], edges, host_deg: np.ndarray, eps: float, d: float, p: float
) -> np.ndarray:
    """T[i, e]: does v = vertices[i] inherit regularity on edges[e] = (a, b), read from
    A = masks[a] to B = masks[b]?  With X = N(v) & A for v's host neighbourhood
    N(v), the ceil(eps|X|) smallest G-degrees of X into B, and those into
    N(v) & B, must keep p-density d - eps (prefix averages of ascending degrees
    never fall, so this cut decides every larger one); an empty side fails.
    `host_deg[i, c]` = |N(vertices[i]) & masks[c]| alone decides T when
    d - eps <= 0.  Otherwise each pair reads G[A, B] once and the host rows
    `_SCREEN_ROWS` at a time: A sorted once by degree into B lists v's smallest
    first, and the degrees into N(v) & B are one exact float32 product.
    """
    seen = host_deg > 0
    table = seen[:, [a for a, _ in edges]] & seen[:, [b for _, b in edges]]
    if _lower_bound_vacuous(d, eps):
        return table
    for e, (a, b) in enumerate(edges):
        if not table[:, e].any():
            continue
        xs, ys = bit_positions(masks[a]), bit_positions(masks[b])
        block = _pair_block(g, xs, ys)
        deg_b = block.sum(axis=1, dtype=np.int64)
        order, block_t = np.argsort(deg_b), block.T.astype(np.float32)
        for lo in range(0, len(vertices), _SCREEN_ROWS):
            member = unpack_rows(host.packed_rows(vertices[lo:lo + _SCREEN_ROWS]), host.n)
            in_x, in_y = member[:, xs], member[:, ys]
            sx, sy = host_deg[lo:lo + _SCREEN_ROWS, a], host_deg[lo:lo + _SCREEN_ROWS, b]
            thr = _threshold(eps, sx)
            # into B: X's members in A's degree order, up to the thr-th
            sorted_x = in_x[:, order]
            one_sided = np.where(np.cumsum(sorted_x, axis=1) <= thr[:, None], sorted_x * deg_b[order], 0).sum(axis=1)
            # into N(v) & B: the thr smallest of X's counts, non-members last
            counts = np.where(in_x, in_y.astype(np.float32) @ block_t, np.inf)
            counts.sort(axis=1)
            last = np.maximum(np.minimum(thr, sx) - 1, 0)[:, None]
            two_sided = np.take_along_axis(np.cumsum(counts, axis=1), last, axis=1)[:, 0]
            table[lo:lo + _SCREEN_ROWS, e] &= (one_sided / (p * thr * len(ys)) >= d - eps - 1e-12) & (
                two_sided / (p * thr * np.maximum(sy, 1)) >= d - eps - 1e-12  # sy = 0 has failed already
            )
    return table


# ---------------------------------------------------------------------------
# Energy-increment partitioner
# ---------------------------------------------------------------------------


@dataclass
class EnergyPartitionResult:
    residues: list[VertexSet]
    refinement: list[list[VertexSet]]  # per initial part
    rounds: int
    energy_history: list[float]
    triggered_rounds: list[bool]
    irregular_counts: list[int]
    L: float
    regular: bool


def _energy_term(dens: float, L: float) -> float:
    # quadratic below the cap, tangent-line continuation above: keeps the
    # convexity needed for refinement monotonicity while bounding the total
    return dens * dens if dens <= L else 2 * L * dens - L * L


def _pair_edge_counts(g: Graph, masks: list[int]) -> np.ndarray:
    """C[a, b] = e(masks[a], masks[b]) for disjoint sets, from one packed degree
    table: each set's vertices' degrees into every set, summed over the set's rows."""
    members = [bit_positions(m) for m in masks]
    table = g.degree_table(masks, np.concatenate(members))
    ends = np.cumsum([len(vs) for vs in members])
    return np.array([table[end - len(vs):end].sum(axis=0) for vs, end in zip(members, ends)])


def _energy(parts: list[tuple[int, int]], origin_sizes: list[int], g: Graph, p: float, L: float) -> float:
    """Sum over unordered part pairs of |P||P'| f(d_p) / (|V_i||V_j|), f capped at L,
    every pair's edge count from `_pair_edge_counts`."""
    counts = _pair_edge_counts(g, [m for _, m in parts])
    total = 0.0
    for a, (oa, ma) in enumerate(parts):
        sa = ma.bit_count()
        for b in range(a + 1, len(parts)):
            ob, mb = parts[b]
            sb = mb.bit_count()
            dens = int(counts[a, b]) / (p * sa * sb)
            total += sa * sb * _energy_term(dens, L) / (origin_sizes[oa] * origin_sizes[ob])
    return total


def energy_partition(
    g: Graph,
    initial: list[VertexSet],
    eps: float,
    p: float,
    seed: int = 0,
    budget: int = 64,
) -> EnergyPartitionResult:
    """Refine the initial parts until almost all part pairs are two-sided regular.

    Implements the energy-increment loop: sample-check all part pairs, take the
    Venn diagram of irregularity witnesses, rechop atoms to near-uniform chunks,
    repeat.  Energy (capped quadratic density form, cap parameter
    L = 100 s^2 / eps) never decreases, and each round triggered by an
    eps/2-fraction of irregular pairs must gain at least eps^5 / 1000.
    """
    s = len(initial)
    if s == 0:
        raise ValueError("need at least one initial part")
    if sum(len(v) for v in initial) != reduce(or_, (v.mask for v in initial)).bit_count():
        raise ValueError("initial parts must be disjoint")
    L = 100.0 * s * s / eps
    origin_sizes = [len(v) for v in initial]

    # parts as (origin index, mask); a single initial part gets a mandatory
    # first split so that pair checks have something to look at
    n_target = max(2, math.ceil(1.0 / eps)) if s == 1 else 1
    parts = [(i, v.mask) for i, v in enumerate(initial)]
    if n_target > 1 and len(initial[0]) >= n_target:
        vs = initial[0].to_list()
        c = len(vs) // n_target
        parts = [(0, mask_of(vs[t * c : (t + 1) * c if t < n_target - 1 else None])) for t in range(n_target)]

    energy_history = [_energy(parts, origin_sizes, g, p, L)]
    triggered: list[bool] = []
    irregular_counts: list[int] = []
    rounds = 0
    regular = False
    while rounds < MAX_ROUNDS:
        rounds += 1
        nontrivial = [(o, m) for o, m in parts if m]
        witnesses: list[tuple[int, int]] = []  # (part index, witness mask)
        irregular = 0
        n_pairs = 0
        for a, (_, ma) in enumerate(nontrivial[:-1]):
            x = VertexSet(g.n, ma)
            x_rows = g.packed_rows(bit_positions(ma))  # read once for every b > a
            for b in range(a + 1, len(nontrivial)):
                n_pairs += 1
                verdict = check_two_sided_regular(
                    g, x, VertexSet(g.n, nontrivial[b][1]), eps, p,
                    budget=budget, seed=seed + 997 * rounds + a * 131 + b,
                    noise_sigmas=3.0, _x_rows=x_rows,
                )
                if not verdict.ok:
                    irregular += 1
                    wx, wy = verdict.witness
                    witnesses += [(a, wx.mask), (b, wy.mask)]
            del x_rows  # only one part's rows are live at a time
        irregular_counts.append(irregular)
        if n_pairs == 0 or irregular <= (eps / 2.0) * n_pairs:
            triggered.append(False)
            regular = True
            break
        triggered.append(True)
        # Venn refinement by witness sets, per part
        atoms_by_part: list[list[int]] = [[m] for _, m in nontrivial]
        for idx, wmask in witnesses:
            atoms_by_part[idx] = [m for atom in atoms_by_part[idx] for m in (atom & wmask, atom & ~wmask) if m]
        atoms_by_origin: list[list[int]] = [[] for _ in range(s)]
        for (o, _), atoms in zip(nontrivial, atoms_by_part):
            atoms_by_origin[o].extend(atoms)
        max_atoms = max(len(a) for a in atoms_by_origin)
        # chunks never drop below 8 vertices, or pair checks degenerate to noise
        min_origin = min(origin_sizes)
        n_target = min(max(2 * n_target, 2 * max_atoms), max(2, min_origin // 8))
        parts = []
        for o in range(s):
            c = max(1, math.floor((1.0 - eps / 1000.0) * origin_sizes[o] / n_target))
            for a_mask in sorted(atoms_by_origin[o]):
                vs = list(iter_bits(a_mask))
                for t in range(0, len(vs), c):
                    parts.append((o, mask_of(vs[t : t + c])))
        energy_history.append(_energy(parts, origin_sizes, g, p, L))

    # Output: per origin, the chunks within one vertex of its largest, cut to
    # the same count for every origin; leftovers go to the residue.
    kept_by_origin: list[list[int]] = []
    for o in range(s):
        masks = sorted((m for o_, m in parts if o_ == o and m), key=lambda m: (-m.bit_count(), m))
        kept_by_origin.append([m for m in masks if m.bit_count() >= masks[0].bit_count() - 1])
    t_keep = min((len(kept) for kept in kept_by_origin if kept), default=0)
    refinement = [[VertexSet(g.n, m) for m in kept[:t_keep]] for kept in kept_by_origin]
    residues = [
        VertexSet(g.n, v.mask & ~reduce(or_, kept[:t_keep], 0)) for v, kept in zip(initial, kept_by_origin)
    ]
    return EnergyPartitionResult(
        residues=residues,
        refinement=refinement,
        rounds=rounds,
        energy_history=energy_history,
        triggered_rounds=triggered,
        irregular_counts=irregular_counts,
        L=L,
        regular=regular,
    )


# ---------------------------------------------------------------------------
# Minimum-degree regular partition
# ---------------------------------------------------------------------------


@dataclass
class RegularPartitionResult:
    clusters: list[VertexSet]
    exceptional: VertexSet
    dense_regular_pairs: set[tuple[int, int]]
    reduced_min_degree: int
    alpha: float


def min_degree_regular_partition(
    g: Graph,
    eps: float,
    d: float,
    p: float,
    r0: int,
    seed: int = 0,
    budget: int = 64,
    retries: int = 3,
) -> RegularPartitionResult:
    """Equipartition into >= r0 clusters whose dense regular pairs form a
    reduced graph of min degree >= (alpha - d - eps) r, alpha = delta(G)/(pn).

    Retries with fresh shuffles; raises RegularityError with a diagnostic when
    the certificate cannot be met within the retry budget.
    """
    n = g.n
    alpha = g.min_degree() / (p * n) if p > 0 else 0.0
    last_diag = ""
    for attempt in range(retries):
        rng = rng_for(seed + attempt, stream=31)
        perm = [int(v) for v in rng.permutation(n)]
        size = n // r0
        initial = [VertexSet.from_iter(n, perm[i * size : (i + 1) * size]) for i in range(r0)]
        res = energy_partition(g, initial, eps, p, seed=seed + attempt, budget=budget)
        clusters = [vs for group in res.refinement for vs in group if len(vs) > 0]
        # trim to an exact equipartition; the spare vertices past r0 * size, the
        # residues and the trimmed tails are all that no cluster keeps, and form V0
        min_size = min(len(c) for c in clusters)
        clusters = [VertexSet.from_iter(n, c.to_list()[:min_size]) for c in clusters]
        exceptional = VertexSet(n, ((1 << n) - 1) & ~reduce(or_, (c.mask for c in clusters)))
        if len(exceptional) > eps * n:
            last_diag = f"|V0|={len(exceptional)} > eps*n={eps * n:.1f}"
            continue
        r = len(clusters)
        counts = _pair_edge_counts(g, [c.mask for c in clusters])
        n_irregular = 0
        dense_pairs: set[tuple[int, int]] = set()
        for a, b in itertools.combinations(range(r), 2):
            ok = check_lower_regular(
                g, clusters[a], clusters[b], eps, d, p,
                mode="sampled", budget=budget, seed=seed + 7 * a + b,
            ).ok
            n_irregular += not ok
            if ok and int(counts[a, b]) / (p * len(clusters[a]) * len(clusters[b])) >= d:
                dense_pairs.add((a, b))
        red_min = Graph.from_edges(r, dense_pairs).min_degree()
        need = (alpha - d - eps) * r
        max_irregular = eps * r * (r - 1) / 2.0
        if n_irregular > max_irregular:
            last_diag = f"{n_irregular} irregular pairs > {max_irregular:.1f}"
            continue
        if red_min < need - 1e-9:
            last_diag = f"reduced min degree {red_min} < required {need:.2f}"
            continue
        return RegularPartitionResult(
            clusters=clusters,
            exceptional=exceptional,
            dense_regular_pairs=dense_pairs,
            reduced_min_degree=red_min,
            alpha=alpha,
        )
    raise RegularityError(f"regular partition certificate failed after {retries} attempts: {last_diag}")
