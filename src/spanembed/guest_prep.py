"""Guest-side structure: blocks, sections, colour switching, and the cell assignment.

A guest arrives as (graph, bandwidth labelling, proper (k+1)-colouring with a
sparse colour 0).  `assign_guest` partitions the labelling into blocks and
sections, optionally rebalances colour classes by switching colours inside
zero-free blocks under random permutations, and produces the homomorphism
f: V(H) -> [r] x [k] (colour-0 vertices route to the row's extension cell z_i)
together with the special set X, after checking every property it promises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .graph_core import (
    Graph, Labelling, StageError, VertexSet, bandwidth_of_labelling, degeneracy_order, iter_bits,
    mask_of, rng_for,
)
from .reduced_graph import ReducedGraph

__all__ = [
    "Colouring",
    "BlockStructure",
    "GuestAssignment",
    "check_zero_free",
    "switch_colours",
    "assign_guest",
    "check_bounded_order",
    "bounded_order_report",
    "GuestPrepError",
    "SwitchError",
]


SWITCH_STEPS = 200_000  # colour trials of one block's recolouring search
ASSIGN_RETRIES = 200  # fresh switching permutations before the assignment gives up


class GuestPrepError(StageError):
    """Guest assignment failed; `stage` names the first broken property."""


class SwitchError(ValueError):
    pass


@dataclass(frozen=True)
class Colouring:
    """Vertex colouring with colours in {0, ..., k}; colour 0 is the sparse spare."""

    sigma: tuple[int, ...]
    k: int

    def __post_init__(self):
        if any(not (0 <= c <= self.k) for c in self.sigma):
            raise ValueError("colour out of range")

    def is_proper(self, g: Graph) -> bool:
        return all(self.sigma[u] != self.sigma[v] for u, v in g.edges())

    def zero_vertices(self) -> list[int]:
        return [v for v, c in enumerate(self.sigma) if c == 0]


def _zero_blocks(col: Colouring, l: Labelling, blocklen: int) -> set[int]:
    return {l.pos[v] // blocklen for v in col.zero_vertices()}


def check_zero_free(col: Colouring, l: Labelling, z: float, blocklen: int) -> bool:
    """Every window of z consecutive blocks of `blocklen` positions contains at
    most one block using colour 0."""
    zb = sorted(_zero_blocks(col, l, blocklen))
    # no two zero blocks inside one window of z consecutive blocks
    return all(b - a >= int(z) for a, b in zip(zb, zb[1:]))


@dataclass
class BlockStructure:
    """Blocks and sections over a bandwidth labelling, and each section's switching blocks."""

    blocklen: int
    nblocks: int
    section_bounds: list[int]  # t_0 .. t_r as block indices (section i = blocks t_i..t_{i+1} - 1)
    b: int  # blocks per interval

    def section_of_position(self, pos: int) -> int:
        return bisect_right(self.section_bounds, min(pos // self.blocklen, self.nblocks - 1)) - 1

    def switching_blocks(self, i: int) -> range:
        """First blocks of section i's intervals 2..s_i-1 (1-based); each switches at it or the next block."""
        return range(self.section_bounds[i], self.section_bounds[i + 1], self.b)[1:-1]


def build_block_structure(
    n: int,
    k: int,
    blocklen: int,
    m_targets: dict[tuple[int, int], int],
    col: Colouring,
    l: Labelling,
    r: int,
) -> BlockStructure:
    """Choose section boundaries at zero-free block pairs near the target masses.

    Blocks hold `blocklen` = 4*k*beta*n positions, an interval holds
    b = floor(k / sqrt(beta)) = isqrt(4*k^3*n // blocklen) blocks, and a
    boundary may miss its target mass by 12*k*beta*n = 3 blocks.
    """
    nblocks = -(-n // blocklen)
    zb = _zero_blocks(col, l, blocklen)

    def boundary_ok(t: int) -> bool:
        # B_t is a section's last block, B_{t+1} the next section's first
        return t not in zb and (t + 1 >= nblocks or (t + 1) not in zb)

    bounds = [0]
    acc = 0
    for i in range(r - 1):
        acc += sum(m_targets[(i, j)] for j in range(k))
        # cumulative block mass stays at or below the target mass
        target = min(nblocks - 1, max(bounds[-1] + 1, acc // blocklen))
        chosen = next(
            (
                cand for off in range(nblocks) for cand in (target - off, target + off)
                if bounds[-1] < cand < nblocks and boundary_ok(cand - 1)
            ),
            None,
        )
        if chosen is None:
            raise GuestPrepError("sections", f"no zero-free boundary for section {i}")
        # section sizing: cumulative block mass within 3 blocks of the target mass
        if not (chosen * blocklen <= acc + blocklen // 2 < 3 * blocklen + (chosen + 1) * blocklen):
            raise GuestPrepError(
                "sections", f"boundary {chosen} misses the target mass by more than 3 blocks"
            )
        bounds.append(chosen)
    bounds.append(nblocks)
    b = max(1, math.isqrt(4 * k**3 * n // blocklen))
    return BlockStructure(blocklen=blocklen, nblocks=nblocks, section_bounds=bounds, b=b)


def switch_colours(
    h: Graph,
    col: Colouring,
    l: Labelling,
    block_t: int,
    pi: dict[int, int],
    blocklen: int,
) -> Colouring:
    """Proper recolouring equal to `col` before block t and pi o col (fixing 0) after.

    Inside the block the colours are found by a greedy backtracking search that
    prefers the old colouring in the first half and the permuted one in the
    second; colour 0 is a last resort.  The block must be zero-free under `col`,
    so every colour-0 vertex of `col` keeps colour 0.
    """
    n = len(l)
    k = col.k
    lo, hi = block_t * blocklen, min((block_t + 1) * blocklen, n)
    if any(col.sigma[l.order[p]] == 0 for p in range(lo, hi)):
        raise SwitchError(f"block {block_t} is not zero-free")
    if sorted(pi) != list(range(1, k + 1)) or sorted(pi.values()) != list(range(1, k + 1)):
        raise ValueError("pi must permute [k]")

    new = list(col.sigma)
    for p in range(hi, n):
        c = col.sigma[l.order[p]]
        new[l.order[p]] = pi[c] if c != 0 else 0
    if all(pi[c] == c for c in range(1, k + 1)):
        return Colouring(tuple(new), k)

    # CSP over the block positions, left to right
    mid = (lo + hi) // 2
    prefs: list[list[int]] = []
    for p in range(lo, hi):
        c = col.sigma[l.order[p]]
        want = [c, pi[c]] if p < mid else [pi[c], c]
        rest = [x for x in range(1, k + 1) if x not in want]
        prefs.append(want + rest + [0])

    steps = 0

    def solve(idx: int) -> bool:
        nonlocal steps
        if idx == hi - lo:
            return True
        p = lo + idx
        v = l.order[p]
        # neighbours already coloured: earlier in the block, or outside it
        forbidden = {new[w] for w in h.neighbour_list(v) if not p < l.pos[w] < hi}
        for c in prefs[idx]:
            steps += 1
            if steps > SWITCH_STEPS:
                return False
            if c in forbidden:
                continue
            new[v] = c
            if solve(idx + 1):
                return True
        new[v] = col.sigma[v]
        return False

    if not solve(0):
        raise SwitchError(f"no proper switch found in block {block_t} within budget")
    return Colouring(tuple(new), k)


@dataclass
class GuestAssignment:
    """Homomorphism f from guest vertices to [r] x [k] cells with bookkeeping."""

    f: tuple[tuple[int, int], ...]
    special: VertexSet
    blocks: BlockStructure
    sigma_prime: Colouring
    zero_routed: tuple[int, ...]
    degeneracy: tuple[Labelling, int]  # the guest's `degeneracy_order`


def _switched(
    h: Graph, col: Colouring, l: Labelling, switching: list[int], blocklen: int, rng
) -> Colouring | None:
    """`col` after a random switch at each switching block, or None when one fails.

    A switch at t happens at block t, or at t + 1 when block t holds colour 0.
    """
    k = col.k
    for t in switching:
        perm_vals = [int(x) + 1 for x in rng.permutation(k)]
        pi = {c: perm_vals[c - 1] for c in range(1, k + 1)}
        zero_free = [
            b for b in (t, t + 1)
            if all(col.sigma[v] != 0 for v in l.order[b * blocklen:(b + 1) * blocklen])
        ]
        if not zero_free:
            return None
        try:
            col = switch_colours(h, col, l, zero_free[0], pi, blocklen=blocklen)
        except SwitchError:
            return None
    return col


def _two_step_local(h: Graph, f: list[tuple[int, int]], special_mask: int) -> bool:
    """Every vertex outside `special_mask` sees only its own row of f within distance 2.

    A vertex fails exactly when it or a neighbour has a neighbour in another row.
    """
    cut = mask_of(w for u, v in h.edges() if f[u][0] != f[v][0] for w in (u, v))
    return not h.closed_neighbourhood(cut) & ~special_mask


def _certify_assignment(
    h: Graph,
    l: Labelling,
    f: list[tuple[int, int]],
    special_mask: int,
    reduced: ReducedGraph,
    m_targets: dict[tuple[int, int], int],
    xi: float,
    prefix: int,
    sigma: Colouring,
    deg_bound: int,
) -> dict[str, bool]:
    """Each promised property of the assignment and whether it holds, in the order checked."""
    n = h.n
    counts = Counter(f)
    low = Counter(cell for v, cell in enumerate(f) if h.degree(v) <= 2 * deg_bound)
    return {
        "part_sizes": all(m - xi * n <= counts[cell] <= m + xi * n for cell, m in m_targets.items()),
        "special_small": special_mask.bit_count() <= xi * n,
        "homomorphism": all(reduced.has_edge(f[u], f[v]) for u, v in h.edges()),
        "two_step_locality": _two_step_local(h, f, special_mask),
        # the prefix holds no colour 0 (a precondition), and goes to row 0 by colour
        "prefix_rule": all(f[v] == (0, sigma.sigma[v] - 1) for v in l.order[:prefix]),
        "low_degree_fraction": all(low[cell] >= cnt / (24 * deg_bound) for cell, cnt in counts.items()),
    }


def assign_guest(
    h: Graph,
    l: Labelling,
    col: Colouring,
    reduced: ReducedGraph,
    m_targets: dict[tuple[int, int], int],
    xi: float,
    blocklen: int,
    seed: int = 0,
) -> GuestAssignment:
    """Map guest vertices to reduced-graph cells respecting colours and sections.

    The labelling is cut into blocks of `blocklen` = 4*k*beta*n positions,
    which must cover 4*k*bandwidth; every beta-scaled quantity is computed
    from it in integers (beta*n = blocklen // 4k, sqrt(beta)*n =
    isqrt(blocklen*n // 4k)).  Sections get rows, colours get columns (after
    optional random permutation switching per interval), and colour-0
    vertices go to the row's extension cell.  Certifies part-size windows,
    special-set size, the homomorphism property (full edge scan), two-step row
    locality, the prefix rule, and the low-degree fraction; retries fresh
    permutations until the counts land.
    """
    n = h.n
    k = col.k
    r = reduced.index.r
    if reduced.index.k != k:
        raise ValueError("colouring k does not match reduced graph")
    bw = bandwidth_of_labelling(h, l)
    if 4 * k * bw > blocklen:
        raise GuestPrepError("precondition", f"4*k*bandwidth = {4 * k * bw} > blocklen = {blocklen}")
    if not col.is_proper(h):
        raise GuestPrepError("precondition", "colouring is not proper")
    if not check_zero_free(col, l, 10.0 / xi, blocklen):
        raise GuestPrepError("precondition", "colouring is not (10/xi, beta)-zero-free")
    prefix = math.isqrt(blocklen * n // (4 * k))
    if any(col.sigma[v] == 0 for v in l.order[:prefix]):
        raise GuestPrepError("precondition", "colour zero in the first sqrt(beta)*n positions")
    if not reduced.validate_extension():
        raise GuestPrepError("precondition", "reduced graph extension map invalid")
    total = sum(m_targets.values())
    if total != n:
        raise GuestPrepError("precondition", f"m targets sum to {total} != n")
    for (i, j), m in m_targets.items():
        if not (n / (10 * k * r) <= m <= 10 * n / (k * r)):
            raise GuestPrepError("precondition", f"m[{i},{j}]={m} outside [n/10kr, 10n/kr]")

    degeneracy = degeneracy_order(h)
    deg_bound = max(1, degeneracy[1])
    blocks = build_block_structure(n, k, blocklen, m_targets, col, l, r)
    switching = [t for i in range(r) for t in blocks.switching_blocks(i)]
    # special set: distance <= 2 from the beta*n positions either side of each
    # section boundary, from the switching block pairs, and from colour 0; a
    # switch keeps every colour-0 vertex, so sigma' covers sigma's zeros
    bwn = blocklen // (4 * k)
    spans = [range(t * blocklen - bwn, min(t * blocklen + bwn, n)) for t in blocks.section_bounds[1:-1]]
    spans += [range(t * blocklen, min((t + 2) * blocklen, n)) for t in switching]
    seeds = mask_of(l.order[p] for span in spans for p in span)
    fixed_special = h.closed_neighbourhood(h.closed_neighbourhood(seeds))

    rng = rng_for(seed, stream=51)
    failed = ["unknown"]
    for _attempt in range(ASSIGN_RETRIES):
        sigma_prime = _switched(h, col, l, switching, blocklen, rng)
        if sigma_prime is None:
            failed = ["switching"]
            continue
        f: list[tuple[int, int]] = [(-1, -1)] * n
        zero_routed = []
        for pos, v in enumerate(l.order):
            i = blocks.section_of_position(pos)
            c = sigma_prime.sigma[v]
            if c == 0:
                f[v] = reduced.extension[i]
                zero_routed.append(v)
            else:
                f[v] = (i, c - 1)
        special_mask = fixed_special | h.closed_neighbourhood(h.closed_neighbourhood(mask_of(zero_routed)))
        certs = _certify_assignment(h, l, f, special_mask, reduced, m_targets, xi, prefix, col, deg_bound)
        failed = [name for name, ok in certs.items() if not ok]
        if not failed:
            return GuestAssignment(
                f=tuple(f),
                special=VertexSet(n, special_mask),
                blocks=blocks,
                sigma_prime=sigma_prime,
                zero_routed=tuple(zero_routed),
                degeneracy=degeneracy,
            )
        if not switching:
            break  # nothing random to retry
    raise GuestPrepError(failed[0], f"assignment failed after retries (failed: {', '.join(failed)})")


def check_bounded_order(
    h: Graph,
    order: Labelling,
    restricting: dict[int, set[int]] | None,
    buffers: VertexSet | None,
    d_tilde: int,
    p: float,
    m: float,
    exceptional: VertexSet | None = None,
) -> dict[str, list[int]]:
    """Per-vertex validation of the bounded-order conditions for embedding orders.

    back_degree: pi(x) = |J_x| + #earlier neighbours must fit under d_tilde
    adjusted for later edges/triangles at x (buffer neighbours need one spare,
    buffer vertices capped at degree d_tilde).
    locality: unless exceptional or pi(x) <= d_tilde/2, an unrestricted x needs
    every earlier neighbour within p^pi(x) * m positions.
    buffer_locality: neighbours of buffer vertices reach all but a quota of
    their earlier neighbours within p^d_tilde * m positions.
    Returns violator lists keyed by condition.
    """
    n = h.n
    restricting = restricting or {}
    buf_mask = buffers.mask if buffers is not None else 0
    exc_mask = exceptional.mask if exceptional is not None else 0
    near_buf = 0
    for v in iter_bits(buf_mask):
        near_buf |= h.neighbours(v)
    pos = order.pos
    nbrs = h.neighbour_lists()

    def pi(x: int) -> int:
        return len(restricting.get(x, ())) + sum(1 for y in nbrs[x] if pos[y] < pos[x])

    pis = [pi(x) for x in range(n)]
    max_pi_free = max((pis[x] for x in range(n) if not ((exc_mask >> x) & 1)), default=0)

    report: dict[str, list[int]] = {"back_degree": [], "locality": [], "buffer_locality": []}
    for x in range(n):
        later = [y for y in nbrs[x] if pos[y] > pos[x]]
        dx = d_tilde
        if any(h.has_edge(y, z) for ii, y in enumerate(later) for z in later[ii + 1:]):
            dx = d_tilde - 2
        elif later:
            dx = d_tilde - 1
        limit = dx - 1 if ((near_buf >> x) & 1) else dx
        if pis[x] > limit:
            report["back_degree"].append(x)
            continue
        if ((buf_mask >> x) & 1) and h.degree(x) > d_tilde:
            report["back_degree"].append(x)
            continue
        if not ((exc_mask >> x) & 1) and pis[x] > d_tilde / 2.0:
            if x in restricting and restricting[x]:
                report["locality"].append(x)
            else:
                reach = p ** pis[x] * m
                if any(pos[x] - pos[y] > reach for y in nbrs[x] if pos[y] < pos[x]):
                    report["locality"].append(x)
        if (near_buf >> x) & 1:
            quota = d_tilde - 1 - max_pi_free
            far = sum(
                1 for y in nbrs[x]
                if pos[y] < pos[x] and pos[x] - pos[y] > p ** d_tilde * m
            )
            if far > max(0, quota):
                report["buffer_locality"].append(x)
    return report


def bounded_order_report(
    h: Graph,
    degeneracy: tuple[Labelling, int],
    restricting: dict[int, set[int]],
    buffer_mask: int,
    p: float,
    m: float,
) -> dict[str, int]:
    """The number of violators of each `check_bounded_order` condition for the
    degeneracy order, with d_tilde = 2 * degeneracy + 1 and the restricted
    vertices exceptional; `degeneracy` is `degeneracy_order(h)`, as kept by
    `GuestAssignment`."""
    removal, dgen = degeneracy
    tau = Labelling(tuple(reversed(removal.order)))  # <= dgen earlier neighbours
    report = check_bounded_order(
        h, tau, dict(restricting), VertexSet(h.n, buffer_mask), 2 * dgen + 1, p, m,
        exceptional=VertexSet(h.n, mask_of(restricting)),
    )
    return {key: len(violators) for key, violators in report.items()}
