"""Brute-force oracles, the circulant bijumbledness certificate and tail-bound calculators.

The oracles are deliberately slow and simple: exhaustive enumeration, used as
independent ground truth for the sampled verdicts produced elsewhere.  Size
caps keep each call under a few seconds.  The certificate is not one of them:
the pipeline runs it on every bijumbled host, and on a circulant host it bounds
nu from above with one FFT of row 0.  The tail bounds are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, bit_positions, iter_bits

__all__ = [
    "exact_bandwidth",
    "exhaustive_subgraph_check",
    "bijumbled_check",
    "circulant_nu_upper",
    "bijumbled_feasible",
    "TailBoundQuery",
    "tail_bound",
]

_EXACT_BANDWIDTH_CAP = 16
_EXACT_BIJUMBLED_CAP = 14
_SUBGRAPH_GUEST_CAP = 10


def _is_path(g: Graph) -> bool:
    if g.m != g.n - 1:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    if g.n == 1:
        return True
    if degs[:2] != [1, 1] or any(d != 2 for d in degs[2:]):
        return False
    return all(d >= 0 for d in g.bfs_distances([next(v for v in range(g.n) if g.degree(v) == 1)]))


def _is_cycle(g: Graph) -> bool:
    if g.n < 3 or g.m != g.n:
        return False
    if any(g.degree(v) != 2 for v in range(g.n)):
        return False
    return all(d >= 0 for d in g.bfs_distances([0]))


def exact_bandwidth(g: Graph) -> int:
    """Minimum over all labellings of the maximum edge stretch.

    Uses linear-time answers for edgeless / complete / path / cycle graphs;
    anything else is solved by branch and bound over positions and capped at
    n <= 16.
    """
    n = g.n
    if g.m == 0:
        return 0
    if g.m == n * (n - 1) // 2:
        return n - 1
    if _is_path(g):
        return 1
    if _is_cycle(g):
        return 2
    if n > _EXACT_BANDWIDTH_CAP:
        raise ValueError(f"exact bandwidth capped at n={_EXACT_BANDWIDTH_CAP} for general graphs")

    # Feasibility check: can we order vertices with stretch <= b?  Positions are
    # filled left to right; a placed vertex with an unplaced neighbour fails once
    # the current position is more than b beyond it.
    adj = [g.neighbours(v) for v in range(n)]

    def feasible(b: int) -> bool:
        placed_pos = [-1] * n

        def extend(i: int, used_mask: int) -> bool:
            if i == n:
                return True
            for v in range(n):
                if (used_mask >> v) & 1:
                    continue
                ok = True
                for w in iter_bits(adj[v]):
                    pw = placed_pos[w]
                    if pw >= 0 and i - pw > b:
                        ok = False
                        break
                if not ok:
                    continue
                # any placed vertex with an unplaced neighbour must still be reachable
                for w in range(n):
                    pw = placed_pos[w]
                    if pw >= 0 and i - pw >= b and (adj[w] & ~(used_mask | (1 << v))):
                        ok = False
                        break
                if not ok:
                    continue
                placed_pos[v] = i
                if extend(i + 1, used_mask | (1 << v)):
                    return True
                placed_pos[v] = -1
            return False

        return extend(0, 0)

    lower = max((g.degree(v) + 1) // 2 for v in range(n))
    for b in range(lower, n):
        if feasible(b):
            return b
    return n - 1


def exhaustive_subgraph_check(host_g: Graph, guest: Graph) -> bool:
    """Does an injective edge-preserving map guest -> host exist?  Backtracking."""
    if guest.n > _SUBGRAPH_GUEST_CAP and guest.m > 0 and not (_is_path(guest) or _is_cycle(guest)):
        raise ValueError(f"guest capped at n={_SUBGRAPH_GUEST_CAP} for general graphs")
    if guest.n > host_g.n:
        return False

    # order guest vertices by connectivity to already-ordered ones, then degree
    order: list[int] = []
    in_order = [False] * guest.n
    for _ in range(guest.n):
        best, best_key = -1, None
        for v in range(guest.n):
            if in_order[v]:
                continue
            back = sum(1 for w in guest.neighbour_list(v) if in_order[w])
            key = (-back, -guest.degree(v), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        order.append(best)
        in_order[best] = True

    host_adj = [host_g.neighbours(v) for v in range(host_g.n)]
    mapping = [-1] * guest.n
    full_host = (1 << host_g.n) - 1

    def place(idx: int, used: int) -> bool:
        if idx == guest.n:
            return True
        v = order[idx]
        cand = full_host & ~used
        for w in guest.neighbour_list(v):
            if mapping[w] >= 0:
                cand &= host_adj[mapping[w]]
        for hv in iter_bits(cand):
            if host_g.degree(hv) < guest.degree(v):
                continue
            mapping[v] = hv
            if place(idx + 1, used | (1 << hv)):
                return True
            mapping[v] = -1
        return False

    return place(0, 0)


def _discrepancy(e: int, p: float, sx: int, sy: int) -> float:
    return abs(e - p * sx * sy) / math.sqrt(sx * sy)


def _exhaustive_bijumbled_max(g: Graph, p: float) -> tuple[float, tuple[int, int]]:
    """Max discrepancy ratio over all disjoint nonempty (X, Y), as (ratio, (xmask, ymask))."""
    n = g.n
    best = -1.0
    best_pair = (0, 0)
    # For each X, walk subsets Y of the complement, maintaining e(X, Y) incrementally.
    degs_into = [0] * n
    for xmask in range(1, 1 << n):
        sx = xmask.bit_count()
        comp = ((1 << n) - 1) & ~xmask
        for v in iter_bits(comp):
            degs_into[v] = (g.neighbours(v) & xmask).bit_count()
        comp_bits = list(iter_bits(comp))

        def walk(idx: int, ymask: int, sy: int, e: int):
            nonlocal best, best_pair
            if ymask:
                r = _discrepancy(e, p, sx, sy)
                if r > best:
                    best = r
                    best_pair = (xmask, ymask)
            for j in range(idx, len(comp_bits)):
                v = comp_bits[j]
                walk(j + 1, ymask | (1 << v), sy + 1, e + degs_into[v])

        walk(0, 0, 0, 0)
    return best, best_pair


def bijumbled_check(g: Graph, p: float, nu: float) -> tuple[bool, dict]:
    """Test |e(X,Y) - p|X||Y|| <= nu*sqrt(|X||Y|) over all disjoint pairs (n <= 14).

    Returns (holds, worst_pair_info) where the info records the maximising pair
    and its discrepancy ratio, the least nu for which g is (p, nu)-bijumbled.
    """
    if g.n > _EXACT_BIJUMBLED_CAP:
        raise ValueError(f"exhaustive bijumbledness capped at n={_EXACT_BIJUMBLED_CAP}")
    ratio, pair = _exhaustive_bijumbled_max(g, p)
    info = {
        "x": pair[0],
        "y": pair[1],
        "ratio": ratio,
        "x_size": pair[0].bit_count(),
        "y_size": pair[1].bit_count(),
    }
    return ratio <= nu, info


def circulant_nu_upper(g: Graph, p: float) -> float | None:
    """An upper bound on the least nu for which g is (p, nu)-bijumbled, or None
    unless g is circulant (row u is row 0 rotated left by u).

    The bound is the spectral norm of A - p(J - I) (expander mixing lemma):
    a circulant's eigenvalues are the DFT of its row 0, lambda_a on the a-th
    character, so the norm is the largest of |deg - p(n - 1)| and |lambda_a + p|
    over a != 0.
    """
    n, row0 = g.n, g.neighbours(0)
    full = (1 << n) - 1
    if g != Graph(n, [((row0 << u) | (row0 >> (n - u))) & full for u in range(n)]):
        return None
    row = np.zeros(n)
    row[bit_positions(row0)] = 1.0
    mu = np.fft.fft(row).real + p
    mu[0] = row0.bit_count() - p * (n - 1)
    return float(np.abs(mu).max())


def bijumbled_feasible(p: float, nu: float, n: int) -> bool:
    """Feasibility guard: no (p, nu)-bijumbled n-vertex graph exists when
    16/n < p < 1 - 16/n and nu <= min(sqrt(pn/32), sqrt((1-p)n/32))."""
    if not (16.0 / n < p < 1.0 - 16.0 / n):
        return True
    return nu > min(math.sqrt(p * n / 32.0), math.sqrt((1.0 - p) * n / 32.0))


@dataclass(frozen=True)
class TailBoundQuery:
    family: str  # binomial_chernoff | hypergeometric | mcdiarmid
    eps: float
    mean: float | None = None
    t: float | None = None
    c: tuple[float, ...] | None = None


def tail_bound(q: TailBoundQuery) -> float:
    """Upper bound on the deviation probability for the given family.

    binomial_chernoff: P[|X-mu| > eps*mu] < 2 exp(-eps^2 mu / 3)
    hypergeometric:    P[|X-ms/N| > t]    < 2 exp(-eps^2 t / 3), for t >= eps*E[X]
    mcdiarmid:         P[|g-Eg| >= eps]   <= 2 exp(-2 eps^2 / sum c_i^2)
    """
    if q.eps < 0:
        raise ValueError("eps must be nonnegative")
    if q.family == "binomial_chernoff":
        if q.mean is None or q.mean <= 0:
            raise ValueError("binomial_chernoff requires a positive mean")
        if q.eps > 1.5:
            raise ValueError("binomial_chernoff stated for eps <= 3/2")
        return 2.0 * math.exp(-q.eps**2 * q.mean / 3.0)
    if q.family == "hypergeometric":
        if q.t is None or q.t <= 0:
            raise ValueError("hypergeometric requires t > 0")
        return 2.0 * math.exp(-q.eps**2 * q.t / 3.0)
    if q.family == "mcdiarmid":
        if not q.c:
            raise ValueError("mcdiarmid requires the c_i list")
        denom = sum(ci * ci for ci in q.c)
        if denom <= 0:
            raise ValueError("mcdiarmid requires sum c_i^2 > 0")
        return 2.0 * math.exp(-2.0 * q.eps**2 / denom)
    raise ValueError(f"unknown family {q.family!r}")
