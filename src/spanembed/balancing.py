"""Exact cluster sizing: small-move selection plus the two balancing passes.

The global pass equalises column totals by donating from row 0 of the largest
surplus column into a fresh row; the local pass then walks rows top to bottom
moving the per-cell difference between vertically adjacent cells.  Every moved
set is drawn by `small_move_select`, which only takes vertices with healthy
degrees into the target row's other columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph_core import Graph, StageError, VertexSet, rng_for

__all__ = [
    "BalanceTargets",
    "MoveLog",
    "small_move_select",
    "global_balance",
    "local_balance",
    "balance",
    "BalancingError",
]


class BalancingError(StageError):
    """Balancing failed; `stage` names the pass or step that ran out of vertices."""


@dataclass(frozen=True)
class BalanceTargets:
    """Target integer sizes per cell; must sum to the partitioned vertex count."""

    n_targets: dict[tuple[int, int], int]

    def validate_against(self, clusters: dict[tuple[int, int], VertexSet], xi: float, n: int):
        if sum(self.n_targets.values()) != sum(len(c) for c in clusters.values()):
            raise BalancingError("targets", "targets do not sum to the cluster total")
        for cell, target in self.n_targets.items():
            if abs(len(clusters[cell]) - target) > xi * n:
                raise BalancingError(
                    "targets",
                    f"cell {cell}: |V|={len(clusters[cell])} vs target {target} beyond xi*n={xi * n:.0f}",
                )


@dataclass
class MoveLog:
    moves: list[tuple[str, tuple[int, int], tuple[int, int], VertexSet]] = field(default_factory=list)

    def record(self, stage: str, src: tuple[int, int], dst: tuple[int, int], moved: VertexSet):
        self.moves.append((stage, src, dst, moved))

    def total_moved(self) -> int:
        return sum(len(m) for _, _, _, m in self.moves)


def small_move_select(
    g: Graph,
    x: VertexSet,
    z_list: list[VertexSet],
    m: int,
    eps: float,
    d: float,
    p: float,
    seed: int = 0,
) -> VertexSet:
    """Pick m vertices of X with degree >= (d-eps)p|Z_i| into every Z_i.

    The selection is a seeded uniform sample of the eligible subset, so host
    common neighbourhoods meet it near-proportionally.  Raises BalancingError
    with the eligible count if fewer than m vertices qualify.
    """
    if m > len(x) // 2:
        raise BalancingError("small-move", f"m={m} exceeds |X|/2={len(x) // 2}")
    xs = x.to_list()
    need = (d - eps) * p * np.array([len(z) for z in z_list]) - 1e-12
    eligible = np.compress((g.degree_table([z.mask for z in z_list], xs) >= need).all(axis=1), xs).tolist()
    if len(eligible) < m:
        raise BalancingError("small-move", f"only {len(eligible)} eligible vertices for m={m}")
    rng = rng_for(seed, stream=61)
    picked = rng.permutation(len(eligible))[:m]
    return VertexSet.from_iter(g.n, (eligible[int(i)] for i in picked))


def _column_delta(clusters, targets, j: int, r: int) -> int:
    return sum(len(clusters[(i, j)]) - targets[(i, j)] for i in range(r))


def global_balance(
    clusters: dict[tuple[int, int], VertexSet],
    targets: BalanceTargets,
    reduced,
    g: Graph,
    eps: float,
    d: float,
    p: float,
    gamma: float,
    seed: int = 0,
) -> tuple[dict[tuple[int, int], VertexSet], MoveLog]:
    """Equalise column sums: at most k passes, donating from row 0 of the
    largest-surplus column into an untouched row fully joined to it in the
    reduced graph."""
    r, k = reduced.index.r, reduced.index.k
    tg = targets.n_targets
    if sum(tg.values()) != sum(len(c) for c in clusters.values()):
        raise BalancingError("global", "targets and clusters disagree on the total")
    surplus_cols = sum(1 for j in range(k) if _column_delta(clusters, tg, j, r) > 0)
    deficit_cols = sum(1 for j in range(k) if _column_delta(clusters, tg, j, r) < 0)
    passes_bound = max(surplus_cols + deficit_cols - 1, 0)
    # flag saturation cannot happen while gamma*k*r/2 > 3k; at desk scale we
    # instead check the pass budget against the available fresh rows directly
    if gamma * k * r / 2.0 <= 3 * k and passes_bound > r - 1:
        raise BalancingError("global", f"need {passes_bound} fresh rows, have {r - 1}")
    work = dict(clusters)
    log = MoveLog()
    flagged: set[tuple[int, int]] = set()
    passes = 0
    while any(_column_delta(work, tg, j, r) != 0 for j in range(k)):
        passes += 1
        if passes > k:
            raise BalancingError("global", "column balancing exceeded k passes")
        deltas = [_column_delta(work, tg, j, r) for j in range(k)]
        j_star = max(range(k), key=lambda j: (deltas[j], -j))
        surplus = deltas[j_star]
        if surplus <= 0:
            raise BalancingError("global", "no positive column surplus but columns unbalanced")
        j_prime = next(j for j in range(k) if deltas[j] < 0)
        donor = (0, j_star)
        target_row = None
        for i2 in range(1, r):
            if any((i2, j) in flagged for j in range(k)):
                continue
            if all(reduced.has_edge(donor, (i2, j)) for j in range(k)):
                target_row = i2
                break
        if target_row is None:
            raise BalancingError("global", "no unflagged row adjacent to the donor cell")
        move = min(surplus, -deltas[j_prime])
        z_list = [work[(target_row, j)] for j in range(k) if j != j_prime]
        s = small_move_select(g, work[donor], z_list, move, eps, d, p, seed=seed + passes)
        work[donor] = work[donor] - s
        work[(target_row, j_prime)] = work[(target_row, j_prime)] | s
        flagged.add(donor)
        flagged.add((target_row, j_prime))
        log.record("global", donor, (target_row, j_prime), s)
    return work, log


def local_balance(
    clusters: dict[tuple[int, int], VertexSet],
    targets: BalanceTargets,
    reduced,
    g: Graph,
    eps: float,
    d: float,
    p: float,
    seed: int = 0,
) -> tuple[dict[tuple[int, int], VertexSet], MoveLog]:
    """Walk rows 0..r-2 making |V'_{i,j}| = n_{i,j} exactly by trading with row i+1.

    Requires globally balanced columns; row r-1 then lands exactly by
    conservation.  Each moved set satisfies the degree floor into the opposite
    row's other columns.
    """
    r, k = reduced.index.r, reduced.index.k
    tg = targets.n_targets
    for j in range(k):
        if _column_delta(clusters, tg, j, r) != 0:
            raise BalancingError("local", f"column {j} not globally balanced")
    work = dict(clusters)
    log = MoveLog()
    for i in range(r - 1):
        for j in range(k):
            diff = len(work[(i, j)]) - tg[(i, j)]
            if diff == 0:
                continue
            if diff > 0:
                src, dst = (i, j), (i + 1, j)
                z_list = [work[(i + 1, j2)] for j2 in range(k) if j2 != j]
            else:
                src, dst = (i + 1, j), (i, j)
                z_list = [work[(i, j2)] for j2 in range(k) if j2 != j]
            try:
                s = small_move_select(
                    g, work[src], z_list, abs(diff), eps, d, p,
                    seed=seed + 101 * i + j,
                )
            except BalancingError as exc:
                raise BalancingError("local", f"cell ({i},{j}): {exc}") from exc
            work[src] = work[src] - s
            work[dst] = work[dst] | s
            log.record("local", src, dst, s)
    for cell, target in tg.items():
        if len(work[cell]) != target:
            raise BalancingError("local", f"cell {cell} finished at {len(work[cell])} != {target}")
    return work, log


def balance(
    clusters: dict[tuple[int, int], VertexSet], taken_mask: int, placed_mask: int,
    f_star: tuple[tuple[int, int], ...], reduced, g: Graph,
    *, xi: float, eps: float, d: float, p: float, gamma: float, seed: int,
) -> tuple[dict[tuple[int, int], VertexSet], dict[tuple[int, int], int], int]:
    """The clusters less the host vertices of `taken_mask`, sized exactly to the guest
    parts: per cell, the guest vertices outside `placed_mask` that `f_star` maps there.

    Checks the parts against the cut clusters (within xi*n), then runs the global
    pass at `seed` and the local pass at `seed + 1`.  Returns the balanced clusters,
    the part sizes and the number of moved vertices.
    """
    n = g.n
    cut = {cell: VertexSet(n, c.mask & ~taken_mask) for cell, c in clusters.items()}
    part_counts = dict.fromkeys(clusters, 0)
    for v in range(n):
        if not (placed_mask >> v) & 1:
            part_counts[f_star[v]] = part_counts.get(f_star[v], 0) + 1
    targets = BalanceTargets(part_counts)
    targets.validate_against(cut, xi, n)
    work, glog = global_balance(cut, targets, reduced, g, eps=eps, d=d, p=p, gamma=gamma, seed=seed)
    final, llog = local_balance(work, targets, reduced, g, eps=eps, d=d, p=p, seed=seed + 1)
    return final, part_counts, glog.total_moved() + llog.total_moved()
