"""Spanning-completion stage in two phases: greedy embedding, buffer matching.

The main phase (`embed`) walks the guest in the supplied order, embedding each
non-buffer vertex into its candidate set (image restriction or assigned
cluster, cut down by the images of embedded neighbours), choosing the best of a
seeded sample of at most `CANDIDATE_SAMPLE` candidates.  They are scored from
`_FreeCounts`, each host's free neighbours in all and in each cluster, counted
once per attempt on the host's packed rows (n^2/8 bytes, kept by the host) and
moved by one unpacked row whenever a host is taken or freed; a restricted
neighbour's options are counted against its own mask.  The placed vertices are
always a prefix of that order, which a backjump cuts back.  The buffer phase
(`_match_buffers`) finishes the deferred vertices per cluster by augmenting-path
bipartite matching, a depth-first search that tries each host at most once.
Its first pass ends a path at a free host as soon as a frame has one; if that
pass leaves a buffer stuck, the phase starts over from the same state with the
plain depth-first search, so it succeeds whenever that search alone would.
One host -> guest map serves both phases.  Bounded backjumps and seeded
restarts handle dead ends.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    Graph,
    Labelling,
    StageError,
    VertexSet,
    bit_positions,
    iter_bits,
    mask_of,
    rng_for,
    row_mask_counts,
    unpack_rows,
)
from .pre_embedding import RestrictionPair, restriction_image

__all__ = [
    "BufferPlan",
    "EmbedResult",
    "choose_buffers",
    "embed",
    "verify_embedding",
    "embedding_violations",
    "EmbedError",
]


# Seeded restarts of the whole completion, and the backjumps allowed in one.
EMBED_RESTARTS = 10
BACKJUMP_BUDGET = 300
# Candidates scored per main-phase step; larger candidate sets are sampled.
CANDIDATE_SAMPLE = 24


class EmbedError(StageError):
    """Embedding failed; carries the stuck guest vertex, and the number of
    attempts that failed when `embed` raises it after all of them."""

    def __init__(self, message: str, stuck: int | None = None):
        super().__init__(None, message)
        self.stuck = stuck
        self.attempts = 0


@dataclass
class BufferPlan:
    """Guest vertices per cell deferred to the matching phase."""

    buffers: dict[tuple[int, int], VertexSet]

    def mask(self) -> int:
        m = 0
        for b in self.buffers.values():
            m |= b.mask
        return m


def choose_buffers(
    guest: Graph,
    f_star: tuple[tuple[int, int], ...],
    eligible_mask: int,
    cells: list[tuple[int, int]],
    vartheta: float,
    skip_mask: int = 0,
    order: Labelling | None = None,
) -> BufferPlan:
    """Pick pairwise non-adjacent eligible vertices per cell, about a
    vartheta-fraction of the cell's guest part.

    Scans latest embedding positions first: clusters drain as their guests'
    stretch of the order ends, so the deferred vertices must be the tail ones.
    """
    skip = set(bit_positions(skip_mask).tolist())
    counts = Counter(cell for v, cell in enumerate(f_star) if v not in skip)
    chosen: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    # 1 for an eligible guest outside skip that is not chosen nor next to a chosen one
    open_ = bytearray(guest.n)
    for v in bit_positions(eligible_mask & ~skip_mask).tolist():
        open_[v] = 1
    nbrs = guest.neighbour_lists()
    scan = reversed(order.order) if order is not None else range(guest.n)
    for v in scan:
        if not open_[v]:
            continue
        cell = f_star[v]
        want = max(1, math.ceil(vartheta * counts[cell]))
        if len(chosen[cell]) >= want:
            continue
        chosen[cell].append(v)
        open_[v] = 0
        for w in nbrs[v]:
            open_[w] = 0
    return BufferPlan({c: VertexSet.from_iter(guest.n, vs) for c, vs in chosen.items()})


@dataclass
class EmbedResult:
    phi: dict[int, int]
    retries: int


def embed(
    g: Graph,
    guest: Graph,
    clusters: dict[tuple[int, int], VertexSet],
    f_star: tuple[tuple[int, int], ...],
    restr: RestrictionPair,
    buffers: BufferPlan,
    order: Labelling,
    initial_phi: dict[int, int] | None = None,
    seed: int = 0,
) -> EmbedResult:
    """Complete the embedding of the unembedded guest into the clusters.

    Requires |cluster| == |guest part| per cell.  Each seeded attempt runs the
    main phase, which honors image restrictions, prefers candidates keeping the
    most options open for unembedded neighbours and backjumps over the latest
    conflicting placement when a candidate set empties, then `_match_buffers`.
    """
    initial_phi = initial_phi or {}
    # hosts of the pre-embedded guests, which no phase moves
    held = mask_of(initial_phi.values())
    todo = [v for v in range(guest.n) if v not in initial_phi]

    # size compatibility
    part_count = Counter(f_star[v] for v in todo)
    for cell, c in clusters.items():
        if part_count[cell] != len(c):
            raise EmbedError(f"cell {cell}: cluster size {len(c)} != guest part {part_count[cell]}")

    base_mask = {
        v: restriction_image(g, clusters, f_star[v], restr.J[v]) if v in restr.J else clusters[f_star[v]].mask
        for v in todo
    }
    nbrs = guest.neighbour_lists()
    # the guests that the buffer phase may relocate
    movable = {v for v in todo if f_star[v] in buffers.buffers}

    # the main phase places main_order[:idx], in that order
    deferred = set(initial_phi).union(*(b.to_list() for b in buffers.buffers.values()))
    main_order = [v for v in order.order if v not in deferred]
    order_index = {v: i for i, v in enumerate(main_order)}
    rows = g.packed_rows()  # n^2/8 bytes, kept by g
    full = (1 << g.n) - 1
    # the row of `_FreeCounts.table` that scores a future neighbour's options:
    # its cluster's, or 0 for a restricted guest, whose options are counted
    # against its base mask directly
    cell_row = {cell: i for i, cell in enumerate(clusters, 1)}
    score_row = {v: 0 if v in restr.J else cell_row[f_star[v]] for v in todo}
    for attempt in range(EMBED_RESTARTS):
        rng = rng_for(seed + attempt, stream=91)
        phi: dict[int, int] = dict(initial_phi)
        # host -> guest for every image.  A candidate lies in its guest's own
        # cluster, so its owner is a guest of the same cell or a pre-embedded
        # guest, whose host is held.
        owner: dict[int, int] = {v: x for x, v in initial_phi.items()}
        used = held
        free_counts = _FreeCounts(rows, clusters, full ^ used)
        jumps = 0
        idx = 0
        blacklist: dict[int, int] = {}
        try:
            while idx < len(main_order):
                x = main_order[idx]
                need = _common(g, base_mask, nbrs, phi, x) & ~blacklist.get(x, 0)
                cand = need & ~used
                if cand == 0:
                    # local repair first: relocate a same-cell occupant of a
                    # host that would serve x to a free host, else backjump
                    for w in iter_bits(need & used & ~held):
                        y = owner[w]
                        alt = _common(g, base_mask, nbrs, phi, y) & ~used & ~blacklist.get(y, 0)
                        if alt:
                            w2 = next(iter_bits(alt))
                            phi[y] = w2
                            owner[w2] = owner.pop(w)
                            used ^= (1 << w) | (1 << w2)  # w leaves, w2 joins
                            free_counts.shift(w, 1)
                            free_counts.shift(w2, -1)
                            break
                    else:
                        jumps += 1
                        if jumps > BACKJUMP_BUDGET:
                            raise EmbedError(f"candidate depletion at guest {x}", stuck=x)
                        placed = [order_index[y] for y in nbrs[x] if order_index.get(y, idx) < idx]
                        if not placed:
                            raise EmbedError(f"guest {x} has an empty base candidate set", stuck=x)
                        # undo the latest placed neighbour and everything after it
                        cut = max(placed)
                        culprit = main_order[cut]
                        blacklist[culprit] = blacklist.get(culprit, 0) | (1 << phi[culprit])
                        for y in main_order[cut:idx]:
                            h = phi.pop(y)
                            used &= ~(1 << h)
                            del owner[h]
                            free_counts.shift(h, 1)
                        for y in main_order[cut + 1:idx]:
                            blacklist.pop(y, None)
                        idx = cut
                    continue
                # prefer images keeping unembedded neighbours most flexible,
                # scored on a seeded sample of the candidates: the least key
                # (-score, free count, v), where score is the fewest free
                # candidates left to an unembedded neighbour
                cand_list = bit_positions(cand)
                if len(cand_list) > CANDIDATE_SAMPLE:
                    cand_list = cand_list[rng.permutation(len(cand_list))[:CANDIDATE_SAMPLE]]
                counts = free_counts.table[:, cand_list]  # signed: -score must not wrap
                at, restricted = [], []
                for y in nbrs[x]:
                    if y not in phi:
                        if score_row[y]:
                            at.append(score_row[y])
                        else:
                            restricted.append(base_mask[y] & ~used)
                score = counts[at[0]] if len(at) == 1 else counts[at].min(axis=0, initial=g.n)
                if restricted:
                    score = np.minimum(score, row_mask_counts(rows[cand_list], restricted).min(axis=1))
                best_v = int(cand_list[np.lexsort((cand_list, counts[0], -score))[0]])
                phi[x] = best_v
                owner[best_v] = x
                used |= 1 << best_v
                free_counts.shift(best_v, -1)
                blacklist.pop(x, None)
                idx += 1

            _match_buffers(g, base_mask, nbrs, phi, owner, used, held, movable, buffers)
        except EmbedError as err:
            last_err = err
            continue
        return EmbedResult(phi=phi, retries=attempt)
    last_err.attempts = EMBED_RESTARTS
    raise last_err


class _FreeCounts:
    """Each host's free neighbours, kept up to date as hosts are taken and freed.

    `table[0, v]` is |N(v) & free| and `table[i, v]` is |N(v) & C_i & free| for
    the i-th cluster C_i of `clusters`, counted once with `row_mask_counts`.
    A host of no cluster is never taken or freed.
    """

    def __init__(self, rows: np.ndarray, clusters: dict[tuple[int, int], VertexSet], free: int):
        self.rows = rows
        masks = [c.mask for c in clusters.values()]
        self.table = np.ascontiguousarray(row_mask_counts(rows, [free] + [m & free for m in masks]).T)
        self.lines = list(self.table)  # row views, updated in place
        row_of = np.zeros(len(rows), dtype=np.intp)
        for i, m in enumerate(masks, 1):
            row_of[bit_positions(m)] = i
        self.row_of = row_of.tolist()  # the table row of each host's cluster

    def shift(self, h: int, sign: int) -> None:
        """Host h becomes free (sign 1) or taken (sign -1): its neighbours' counts
        in row 0 and in its cluster's row move by `sign`."""
        nb = unpack_rows(self.rows[h:h + 1], len(self.row_of))[0].astype(np.int32)  # same-type adds are faster
        move = np.add if sign > 0 else np.subtract
        for line in (self.lines[0], self.lines[self.row_of[h]]):
            move(line, nb, out=line)


def _common(
    g: Graph, base_mask: dict[int, int], nbrs: tuple[tuple[int, ...], ...], phi: dict[int, int], x: int,
    skip: int = -1,
) -> int:
    """Base mask of x cut down to the G-neighbourhoods of the images of its
    embedded guest neighbours, all but `skip`."""
    m = base_mask[x]
    for y in nbrs[x]:
        if y != skip and y in phi:
            m &= g.neighbours(phi[y])
    return m


def _match_buffers(
    g: Graph,
    base_mask: dict[int, int],
    nbrs: tuple[tuple[int, ...], ...],
    phi: dict[int, int],
    owner: dict[int, int],
    used: int,
    held: int,
    movable: set[int],
    buffers: BufferPlan,
) -> None:
    """Embed the buffer guests cell by cell, updating `phi` and its inverse
    `owner` in place; `used` is the mask of the hosts that `owner` maps, and
    `movable` holds the guests that a relocation may move.

    The first pass of `_match_cells` is free-first: a path ends at a free host
    as soon as a frame has one among its candidates, where the plain search
    walks chains of hundreds of owned hosts.  If that pass leaves a guest
    stuck, `phi` and `owner` go back to their state on entry and the plain
    depth-first pass runs from there.  So the phase succeeds whenever the
    depth-first pass alone would, and otherwise raises that pass's EmbedError.
    """
    start_phi, start_owner = dict(phi), dict(owner)
    try:
        _match_cells(g, base_mask, nbrs, phi, owner, used, held, movable, buffers, free_first=True)
    except EmbedError:
        phi.clear()
        phi.update(start_phi)
        owner.clear()
        owner.update(start_owner)
        _match_cells(g, base_mask, nbrs, phi, owner, used, held, movable, buffers, free_first=False)


def _match_cells(
    g: Graph,
    base_mask: dict[int, int],
    nbrs: tuple[tuple[int, ...], ...],
    phi: dict[int, int],
    owner: dict[int, int],
    used: int,
    held: int,
    movable: set[int],
    buffers: BufferPlan,
    free_first: bool,
) -> None:
    """One pass of the buffer phase: embed each buffer guest by an augmenting
    path through the placed guests (the free hosts alone are far too thin at
    desk scale); when none exists, relocate one embedded neighbour in
    `movable` and try again.  `used` masks the hosts that `owner` maps on
    entry, and hosts in `held` keep their guests.  Each guest's candidate
    mask is cached until a neighbour's image moves.  Raises
    EmbedError on the first guest left stuck.
    """
    full = (1 << g.n) - 1
    # the hosts that no guest owns (held hosts are owned), read by a free-first pass only
    free = full & ~used if free_first else 0
    cand_cache: dict[int, int] = {}

    def cand_of(x: int) -> int:
        m = cand_cache.get(x)
        if m is None:
            m = cand_cache[x] = _common(g, base_mask, nbrs, phi, x)
        return m

    def assign(x: int, h: int | None):
        """Move x to host h, or unplace it (h None); drop the masks that read x's image."""
        nonlocal free
        old = phi.pop(x) if h is None else phi.get(x)
        if old is not None:
            del owner[old]
            free |= 1 << old
        if h is not None:
            owner[h] = x
            phi[x] = h
            free &= ~(1 << h)
        for y in nbrs[x]:
            cand_cache.pop(y, None)

    def augment(x: int, seen: int) -> bool:
        """Depth-first augmenting path from the unembedded guest x over hosts
        outside `seen` and `held`, on an explicit stack of (guest, host tried)
        frames as long as a cluster; each host is tried at most once.  A frame
        tries its lowest unseen candidate, or in a free-first pass its lowest
        free one when it has any, which ends the path.  A resumed frame skips
        the hosts a deeper frame saw: the search from such a host's owner
        failed over a superset of the hosts unseen now.  A guest on the path
        never meets its own host: the frame below tried it before pushing the
        guest, and x holds none.
        """
        nonlocal free
        unseen = full & ~(seen | held)
        path = []
        y = x
        while True:
            m = cand_of(y) & unseen
            if m:
                low = (m & free if free_first else 0) or m
                low &= -low
                unseen ^= low
                h = low.bit_length() - 1
                path.append((y, h))
                y = owner.get(h)
                if y is None:
                    # each guest on the path takes the host it tried; the
                    # hosts in between stay owned, and x held none
                    free ^= low
                    for y2, h2 in reversed(path):
                        owner[h2] = y2
                        phi[y2] = h2
                        for z in nbrs[y2]:
                            cand_cache.pop(z, None)
                    return True
            elif path:
                y = path.pop()[0]
            else:
                return False

    def relocate_neighbour(x: int) -> bool:
        """Move one embedded neighbour of x so x's cell regains a candidate.

        The target host may itself be occupied: its occupant is displaced
        and re-placed by augmentation, with rollback on failure.
        """
        for y in nbrs[x]:
            if y not in movable or y not in phi:
                continue
            others = _common(g, base_mask, nbrs, phi, x, skip=y)
            old = phi[y]
            for w2 in iter_bits(cand_of(y) & ~(1 << old) & ~held):
                if not (g.neighbours(w2) & others):
                    continue
                cur = owner.get(w2)
                if cur is not None:
                    assign(cur, None)
                assign(y, w2)
                if cur is None or augment(cur, 1 << w2):
                    return True
                assign(y, old)
                assign(cur, w2)
        return False

    for cell, bset in sorted(buffers.buffers.items()):
        # assign() and augment() keep every cached mask current; the cache
        # is emptied per cell only to bound memory (keeping every guest's
        # mask raised peak RSS by about 3%)
        cand_cache.clear()
        for x in bset:
            if x not in phi and not (augment(x, 0) or relocate_neighbour(x) and augment(x, 0)):
                raise EmbedError(f"no perfect matching in cell {cell}", stuck=x)


def embedding_violations(
    g: Graph,
    guest: Graph,
    phi: dict[int, int],
    images: dict[int, int] | None = None,
) -> list[str]:
    """All reasons phi fails to be a restriction-honoring embedding."""
    out = []
    if len(phi) != guest.n:
        out.append(f"not total: {len(phi)}/{guest.n}")
    seen: dict[int, int] = {}
    for x, v in phi.items():
        if v in seen:
            out.append(f"images collide: {x} and {seen[v]} -> {v}")
        seen[v] = x
    for u, v in guest.edges():
        if u in phi and v in phi and not g.has_edge(phi[u], phi[v]):
            out.append(f"edge ({u},{v}) -> ({phi[u]},{phi[v]}) missing in host")
    if images:
        for x, m in images.items():
            if x in phi and not ((m >> phi[x]) & 1):
                out.append(f"vertex {x} -> {phi[x]} violates its image restriction")
    return out


def verify_embedding(
    g: Graph,
    guest: Graph,
    phi: dict[int, int],
    images: dict[int, int] | None = None,
) -> bool:
    """True iff phi is total, injective, edge-preserving, and restriction-honoring."""
    return not embedding_violations(g, guest, phi, images)
