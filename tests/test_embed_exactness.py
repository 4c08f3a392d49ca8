"""`embed` against the loop it replaced, kept here as `reference_embed`.

The reference lists every candidate before sampling, scores each candidate on
int masks, rebuilds candidate masks on every augmenting-path frame, retries in
a resumed frame the hosts that a deeper frame saw, and commits a path guest by
guest.  Its buffer phase follows `embed`'s policy: a free-first pass, then,
when that leaves a buffer stuck, the depth-first pass from the phase's start.
With `dfs_only` it runs the depth-first pass alone, the buffer phase as it was
before; `embed` must never lose a success that one reaches.
The program must reach the same φ with the same retries, or fail with
the same message on the same stuck vertex, on a grid of small hosts that drives
every branch (swaps, backjumps, relocations with and without rollback, restarts
of both phases, both error kinds, the depth-first fallback) and on the inputs
the pipeline hands to `embed`, at k = 2 and at k = 3.
The grid's second layout puts guest edges inside a cell, so that a guest's
own cell holds the neighbours whose cached candidate masks a move must drop;
ϑ = 0.2 is the buffer fraction at which a stale mask there changes φ.  A
pre-embedded guest imaged inside a cluster checks that the buffer matching
never takes a host held outside it, and that neither a main-phase swap nor a
buffer-phase relocation moves it.  The buffer matcher, `_match_buffers`, is
also replayed alone on the cells that a k = 3 pipeline run hands it.
"""

from functools import cache

import pytest

from spanembed import embedder, harness
from spanembed.embedder import (
    BACKJUMP_BUDGET,
    EMBED_RESTARTS,
    BufferPlan,
    EmbedError,
    EmbedResult,
    _match_buffers,
    choose_buffers,
    embed,
)
from spanembed.graph_core import Graph, Labelling, VertexSet, gnp, iter_bits, mask_of, rng_for
from spanembed.pre_embedding import RestrictionPair, restriction_image

from helpers import SMOKE_CFG, TREE_CFG, fold_labelling, two_cell_setup


def reference_embed(
    g: Graph,
    guest: Graph,
    clusters: dict[tuple[int, int], VertexSet],
    f_star: tuple[tuple[int, int], ...],
    restr: RestrictionPair,
    buffers: BufferPlan,
    order: Labelling,
    initial_phi: dict[int, int] | None = None,
    seed: int = 0,
    dfs_only: bool = False,
) -> EmbedResult:
    """Complete the embedding of the unembedded guest into the clusters.

    Requires |cluster| == |guest part| per cell.  Honors image restrictions,
    prefers candidates keeping the most options open for unembedded
    neighbours, backjumps over the most recent conflicting placement when a
    candidate set empties, and finishes buffer vertices via perfect matchings:
    free-first, and when that leaves a buffer stuck, depth-first from the
    state the buffer phase began in.  `dfs_only` runs the depth-first pass
    alone, the buffer phase as it was before the free-first pass.
    """
    initial_phi = initial_phi or {}
    n = guest.n
    skip_mask = mask_of(initial_phi.keys())
    buf_mask = buffers.mask() & ~skip_mask

    # size compatibility
    part_count: dict[tuple[int, int], int] = {}
    for v in range(n):
        if not ((skip_mask >> v) & 1):
            part_count[f_star[v]] = part_count.get(f_star[v], 0) + 1
    for cell, c in clusters.items():
        if part_count.get(cell, 0) != len(c):
            raise EmbedError(
                f"cell {cell}: cluster size {len(c)} != guest part {part_count.get(cell, 0)}"
            )

    base_mask: dict[int, int] = {}
    for v in range(n):
        if (skip_mask >> v) & 1:
            continue
        js = restr.J.get(v, ())
        base_mask[v] = restriction_image(g, clusters, f_star[v], js) if js else clusters[f_star[v]].mask

    main_order = [v for v in order.order if not ((skip_mask >> v) & 1) and not ((buf_mask >> v) & 1)]
    order_index = {v: i for i, v in enumerate(main_order)}
    last_err: EmbedError | None = None
    for attempt in range(EMBED_RESTARTS):
        rng = rng_for(seed + attempt, stream=91)
        phi: dict[int, int] = dict(initial_phi)
        img_owner: dict[int, int] = {v: x for x, v in initial_phi.items()}
        used = mask_of(initial_phi.values())
        placed_stack: list[int] = []
        stack_pos: dict[int, int] = {}
        jumps = 0
        idx = 0
        blacklist: dict[int, int] = {}
        failed = False

        def common(x: int, skip: int = -1) -> int:
            """Base mask of x cut down to the G-neighbourhoods of the images of
            its embedded guest neighbours, all but `skip`."""
            m = base_mask[x]
            for y in iter_bits(guest.neighbours(x)):
                if y != skip and y in phi:
                    m &= g.neighbours(phi[y])
            return m

        def try_swap(x: int, need: int) -> bool:
            """Free one host in `need` by relocating its current same-stage owner."""
            nonlocal used
            for w in iter_bits(need & used):
                y = img_owner.get(w)
                if y is None or y in initial_phi:
                    continue
                alt = common(y) & ~used & ~(1 << w) & ~blacklist.get(y, 0)
                if alt == 0:
                    continue
                w2 = next(iter_bits(alt))
                phi[y] = w2
                img_owner[w2] = y
                used |= 1 << w2
                used &= ~(1 << w)
                del img_owner[w]
                return True
            return False

        while idx < len(main_order):
            x = main_order[idx]
            need = common(x) & ~blacklist.get(x, 0)
            cand = need & ~used
            if cand == 0:
                # local repair first: relocate a same-cell occupant of a host
                # that would serve x, then fall back to backjumping
                if need and try_swap(x, need):
                    continue
                jumps += 1
                if jumps > BACKJUMP_BUDGET:
                    last_err = EmbedError(f"candidate depletion at guest {x}", stuck=x)
                    failed = True
                    break
                nbr_positions = [
                    stack_pos[y] for y in iter_bits(guest.neighbours(x)) if y in phi and y in stack_pos
                ]
                if not nbr_positions:
                    last_err = EmbedError(f"guest {x} has an empty base candidate set", stuck=x)
                    failed = True
                    break
                cut = max(nbr_positions)
                culprit = placed_stack[cut]
                blacklist[culprit] = blacklist.get(culprit, 0) | (1 << phi[culprit])
                for y in placed_stack[cut:]:
                    used &= ~(1 << phi[y])
                    img_owner.pop(phi[y], None)
                    del phi[y]
                    del stack_pos[y]
                for y in placed_stack[cut + 1:]:
                    blacklist.pop(y, None)
                placed_stack = placed_stack[:cut]
                idx = order_index[culprit]
                continue
            # prefer images keeping unembedded neighbours most flexible
            future = [y for y in iter_bits(guest.neighbours(x)) if y not in phi and not ((skip_mask >> y) & 1)]
            best_v, best_key = -1, None
            cand_list = list(iter_bits(cand))
            if len(cand_list) > 24:
                picks = rng.permutation(len(cand_list))[:24]
                cand_list = [cand_list[int(i)] for i in picks]
            for v in cand_list:
                if future:
                    score = min(
                        (g.neighbours(v) & base_mask[y] & ~used).bit_count() for y in future
                    )
                    key = (-score, (g.neighbours(v) & ~used).bit_count(), v)
                else:
                    key = (0, (g.neighbours(v) & ~used).bit_count(), v)
                if best_key is None or key < best_key:
                    best_v, best_key = v, key
            phi[x] = best_v
            img_owner[best_v] = x
            used |= 1 << best_v
            stack_pos[x] = len(placed_stack)
            placed_stack.append(x)
            blacklist.pop(x, None)
            idx += 1
        if failed:
            continue

        # buffer phase: per-cell matching that augments through the main-phase
        # placements (free buffer candidates alone are far too thin at desk
        # scale, but the full cell's candidate relation is dense).  When even
        # that fails, one embedded neighbour of the stuck buffer is relocated
        # to reopen its common neighbourhood.  A free-first pass takes, in
        # every frame that has one, the lowest free candidate.
        free_first = not dfs_only
        owners: dict[tuple[int, int], dict[int, int]] = {c: {} for c in buffers.buffers}
        for v in range(n):
            if not ((skip_mask >> v) & 1) and v in phi and f_star[v] in owners:
                owners[f_star[v]][phi[v]] = v
        pending = [
            (c, v) for c, bset in sorted(buffers.buffers.items()) for v in bset if v not in phi
        ]

        def assign(cell, x: int, h: int):
            # write-through: phi and used always reflect the working matching
            nonlocal used
            old = phi.get(x)
            if old is not None:
                used &= ~(1 << old)
                owners[cell].pop(old, None)
            owners[cell][h] = x
            phi[x] = h
            used |= 1 << h

        def augment(cell, x: int, seen: int) -> bool:
            """Depth-first augmenting path from x, on an explicit stack.

            Paths can be as long as a cluster.  Each frame scans the candidate
            mask fixed when it was pushed, so a host marked seen by a deeper
            frame can still come up again in a shallower one.
            """
            own = owners[cell]

            def new_frame(y: int, seen: int) -> list:
                """[guest, hosts left, host tried]: a free-first frame with a
                free candidate has that one host left."""
                hosts = common(y) & ~seen
                free = hosts & ~used if free_first else 0
                return [y, iter_bits(free & -free if free else hosts), -1]

            path = [new_frame(x, seen)]
            while path:
                frame = path[-1]
                y, hosts, _ = frame
                for h in hosts:
                    seen |= 1 << h
                    cur = own.get(h)
                    if cur is None:
                        if (used >> h) & 1:
                            continue
                        assign(cell, y, h)
                        path.pop()
                        for y2, _, h2 in reversed(path):
                            assign(cell, y2, h2)
                        return True
                    if cur != y:
                        frame[2] = h
                        path.append(new_frame(cur, seen))
                        break
                else:
                    path.pop()
            return False

        def relocate_neighbour(x: int) -> bool:
            """Move one embedded neighbour of x so x's cell regains a candidate.

            The target host may itself be occupied: its occupant is displaced
            and re-placed by augmentation, with rollback on failure.
            """
            for y in iter_bits(guest.neighbours(x)):
                if y not in phi or y in initial_phi:
                    continue
                ycell = f_star[y]
                if ycell not in owners:
                    continue
                others = common(x, skip=y)
                old = phi[y]
                for w2 in iter_bits(common(y) & ~(1 << old)):
                    if not (g.neighbours(w2) & others):
                        continue
                    cur = owners[ycell].get(w2)
                    if cur is None and ((used >> w2) & 1):
                        continue  # held outside this stage
                    if cur is None:
                        assign(ycell, y, w2)
                        return True
                    del phi[cur]
                    assign(ycell, y, w2)
                    if augment(ycell, cur, 1 << w2):
                        return True
                    assign(ycell, y, old)
                    assign(ycell, cur, w2)
            return False

        def match() -> tuple | None:
            """The (cell, guest) left stuck, or None when every buffer is placed."""
            for cell, x in pending:
                done = augment(cell, x, 0)
                if not done and relocate_neighbour(x):
                    done = augment(cell, x, 0)
                if not done:
                    return cell, x
            return None

        start = dict(phi), used, {c: dict(own) for c, own in owners.items()}
        failed_x = match()
        if failed_x is not None and free_first:
            # back to the phase's start, then depth-first
            phi.clear()
            phi.update(start[0])
            used = start[1]
            for c, own in owners.items():
                own.clear()
                own.update(start[2][c])
            free_first = False
            failed_x = match()
        if failed_x is not None:
            last_err = EmbedError(f"no perfect matching in cell {failed_x[0]}", stuck=failed_x[1])
            continue
        return EmbedResult(phi=phi, retries=attempt)
    raise last_err or EmbedError("embedding failed with no attempts")


def outcome(fn, *args, **kwargs):
    """(sorted φ, retries) on success, (message, stuck vertex) on an EmbedError."""
    try:
        res = fn(*args, **kwargs)
    except EmbedError as err:
        return "error", str(err), err.stuck
    return "ok", sorted(res.phi.items()), res.retries


def paired_cell_setup(n):
    """Even cycle into two cells by pairs, {0, 1} and {4, 5} in (0,0), {2, 3} in (0,1):
    every other guest edge lies inside a cell."""
    guest, _, _ = two_cell_setup(n)
    f_star = tuple((0, (v // 2) % 2) for v in range(n))
    clusters = {(0, j): VertexSet.from_iter(n, [v for v in range(n) if f_star[v][1] == j]) for j in (0, 1)}
    return guest, f_star, clusters


LAYOUTS = {"parity": two_cell_setup, "pairs": paired_cell_setup}
GRID = [
    (layout, n, p, vartheta, seed)
    for layout in LAYOUTS
    for n in (40, 80, 160)
    for p in (0.2, 0.3, 0.4, 0.5, 0.7)
    for vartheta in (0.1, 0.2, 0.3)
    for seed in range(4)
] + [
    # seeded-fuzz inputs on which the reference retries the most hosts that a
    # deeper frame already saw, inside augmenting searches that succeed;
    # `embed` skips those retries.  Seeds 450 and 114 are the fuzz maxima on
    # `gnp`'s hosts (300 retries in 60 searches, and 120 in 30, over seeds
    # 0-599 and 0-299); 431 and 102 were the maxima on the stream of one
    # double per pair that `gnp` drew before, and retry none now
    ("parity", 40, 0.3, 0.5, 431),
    ("pairs", 28, 0.3, 0.5, 102),
    ("parity", 40, 0.3, 0.5, 450),
    ("pairs", 28, 0.3, 0.5, 114),
]


@cache
def grid_inputs(layout, n, p, vartheta, seed):
    guest, f_star, clusters = LAYOUTS[layout](n)
    order = fold_labelling(n)
    buffers = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), vartheta, order=order)
    return (gnp(n, p, seed), guest, clusters, f_star, RestrictionPair(), buffers, order)


@cache
def grid_reference(case):
    return outcome(reference_embed, *grid_inputs(*case), seed=case[-1])


@cache
def grid_dfs_reference(case):
    return outcome(reference_embed, *grid_inputs(*case), seed=case[-1], dfs_only=True)


GRID_IDS = ["-".join(map(str, c)) for c in GRID]


@pytest.mark.parametrize("case", GRID, ids=GRID_IDS)
def test_grid_matches_reference(case):
    assert outcome(embed, *grid_inputs(*case), seed=case[-1]) == grid_reference(case)


def test_grid_reaches_every_outcome():
    results = [grid_reference(case) for case in GRID]
    errors = {msg.split(" at ")[0].split(" in ")[0] for kind, msg, _ in results if kind == "error"}
    assert errors == {"no perfect matching", "candidate depletion"}
    assert {0, 1, 2, 3, 4} <= {retries for kind, _, retries in results if kind == "ok"}
    # the depth-first matcher alone needs up to nine restarts on the same grid
    assert {0, 1, 3, 4, 9} <= {retries for kind, _, retries in map(grid_dfs_reference, GRID) if kind == "ok"}


@pytest.mark.parametrize("case", GRID, ids=GRID_IDS)
def test_grid_never_loses_a_success(case):
    """`embed` succeeds whenever the depth-first matcher alone does, after no
    more restarts; when it fails, it fails as that matcher does."""
    got, dfs = outcome(embed, *grid_inputs(*case), seed=case[-1]), grid_dfs_reference(case)
    if dfs[0] == "ok":
        assert got[0] == "ok" and got[2] <= dfs[2]
    if got[0] == "error":
        assert got == dfs


def matcher_passes(monkeypatch, case):
    """`embed`'s outcome on a grid case, and each `_match_cells` pass it ran as
    (free-first, placed every buffer)."""
    passes = []
    match_cells = embedder._match_cells

    def recording(*args, free_first):
        try:
            match_cells(*args, free_first=free_first)
        except EmbedError:
            passes.append((free_first, False))
            raise
        passes.append((free_first, True))

    monkeypatch.setattr(embedder, "_match_cells", recording)
    return outcome(embed, *grid_inputs(*case), seed=case[-1]), passes


def test_depth_first_pass_finishes_what_free_first_left_stuck(monkeypatch):
    """The first attempt's free-first pass leaves a buffer stuck; the depth-first
    pass from the restored state places every buffer, and the call succeeds."""
    case = ("parity", 40, 0.4, 0.1, 9)
    got, passes = matcher_passes(monkeypatch, case)
    assert passes[:2] == [(True, False), (False, True)]
    assert got[0] == "ok" and got == grid_reference(case)


def test_free_first_succeeds_where_depth_first_alone_fails(monkeypatch):
    """On this case every attempt of the depth-first matcher alone fails, and
    the free-first pass of the first attempt places every buffer."""
    case = ("parity", 40, 0.4, 0.1, 16)
    got, passes = matcher_passes(monkeypatch, case)
    assert grid_dfs_reference(case)[0] == "error"
    assert passes == [(True, True)]
    assert got[::2] == ("ok", 0)


HELD_CASES = [(n, p, seed) for n in (20, 40) for p in (0.5, 0.9) for seed in range(2)]


@pytest.mark.parametrize("case", HELD_CASES, ids=["-".join(map(str, c)) for c in HELD_CASES])
def test_host_of_a_pre_embedded_guest_stays_held(case):
    """A pre-embedded guest whose image lies in cluster (0, 0) leaves that cell
    one host short: the buffer matching must not hand out the held host."""
    n, p, seed = case
    guest = Graph.from_edges(n + 1, [(i, (i + 1) % n) for i in range(n)])
    f_star = tuple((0, v % 2) for v in range(n + 1))
    clusters = {(0, j): VertexSet.from_iter(n, range(j, n, 2)) for j in (0, 1)}
    order = fold_labelling(n + 1)
    buffers = choose_buffers(
        guest, f_star, (1 << (n + 1)) - 1, sorted(clusters), 0.2, skip_mask=1 << n, order=order
    )
    args = (gnp(n, p, seed), guest, clusters, f_star, RestrictionPair(), buffers, order)
    expected = outcome(reference_embed, *args, initial_phi={n: 2 * seed}, seed=seed)
    assert expected[:2] == ("error", "no perfect matching in cell (0, 0)")
    assert outcome(embed, *args, initial_phi={n: 2 * seed}, seed=seed) == expected


def held_inside_inputs(n, q, layout, seed):
    """A cycle on guests 0..n-1 in two cells, by parity or by pairs as in LAYOUTS,
    and q more guests, each joined to two cycle vertices and pre-embedded onto a
    host inside a cluster; the clusters are a seeded split of the n hosts."""
    rng = rng_for(seed, stream=7)
    m = n + q
    edges = [(i, (i + 1) % n) for i in range(n)]
    for x in range(n, m):
        edges += [(x, v) for v in rng.choice(n, size=2, replace=False).tolist()]
    guest = Graph.from_edges(m, edges)
    f_star = tuple((0, v % 2 if layout == "parity" else (v // 2) % 2) for v in range(m))
    size0 = sum(1 for v in range(n) if f_star[v] == (0, 0))
    perm = rng.permutation(n).tolist()
    clusters = {(0, 0): VertexSet.from_iter(n, perm[:size0]), (0, 1): VertexSet.from_iter(n, perm[size0:])}
    initial_phi = dict(zip(range(n, m), rng.choice(n, size=q, replace=False).tolist()))
    order = fold_labelling(m)
    skip = mask_of(initial_phi)
    buffers = choose_buffers(guest, f_star, (1 << m) - 1, sorted(clusters), 0.2, skip_mask=skip, order=order)
    return (gnp(n, 0.5, seed), guest, clusters, f_star, RestrictionPair(), buffers, order), initial_phi


HELD_INSIDE_CASES = [(n, q, layout, seed) for n in (12, 16, 24) for q in (1, 2) for layout in LAYOUTS for seed in range(3)]


@pytest.mark.parametrize("case", HELD_INSIDE_CASES, ids=["-".join(map(str, c)) for c in HELD_INSIDE_CASES])
def test_held_host_inside_a_cluster_matches_reference(case):
    """A held host inside a cluster comes up in the main phase's swap scan and in
    the buffer phase's relocation scan; neither may move its pre-embedded guest.
    Six of these cases reach it from each scan: without `& ~held` there, `embed`
    ends in a KeyError instead of the reference's outcome."""
    args, initial_phi = held_inside_inputs(*case)
    expected = outcome(reference_embed, *args, initial_phi=initial_phi, seed=case[-1])
    assert outcome(embed, *args, initial_phi=initial_phi, seed=case[-1]) == expected


def pipeline_embed_calls(monkeypatch, cfg, seeds):
    """The (args, kwargs) of each `embed` call that successful `run_pipeline` runs
    of `cfg` make, one run per seed."""
    captured = []

    def recording_embed(*args, **kwargs):
        captured.append((args, kwargs))
        return embed(*args, **kwargs)

    monkeypatch.setattr(harness, "embed", recording_embed)
    for seed in seeds:
        assert harness.run_pipeline(harness.ExperimentConfig(seed=seed, **cfg)).success
    return captured


@pytest.mark.parametrize("cfg", [SMOKE_CFG, TREE_CFG], ids=["smoke", "tree"])
def test_pipeline_inputs_match_reference(monkeypatch, cfg):
    """The arguments `run_pipeline` passes to `embed`, seeds 0-1, with
    pre-embedded guests and image restrictions: on the smoke configuration,
    and in degenerate mode with a bounded-degree tree and its buffer rule."""
    captured = pipeline_embed_calls(monkeypatch, cfg, range(2))
    assert len(captured) == 2
    for args, kwargs in captured:
        restr = args[4]
        assert kwargs["initial_phi"] and restr.J
        assert outcome(embed, *args, **kwargs) == outcome(reference_embed, *args, **kwargs)


# k = 3 with the square of a cycle: the only configuration measured on which
# `embed` relocates neighbours and restarts (2 restarts at seed K3_SEED)
K3_CFG = dict(
    guest_family="power_cycle:2", n=960, p=0.5, k=3, gamma=0.1, eps=0.35, d=0.1, mu=0.2,
    Delta=4, xi_guest=0.25,
)
K3_SEED = 5


def test_k3_pipeline_input_matches_reference(monkeypatch):
    """The arguments `run_pipeline` passes to `embed` at k = 3, seed `K3_SEED`,
    where the completion restarts: both loops must agree on the φ and on the
    retries."""
    [(args, kwargs)] = pipeline_embed_calls(monkeypatch, K3_CFG, [K3_SEED])
    expected = outcome(reference_embed, *args, **kwargs)
    assert expected[0] == "ok" and expected[2] >= 1
    assert outcome(embed, *args, **kwargs) == expected


@cache
def k3_matcher_calls():
    """The `_match_buffers` calls of the `K3_CFG` pipeline run at seed
    `K3_SEED`, one per attempt that reaches the buffer phase: its arguments,
    with `phi` and `owner` copied on entry, and its outcome, then the φ that
    `embed` returns."""
    calls, results = [], []

    def recording_match(g, base_mask, nbrs, phi, owner, used, held, movable, buffers):
        args = (g, base_mask, nbrs, dict(phi), dict(owner), used, held, movable, buffers)
        try:
            _match_buffers(g, base_mask, nbrs, phi, owner, used, held, movable, buffers)
        except EmbedError as err:
            calls.append((args, ("error", str(err), err.stuck)))
            raise
        calls.append((args, ("ok", sorted(phi.items()))))

    def recording_embed(*args, **kwargs):
        results.append(embed(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedder, "_match_buffers", recording_match)
        mp.setattr(harness, "embed", recording_embed)
        assert harness.run_pipeline(harness.ExperimentConfig(seed=K3_SEED, **K3_CFG)).success
    [result] = results
    return calls, sorted(result.phi.items())


def replay_match(g, base_mask, nbrs, phi, owner, used, held, movable, buffers):
    """`_match_buffers` on fresh copies of `phi` and `owner`: the outcome as
    recorded by `k3_matcher_calls`, and the φ and owner map it leaves."""
    phi, owner = dict(phi), dict(owner)
    try:
        _match_buffers(g, base_mask, nbrs, phi, owner, used, held, movable, buffers)
    except EmbedError as err:
        return ("error", str(err), err.stuck), phi, owner
    return ("ok", sorted(phi.items())), phi, owner


def test_matcher_replays_the_captured_cells():
    """Each captured call gets as `used` the mask of its owned hosts, and,
    re-run alone, fails with the same message on the same stuck guest, or
    reaches the φ that `embed` returned."""
    calls, final_phi = k3_matcher_calls()
    assert [kind for _, (kind, *_) in calls][-1] == "ok"
    assert any(kind == "error" for _, (kind, *_) in calls)
    assert calls[-1][1] == ("ok", final_phi)
    for args, expected in calls:
        assert args[5] == mask_of(args[4])  # `used` masks the owned hosts
        assert replay_match(*args)[0] == expected


def test_matcher_success_keeps_the_matching_sound():
    """After the successful call, `owner` inverts `phi`, the held hosts keep
    their guests, and every buffer guest sits in its candidate mask: its base
    mask, cut down to the neighbourhoods of its neighbours' images."""
    calls, _ = k3_matcher_calls()
    args, _ = calls[-1]
    g, base_mask, nbrs, _, owner0, _, held, _, buffers = args
    _, phi, owner = replay_match(*args)
    assert owner == {h: x for x, h in phi.items()}
    assert all(owner[h] == owner0[h] for h in iter_bits(held))
    for bset in buffers.buffers.values():
        for x in bset:
            assert (base_mask[x] >> phi[x]) & 1
            assert all(g.has_edge(phi[x], phi[y]) for y in nbrs[x])


def test_matcher_leaves_a_buffer_guest_stuck_on_a_held_host():
    """Buffer guest 0's only candidate is host 0, held by the pre-embedded guest
    2.  Relocating its neighbour 1 to host 2 keeps host 0 a candidate, but the
    matching still may not take it: guest 0 is stuck and host 0 keeps guest 2."""
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    guest = Graph.from_edges(3, [(0, 1)])
    nbrs = [list(iter_bits(a)) for a in guest.adj]
    phi, owner = {2: 0, 1: 1}, {0: 2, 1: 1}
    buffers = BufferPlan({(0, 0): VertexSet.from_iter(3, [0])})
    with pytest.raises(EmbedError, match=r"^no perfect matching in cell \(0, 0\)$") as err:
        _match_buffers(g, {0: 0b001, 1: 0b110}, nbrs, phi, owner, 0b011, 0b001, {0, 1}, buffers)
    assert err.value.stuck == 0
    assert phi == {2: 0, 1: 2} and owner == {0: 2, 2: 1}
