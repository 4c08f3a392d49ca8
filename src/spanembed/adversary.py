"""The adversary of the resilience statement, `adversary_delete`: it deletes
host edges while every degree stays at or above ((k-1)/k + gamma) p n."""

from __future__ import annotations

import math

import numpy as np

from .graph_core import _KEY_BLOCK, ConfigError, Graph, PackedCopy, PairLabels, bit_positions, mapped_array, rng_for

__all__ = ["adversary_delete"]


def adversary_delete(
    g: Graph,
    strategy: str,
    gamma: float,
    k: int,
    p: float,
    seed: int = 0,
    budget: int | None = None,
    target: int = 0,
) -> Graph:
    """Delete edges while keeping every degree at or above ((k-1)/k + gamma) p n.

    random: greedy over the edges in a seeded order (optionally capped by
    budget): by one of `_BUCKETS` seeded bucket labels per pair, then by a
    keyed priority, and a bucket whose order cannot matter is deleted at word
    speed (`_delete_in_buckets`); triangle_killer: removes every triangle at
    `target` (edges inside its neighbourhood), failing if the floor blocks
    it, and takes no budget; bipartite_push: the same greedy over the edges
    inside k seeded random classes.  The degrees come from one read of g's
    rows, which the floor test and the greedy share.

    triangle_killer is a rule, since no order of the greedy changes its
    outcome.  A vertex u of N(target) ends as many edges inside N(target)
    as it has neighbours there.  If each u has at most its spare of them,
    the greedy deletes every such edge in any order; if some u has more,
    it loses at most its spare and keeps one in any order.  So the inside
    degrees decide, and the edges go by word ANDs.
    """
    if strategy == "triangle_killer" and budget is not None:
        raise ConfigError(_NO_BUDGET)
    n = g.n
    floor = ((k - 1) / k + gamma) * p * n
    deg = g.degree_table([(1 << n) - 1])[:, 0].astype(np.int64)
    low = min(deg.tolist(), default=0)
    if low < floor - 1e-9:
        raise ConfigError(f"degree floor {floor:.1f} unsatisfiable: min degree {low}")
    if strategy == "none" or budget == 0:
        return g
    # A vertex may lose an edge while its degree minus one stays at or above
    # the floor; `spare` counts the edges each vertex can still lose.
    spare = deg - math.ceil(floor - 1e-9)
    rng = rng_for(seed, stream=101)
    if strategy == "random":
        return _delete_in_buckets(g, spare, budget, rng, None)
    if strategy == "triangle_killer":
        inside = g.neighbours(target)
        nbrs = bit_positions(inside)
        if (g.degree_table([inside], nbrs)[:, 0] > spare[nbrs]).any():
            raise ConfigError("triangle_killer blocked by the degree floor")
        return g.without_edges_inside(inside)
    if strategy == "bipartite_push":
        classes = rng.integers(0, k, size=n)
        return _delete_in_buckets(g, spare, budget, rng, classes)
    raise ConfigError(f"unknown adversary {strategy!r}")


_NO_BUDGET = "triangle_killer takes no adversary_budget: it deletes every edge inside the target's neighbourhood"


# murmur3's finalisers fmix32 and fmix64, by key width in bytes: the shifts s
# and odd multipliers c of h ^= h >> s0; h *= c0; h ^= h >> s1; h *= c1;
# h ^= h >> s2, each step a bijection on the word
_FMIX = {
    4: ((16, 13, 16), (0x85EBCA6B, 0xC2B2AE35)),
    8: ((33, 33, 33), (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53)),
}


def _mix(words: np.ndarray, salt) -> None:
    """Map each unsigned word h to fmix(h ^ salt) in place, `_KEY_BLOCK` at a time."""
    (s0, s1, s2), (c0, c1) = _FMIX[words.itemsize]
    c0, c1 = words.dtype.type(c0), words.dtype.type(c1)
    for at in range(0, len(words), _KEY_BLOCK):
        h = words[at:at + _KEY_BLOCK]
        h ^= salt
        h ^= h >> s0
        h *= c0
        h ^= h >> s1
        h *= c1
        h ^= h >> s2


def _unmix(words: np.ndarray, salt) -> None:
    """Invert `_mix(words, salt)` in place: each step undone in reverse order."""
    width = 8 * words.itemsize
    (s0, s1, s2), (c0, c1) = _FMIX[words.itemsize]
    inv0, inv1 = (words.dtype.type(pow(c, -1, 1 << width)) for c in (c0, c1))
    for at in range(0, len(words), _KEY_BLOCK):
        h = words[at:at + _KEY_BLOCK]
        _unshift(h, s2, width)
        h *= inv1
        _unshift(h, s1, width)
        h *= inv0
        _unshift(h, s0, width)
        h ^= salt


def _unshift(h: np.ndarray, s: int, width: int) -> None:
    """Invert h ^= h >> s in place on words of `width` bits."""
    while s < width:
        h ^= h >> s
        s *= 2


# Buckets of the scan order: each pair's label in [0, _BUCKETS) is log2 of it
# uniform binary digits (`PairLabels`); a power of two.  With spare degree
# about 0.3 of the degree, as on the resilience host, 8 buckets delete buckets
# 0 and 1 whole and order bucket 2 (4 order a bucket twice the size, and 16
# read the labels more often; measured at n = 4000, 10^4 and 2 * 10^4)
_BUCKETS = 8


def _delete_in_buckets(
    g: Graph, spare: np.ndarray, cap: int | None, rng: np.random.Generator, classes: np.ndarray | None
) -> Graph:
    """g less the edges that a key-by-key greedy (`_greedy_delete`) selects from
    a scan of all its edges, or of those whose ends share a class when
    `classes` (one per vertex) is given, in a seeded order: by bucket, then by
    the priority fmix(key ^ salt) (`_mix`) of the key u * n + v, over words as
    wide as the keys.  The salt is drawn from `rng`, then each pair's bucket,
    its label in [0, `_BUCKETS`), from raw words of `rng` (`PairLabels`).  The
    priority is a bijection on the word, so no two keys tie.

    The buckets are scanned in turn on a `PackedCopy` of g's rows, which
    becomes the result, each among a superset of the vertices with spare at
    its start (its *live* vertices), since the scan skips a key with a spent
    end.  A vertex is safe in a bucket when its live keys there number at most
    its spare, so that it keeps spare at each of them in any order (see
    `_greedy_delete`).  Each read of the labels (`PackedCopy.read_labels`)
    serves several buckets:

    - A count gives each vertex's live keys in a bucket, by word popcounts.
    - A take of a counted bucket deletes its keys with two safe ends at word
      speed and lists the others; a safe vertex's spare is debited by its
      count less its listed keys.  When no vertex is unsafe, the spare after
      the bucket follows from the counts, so the next counted bucket is
      taken in the same read.
    - A listing lists a bucket whole: the bucket after a take, when the
      counts say that most vertices will be unsafe in it, and the buckets
      left once at most a quarter of the vertices have spare.

    The first read counts buckets 0 and 1; each read that takes a bucket also
    counts or lists the next one.  Listed keys are mixed, sorted, unmixed and
    scanned.  A cap that could run out inside a bucket needs its order, so
    that bucket is listed whole, and a cap that runs out ends the scan.  The
    listed keys live in `mapped_array`s sized for every key, of which only
    the pages written take memory: about an eighth of the keys at most.
    """
    n = g.n
    width = 4 if n * n <= np.iinfo(np.int32).max else 8  # bytes a key u * n + v takes as a signed int
    salt = rng.integers(0, 1 << 8 * width, dtype=f"u{width}")
    labels = PairLabels(n, rng, _BUCKETS.bit_length() - 1)
    edit = PackedCopy(g)
    nobody = np.zeros(n, dtype=bool)  # the safe set of a bucket listed whole
    ahead = {}  # bucket -> (live, counts, listed words, debit), from a read made before its turn

    def read(live, jobs):
        """Serve `jobs`, each (bucket, counts, safe), in one read of the labels
        among `live`, and file each bucket's counts, or its listed keys and
        the debit of its cleared ones, in `ahead`."""
        outs = [None if safe is None else mapped_array(g.m, salt.dtype) for *_, safe in jobs]
        found = edit.read_labels(labels, live, classes, [(b, safe, out) for (b, _, safe), out in zip(jobs, outs)])
        for (b, occ, safe), out, count in zip(jobs, outs, found):
            if safe is None:
                ahead[b] = live, count, None, None
                continue
            keys, debit = out[:count].view(f"i{width}"), None
            if safe.any():  # a safe vertex loses each of its keys but the listed ones
                listed = np.bincount(keys // n, minlength=n) + np.bincount(keys % n, minlength=n)
                debit = np.where(safe, occ - listed, 0)
            ahead[b] = live, occ, out[:count], debit

    for bucket in range(_BUCKETS):
        if bucket not in ahead:
            live = spare > 0
            if 4 * np.count_nonzero(live) <= n:  # few vertices keep spare: list the buckets left
                read(live, [(b, None, nobody) for b in range(bucket, _BUCKETS)])
            else:  # count the bucket, and bucket 1 with bucket 0
                read(live, [(b, None, None) for b in range(bucket, min(bucket + (2 if bucket == 0 else 1), _BUCKETS))])
        if ahead[bucket][2] is None:
            read(ahead[bucket][0], _take_jobs(ahead, bucket, spare, cap, nobody))
        _, _, words, debit = ahead.pop(bucket)
        if debit is not None:
            spare -= debit
            if cap is not None:
                cap -= int(debit.sum()) // 2
        _mix(words, salt)
        words.sort()
        _unmix(words, salt)
        keys = words.view(f"i{width}")
        done = _greedy_delete(keys, spare, cap)
        keys[:done].sort()  # so that the clear walks the rows in order
        edit.delete(keys[:done])
        if cap is not None:
            cap -= done
            if cap == 0:
                break
    return edit.graph()


def _take_jobs(ahead: dict, bucket: int, spare: np.ndarray, cap: int | None, nobody: np.ndarray) -> list:
    """The jobs (bucket, counts, safe) of the read that takes `bucket`, counted
    in `ahead` among its live vertices.  The counted bucket after it is taken
    too if it goes whole with no unsafe vertex, since its spare then follows
    from the counts alone, and so on.  The next bucket is then counted (safe
    None) if most vertices could stay safe through it, and listed whole if
    not."""
    live, jobs, before = ahead[bucket][0], [], spare
    b = bucket
    while True:
        occ = ahead[b][1]
        whole = cap is None or 2 * cap >= occ.sum()
        jobs.append((b, occ, occ <= before if whole else nobody))
        b += 1
        if not (whole and (occ <= before).all() and b in ahead):
            break
        before = before - occ
        cap = None if cap is None else cap - int(occ.sum()) // 2
    if b < _BUCKETS and b not in ahead:
        calm = 2 * np.count_nonzero(live & (2 * occ <= before)) >= np.count_nonzero(live)
        jobs.append((b, None, None if calm else nobody))
    return jobs


def _greedy_delete(keys: np.ndarray, spare: np.ndarray, cap: int | None) -> int:
    """Select, in scan order, each edge key u * n + v whose ends both have spare degree.

    `_delete_in_buckets` applies the safe rule below to whole buckets before
    it lists any key, and hands this the keys of a bucket that it cannot
    delete whole.  Stops after `cap` deletions when a cap is given.  `spare`
    (an int array with one entry per vertex, so n = len(spare)) is debited in
    place, and the selected keys are written, in scan order, over the front
    of `keys`; the return value is their number.  A block's selections never
    outnumber the keys read so far, so they never overwrite a key not yet
    read.  The selections are those of the key-by-key scan, settled one block
    of 4 * n keys at a time, so that each vertex has about 8 live keys in a
    block at any n.  The selections do not depend on the block size:

    - Spare degree only falls, so a key with a spent end at the start of its
      block is skipped; the block's other keys are live.
    - A vertex is *safe* in the block when its live keys there number at most
      its spare at the block's start.  At each of those keys it has lost fewer
      edges in the block than it had spare, so it passes the test on all of
      them.  A key with two safe ends is selected in one numpy step.
    - A key with an unsafe end depends on the scan order, so those keys alone
      are scanned in Python, in key order, each end's spare counted from the
      block's start (a safe end never runs out there).
    - The block's selections debit `spare` in bulk.  A cap keeps the first
      `left` of them by key index; that is exact, because whether a key is
      selected never depends on a later key.
    """
    n = len(spare)
    size = 4 * n
    left = len(keys) if cap is None else cap
    done = 0
    for start in range(0, len(keys), size):
        if left <= 0:
            break
        block = keys[start:start + size]
        bu = block.astype(np.int64)  # int64 ends index and count without a cast
        bu //= n
        bv = block - bu * n
        has = spare > 0
        live = has[bu] & has[bv]
        occ = np.bincount(bu[live], minlength=n) + np.bincount(bv[live], minlength=n)
        safe = occ <= spare
        take = live & safe[bu] & safe[bv]
        scan = np.flatnonzero(live & ~take)
        if len(scan):
            rest = spare.tolist()
            kept = []
            for i, u, v in zip(scan.tolist(), bu[scan].tolist(), bv[scan].tolist()):
                if rest[u] > 0 and rest[v] > 0:
                    rest[u] -= 1
                    rest[v] -= 1
                    kept.append(i)
            take[kept] = True
        hit = np.flatnonzero(take)[:left]
        spare -= np.bincount(bu[hit], minlength=n) + np.bincount(bv[hit], minlength=n)
        left -= len(hit)
        keys[done:done + len(hit)] = block[hit]
        done += len(hit)
    return done
