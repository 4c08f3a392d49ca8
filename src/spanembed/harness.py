"""Experiment orchestration: hosts, adversaries, guest families, full pipeline runs.

`run_pipeline` drives host preparation, guest assignment, reserve selection,
pre-embedding, balancing, spanning completion, and final verification for one
seeded configuration, emitting a RunRecord.  Configuration faults raise
ConfigError (or OSError for an unreadable host file) before any stage runs;
stage failures are recorded, not raised.  The CSV row format is the stable
cross-run contract.
"""

from __future__ import annotations

import math
import sys
import time
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .balancing import balance
from .embedder import EmbedError, choose_buffers, embed, verify_embedding
from .graph_core import (
    _KEY_BLOCK,
    Graph,
    Labelling,
    PackedCopy,
    PairLabels,
    StageError,
    VertexSet,
    _is_prime,
    bandwidth_of_labelling,
    bit_positions,
    gnp,
    mapped_array,
    mask_of,
    paley,
    read_graph_file,
    rng_for,
)
from .guest_prep import Colouring, assign_guest, bounded_order_report
from .oracles import bijumbled_feasible, circulant_nu_upper
from .pre_embedding import (
    RHO,
    ZETA,
    pre_embed,
    reserve_set,
    restriction_image,
    validate_restriction_pair,
)
from .reduced_graph import prepare_host

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "ConfigError",
    "adversary_delete",
    "make_guest",
    "GUEST_FAMILIES",
    "run_pipeline",
    "parse_config_file",
    "CSV_HEADER",
    "csv_row",
]

CSV_HEADER = "seed,n,p,k,gamma,guest,adversary,mode,success,failure_stage,r,v0_size,moved,embed_retries,runtime_ms"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    n: int = 1000
    p: float = 0.4
    k: int = 2
    gamma: float = 0.2
    Delta: int = 2
    D: int = 2
    eps: float = 0.2
    d: float = 0.1
    xi: float = 0.01
    mu: float = 0.05
    vartheta: float = 0.05
    seed: int = 0
    guest_family: str = "hamilton_cycle"
    adversary: str = "random"
    mode: str = "random"  # random | bijumbled | degenerate
    nu: float | None = None
    host_file: str | None = None
    paley_q: int | None = None
    r0: int = 4
    # special-set window; default max(xi, 0.05, 2*r*blocklen/(k*n)), where the
    # guest's blocks hold blocklen = max(32, 4*k*bandwidth) positions
    xi_guest: float | None = None
    adversary_budget: int | None = None
    adversary_target: int = 0

    def validate(self):
        for name, (kind, _) in _FIELD_TYPES.items():
            val = getattr(self, name)
            if kind is float and val is not None and not math.isfinite(val):
                raise ConfigError(f"{name}={val} must be finite")
        if self.n < 1 or self.k < 1 or self.Delta < 2 or self.D < 1:
            raise ConfigError("n >= 1, k >= 1, Delta >= 2, D >= 1 required")
        if not (0 < self.p <= 1):
            raise ConfigError("p must lie in (0, 1]")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        for name in ("eps", "d", "xi", "mu", "vartheta"):
            val = getattr(self, name)
            if not (0 < val < 1):
                raise ConfigError(f"{name}={val} must lie in (0, 1)")
        if self.mode not in ("random", "bijumbled", "degenerate"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.adversary not in ("none", "random", "triangle_killer", "bipartite_push"):
            raise ConfigError(f"unknown adversary {self.adversary!r}")
        _, _, k, delta = _guest_family(self.guest_family, self.n)
        if k != self.k:
            raise ConfigError(f"guest {self.guest_family} uses k={k} but config has k={self.k}")
        if delta > self.Delta:
            raise ConfigError(f"guest {self.guest_family} has maximum degree {delta} but config has Delta={self.Delta}")
        if self.adversary == "triangle_killer" and self.adversary_budget is not None:
            raise ConfigError(_NO_BUDGET)
        if self.adversary == "none" and self.adversary_budget is not None:
            raise ConfigError("adversary none deletes no edge and takes no adversary_budget")
        for name in ("nu", "paley_q", "host_file"):
            if getattr(self, name) is not None and self.mode != "bijumbled":
                raise ConfigError(f"{name} needs mode bijumbled, not {self.mode!r}")
        if self.mode == "bijumbled":
            q = self.paley_q
            if q is None and not self.host_file:
                raise ConfigError("bijumbled mode needs paley_q or host_file")
            if q is not None and (not _is_prime(q) or q % 4 != 1):
                raise ConfigError(f"paley_q={q} must be a prime = 1 (mod 4)")
            if q is not None and q != self.n:
                raise ConfigError(f"paley({q}) has {q} vertices but n={self.n}")
        if not (0 <= self.adversary_target < self.n):
            raise ConfigError(f"adversary_target={self.adversary_target} must lie in [0, n={self.n})")
        if self.adversary_budget is not None and self.adversary_budget < 0:
            raise ConfigError(f"adversary_budget={self.adversary_budget} must be >= 0")
        if self.xi_guest is not None and self.xi_guest <= 0:
            raise ConfigError(f"xi_guest={self.xi_guest} must be positive")
        if self.r0 < 1:
            raise ConfigError(f"r0={self.r0} must be >= 1")

    def recommended_min_p(self) -> float:
        expo = 1.0 / (2 * self.D + 1) if self.mode == "degenerate" else 1.0 / self.Delta
        return (math.log(self.n) / self.n) ** expo


@dataclass
class RunRecord:
    config: ExperimentConfig
    success: bool = False
    failure_stage: str = ""
    r: int = 0
    v0_size: int = 0
    moved: int = 0
    embed_retries: int = 0
    runtime_ms: int = 0
    stage_timings: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)


def csv_row(rec: RunRecord) -> str:
    c = rec.config
    return ",".join(
        str(x)
        for x in (
            c.seed, c.n, c.p, c.k, c.gamma, c.guest_family, c.adversary, c.mode,
            str(rec.success).lower(), rec.failure_stage or "-", rec.r, rec.v0_size,
            rec.moved, rec.embed_retries, rec.runtime_ms,
        )
    )


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------


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
        edit = PackedCopy(g)
        keys = np.concatenate([*edit.edge_key_blocks(nbrs), np.zeros(0, dtype=np.int64)])
        keys = keys[rng.permutation(len(keys))]
        us, vs = np.divmod(keys, n)
        keys = keys[np.argsort(-(deg[us] + deg[vs]), kind="stable")]
        _delete_greedily(edit, keys, spare, None)
        out = edit.graph()
        if any(out.neighbours(u) & inside for u in nbrs.tolist()):
            raise ConfigError("triangle_killer blocked by the degree floor")
        return out
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
        done = _delete_greedily(edit, words.view(f"i{width}"), spare, cap)
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


def _delete_greedily(edit: PackedCopy, keys: np.ndarray, spare: np.ndarray, cap: int | None) -> int:
    """Delete from `edit` the edges that `_greedy_delete` selects from a scan of
    `keys` in their given order, and return their number.

    The selections, at the front of `keys`, are sorted first, so that the
    clear walks the rows in order instead of at random.
    """
    done = _greedy_delete(keys, spare, cap)
    keys[:done].sort()
    edit.delete(keys[:done])
    return done


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


# ---------------------------------------------------------------------------
# Guest families
# ---------------------------------------------------------------------------

GUEST_FAMILIES = ("hamilton_cycle", "power_cycle", "power_path", "bounded_tree", "f_factor")
_DEFAULT_PARAM = {"power_cycle": 2, "power_path": 2, "bounded_tree": 3, "f_factor": "triangle"}

# factor graph -> (order, edges, a proper colouring with colours 1..k)
_FACTORS = {
    "edge": (2, [(0, 1)], (1, 2)),
    "path3": (3, [(0, 1), (1, 2)], (1, 2, 1)),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], (1, 2, 3)),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], (1, 2, 1, 2)),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (1, 2, 3, 4)),
}


def _guest_family(family: str, n: int) -> tuple[str, int | str | None, int, int]:
    """Split `name[:param]` into a family of GUEST_FAMILIES and its parameter, with
    the guest's colour count k and maximum degree bound Delta, which they fix.

    f_factor's parameter names a factor graph, the other parameters are
    integers, and hamilton_cycle takes none; a missing parameter takes the
    family's default.  Raises ConfigError for an unknown family, a
    parameter that does not parse, a parameter on hamilton_cycle, or a
    family and parameter that build no guest on n vertices.
    """
    name, _, arg = family.partition(":")
    if name not in GUEST_FAMILIES:
        raise ConfigError(f"unknown guest family {name!r}")
    if name == "hamilton_cycle":
        if arg:
            raise ConfigError(f"guest {family!r}: hamilton_cycle takes no parameter")
        if n < 3:
            raise ConfigError("hamilton_cycle needs n >= 3")
        return name, None, 2, 2
    arg = arg or _DEFAULT_PARAM[name]
    if name == "f_factor":
        if arg not in _FACTORS:
            raise ConfigError(f"unknown factor graph {arg!r}")
        fn, fedges, fcol = _FACTORS[arg]
        if n % fn:
            raise ConfigError(f"f_factor:{arg} needs {fn} | n")
        return name, arg, max(fcol), max(sum(1 for e in fedges if v in e) for v in range(fn))
    try:
        c = int(arg)
    except ValueError:
        raise ConfigError(f"guest {family!r}: {arg!r} is not an integer") from None
    if name == "bounded_tree" and c < 2:
        raise ConfigError("bounded_tree needs max degree >= 2")
    if c < 1:
        raise ConfigError(f"{name} needs c >= 1")
    if name == "power_cycle" and n % (c + 1):
        raise ConfigError(f"power_cycle:{c} needs (c+1) | n")
    return (name, c, 2, c) if name == "bounded_tree" else (name, c, c + 1, 2 * c)


def _fold_labelling(n: int) -> Labelling:
    order = []
    for i in range((n + 1) // 2):
        order.append(i)
        if n - 1 - i != i:
            order.append(n - 1 - i)
    return Labelling(tuple(order))


def _cycle(n: int, power: int = 1) -> Graph:
    """The power-th power of the n-cycle: v ~ v + c (mod n) for 1 <= c <= power."""
    return Graph.from_edges(n, [
        edge for c in range(1, power + 1) if c % n
        for edge in zip(range(n), [*range(c % n, n), *range(c % n)])
    ])


def make_guest(family: str, n: int, seed: int = 0) -> tuple[Graph, Labelling, Colouring, dict]:
    """Build a guest with a bandwidth labelling and a colouring ready for assignment.

    Families: hamilton_cycle, power_cycle:<c>, power_path:<c>, bounded_tree:<max_deg>,
    f_factor:<name>.  Odd cycles place a single colour-0 vertex at the last
    labelled position; bounded trees balance their two colour classes online so
    sections stay near-even.
    """
    name, arg, k, delta = _guest_family(family, n)
    if name == "hamilton_cycle":
        h = _cycle(n)
        l = _fold_labelling(n)
        if n % 2 == 0:
            sigma = tuple((v % 2) + 1 for v in range(n))
        else:  # colour 0 at the last labelled vertex, then 1, 2, 1, ... around the cycle
            zv = l.order[-1]
            sigma = tuple(2 - (v - zv) % n % 2 if v != zv else 0 for v in range(n))
        col = Colouring(sigma, k)
    elif name in ("power_cycle", "power_path"):
        c = arg
        if name == "power_cycle":
            h, l = _cycle(n, c), _fold_labelling(n)
        else:
            h = Graph.from_edges(n, [(u, u + s) for u in range(n) for s in range(1, c + 1) if u + s < n])
            l = Labelling.identity(n)
        col = Colouring(tuple((v % k) + 1 for v in range(n)), k)
    elif name == "bounded_tree":
        dmax = arg
        rng = rng_for(seed, stream=111)
        window = max(4, int(2 * math.ceil(math.log2(max(n, 2)))))
        edges = []
        colour = [1]
        degs = [0]
        bal = 1  # colour-1 count minus colour-2 count
        for v in range(1, n):
            lo = max(0, v - window)
            want_parent_colour = 1 if bal >= 0 else 2
            cands = [u for u in range(lo, v) if degs[u] < dmax and colour[u] == want_parent_colour]
            if not cands:
                cands = [u for u in range(lo, v) if degs[u] < dmax]
            u = cands[int(rng.integers(len(cands)))]
            edges.append((u, v))
            degs[u] += 1
            degs.append(1)
            colour.append(3 - colour[u])
            bal += 1 if colour[v] == 1 else -1
        h = Graph.from_edges(n, edges)
        l = Labelling.identity(n)
        col = Colouring(tuple(colour), k)
    else:  # f_factor
        fn, fedges, fcol = _FACTORS[arg]
        h = Graph.from_edges(n, [(base + a, base + b) for base in range(0, n, fn) for a, b in fedges])
        l = Labelling.identity(n)
        col = Colouring(tuple(fcol[v % fn] for v in range(n)), k)
    return h, l, col, {"k": k, "Delta": delta, "bandwidth": bandwidth_of_labelling(h, l)}


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _k_equitable_targets(
    clusters: dict[tuple[int, int], VertexSet], v0_size: int, n: int
) -> dict[tuple[int, int], int]:
    cells = sorted(clusters)
    base = v0_size // len(cells)
    rem = v0_size - base * len(cells)
    targets = {cell: len(clusters[cell]) + base for cell in cells}
    for cell, _ in sorted(((c, targets[c]) for c in cells), key=lambda t: (t[1], t[0]))[:rem]:
        targets[cell] += 1
    assert sum(targets.values()) == n
    return targets


def _xi_guest(cfg: ExperimentConfig, r: int, blocklen: int) -> float:
    """The guest assignment's xi: `cfg.xi_guest` when set, else the largest of
    `cfg.xi`, 0.05 and 2 r blocklen / (k n).  The special set holds about
    6 r beta n vertices by construction, where beta n = blocklen / (4k), so the
    default window scales with the block grid rather than with xi."""
    if cfg.xi_guest is not None:
        return cfg.xi_guest
    return max(cfg.xi, 0.05, 2.0 * r * blocklen / (cfg.k * cfg.n))


@contextmanager
def _stage(rec: RunRecord, name: str):
    """Run one pipeline stage, recording its span even when it fails.

    A stage error, or a ConfigError raised inside the stage, names the failure
    `name` or `name:<step>` and propagates; `runtime_ms` is the sum of the
    spans so far.
    """
    t0 = time.perf_counter()
    try:
        yield
    except (ConfigError, StageError) as exc:
        step = exc.stage if isinstance(exc, StageError) else None
        rec.failure_stage = f"{name}:{step}" if step else name
        rec.notes["error"] = str(exc)
        raise
    finally:
        rec.stage_timings[name] = round((time.perf_counter() - t0) * 1000, 2)
        rec.runtime_ms = int(sum(rec.stage_timings.values()))


def _load_host(cfg: ExperimentConfig) -> tuple[Graph, float]:
    """The host graph and its edge density; raises ConfigError or OSError."""
    if cfg.mode != "bijumbled":
        return gnp(cfg.n, cfg.p, cfg.seed), cfg.p
    if cfg.paley_q is not None:
        host = paley(cfg.paley_q)
        return host, host.degree(0) / (host.n - 1)
    try:
        host = read_graph_file(cfg.host_file)
    except ValueError as exc:
        raise ConfigError(f"host file {cfg.host_file}: {exc}") from None
    if host.n != cfg.n:
        raise ConfigError(f"host file {cfg.host_file} has {host.n} vertices but n={cfg.n}")
    return host, 2.0 * host.m / (host.n * (host.n - 1))


def run_pipeline(cfg: ExperimentConfig) -> RunRecord:
    """Execute the full pipeline for one configuration; stage failures become record fields.

    Raises ConfigError from `cfg.validate()`, and ConfigError or OSError while
    loading the host; from the bijumbledness check on, every failure is a
    `failure_stage` of the returned record.  In bijumbled mode
    `notes["nu_upper"]` is a certified upper bound on the host's nu, the least
    nu for which it is (p, nu)-bijumbled, taken from the spectrum of a
    circulant host; a host that is not circulant gets None, no certificate, and
    with `cfg.nu` set fails at the bijumbledness check.
    """
    cfg.validate()
    rec = RunRecord(config=cfg)
    min_p = cfg.recommended_min_p()
    if cfg.p < min_p:
        print(f"warning: p={cfg.p} below recommended minimum {min_p:.4f}", file=sys.stderr)
    est_cluster = cfg.n / max(cfg.r0, 2 * cfg.k)
    if cfg.eps * cfg.p * est_cluster < 3.0 * math.sqrt(est_cluster * cfg.p * (1 - cfg.p)):
        print(
            "warning: eps*p*|cluster| sits under ~3 sigma of the degree noise; "
            "expect a large exceptional set (raise eps or n)",
            file=sys.stderr,
        )

    with _stage(rec, "host"):
        host, p = _load_host(cfg)
    try:
        if cfg.mode == "bijumbled":
            with _stage(rec, "bijumbled-check"):
                nu_upper = rec.notes["nu_upper"] = circulant_nu_upper(host, p)
                rec.notes["bijumbled_feasible"] = None if nu_upper is None else bijumbled_feasible(p, nu_upper, cfg.n)
                if cfg.nu is not None and nu_upper is None:
                    raise StageError(None, "host is not circulant: no ν certificate")
                if cfg.nu is not None and nu_upper > cfg.nu:
                    raise StageError(None, f"certified nu={nu_upper:.4g} exceeds nu={cfg.nu}")

        with _stage(rec, "adversary"):
            g = adversary_delete(
                host, cfg.adversary, cfg.gamma, cfg.k, p,
                seed=cfg.seed, budget=cfg.adversary_budget, target=cfg.adversary_target,
            )

        with _stage(rec, "guest"):
            guest, lab, col, meta = make_guest(cfg.guest_family, cfg.n, cfg.seed)
            # blocks of 4*k*beta*n positions: 32, stretched so that beta*n
            # covers the guest's bandwidth
            blocklen = max(32, 4 * cfg.k * meta["bandwidth"])

        with _stage(rec, "host-structure"):
            hs = prepare_host(g, host, p, cfg.gamma, cfg.k, cfg.eps, cfg.d, cfg.r0, cfg.seed)
            rec.r = hs.r
            rec.v0_size = len(hs.v0)

        with _stage(rec, "guest-assignment"):
            m_targets = _k_equitable_targets(hs.clusters, len(hs.v0), cfg.n)
            xi_guest = _xi_guest(cfg, hs.r, blocklen)
            assignment = assign_guest(
                guest, lab, col, hs.reduced, m_targets,
                xi=xi_guest, blocklen=blocklen, seed=cfg.seed,
            )
            rec.notes["zero_routed"] = [(v, assignment.f[v]) for v in assignment.zero_routed]
            rec.notes["extension"] = dict(hs.reduced.extension)

        with _stage(rec, "reserve"):
            reserve = reserve_set(
                g, host, hs.clusters, cfg.mu, seed=cfg.seed,
                delta_max=cfg.Delta, eps=cfg.eps,
            )

        with _stage(rec, "pre-embed"):
            state, f_star, restr = pre_embed(
                g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment, reserve,
                eps=cfg.eps, d=cfg.d, p=p, mu=cfg.mu, delta=cfg.Delta,
                forbid_c4=(cfg.mode == "degenerate"), seed=cfg.seed,
            )

        with _stage(rec, "balancing"):
            final_clusters, part_counts, rec.moved = balance(
                hs.clusters, state.image_mask(), state.domain_mask(), f_star, hs.reduced, g,
                xi=max(cfg.xi, xi_guest), eps=cfg.eps, d=cfg.d, p=p, gamma=cfg.gamma, seed=cfg.seed,
            )

        with _stage(rec, "restriction-pair"):
            # selection ran at eps; the windows erode through pre-embedding
            # removals and balancing moves, so validation runs one stage looser
            report = validate_restriction_pair(
                restr, final_clusters, part_counts, host, g,
                rho=RHO, zeta=ZETA, delta=cfg.Delta,
                eps=min(0.9, 2 * cfg.eps), p=p, d=cfg.d, f_star=f_star, guest=guest,
                skip=set(state.phi.keys()), seed=cfg.seed,
            )
            rec.notes["restriction_report"] = {k_: v["ok"] for k_, v in report.items()}
            if not report["all_ok"]["ok"]:
                broken = [k_ for k_, v in report.items() if not v["ok"] and k_ != "all_ok"]
                raise StageError(None, f"restriction pair breaks {', '.join(broken)}")

        with _stage(rec, "embed"):
            # buffer vertices avoid the special set, the pre-embedded vertices,
            # the restricted vertices and the neighbours of both, so every
            # neighbour of a buffer keeps the spare back-degree that
            # check_bounded_order demands of it; the degenerate mode's report
            # stays clean, since no restricted vertex loses a spare to a buffer
            placed = state.domain_mask()
            blocked = assignment.special.mask | guest.closed_neighbourhood(placed | mask_of(restr.J))
            if cfg.mode == "degenerate":
                blocked |= mask_of(v for v in range(cfg.n) if guest.degree(v) > 2 * cfg.D)
            buffers = choose_buffers(
                guest, f_star, ((1 << cfg.n) - 1) & ~blocked, sorted(hs.clusters), cfg.vartheta,
                skip_mask=placed, order=lab,
            )
            if cfg.mode == "degenerate":
                rec.notes["bounded_order_violations"] = bounded_order_report(
                    guest, assignment.degeneracy, restr.J, buffers.mask(), p, cfg.eps * cfg.n / max(1, cfg.k * rec.r)
                )
            try:
                result = embed(
                    g, guest, final_clusters, f_star, restr, buffers, lab,
                    initial_phi=state.phi, seed=cfg.seed,
                )
            except EmbedError as exc:
                rec.embed_retries = exc.attempts
                raise
            rec.embed_retries = result.retries

        with _stage(rec, "verify"):
            images = {
                x: restriction_image(g, final_clusters, f_star[x], js)
                for x, js in restr.J.items()
            }
            if not verify_embedding(g, guest, result.phi, images):
                raise StageError(None, "the completed embedding fails verification")
        rec.success = True
    except (ConfigError, StageError):
        pass  # _stage has named the failure
    return rec


def _field_types() -> dict[str, tuple[type, bool]]:
    """ExperimentConfig field -> (value type, whether the field accepts None)."""
    out = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        args = typing.get_args(hint)
        optional = type(None) in args
        out[name] = (next(a for a in args if a is not type(None)) if optional else hint, optional)
    return out


_FIELD_TYPES = _field_types()


def parse_config_file(path: str) -> dict:
    """`key = value` lines with # comments -> typed override dict.

    `none` or an empty value unsets an optional key; every other key keeps its
    string or number, so `adversary = none` names the no-op adversary.
    """
    vals: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            vals[key] = _coerce(key, val, f"{path}:{lineno}")
    return vals


def _coerce(key: str, val: str, where: str):
    kind, optional = _FIELD_TYPES[key]
    if optional and val.lower() in ("none", ""):
        return None
    if not val:
        raise ConfigError(f"{where}: empty value for {key!r}")
    try:
        return kind(val)
    except ValueError:
        raise ConfigError(f"{where}: {key} = {val!r} is not a valid {kind.__name__}") from None
