"""Bitset graph kernel: representation, seeded generators and order utilities.

Graphs are immutable, undirected and loop-free, and each holds one adjacency
store.  A graph built from rows or masks (`gnp`, `paley`, `parse_graph_text`,
`PackedCopy.graph()`, `Graph(n, masks)`) keeps packed little-endian uint64
rows (`Graph.packed_rows`, read-only); a graph built by `from_edges` (a guest,
a reduced or a cluster graph) keeps each vertex's neighbours as an ascending
tuple (`neighbour_list`), which walks over sparse graphs read.  Other modules
read one row as an int bitmask, built on each call (`Graph.neighbours`), and
many rows in bulk: vertex-to-set degrees with `row_mask_counts` (or
`Graph.degree_table`, which reads the rows itself), 0/1 blocks with
`unpack_rows`; `bit_positions` lists a mask's set bits from its bytes.  Edge
sets in bulk are int keys u * n + v, which a `PackedCopy` of the rows alone
lists, a block of rows at a time and through a packed mask of a vertex
subset, and deletes in place (`Graph.without_edges` deletes on one); it also
counts, deletes and lists the edges of seeded pair labels (`PairLabels`) a
block of words at a time, and the graph it becomes keeps its rows.  Every
buffer of n packed rows (kept rows, a `PackedCopy`'s rows, the rows that
`gnp` draws into and that `parse_graph_text` sets a file's edges in) and
edge keys in bulk are written once, straight into a `mapped_array` outside
the malloc heap; only small packed blocks live in the heap.  `gnp` draws its rows a small block at a
time, so program code never holds an n x n bool matrix.  This module is the
only one that knows that format or reads a graph's store.  All randomness
flows through numpy's Philox generator so that identical seeds reproduce
identical graphs everywhere.
"""

from __future__ import annotations

import heapq
import mmap
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "PackedCopy",
    "PairLabels",
    "VertexSet",
    "Labelling",
    "rng_for",
    "iter_bits",
    "mask_of",
    "bit_positions",
    "row_mask_counts",
    "unpack_rows",
    "mapped_array",
    "gnp",
    "paley",
    "bandwidth_of_labelling",
    "degeneracy_order",
    "write_graph_file",
    "read_graph_file",
    "parse_graph_text",
    "StageError",
]


class StageError(RuntimeError):
    """A pipeline stage failed; `stage`, when set, names the step inside it that broke."""

    def __init__(self, stage: str | None, message: str):
        super().__init__(f"[{stage}] {message}" if stage else message)
        self.stage = stage


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); the single PRNG used package-wide."""
    return np.random.Generator(np.random.Philox(key=(seed & (2**64 - 1)) * 2**64 + (stream & (2**64 - 1))))


def iter_bits(mask: int):
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_positions(mask: int) -> np.ndarray:
    """Set bit positions of `mask` as an ascending int64 array, the same list that
    `iter_bits` yields, read in one pass over the mask's bytes."""
    buf = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little").view(bool).nonzero()[0]


def unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows in the format of `Graph.packed_rows` as a fresh bool matrix with n columns."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _packed(masks, count: int, words: int) -> np.ndarray:
    """`count` int bitmasks from the iterable `masks` as rows of `words` little-endian
    uint64 words: bit v is bit v % 64 of word v // 64.

    The rows are taken and written one at a time straight into the result, so
    that no more than one row's bytes are held besides it.  A result of more
    than 64 * (words - 1) rows, as many as a graph that wide has vertices, is
    a `mapped_array`; fewer rows, such as a vertex subset's or a few masks',
    are in the heap.
    """
    width = 8 * words
    whole = count > 64 * (words - 1)
    out = (mapped_array if whole else np.empty)(count * width, np.uint8)
    buf = out.data
    for i, m in enumerate(masks):
        buf[i * width:(i + 1) * width] = m.to_bytes(width, "little")
    return out.view("<u8").reshape(count, words)


def _bool_words(flags: np.ndarray, words: int) -> np.ndarray:
    """Rows of bools as fresh rows of `words` little-endian uint64 words, flag v
    at bit v % 64 of word v // 64."""
    out = np.zeros((len(flags), 8 * words), dtype=np.uint8)
    packed = np.packbits(flags, axis=1, bitorder="little")
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def mapped_array(count: int, dtype) -> np.ndarray:
    """A writable zeroed array of `count` items of `dtype` in an anonymous memory
    map of its own, unmapped when the array dies.  A page of it takes memory
    only once written, so a buffer sized for every edge key costs only the
    keys put in it.  Every graph-sized buffer is one: kept and copied packed
    rows, the rows that `gnp` and `parse_graph_text` fill, and bulk edge keys.
    A buffer of n^2/8 bytes in the malloc heap would leave a hole there once
    freed, which later allocations grow around."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype=dtype, count=count)


def row_mask_counts(rows: np.ndarray, masks) -> np.ndarray:
    """D[i, c] = |rows[i] & masks[c]| as a signed int32 array, for rows in the format
    of `Graph.packed_rows` and int bitmasks `masks` over the same vertices.

    Each block of rows meets every mask in one broadcast AND of at most about
    `_COUNT_BLOCK` words.
    """
    cols = _packed(masks, len(masks), rows.shape[1])
    table = np.empty((len(rows), len(cols)), dtype=np.int32)
    step = max(1, _COUNT_BLOCK // max(1, cols.size))
    for i in range(0, len(rows), step):
        table[i:i + step] = np.bitwise_count(rows[i:i + step, None, :] & cols).sum(axis=2, dtype=np.int32)
    return table


# Rows of a vertex list that `Graph.degree_table` reads at once, and the edge
# keys that `PackedCopy.delete` clears, or the words whose keys
# `PackedCopy.read_labels` lists, in one step
_ROW_BLOCK = 512
_KEY_BLOCK = 1 << 16
# Rows that `gnp` and `PairLabels` draw at once: one word of columns, so that
# a block's transpose is a row of 64 x 64 bit tiles
_GNP_ROWS = 64
# Binary digits of p that `gnp` compares with uniform words before a pair
# still undecided takes a double
_GNP_DIGITS = 8
# _ABOVE[i] keeps the bits above bit i: row i of a tile's strict upper triangle
_ABOVE = np.array([(2**64 - 1) ^ (2 ** (i + 1) - 1) for i in range(64)], dtype=np.uint64)
# The three swap rounds of an 8 x 8 bit transpose of a word whose byte i is
# row i: round (s, keep) swaps each kept bit with the bit s above it
_SWAPS = [(np.uint64(s), np.uint64(keep)) for s, keep in
          ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))]
# Rows that `PackedCopy.edge_key_blocks` unpacks at once: few, so that a
# block's keys stay small
_KEY_ROWS = 64
# uint64 words of the rows-by-masks AND that `row_mask_counts` holds at once
_COUNT_BLOCK = 1 << 16
# _CLEAR_BIT[b] is a byte with every bit but b set
_CLEAR_BIT = np.array([0xFF ^ (1 << b) for b in range(8)], dtype=np.uint8)


class VertexSet:
    """Immutable vertex subset of [n], backed by an int bitmask with cached size."""

    __slots__ = ("n", "mask", "_size")

    def __init__(self, n: int, mask: int):
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside [n]")
        self.n = n
        self.mask = mask
        self._size = mask.bit_count()

    @classmethod
    def from_iter(cls, n: int, vertices) -> "VertexSet":
        return cls(n, mask_of(vertices))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def __iter__(self):
        return iter_bits(self.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask & other.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask | other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask & ~other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.mask ^ other.mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, size={self._size})"

    def to_list(self) -> list[int]:
        return bit_positions(self.mask).tolist()


class Graph:
    """Immutable undirected graph on vertices 0..n-1 that holds its adjacency in
    exactly one store.

    A graph built from rows or from masks (`gnp`, `paley`, `parse_graph_text`,
    `PackedCopy.graph()`, `Graph(n, masks)`) keeps its packed rows, read-only,
    in a `mapped_array`.  A graph built by `from_edges` (a guest, a reduced or
    a cluster graph) keeps each vertex's neighbours as an ascending tuple
    instead.  Every reader works on either store; `neighbours` builds the int
    bitmask of one row on each call, and no graph keeps one.
    """

    __slots__ = ("n", "_m", "_rows", "_nbrs")

    def __init__(self, n: int, masks):
        if len(masks) != n:
            raise ValueError("adjacency length mismatch")
        self._hold(n, _packed(masks, n, (n + 63) // 64), None)

    def _hold(self, n: int, rows: np.ndarray | None, nbrs: tuple[tuple[int, ...], ...] | None) -> None:
        """Take `rows`, which become read-only, or else the tuples `nbrs` as the store."""
        self.n, self._rows, self._nbrs = n, rows, nbrs
        if rows is None:
            self._m = sum(map(len, nbrs)) // 2
        else:
            rows.flags.writeable = False
            blocks = range(0, n, _ROW_BLOCK)
            self._m = sum(int(np.bitwise_count(rows[i:i + _ROW_BLOCK]).sum()) for i in blocks) // 2

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> "Graph":
        """The graph that keeps `rows`, n rows in the format of `packed_rows`."""
        g = cls.__new__(cls)
        g._hold(len(rows), rows, None)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside [0,{n})")
            nbrs[u].append(v)
            nbrs[v].append(u)
        g = cls.__new__(cls)
        g._hold(n, None, tuple(tuple(sorted(set(a))) for a in nbrs))
        return g

    def neighbours(self, v: int) -> int:
        """N(v) as an int bitmask, built afresh from the graph's store."""
        if self._rows is None:
            return mask_of(self._nbrs[v])
        return int.from_bytes(self._rows[v].tobytes(), "little")

    def neighbour_list(self, v: int) -> tuple[int, ...]:
        """N(v) as an ascending tuple: the kept one of a graph built by `from_edges`,
        else listed afresh from v's row."""
        return self._nbrs[v] if self._nbrs is not None else tuple(iter_bits(self.neighbours(v)))

    def neighbour_lists(self) -> tuple[tuple[int, ...], ...]:
        """`neighbour_list(v)` for every v."""
        return self._nbrs if self._nbrs is not None else tuple(map(self.neighbour_list, range(self.n)))

    @property
    def adj(self) -> tuple[int, ...]:
        """`neighbours(v)` for every v, built afresh on each access."""
        return tuple(map(self.neighbours, range(self.n)))

    def packed_rows(self, vertices=None) -> np.ndarray:
        """Row i is N(vertices[i]) as ceil(n/64) little-endian uint64 words, bit v in
        word v // 64; `vertices` defaults to all of them in order.

        A graph that keeps rows returns them, read-only, for all vertices, and a
        fresh array sliced from them for a list.  A graph built by `from_edges`
        packs a fresh array from its tuples on each call.
        """
        if self._rows is None:
            vs = range(self.n) if vertices is None else vertices
            return _packed((mask_of(self._nbrs[v]) for v in vs), len(vs), (self.n + 63) // 64)
        return self._rows if vertices is None else self._rows[np.asarray(vertices, dtype=np.intp)]

    def degree_table(self, masks, vertices=None) -> np.ndarray:
        """D[i, c] = |N(vertices[i]) & masks[c]| as an int32 array, one row per vertex
        (all of them in order by default) and one column per mask.

        The rows of `vertices` are read `_ROW_BLOCK` at a time (see
        `packed_rows`), so no copy of all of them is held beside kept rows.
        """
        if vertices is None:
            return row_mask_counts(self.packed_rows(), masks)
        vs = np.asarray(vertices, dtype=np.intp)
        blocks = [vs[i:i + _ROW_BLOCK] for i in range(0, len(vs), _ROW_BLOCK)] or [vs]
        return np.concatenate([row_mask_counts(self.packed_rows(block), masks) for block in blocks])

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self._nbrs[v]) if self._nbrs is not None else self.neighbours(v).bit_count()

    def min_degree(self) -> int:
        return min(self.degree_table([(1 << self.n) - 1])[:, 0].tolist(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """Is uv an edge?  A graph that keeps rows reads one word of u's row."""
        return v in self._nbrs[u] if self._nbrs is not None else bool(self._rows.item(u, v >> 6) >> (v & 63) & 1)

    def edges(self):
        """Each edge once as (u, v) with u < v, ascending by u, then by v."""
        for u in range(self.n):
            for v in self.neighbour_list(u):
                if v > u:
                    yield (u, v)

    def without_edges(self, edges) -> "Graph":
        """This graph less the edges (u, v) in `edges`, deleted on a `PackedCopy`;
        an absent edge is skipped.  Raises ValueError for an end outside [0, n)."""
        ends = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if ((ends < 0) | (ends >= self.n)).any():
            raise ValueError(f"edge end outside [0, {self.n})")
        edit = PackedCopy(self)
        edit.delete(ends[:, 0] * self.n + ends[:, 1])
        return edit.graph()

    def common_neighbourhood(self, vertices, within: int | None = None) -> int:
        m = (1 << self.n) - 1 if within is None else within
        for v in vertices:
            m &= self.neighbours(v)
        return m

    def closed_neighbourhood(self, mask: int) -> int:
        """The vertices of `mask` and every neighbour of them, as a mask."""
        for v in iter_bits(mask):
            mask |= self.neighbours(v)
        return mask

    def bfs_distances(self, sources, limit: int | None = None) -> list[int]:
        """BFS distance from a source set; -1 for unreached (or beyond `limit`)."""
        dist = [-1] * self.n
        frontier = []
        for s in sources:
            if dist[s] == -1:
                dist[s] = 0
                frontier.append(s)
        d = 0
        while frontier and (limit is None or d < limit):
            d += 1
            nxt = []
            for u in frontier:
                for w in self.neighbour_list(u):
                    if dist[w] == -1:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.packed_rows(), other.packed_rows())

    def __hash__(self) -> int:
        return hash((self.n, self._m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


class PackedCopy:
    """A writable packed copy of a graph's rows: edges are listed from it and
    deleted in it by key u * n + v or by label (see `PairLabels`), and
    `graph()` is the graph of its rows, which it hands over.

    The copy is written once into a `mapped_array` of its own, from the
    graph's `packed_rows()`.  Until `graph()`, its edges are the bits of the
    upper triangle, u < v: listing reads those alone and deleting clears
    those alone, and `graph()` rebuilds the lower triangle from them.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, g: Graph):
        self.n = g.n
        source = g.packed_rows()
        rows = mapped_array(source.size, source.dtype).reshape(source.shape)
        rows[...] = source
        self._rows = rows.view(np.uint8)

    def edge_key_blocks(self, vertices=None):
        """Yield the edges {u, v} with u < v of the subgraph induced on `vertices`
        (ascending and distinct; all of [n] by default) as int64 keys u * n + v,
        ascending, one array for each `_KEY_ROWS` rows of `vertices`, whose
        rows are ANDed with the packed mask of `vertices` and unpacked."""
        n = self.n
        vs = np.arange(n) if vertices is None else np.asarray(vertices, dtype=np.int64)
        mask = _bool_words(np.isin(np.arange(n), vs)[None], self._rows.shape[1] // 8)[0].view(np.uint8)
        for i0 in range(0, len(vs), _KEY_ROWS):
            us = vs[i0:i0 + _KEY_ROWS]
            block = unpack_rows(self._rows[us] & mask, n)
            for i, u in enumerate(us.tolist()):
                block[i, :u + 1] = False  # keep the columns v > u
            hit = np.flatnonzero(block)
            if vertices is None:
                hit += i0 * n
            else:  # row i's hits i * n + v are the keys u * n + v for u = us[i]
                ends = np.searchsorted(hit, np.arange(len(us) + 1) * n)
                hit += np.repeat((us - np.arange(len(us))) * n, np.diff(ends))
            yield hit

    def read_labels(self, labels: PairLabels, live: np.ndarray, classes, jobs) -> list:
        """Serve `jobs` in one read of `labels`, each over the copy's edges {u, v}
        whose ends are both `live` (a bool per vertex) and, when `classes` (an
        int per vertex) is given, in one class.  A job (label, safe, out)
        covers those edges with `label`:

        - With `safe` None, it counts them: its result is D[v], the number at
          each vertex, from word popcounts along each block's rows and along
          the rows of its transpose (`_columns`).
        - Otherwise it deletes those whose two ends are `safe` (a bool per
          vertex), clearing words, and writes the keys u * n + v (u < v) of
          the others over the front of `out`, in no set order; its result is
          their number.
        """
        n, rows = self.n, self._rows.view("<u8")
        group = np.where(live, 0 if classes is None else classes, -1)
        # partners[c] packs class c's live vertices; the last row, which a
        # vertex not live picks by its group -1, is empty.  Every pair is
        # between partners when all vertices are live in one class.
        flags = group[None] == np.arange(int(group.max()) + 2)[:, None]
        flags[-1] = False
        partners = None if flags[0].all() else _bool_words(flags, rows.shape[1])
        safe_words = [_bool_words(safe[None], rows.shape[1])[0] if safe is not None and safe.any() else None
                      for _, safe, _ in jobs]
        results = [np.zeros(n, dtype=np.int64) if safe is None else 0 for _, safe, _ in jobs]
        found = [[] for _ in jobs]  # each take job's words not yet listed, with the key of their bit 0
        pending = [0] * len(jobs)
        for u0, w0, pairs, digits in labels.blocks():
            at = slice(u0, u0 + len(pairs))
            pairs &= rows[at, w0:]
            if partners is not None:
                pairs &= partners[group[at], w0:]
            for i, (label, safe, out) in enumerate(jobs):
                block = labels.select(pairs, digits, label)
                if safe is None:
                    results[i][at] += np.bitwise_count(block).sum(axis=1, dtype=np.int64)
                    results[i][u0:] += np.bitwise_count(_columns(block)[:n - u0])
                    continue
                if safe_words[i] is not None:
                    keep = ~(block & np.where(safe[at, None], safe_words[i][w0:], np.uint64(0)))
                    rows[at, w0:] &= keep
                    block &= keep
                hit = np.flatnonzero(block)
                row, word = np.divmod(hit, block.shape[1])
                found[i].append((block.ravel()[hit], (u0 + row) * n + 64 * (w0 + word)))
                pending[i] += len(hit)
                if pending[i] >= _KEY_BLOCK:
                    results[i], pending[i] = _write_keys(found[i], out, results[i]), 0
        return [r if safe is None else _write_keys(f, out, r) for r, f, (_, safe, out) in zip(results, found, jobs)]

    def delete(self, keys) -> None:
        """Clear each edge {u, v} of the keys u * n + v (ends in [0, n), in either
        order) at its bit in the upper triangle, `_KEY_BLOCK` keys at a time;
        an absent edge is skipped.  Keys in ascending order walk the rows in
        order.  Raises ValueError after `graph()`."""
        if not self._rows.flags.writeable:  # `ufunc.at` would write them regardless
            raise ValueError("the rows are read-only: graph() has handed them over")
        width = self._rows.shape[1]
        flat = self._rows.reshape(-1)
        for at in range(0, len(keys), _KEY_BLOCK):
            u, v = np.divmod(keys[at:at + _KEY_BLOCK].astype(np.int64), self.n)
            u, v = np.minimum(u, v), np.maximum(u, v)
            np.bitwise_and.at(flat, u * width + (v >> 3), _CLEAR_BIT[v & 7])

    def graph(self) -> Graph:
        """The graph of the rows as they stand, which keeps them as its packed
        rows.  The first call rebuilds each block's lower triangle from its
        upper one (`_columns`) and makes the rows read-only, so the copy
        deletes nothing after this."""
        n, rows = self.n, self._rows.view("<u8")
        if self._rows.flags.writeable:
            for u0, w0, upper in _upper_blocks(n):
                upper &= rows[u0:u0 + len(upper), w0:]
                keep = np.zeros(n - u0, dtype=np.uint64)  # the block's own upper bits in word w0
                keep[:len(upper)] = _ABOVE[:len(upper)]
                rows[u0:, w0] = rows[u0:, w0] & keep | _columns(upper)[:n - u0]
            self._rows.flags.writeable = False
        return Graph._of_rows(rows)


@dataclass(frozen=True)
class Labelling:
    """Bijection position -> vertex, with the inverse map cached."""

    order: tuple[int, ...]
    pos: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.order)
        pos = [-1] * n
        for p, v in enumerate(self.order):
            if not (0 <= v < n) or pos[v] != -1:
                raise ValueError("labelling is not a permutation")
            pos[v] = p
        object.__setattr__(self, "pos", tuple(pos))

    @classmethod
    def identity(cls, n: int) -> "Labelling":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.order)


def _compare_digits(digits, words, undecided: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms U compared with p one binary digit at a time, top digit first.

    `digits` are p's leading binary digits and `words[i]` holds digit i of a U
    at each bit; a set bit of `undecided` is a U still to compare.  U < p
    exactly when, at the first digit where the two differ, U's is 0 and p's is
    1.  Returns the bits found below p, and the bits whose digits all equal
    p's, still undecided.
    """
    edge = np.zeros_like(undecided)
    for digit, u in zip(digits, words):
        if digit:
            edge |= undecided & ~u
            undecided = undecided & u
        else:
            undecided = undecided & ~u
    return edge, undecided


def _upper_blocks(n: int):
    """Yield (u0, w0, upper) for each block of `_GNP_ROWS` = 64 rows u0.. below
    n - 1: `upper` is a fresh array of the block's rows of packed words from
    word w0 = u0 // 64 onwards, with the bits of the pairs u < v < n set."""
    words = (n + 63) // 64
    last = np.uint64(2 ** (n - 64 * (words - 1)) - 1)
    for u0 in range(0, n - 1, _GNP_ROWS):
        w0 = u0 // 64
        upper = np.full((min(u0 + _GNP_ROWS, n - 1) - u0, words - w0), ~np.uint64(0))
        upper[:, 0] &= _ABOVE[:len(upper)]
        upper[:, -1] &= last
        yield u0, w0, upper


def _columns(block: np.ndarray) -> np.ndarray:
    """The transpose of `block`, at most 64 rows of packed words: word c of the
    result holds bit c of the block's row i at bit i, for every column c.

    Each 64 x 64 tile is cut into 8 x 8 bit squares, one word each with byte
    i the square's row i; the squares are transposed by three swap rounds,
    and their bytes regrouped into the words of the columns.
    """
    width = block.shape[1]
    tiles = np.zeros((64, width), dtype="<u8")
    tiles[:len(block)] = block
    # byte k of row 8 * g + i, in column word j, is byte i of square (j, k, g)
    squares = tiles.view(np.uint8).reshape(8, 8, width, 8).transpose(2, 3, 0, 1).copy().view("<u8")
    for s, keep in _SWAPS:
        swap = (squares ^ (squares >> s)) & keep
        squares ^= swap ^ (swap << s)
    # byte c of square (j, k, g) is byte g of column 64 * j + 8 * k + c
    return squares.view(np.uint8).reshape(width, 8, 8, 8).transpose(0, 1, 3, 2).copy().view("<u8").ravel()


class PairLabels:
    """A label in [0, 2^digits) for each pair u < v of [n]: `digits` uniform
    binary digits, top digit first, read from the raw words of a generator in
    `gnp`'s block layout.  For each block of `_GNP_ROWS` = 64 rows u0.. below
    n - 1, digit i takes one raw word per row and per word of columns from
    the block's diagonal word onwards, row by row; bit v % 64 of the word of
    (u, v // 64) is the pair's digit.

    The labels are never held: each read draws them again, a block at a time,
    from the state that the generator had when this was made, and leaves the
    generator after the last block.
    """

    __slots__ = ("n", "digits", "_bits", "_state")

    def __init__(self, n: int, rng: np.random.Generator, digits: int):
        self.n, self.digits = n, digits
        self._bits = rng.bit_generator
        self._state = self._bits.state

    def blocks(self):
        """Yield (u0, w0, pairs, digits) for each block, as `_upper_blocks` yields
        (u0, w0, pairs), with the block's digit words in digit order."""
        self._bits.state = self._state
        for u0, w0, pairs in _upper_blocks(self.n):
            yield u0, w0, pairs, [self._bits.random_raw(pairs.shape) for _ in range(self.digits)]

    def select(self, pairs: np.ndarray, digits, label: int) -> np.ndarray:
        """A fresh array of the bits of `pairs` whose label, read from a block's
        `digits` (at least one), is `label`."""
        out = pairs
        for i, raw in enumerate(digits):
            out = out & (raw if label >> (self.digits - 1 - i) & 1 else ~raw)
        return out


def _write_keys(found: list, out: np.ndarray, count: int) -> int:
    """Write the keys of `found`, pairs (words, base) of packed words and the key
    of bit 0 of each, over `out` from `count` on, in no set order, and empty
    `found`; return the new count.  Each round takes the lowest set bit of
    every word still nonzero."""
    words = np.concatenate([w for w, _ in found] + [np.zeros(0, dtype=np.uint64)])
    base = np.concatenate([b for _, b in found] + [np.zeros(0, dtype=np.int64)])
    found.clear()
    while len(words):
        low = words & (~words + np.uint64(1))
        out[count:count + len(low)] = base + np.bitwise_count(low - np.uint64(1))
        count += len(low)
        words ^= low
        more = words != 0
        words, base = words[more], base[more]
    return count


def gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each unordered pair is an edge independently with probability p.

    A pair is an edge when a uniform U is below p, found by comparing binary
    digits (Knuth and Yao): one uniform word gives a digit of 64 pairs.  After
    p's first `_GNP_DIGITS` = 8 digits, a pair still undecided (a 2^-8 share)
    takes one double, and is an edge when the double is below the remainder
    p * 2^8 - floor(p * 2^8).  So the law is exactly Bernoulli(p), up to the
    rounding of that remainder to a double.  A p whose remainder is 0, such as
    1/2, stops after its last 1-digit and draws no double; p = 0 and p = 1
    draw nothing.

    The stream of `rng_for(seed, 0)` is read a block of `_GNP_ROWS` = 64 rows
    at a time, in order.  Each of a block's digits takes one raw word per row
    and per word of columns from the block's diagonal word onwards, row by
    row; then each undecided pair in the strict upper triangle takes one
    double, in order of row, then column.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    words = (n + 63) // 64
    rows = mapped_array(n * words, "<u8").reshape(n, words)
    if p > 0.0 and n > 1:
        top, rest = divmod(p * 2**_GNP_DIGITS, 1.0)
        digits = [int(top) >> i & 1 for i in range(_GNP_DIGITS - 1, -1, -1)]
        if rest == 0.0 and p < 1.0:
            digits = digits[:len(digits) - digits[::-1].index(1)]
        rng = rng_for(seed, 0)
        for u0, w0, undecided in _upper_blocks(n):
            if p == 1.0:
                edge = undecided
            else:
                raw = (rng.bit_generator.random_raw(undecided.shape) for _ in digits)
                edge, undecided = _compare_digits(digits, raw, undecided)
                if rest:
                    at = np.flatnonzero(undecided)
                    bits = np.unpackbits(undecided.ravel()[at].astype("<u8").view(np.uint8), bitorder="little")
                    bits = bits.view(bool).reshape(-1, 64)
                    bits[bits] = rng.random(np.count_nonzero(bits)) < rest
                    edge.ravel()[at] |= np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel()
            rows[u0:u0 + len(edge), w0:] |= edge
            rows[u0:, w0] |= _columns(edge)[:n - u0]
    return Graph._of_rows(rows)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def paley(q: int) -> Graph:
    """Paley graph on GF(q): u ~ v iff u - v is a nonzero quadratic residue mod q.

    Requires q prime with q = 1 (mod 4) so that the residue relation is symmetric;
    the result is (q-1)/2-regular.
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError("paley requires a prime q with q = 1 (mod 4)")
    # row u is the residue mask rotated left by u within q bits
    full = (1 << q) - 1
    res = mask_of({(x * x) % q for x in range(1, q)})
    return Graph(q, tuple(((res << u) | (res >> (q - u))) & full for u in range(q)))


def bandwidth_of_labelling(g: Graph, l: Labelling) -> int:
    """Maximum position stretch over edges; 0 for edgeless graphs."""
    if len(l) != g.n:
        raise ValueError("labelling size mismatch")
    pos = l.pos
    best = 0
    for u, v in g.edges():
        s = abs(pos[u] - pos[v])
        if s > best:
            best = s
    return best


def degeneracy_order(g: Graph) -> tuple[Labelling, int]:
    """Greedy min-degree removal order and its degeneracy.

    A binary heap of (degree, vertex) entries, so ties break on the smallest
    vertex id; a vertex whose degree drops is pushed again, and its older
    entries are skipped as stale when popped.  The returned d is the maximum
    degree a vertex has into the not-yet-removed set at its removal time, so
    every vertex has at most d neighbours that are removed after it.
    """
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue  # stale entry
        order.append(v)
        removed[v] = True
        d = max(d, dv)
        for w in g.neighbour_list(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return Labelling(tuple(order)), d


def write_graph_file(g: Graph) -> str:
    """Serialise to the text format: `graph <n> <m>` then one `<u> <v>` line per edge."""
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """The graph of a text in `write_graph_file`'s format.

    Raises ValueError for the first fault in file order: a missing or
    malformed header, an edge line count other than m, or the first edge line
    that is not two integers, is a self-loop, breaks 0 <= u < v < n or
    repeats an edge.  The edges are set straight into packed rows.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("graph "):
        raise ValueError("missing graph header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError("malformed graph header")
    n, m = int(parts[1]), int(parts[2])
    if n < 0:
        raise ValueError("malformed graph header")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen = set()  # edge keys u * n + v
    for ln in lines[1:]:
        us, vs = ln.split()
        u, v = int(us), int(vs)
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
        key = u * n + v
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
    return _graph_of_keys(n, np.fromiter(seen, dtype=np.int64, count=len(seen)))


def _graph_of_keys(n: int, keys: np.ndarray) -> Graph:
    """The graph on [n] with the edges {u, v} of the keys u * n + v, set as bits of packed rows."""
    words = (n + 63) // 64
    rows = mapped_array(n * words, "<u8").reshape(n, words)
    width = 8 * words
    flat = rows.view(np.uint8).reshape(-1)
    u, v = np.divmod(keys, n)
    np.bitwise_or.at(flat, u * width + (v >> 3), ~_CLEAR_BIT[v & 7])
    np.bitwise_or.at(flat, v * width + (u >> 3), ~_CLEAR_BIT[u & 7])
    return Graph._of_rows(rows)


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph_text(fh.read())
