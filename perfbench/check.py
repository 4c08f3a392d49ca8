"""Independent check of one pipeline call's output.

It tests properties every successful embedding must have, using nothing from
spanembed but each graph's vertex count `n` and its neighbour bitmasks
`neighbours(v)`:

- phi is a bijection V(H) -> V(G) and maps every edge of H onto an edge of G;
- G is a subgraph of the host, and delta(G) >= ((k-1)/k + gamma) p n;
- a Paley host is the quadratic-residue relation mod q, computed here by
  Euler's criterion; a G(n, p) host has an edge count within 6 sigma of
  p C(n, 2);
- H is a connected 2-regular graph for `hamilton_cycle`, and a tree of
  maximum degree at most D for `bounded_tree:D`.

`Capture` records H, G, the host and phi of a `run_pipeline` call by wrapping
`make_guest`, `adversary_delete` and `embed` as `spanembed.harness` sees them.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from unittest import mock


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rows(g) -> list[int]:
    return [g.neighbours(v) for v in range(g.n)]


def _is_simple(rows: list[int]) -> bool:
    n = len(rows)
    return all(not (m >> n) and not ((m >> v) & 1) for v, m in enumerate(rows))


def _connected(rows: list[int]) -> bool:
    seen = 1
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            fresh = rows[u] & ~seen
            seen |= fresh
            nxt.extend(_bits(fresh))
        frontier = nxt
    return seen == (1 << len(rows)) - 1


def check_embedding(guest, g, phi: dict[int, int]) -> list[str]:
    """Problems with phi as a spanning embedding of `guest` into `g`."""
    n = guest.n
    if g.n != n:
        return [f"guest has {n} vertices, G has {g.n}"]
    if set(phi) != set(range(n)):
        return [f"phi is defined on {len(phi)} of {n} guest vertices"]
    if sorted(phi.values()) != list(range(n)):
        return ["phi is not a bijection onto V(G)"]
    g_rows = _rows(g)
    broken = sum(
        1
        for u, m in enumerate(_rows(guest))
        for v in _bits(m >> (u + 1))
        if not (g_rows[phi[u]] >> phi[u + 1 + v]) & 1
    )
    return [f"{broken} guest edges map onto non-edges of G"] if broken else []


def check_host(cfg, host, g) -> list[str]:
    """Problems with the host and with G, the host after the adversary."""
    n, p = cfg.n, cfg.p
    if host.n != n or g.n != n:
        return [f"host has {host.n} and G {g.n} vertices, config n={n}"]
    host_rows, g_rows = _rows(host), _rows(g)
    out = []
    if not (_is_simple(host_rows) and _is_simple(g_rows)):
        out.append("host or G has a loop or a vertex outside [0, n)")
    if any(gm & ~hm for gm, hm in zip(g_rows, host_rows)):
        out.append("G has an edge that is not in the host")
    floor = ((cfg.k - 1) / cfg.k + cfg.gamma) * p * n
    min_deg = min(m.bit_count() for m in g_rows)
    if min_deg < floor - 1e-9:
        out.append(f"delta(G)={min_deg} < {floor:.1f}")
    if cfg.paley_q is not None:
        q = cfg.paley_q
        residues = 0
        for x in range(1, q):
            if pow(x, (q - 1) // 2, q) == 1:
                residues |= 1 << x
        full = (1 << q) - 1
        wrong = sum(
            1
            for u, m in enumerate(host_rows)
            if m != ((residues << u) | (residues >> (q - u))) & full
        )
        if wrong:
            out.append(f"{wrong} host rows differ from the quadratic residues mod {q}")
    else:
        pairs = n * (n - 1) / 2
        edges = sum(m.bit_count() for m in host_rows) / 2
        sigma = math.sqrt(pairs * p * (1 - p))
        if abs(edges - p * pairs) > 6 * sigma:
            out.append(f"host has {edges:.0f} edges, outside p C(n,2) +- 6 sigma")
    return out


def check_guest(family: str, guest) -> list[str]:
    """Problems with the guest's shape for its family."""
    rows = _rows(guest)
    if not _is_simple(rows):
        return ["guest has a loop or a vertex outside [0, n)"]
    degrees = [m.bit_count() for m in rows]
    name, _, arg = family.partition(":")
    if name == "hamilton_cycle":
        ok = all(d == 2 for d in degrees) and _connected(rows)
        return [] if ok else ["guest is not a connected 2-regular graph"]
    if name == "bounded_tree":
        ok = sum(degrees) == 2 * (guest.n - 1) and _connected(rows) and max(degrees) <= int(arg)
        return [] if ok else [f"guest is not a tree of maximum degree at most {arg}"]
    return [f"no shape check for guest family {family!r}"]


class Capture:
    """Records host, G, H and phi of each `run_pipeline` call while installed."""

    def __init__(self, harness):
        self._harness = harness
        self.reset()

    def reset(self):
        self.host = self.g = self.guest = self.phi = None

    def __enter__(self):
        self._stack = ExitStack()
        h = self._harness
        adversary_delete, make_guest, embed = h.adversary_delete, h.make_guest, h.embed

        def captured_adversary_delete(g, *args, **kwargs):
            self.host = g
            self.g = adversary_delete(g, *args, **kwargs)
            return self.g

        def captured_make_guest(*args, **kwargs):
            out = make_guest(*args, **kwargs)
            self.guest = out[0]
            return out

        def captured_embed(*args, **kwargs):
            out = embed(*args, **kwargs)
            self.phi = out.phi
            return out

        for name, fn in (
            ("adversary_delete", captured_adversary_delete),
            ("make_guest", captured_make_guest),
            ("embed", captured_embed),
        ):
            self._stack.enter_context(mock.patch.object(h, name, fn))
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)

    def problems(self, cfg) -> list[str]:
        """Problems with the last call's output; call only after a successful call."""
        if self.phi is None:
            return ["the call returned success without reaching embed"]
        return (
            check_host(cfg, self.host, self.g)
            + check_guest(cfg.guest_family, self.guest)
            + check_embedding(self.guest, self.g, self.phi)
        )
