"""Deterministic random instance families.

All generators are seeded and reproducible across platforms: randomness comes
from a self-contained splitmix64 stream, never from ``random``.  Generators
never self-certify -- every promised property (independence number, planted
induced copies, domination) is re-verified through the analysis module before
an instance is returned, and a broken promise raises instead of returning.
"""

from __future__ import annotations

from typing import Callable

from .analysis import find_hole_in_range, find_induced, independence_number, independent_triple
from .errors import PreconditionError
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    join,
    mask_of,
    path_graph,
    pattern,
)
from .inflation import InflationSpec, cycle_inflation_chromatic, inflate

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: state += 0x9E3779B97F4A7C15; output mixes the new state by
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31 (all mod 2**64)."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform-ish draw from [0, k) by 64-bit multiply-shift."""
        if k <= 0:
            raise ValueError(f"below() needs a positive bound, got {k}")
        return (self.next64() * k) >> 64


# -- independence-number-two graphs ----------------------------------------------


def _triangle_free_fill(rng: Rng, n: int, lo: int = 0,
                        tied: Callable[[int, int], bool] | None = None) -> list[int]:
    """Complement rows over vertices lo..n-1, by rejection at the edge level:
    rng.below(n*n + 1) random pairs, each added unless it is a loop, already
    present, closes a complement triangle or is ``tied`` (stays an edge)."""
    comp = [0] * n
    attempts, size = rng.below(n * n + 1), n - lo
    for _ in range(attempts if size else 0):
        u = lo + rng.below(size)
        v = lo + rng.below(size)
        if u == v or comp[u] >> v & 1 or comp[u] & comp[v] or tied and tied(u, v):
            continue
        comp[u] |= 1 << v
        comp[v] |= 1 << u
    return comp


def _random_alpha2_from(rng: Rng, n: int) -> Graph:
    # alpha(G) <= 2 iff the complement has no triangle.
    comp = _triangle_free_fill(rng, n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~comp[v] & ~(1 << v) for v in range(n)))


def random_alpha2(n: int, seed: int) -> Graph:
    """Random graph with independence number at most 2 (verified)."""
    g = _random_alpha2_from(Rng(seed), n)
    witness = independent_triple(g)
    if witness is not None:
        raise AssertionError(f"generator produced an independent triple {witness}")
    return g


def random_hfree_alpha2(pattern_name: str, n: int, seed: int,
                        max_tries: int = 10_000) -> Graph:
    """Rejection-sample an alpha<=2 graph with no induced copy of the pattern."""
    h = pattern(pattern_name)
    if pattern_name == "K4" and n > 8:
        raise PreconditionError(
            "no K4-free graph with independence number 2 has more than 8 vertices")
    rng = Rng(seed)
    for _ in range(max_tries):
        g = _random_alpha2_from(rng, n)
        if independent_triple(g) is not None:
            raise AssertionError("generator produced an independent triple")
        if find_induced(g, h) is None:
            return g
    raise RuntimeError(
        f"no {pattern_name}-free instance with n={n} in {max_tries} tries")


# -- inflations ---------------------------------------------------------------------


def random_inflation(kind: str, k: int, max_bag: int, seed: int) -> InflationSpec:
    """Random path or cycle inflation sizes satisfying the engine preconditions.

    Bags are drawn uniformly from [1, max_bag]; then the last bag is redrawn
    to be no bigger than any even-position bag, and the first to be no bigger
    than any bag (in that order), which is exactly what the even-path engine
    needs and is harmless for cycles.
    """
    if kind == "path":
        if k < 2 or k % 2 != 0:
            raise ValueError(f"path inflations need an even bag count >= 2, got {k}")
    elif kind == "cycle":
        if k < 3:
            raise ValueError(f"cycle inflations need at least 3 bags, got {k}")
    else:
        raise ValueError(f"unknown inflation kind {kind!r}")
    if max_bag < 1:
        raise ValueError("max_bag must be at least 1")
    rng = Rng(seed)
    sizes = [1 + rng.below(max_bag) for _ in range(k)]
    min_even = min(sizes[j] for j in range(1, k, 2))
    sizes[-1] = 1 + rng.below(min_even)
    sizes[0] = 1 + rng.below(min(sizes))
    base = path_graph(k) if kind == "path" else cycle_graph(k)
    return InflationSpec(base, tuple(sizes))


# -- planted dominating structures ----------------------------------------------------


def _planted_dominating(pattern_name: str, n: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """Plant the pattern on 0..h-1; every outside vertex misses at most one
    pattern vertex; outside graph keeps alpha <= 2 by construction.

    Outside vertices sharing the same missed pattern vertex are forced into a
    clique (two non-adjacent ones plus the missed vertex would be independent),
    and the outside complement is otherwise filled triangle-free, so no
    independent triple survives anywhere.
    """
    h = pattern(pattern_name)
    k = h.n
    if n < k:
        raise ValueError(f"need n >= {k} to plant a {pattern_name}")
    rng = Rng(seed)
    miss = {v: rng.below(k + 1) for v in range(k, n)}  # k means "misses none"

    # Outside vertices missing the same pattern vertex stay a clique.
    comp = _triangle_free_fill(rng, n, k, lambda u, v: miss[u] == miss[v] != k)

    adj = [0] * n
    for i, j in h.edges():
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    outside_mask = mask_of(range(k, n))
    for u in range(k, n):
        row = outside_mask & ~comp[u] & ~(1 << u)
        for i in range(k):
            if miss[u] != i:
                row |= 1 << i
                adj[i] |= 1 << u
        adj[u] = row
    g = Graph(n, tuple(adj))

    # Re-verify every promise through the analysis module.
    triple = independent_triple(g)
    if triple is not None:
        raise AssertionError(f"planted family has independent triple {triple}")
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(i, j) != h.has_edge(i, j):
                raise AssertionError("planted pattern is not induced")
    hmask = mask_of(range(k))
    for i, j in h.edges():
        dominated = g.adj[i] | g.adj[j] | hmask
        if dominated != g.vertex_mask:
            raise AssertionError(f"pattern edge ({i},{j}) does not dominate the rest")
    return g, tuple(range(k))


def dominating_c4_family(n: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """alpha<=2 graph with an induced C4 (returned in cyclic order) whose
    edges all dominate the rest."""
    return _planted_dominating("C4", n, seed)


def dominating_c5_family(n: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    return _planted_dominating("C5", n, seed)


def dominating_p4_family(n: int, seed: int) -> tuple[Graph, tuple[int, ...]]:
    return _planted_dominating("P4", n, seed)


# -- hole-free family with known chromatic number ---------------------------------------


def forbholes_family(alpha: int, seed: int) -> tuple[Graph, dict]:
    """Graph with independence number exactly alpha and no hole of length in
    [4, 2*alpha]: an odd-cycle inflation joined with a clique of universal
    vertices.  The info dict records the construction (ground truth for the
    chromatic number comes from the cycle-inflation DP plus the universals).
    """
    if alpha < 2:
        raise ValueError(f"need alpha >= 2, got {alpha}")
    rng = Rng(seed)
    k = 2 * alpha + 1
    sizes = tuple(1 + rng.below(3) for _ in range(k))
    core, bags = inflate(cycle_graph(k), sizes)
    universal = rng.below(4)
    g = join(core, complete_graph(universal)) if universal else core

    hole = find_hole_in_range(g, 4, 2 * alpha)
    if hole is not None:
        raise AssertionError(f"family instance has a forbidden hole {hole}")
    got_alpha, _ = independence_number(g)
    if got_alpha != alpha:
        raise AssertionError(f"family instance has alpha {got_alpha}, wanted {alpha}")
    chi_core, _ = cycle_inflation_chromatic(sizes)
    info = {
        "alpha": alpha,
        "sizes": list(sizes),
        "universal": universal,
        "chi": chi_core + universal,
    }
    return g, info
