"""Exhaustive clique-immersion search on small graphs.

This is the ground-truth referee for the constructive engines: simple,
independent of them, and exponential, so it admits only small graphs.  A
found immersion is returned as a certificate and re-verified before leaving;
a ``None`` answer is a proof of absence; running out of budget raises
``BudgetExceeded`` (which is *not* a "no").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certificates import ImmersionCertificate, Pair, Walk, verify_certificate
from .errors import BudgetExceeded, PreconditionError
from .graphs import Graph, bits, mask_of


@dataclass(frozen=True)
class OracleBudget:
    """Hard limits for the exhaustive search."""

    max_n: int = 10
    max_t: int = 6
    max_nodes: int = 2_000_000


def _reachable(u: int, v: int, bmask: int, free: list[int]) -> bool:
    """Can u still reach v through free edges and non-branch interiors?"""
    seen = frontier = 1 << u
    while frontier:
        reach = 0
        for x in bits(frontier):
            reach |= free[x]
        if reach >> v & 1:
            return True
        frontier = reach & ~(seen | bmask)
        seen |= frontier
    return False


def brute_force_immersion(g: Graph, t: int, budget: OracleBudget | None = None,
                          within: int | None = None) -> ImmersionCertificate | None:
    """Find a K_t immersion certificate, or prove there is none, in the
    subgraph induced on the vertices of the mask ``within`` (host ids;
    default all).  The certificate is over g; the budget's ``max_n`` counts
    the vertices of ``within``.

    Branch sets are enumerated lexicographically over vertices of degree at
    least t-1 (every branch vertex needs t-1 edge-disjoint escapes).  For a
    fixed branch set, adjacent pairs take their own edge -- sound with no loss
    of generality, because a branch-branch edge cannot appear inside any other
    pair's path (its endpoints would be interior branch vertices).  Remaining
    pairs are tackled fewest-connections-first, each by lexicographic DFS over
    simple paths with non-branch interiors and unused edges.
    """
    budget = budget or OracleBudget()
    within = g.vertex_mask if within is None else within
    n = within.bit_count()
    if n > budget.max_n:
        raise PreconditionError(f"oracle limited to n <= {budget.max_n}, got {n}")
    if t > budget.max_t:
        raise PreconditionError(f"oracle limited to t <= {budget.max_t}, got {t}")
    if t < 0:
        raise ValueError(f"negative clique order {t}")
    if t <= 1:
        if n < t:
            return None
        return ImmersionCertificate(g.sha256(), tuple(bits(within))[:t], {})

    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExceeded(
                f"immersion search for t={t} exceeded {budget.max_nodes} nodes")

    # adj[v]: v's neighbours inside ``within``; empty for v outside it.
    adj = [row & within if within >> v & 1 else 0 for v, row in enumerate(g.adj)]
    candidates = [v for v in bits(within) if adj[v].bit_count() >= t - 1]
    if len(candidates) < t:
        return None
    for branch in combinations(candidates, t):
        cert = _with_branch(g, adj, branch, tick)
        if cert is not None:
            verdict = verify_certificate(g, cert)
            if not verdict.ok:
                raise AssertionError(f"oracle produced a bad certificate: {verdict}")
            return cert
    return None


def _with_branch(g: Graph, adj: list[int], branch: tuple[int, ...], tick
                 ) -> ImmersionCertificate | None:
    bmask = mask_of(branch)
    paths: dict[Pair, Walk] = {}
    free = list(adj)  # free[x]: neighbours of x over edges no path uses yet
    todo: list[Pair] = []
    for u, v in combinations(branch, 2):
        if adj[u] >> v & 1:
            paths[(u, v)] = (u, v)
            free[u] ^= 1 << v
            free[v] ^= 1 << u
        else:
            todo.append((u, v))
    todo.sort(key=lambda p: ((adj[p[0]] & adj[p[1]] & ~bmask).bit_count(), p))

    def solve(i: int) -> bool:
        if i == len(todo):
            return True
        u, v = todo[i]
        if not _reachable(u, v, bmask, free):
            return False
        vbit = 1 << v
        walk = [u]

        def extend(x: int, onpath: int) -> bool:
            tick()
            for y in bits(free[x] & (vbit | ~(bmask | onpath))):
                free[x] ^= 1 << y
                free[y] ^= 1 << x
                walk.append(y)
                if y == v:
                    paths[(u, v)] = tuple(walk)
                    if solve(i + 1):
                        return True
                    del paths[(u, v)]
                elif extend(y, onpath | 1 << y):
                    return True
                walk.pop()
                free[x] ^= 1 << y
                free[y] ^= 1 << x
            return False

        return extend(u, 1 << u)

    if solve(0):
        return ImmersionCertificate(g.sha256(), branch, dict(paths))
    return None


def max_immersion_order(g: Graph,
                        budget: OracleBudget | None = None
                        ) -> tuple[int, ImmersionCertificate]:
    """Largest t (capped at the budget) with a K_t immersion, plus certificate.

    Searches downward from the cap, so the first t found is the maximum: a
    K_t immersion trims to a K_{t-1} immersion.  The budget applies to each
    level.  A level that runs out of budget is passed over, but a found t
    stands only if t is the cap or t+1 was proved absent; otherwise t+1's
    ``BudgetExceeded`` is raised.  So wherever an ascending search answers,
    this one gives the same order and certificate.
    """
    budget = budget or OracleBudget()
    pending: BudgetExceeded | None = None  # level t+1 ran out of budget
    for t in range(min(budget.max_t, g.n), 0, -1):
        try:
            cert = brute_force_immersion(g, t, budget)
        except BudgetExceeded as exc:
            pending = exc
            continue
        if cert is not None:
            if pending is not None:
                raise pending
            return t, cert
        pending = None
    return 0, ImmersionCertificate(g.sha256(), (), {})
