"""Shared test helpers: independent reference implementations.

Everything here re-derives answers by plain enumeration with no pruning or
heuristics, so the package's solvers are checked against a second route
rather than against themselves.  All helpers are exponential and meant for
tiny inputs only.  Two helpers are exceptions: ``count_calls`` counts how
often a structural check runs, and ``ref_max_immersion_order`` is the plain
ascending search over the package oracle's levels, kept to check the budget
rule of its downward search.  ``p4_free_join`` and ``complement_join`` build
the large fixtures on which the peeling routes take many steps.
``ref_verify_certificate`` is a plain verifier over dicts of ordered pairs
and sets of vertices, the referee for every verdict, reason and detail of
``verify_certificate``; ``ref_edges`` / ``ref_to_json`` / ``ref_to_text``
walk the adjacency one bit at a time, the referees for the canonical bytes.
``ref_masked_immersion`` solves a copy of the masked subgraph and relabels
the answer back, the referee for the oracle's ``within`` mask;
``ref_masked_embedding`` does the same for the induced search's.
``ref_auto_token`` restates ``auto_immersion``'s choice of route: the first
4-vertex pattern that ``find_induced`` reports absent, else the oracle.
``ref_find_induced_embedding`` and ``ref_find_hole_in_range`` are the
induced-pattern and hole DFSs searching every vertex of the mask, without
the package's reduction to true-twin class representatives.
``ref_chordal_peo`` and ``ref_peo_max_clique`` are the maximum-cardinality
search by a ``max`` over the unvisited vertices with the PEO checked after
the whole visit, and the clique read off it vertex by vertex.
``ref_matching_number`` is a DP over vertex subsets, the referee for the
blossom matching behind the chromatic number at independence <= 2.
``ref_certificate_to_json`` and ``ref_inflation_to_json`` build each
document as dicts and lists and let ``json.dumps`` write it, the referees
for the certificate and inflation bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from itertools import combinations, permutations

import hypothesis.strategies as st

from immlab.analysis import find_induced, find_induced_embedding
from immlab.certificates import CERT_FORMAT, ImmersionCertificate, Verdict
from immlab.graphs import FOUR_VERTEX_PATTERNS, GRAPH_FORMAT, Graph, bits, join, pattern
from immlab.inflation import INFLATION_FORMAT, InflationSpec
from immlab.oracle import brute_force_immersion


def count_calls(monkeypatch, module, *names: str) -> Counter:
    """Replace each named function of ``module`` by a counting wrapper; the
    returned Counter maps name -> calls so far."""
    counts: Counter = Counter()
    for name in names:
        def counting(*args, _name=name, _real=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


def p4_free_join(n: int) -> Graph:
    """The join of n / 8 copies of 2K4: independence 2 and no induced P4 (its
    complement is n / 8 disjoint copies of K_{4,4})."""
    two_k4 = Graph.from_edges(8, [(u, v) for half in (0, 4)
                                  for u, v in combinations(range(half, half + 4), 2)])
    return reduce(join, [two_k4] * (n // 8))


def complement_join(*parts: Graph) -> Graph:
    """The complement of the disjoint union of ``parts``."""
    return reduce(join, [part.complement() for part in parts])


def ref_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges as (u, v) with u < v, in lexicographic order, one bit at a time."""
    out = []
    for u in range(g.n):
        above = g.adj[u] >> (u + 1) << (u + 1)
        for v in bits(above):
            out.append((u, v))
    return out


def ref_to_json(g: Graph) -> str:
    doc = {"format": GRAPH_FORMAT, "n": g.n,
           "edges": [[u, v] for u, v in ref_edges(g)]}
    return json.dumps(doc, separators=(",", ":"))


def ref_to_text(g: Graph) -> str:
    es = ref_edges(g)
    lines = [f"{g.n} {len(es)}"]
    lines.extend(f"{u} {v}" for u, v in es)
    return "\n".join(lines) + "\n"


def ref_certificate_to_json(cert: ImmersionCertificate) -> str:
    doc = {
        "format": CERT_FORMAT,
        "graph_sha256": cert.host_hash,
        "order": len(cert.branch),
        "branch": sorted(cert.branch),
        "paths": [{"u": u, "v": v, "walk": list(w)}
                  for (u, v), w in sorted(cert.paths.items())],
    }
    return json.dumps(doc, separators=(",", ":"))


def ref_inflation_to_json(spec: InflationSpec) -> str:
    doc = {"format": INFLATION_FORMAT,
           "base": json.loads(spec.base.to_json()),
           "f": list(spec.sizes)}
    return json.dumps(doc, separators=(",", ":"))


def _ref_bad(reason: str, detail: str) -> Verdict:
    return Verdict(False, reason, detail)


def _ref_check_paths(g: Graph, branch, required, paths) -> Verdict:
    bset = set(branch)
    legal_keys = {key for key, _ in required}
    for key, walk in paths.items():
        if key not in legal_keys:
            return _ref_bad("structural", f"unexpected path key {key}")
        for x in walk:
            if not (type(x) is int and 0 <= x < g.n):
                return _ref_bad("structural", f"walk vertex {x!r} out of range in path {key}")

    for key, (a, b) in required:
        walk = paths.get(key)
        if walk is None:
            return _ref_bad("condition-I", f"no path for pair {key}")
        if len(walk) < 2 or walk[0] != a or walk[-1] != b:
            return _ref_bad("condition-I", f"path {key} does not run {a} -> {b}: {walk}")
        if len(set(walk)) != len(walk):
            return _ref_bad("condition-I", f"path {key} repeats a vertex: {walk}")
        for x, y in zip(walk, walk[1:]):
            if not g.has_edge(x, y):
                return _ref_bad("condition-I", f"path {key} uses non-edge ({x},{y})")

    used: dict = {}
    for key, _ in required:
        walk = paths[key]
        for x, y in zip(walk, walk[1:]):
            e = edge_key(x, y)
            if e in used:
                return _ref_bad("condition-II",
                                f"edge {e} used by paths {used[e]} and {key}")
            used[e] = key

    for key, _ in required:
        for x in paths[key][1:-1]:
            if x in bset:
                return _ref_bad("condition-III",
                                f"branch vertex {x} interior to path {key}")
    return Verdict(True)


def ref_verify_certificate(g: Graph, cert: ImmersionCertificate) -> Verdict:
    """The dict-and-set verifier: hash, branch, then conditions I, II, III."""
    if cert.host_hash != g.sha256():
        return _ref_bad("hash-mismatch",
                        f"certificate is for {cert.host_hash[:12]}.., host is {g.sha256()[:12]}..")
    for v in cert.branch:
        if not (type(v) is int and 0 <= v < g.n):
            return _ref_bad("structural", f"branch vertex {v!r} out of range")
    if len(set(cert.branch)) != len(cert.branch):
        return _ref_bad("structural", f"branch vertices not distinct: {cert.branch}")
    required = [(edge_key(u, v), edge_key(u, v))
                for u, v in combinations(sorted(cert.branch), 2)]
    return _ref_check_paths(g, cert.branch, required, cert.paths)


def edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def ref_has_independent_triple(g: Graph) -> bool:
    return any(
        not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3))


def ref_independence_number(g: Graph) -> int:
    """Exact alpha by subset enumeration (n <= 14)."""
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and all(
                not g.has_edge(u, v) for u, v in combinations(vs, 2)):
            best = len(vs)
    return best


def ref_max_clique_size(g: Graph) -> int:
    """Exact omega by subset enumeration (n <= 14)."""
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and all(
                g.has_edge(u, v) for u, v in combinations(vs, 2)):
            best = len(vs)
    return best


def ref_chromatic_number(g: Graph) -> int:
    """Exact chi by plain backtracking over colour counts (n <= 12)."""
    if g.n == 0:
        return 0

    def colourable(t: int) -> bool:
        colours = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            used = max(colours[:v], default=-1)
            for c in range(min(used + 1, t - 1) + 1):
                if all(colours[u] != c for u in range(v) if g.has_edge(u, v)):
                    colours[v] = c
                    if place(v + 1):
                        return True
                    colours[v] = -1
            return False

        return place(0)

    t = 1
    while not colourable(t):
        t += 1
    return t


def ref_matching_number(g: Graph) -> int:
    """Maximum matching size by a DP over vertex subsets (n <= 14): the lowest
    vertex of a subset is left unmatched or matched to one of its neighbours
    in the subset."""
    best = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        best[mask] = max([best[rest]] + [1 + best[rest & ~(1 << u)]
                                         for u in bits(g.adj[v] & rest)])
    return best[-1]


def ref_is_induced(g: Graph, pat: Graph) -> bool:
    """Induced-subgraph test by raw injection enumeration (n <= 9)."""
    for image in permutations(range(g.n), pat.n):
        if all(g.has_edge(image[i], image[j]) == pat.has_edge(i, j)
               for i, j in combinations(range(pat.n), 2)):
            return True
    return False


def ref_find_immersion(g: Graph, t: int):
    """Exhaustive immersion search with fixed lexicographic everything.

    Returns {"branch": ..., "paths": {(u, v): walk}} or None.  No degree
    filters, no pair reordering, no reachability pruning -- a deliberately
    different algorithm from the package oracle.  Usable for n <= 7, t <= 4.
    """
    n = g.n
    if t <= 1:
        return {"branch": tuple(range(t)), "paths": {}} if n >= t else None

    for branch in combinations(range(n), t):
        bset = set(branch)
        pairs = list(combinations(branch, 2))
        used: set[tuple[int, int]] = set()
        found: dict[tuple[int, int], tuple[int, ...]] = {}

        def walks(u: int, v: int, seen: frozenset[int]):
            if g.has_edge(u, v) and edge_key(u, v) not in used:
                yield [u, v]
            for w in range(n):
                if (w in bset or w in seen or w == v
                        or not g.has_edge(u, w) or edge_key(u, w) in used):
                    continue
                for rest in walks(w, v, seen | {w}):
                    yield [u] + rest

        def solve(i: int) -> bool:
            if i == len(pairs):
                return True
            u, v = pairs[i]
            for walk in walks(u, v, frozenset({u})):
                edges = {edge_key(x, y) for x, y in zip(walk, walk[1:])}
                used.update(edges)
                if solve(i + 1):
                    found[(u, v)] = tuple(walk)
                    return True
                used.difference_update(edges)
            return False

        if solve(0):
            return {"branch": branch, "paths": found}
    return None


def ref_max_immersion_order(g: Graph, budget) -> tuple[int, ImmersionCertificate]:
    """Ascending search over ``brute_force_immersion`` levels 1, 2, ...: the
    first absent level stops it, and a level out of budget raises."""
    best = (0, ImmersionCertificate(g.sha256(), (), {}))
    for t in range(1, min(budget.max_t, g.n) + 1):
        cert = brute_force_immersion(g, t, budget)
        if cert is None:
            break
        best = (t, cert)
    return best


def ref_masked_immersion(g: Graph, t: int, within: int):
    """``brute_force_immersion`` on the subgraph induced on ``within``, copied
    with ``induced_subgraph`` and solved there, its answer relabelled into
    g's ids; None when the copy has no K_t immersion."""
    sub, remap = g.induced_subgraph(bits(within))
    cert = brute_force_immersion(sub, t)
    if cert is None:
        return None
    back = {new: old for old, new in remap.items()}
    paths = {}
    for (u, v), walk in cert.paths.items():
        walk = tuple(back[x] for x in walk)
        paths[edge_key(back[u], back[v])] = walk if back[u] < back[v] else walk[::-1]
    return ImmersionCertificate(g.sha256(), tuple(sorted(back[v] for v in cert.branch)), paths)


def ref_masked_embedding(g: Graph, h: Graph, within: int):
    """``find_induced_embedding`` of h in the subgraph induced on ``within``,
    copied with ``induced_subgraph`` and searched there, its answer mapped
    back into g's ids; None when the copy has no induced h."""
    sub, remap = g.induced_subgraph(bits(within))
    emb = find_induced_embedding(sub, h)
    if emb is None:
        return None
    back = {new: old for old, new in remap.items()}
    return tuple(back[v] for v in emb)


def ref_find_induced_embedding(g: Graph, h: Graph, within: int | None = None):
    """The lexicographically least induced embedding of h among the vertices
    of ``within``: DFS over ascending host ids, narrowing each later h-vertex's
    candidates to the exact prefix-compatible ones."""
    within = g.vertex_mask if within is None else within
    if h.n == 0:
        return ()
    phi: list[int] = []

    def extend(cands: list[int]):
        i = len(phi)
        if i == h.n:
            return tuple(phi)
        for v in bits(cands[i]):
            narrowed = list(cands)
            for j in range(i + 1, h.n):
                if h.has_edge(i, j):
                    narrowed[j] &= g.adj[v]
                else:
                    narrowed[j] &= within & ~g.adj[v] & ~(1 << v)
            if not all(narrowed[i + 1:]):
                continue
            phi.append(v)
            got = extend(narrowed)
            if got is not None:
                return got
            phi.pop()
        return None

    return extend([within] * h.n)


def ref_find_hole_in_range(g: Graph, lo: int, hi: int, within: int | None = None):
    """The lexicographically least hole with length in [lo, hi] among the
    vertices of ``within``, listed from its minimum: DFS over induced paths
    that start at their minimum, ascending at every choice point."""
    adj = g.adj if within is None else [row & within if within >> v & 1 else 0
                                        for v, row in enumerate(g.adj)]

    def grow(s: int, path: list[int], forbidden: int):
        tail = path[-1]
        for v in bits(adj[tail] & ~forbidden):
            if adj[s] >> v & 1:
                if len(path) + 1 >= lo:
                    return tuple(path) + (v,)
                continue
            if len(path) + 1 < hi:
                got = grow(s, path + [v], forbidden | (1 << v) | adj[tail])
                if got is not None:
                    return got
        return None

    below = 0
    for s in range(g.n):
        below |= 1 << s
        for p1 in bits(adj[s] & ~below):
            got = grow(s, [s, p1], below | (1 << p1))
            if got is not None:
                return got
    return None


def ref_chordal_peo(g: Graph, within: int | None = None):
    """A perfect elimination ordering of the vertices of ``within`` if they
    induce a chordal graph, else None: maximum-cardinality search (max
    visited-neighbour count, lowest id on ties), then the earliest
    later-neighbour check over the reverse visit order."""
    within = g.vertex_mask if within is None else within
    weight = [0] * g.n
    visited = 0
    visit: list[int] = []
    for _ in range(within.bit_count()):
        v = max(bits(within & ~visited), key=lambda u: (weight[u], -u))
        visit.append(v)
        visited |= 1 << v
        for u in bits(g.adj[v] & ~visited & within):
            weight[u] += 1
    peo = visit[::-1]
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    for v in peo:
        later = 0
        for u in bits(g.adj[v] & within):
            if pos[u] > pos[v]:
                later |= 1 << u
        if later:
            first = min(bits(later), key=lambda u: pos[u])
            if later & ~g.adj[first] & ~(1 << first):
                return None
    return tuple(peo)


def ref_peo_max_clique(g: Graph, peo: tuple[int, ...]) -> frozenset[int]:
    """The first largest of the sets {v} plus v's later neighbours in ``peo``."""
    pos = [-1] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    best: frozenset[int] = frozenset()
    for v in peo:
        members = {v}
        members.update(u for u in bits(g.adj[v]) if pos[u] > pos[v])
        if len(members) > len(best):
            best = frozenset(members)
    return best


def ref_auto_token(g: Graph) -> str:
    """The route ``auto_immersion`` should pick on an independence <= 2 graph."""
    for name in FOUR_VERTEX_PATTERNS:
        if find_induced(g, pattern(name)) is None:
            return f"vergara:{name}"
    return "oracle"


@st.composite
def graphs(draw, max_n: int = 10, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph.from_edges(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, edges)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance criteria summary lines after the test run."""
    try:
        from test_acceptance import SUMMARY_LINES
    except ImportError:
        return
    if SUMMARY_LINES:
        terminalreporter.section("acceptance criteria")
        for line in SUMMARY_LINES:
            terminalreporter.write_line(line)
