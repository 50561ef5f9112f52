"""Constructive clique immersions in graphs of independence number two.

Every public routine returns a certificate that stands on its own (the
verifier never trusts the construction), and every structural fact the
construction leans on is checked at runtime: a failed check raises
``ClaimViolation`` carrying the offending graph and vertices, because for the
advertised input class each such fact is a theorem and a counterexample is
worth keeping.

The routines and their guarantees:

* ``hole_free_immersion``      -- no hole of length in [4, 2*alpha]: order chi(g).
* ``house_free_immersion``     -- house-free, alpha <= 2: order exactly ceil(n/2).
* ``owh_free_immersion``       -- no triangle-with-tail, alpha <= 2: ceil(n/2).
* ``k4_free_immersion``        -- K4-free, alpha <= 2 (so n <= 8): ceil(n/2),
                                  found by the exhaustive oracle.
* ``k4minus_free_clique``      -- K4-minus-an-edge-free, alpha <= 2: a two-clique
                                  partition (when one exists) with the largest
                                  possible side first, which is the clique.
* ``pattern_free_immersion``   -- any one 4-vertex pattern excluded: ceil(n/2).
* ``auto_immersion``           -- the first excluded 4-vertex pattern's route,
                                  else the exhaustive oracle.
* ``extend_over_dominating_*`` -- the inductive steps, usable directly: given a
                                  dominating induced C4 / C5 / P4 and a certificate
                                  for the graph minus four vertices, two more branch
                                  vertices are attached through the removed part.

Each public route and each public extension step checks its preconditions
once, then calls a private builder (``_extend_c4`` and ``_extend_articulated``
for the steps, which grow the checked sub-certificate's path dict in place);
callers that have proved a builder's precondition call it directly.  The
C4 route's builder is ``hole_free_immersion``, trimmed to ceil(n/2): at
independence 2 its one hole scan is its own C4 test.  No route verifies its
own certificate; ``immlab solve`` does that once, where the certificate
leaves the program.

Every builder works on the input graph and a mask ``live`` of the vertices
it builds over, in the input's own ids: no route copies a subgraph, hashes a
copy or relabels a certificate, and every ``ClaimViolation`` carries the
input graph.  The house-free and owh-free routes (and the P4, paw, twoK2 and
K3v routes) run the paper's induction as one loop, ``_peel``, whose
violations also list the live vertices as ``"live"``.  The loop's builders
extend one path dict, and ``_emit`` keeps each walk inside its step's live
set, so no step copies or rescans the sub-certificate.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable

from . import inflation
from .analysis import (
    chordal_peo,
    find_hole_in_range,
    find_induced,
    find_induced_embedding,
    independence_number,
    independent_triple,
    max_clique,
    peo_max_clique,
)
from .certificates import (
    ImmersionCertificate,
    Pair,
    Walk,
    direct_clique_certificate,
    ordered_pair,
    trim_certificate,
)
from .errors import ClaimViolation, PreconditionError
from .graphs import FOUR_VERTEX_PATTERNS, Graph, bits, mask_of, pattern
from .oracle import OracleBudget, brute_force_immersion, max_immersion_order

#: A partition of the vertex set into two cliques (the second may be empty).
TwoCliques = tuple[frozenset[int], frozenset[int]]


def half_ceil(n: int) -> int:
    return (n + 1) // 2


# -- shared plumbing -----------------------------------------------------------


def _require_alpha_at_most_two(g: Graph) -> None:
    triple = independent_triple(g)
    if triple is not None:
        raise PreconditionError(
            f"independence number exceeds 2: independent triple {triple}")


def _require_pattern_free(g: Graph, name: str) -> None:
    hit = find_induced(g, pattern(name))
    if hit is not None:
        raise PreconditionError(f"input contains an induced {name} on {sorted(hit)}")


def _require_induced_at(g: Graph, verts: tuple[int, ...], name: str) -> None:
    pat = pattern(name)
    if len(verts) != pat.n or len(set(verts)) != pat.n:
        raise PreconditionError(f"{name} needs {pat.n} distinct vertices, got {verts}")
    for v in verts:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex {v} out of range")
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if g.has_edge(verts[i], verts[j]) != pat.has_edge(i, j):
                raise PreconditionError(
                    f"vertices {verts} do not induce a {name} in this order "
                    f"(pair ({verts[i]},{verts[j]}) is wrong)")


def _undominated(g: Graph, live: int, verts: tuple[int, ...], edges: list[Pair]
                 ) -> tuple[Pair, int] | None:
    """The first of ``edges`` that misses a vertex of ``live`` outside ``verts``,
    with the lowest vertex it misses; None when every edge dominates."""
    scope = live & ~mask_of(verts)
    for u, v in edges:
        missed = scope & ~g.adj[u] & ~g.adj[v]
        if missed:
            return (u, v), (missed & -missed).bit_length() - 1
    return None


def _require_dominating_edges(g: Graph, verts: tuple[int, ...], name: str) -> None:
    hit = _undominated(g, g.vertex_mask, verts,
                       [(verts[i], verts[j]) for i, j in pattern(name).edges()])
    if hit is not None:
        (u, v), w = hit
        raise PreconditionError(
            f"edge ({u},{v}) of the {name} does not dominate vertex {w}")


def _prepare_subcert(g: Graph, subcert: ImmersionCertificate, verts: tuple[int, ...],
                     name: str) -> ImmersionCertificate:
    """A public step's checks: ``verts`` induce ``name`` in this order, its
    edges dominate, and ``subcert`` is over g and keeps off ``verts[:4]``.
    Returns it trimmed to order ceil((n-4)/2), in a fresh path dict that the
    builder may grow."""
    _require_induced_at(g, verts, name)
    _require_dominating_edges(g, verts, name)
    target = half_ceil(g.n - 4)
    if subcert.host_hash != g.sha256():
        raise PreconditionError("sub-certificate is not over this host graph")
    if subcert.order < target:
        raise PreconditionError(
            f"sub-certificate order {subcert.order} is below the required {target}")
    sub = trim_certificate(subcert, target)
    touched = set(sub.branch).union(*sub.paths.values()).intersection(verts[:4])
    if touched:
        raise PreconditionError(f"sub-certificate touches removed vertices {sorted(touched)}")
    return sub


def _emit(g: Graph, live: int, paths: dict[Pair, Walk], walk: list[int]) -> None:
    """Record a path after checking it stays inside ``live`` and each claimed
    adjacency really is an edge."""
    if mask_of(walk) & ~live:
        raise AssertionError(f"walk {walk} leaves the live vertices")
    for x, y in zip(walk, walk[1:]):
        if not g.has_edge(x, y):
            raise ClaimViolation("construction would use a non-edge", graph=g,
                                 context={"walk": list(walk), "missing": (x, y)})
    key = ordered_pair(walk[0], walk[-1])
    if key in paths:
        raise AssertionError(f"two paths assembled for pair {key}")
    paths[key] = tuple(walk) if walk[0] == key[0] else tuple(reversed(walk))


def _escape_clique(g: Graph, live: int, v: int) -> ImmersionCertificate:
    """The non-neighbourhood of v in ``live``, which independence <= 2 makes a
    clique and which must have ceil(n/2) vertices here."""
    nbar = live & g.non_neighbors(v)
    for u in bits(nbar):
        gap = nbar & ~g.adj[u] & ~(1 << u)
        if gap:
            w = (gap & -gap).bit_length() - 1
            raise ClaimViolation(
                "two common non-neighbours are themselves non-adjacent "
                "(independence number exceeds 2)",
                graph=g, context={"triple": (v, u, w)})
    need = half_ceil(live.bit_count())
    members = sorted(bits(nbar))
    if len(members) < need:
        raise ClaimViolation(
            "overloaded vertex's non-neighbourhood is too small",
            graph=g, context={"vertex": v, "non_neighbours": members, "need": need})
    return direct_clique_certificate(g, members[:need])


def _base_case(g: Graph, live: int) -> ImmersionCertificate | None:
    """The shared ends of the peeling routes on the n vertices of ``live``, at
    order exactly ceil(n/2): a maximum clique when n <= 4, and a complete
    graph.  None when they are neither."""
    n = live.bit_count()
    need = half_ceil(n)
    if n <= 4:
        clique = sorted(max_clique(g, live)[1])
        if len(clique) < need:
            raise ClaimViolation("tiny graph with independence <= 2 lacks a "
                                 "half-order clique", graph=g)
        return direct_clique_certificate(g, clique[:need])
    if g.is_clique(live):
        return direct_clique_certificate(g, list(bits(live))[:need])
    return None


# -- hole-free graphs: immersion of K_chi --------------------------------------------


def hole_free_immersion(g: Graph) -> ImmersionCertificate:
    """K_{chi(g)} immersion for graphs with no hole of length in [4, 2*alpha].

    A hole of length l holds floor(l/2) independent vertices, so under the
    precondition g is chordal (its maximum clique, read off a perfect
    elimination order, has order chi) or its least hole has length 2*alpha+1
    and g is an exact inflation of that odd cycle joined with universal
    vertices, which certifies alpha and the precondition.  The cycle engine's
    immersion, trimmed to chi of the inflation, plus the universal vertices
    as direct branch vertices has order chi(g).  At independence 2 the
    build's one hole scan is also the C4 route's C4 test.
    """
    try:
        return _hole_free_build(g, g.vertex_mask)
    except ClaimViolation as exc:
        hole = exc.context.get("hole")
        if hole is None:
            raise
        # A failed build around a (2a+1)-hole blames the input when the scan
        # met it before a shorter hole, or when alpha exceeds a.
        a = len(hole) // 2
        bad = find_hole_in_range(g, 4, 2 * a)
        if bad is not None:
            raise _short_hole(bad, a) from None
        if independent_triple(g) if a == 2 else independence_number(g)[0] > a:
            raise _short_hole(hole, a + 1) from None
        raise


def _short_hole(hole: tuple[int, ...], alpha: int) -> PreconditionError:
    return PreconditionError(
        f"input has a hole of length {len(hole)} inside [4, {2 * alpha}]: {hole}")


def _hole_free_build(g: Graph, live: int) -> ImmersionCertificate:
    """The construction of ``hole_free_immersion`` on ``live``.  A chordal
    live set gives the clique read off its perfect elimination order.
    Otherwise one scan over [4, |live|] finds the least hole: an even one
    holds half its length in independent vertices, failing the
    precondition; an odd one is built around."""
    peo = chordal_peo(g, live)
    if peo is not None:
        return direct_clique_certificate(g, peo_max_clique(g, peo))
    hole = find_hole_in_range(g, 4, max(4, live.bit_count()), live)
    if hole is None:
        raise AssertionError("the chordality test failed, yet the hole scan finds no hole")
    if len(hole) % 2 == 0:
        raise _short_hole(hole, len(hole) // 2)
    bags, universal = _decompose_around_hole(g, hole, live)
    try:
        inflation._validate_cycle_bags(g, bags, live & ~mask_of(universal))
    except PreconditionError as exc:
        raise ClaimViolation(
            f"the bags around a longest hole must form an exact inflation of "
            f"its cycle: {exc}", graph=g, context={"hole": hole, "bags": bags}) from exc
    branch, paths, _colours = inflation._cycle_build(bags)
    chi_core, _sets = inflation.cycle_inflation_chromatic(tuple(len(b) for b in bags))
    core = trim_certificate(ImmersionCertificate(g.sha256(), branch, paths), chi_core)
    # The universal vertices are in no bag: each joins the branch by direct edges.
    branch = (*core.branch, *universal)
    for i, w in enumerate(universal, len(core.branch)):
        for u in branch[:i]:
            _emit(g, live, core.paths, [u, w])
    return ImmersionCertificate(core.host_hash, tuple(sorted(branch)), core.paths)


def _decompose_around_hole(g: Graph, hole: tuple[int, ...], live: int
                           ) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Tile ``live`` around a longest hole into bags and universal vertices.

    Every live vertex outside the hole must either see the entire hole (and
    then see every live vertex) or see exactly three consecutive hole
    vertices, and joins the bag of the middle one.  Each failed claim raises
    with the offending vertices attached.  That the bags form an exact
    inflation of the hole's cycle is checked once, by the caller.
    """
    k = len(hole)
    hmask = mask_of(hole)
    pos = {h: i for i, h in enumerate(hole)}
    groups: list[list[int]] = [[] for _ in range(k)]
    universal: list[int] = []
    for u in bits(live & ~hmask):
        att = g.adj[u] & hmask
        if att == hmask:
            missed = live & g.non_neighbors(u)
            if missed:
                raise ClaimViolation(
                    "vertex seeing the whole hole must be universal",
                    graph=g,
                    context={"vertex": u, "hole": hole, "missed": sorted(bits(missed))})
            universal.append(u)
            continue
        seen = {pos[x] for x in bits(att)}
        home = next((i for i in range(k) if seen == {i, (i + 1) % k, (i + 2) % k}), None)
        if home is None:
            raise ClaimViolation(
                "outside vertex must see exactly three consecutive hole vertices",
                graph=g, context={"vertex": u, "hole": hole, "sees": sorted(seen)})
        groups[home].append(u)
    bags = tuple(tuple(sorted(groups[i] + [hole[(i + 1) % k]])) for i in range(k))
    return bags, universal


# -- the inductive extension steps ------------------------------------------------


def extend_over_dominating_c4(g: Graph, cycle: tuple[int, int, int, int],
                              subcert: ImmersionCertificate) -> ImmersionCertificate:
    """Grow a ceil((n-4)/2) certificate of g minus an induced dominating C4
    into a ceil(n/2) certificate of g.

    ``cycle`` lists the 4-cycle in cyclic order and each of its edges must
    dominate the rest of the graph.  Two opposite strategies: if some cycle
    vertex is non-adjacent to too much of the sub-branch, its non-neighbourhood
    is itself a huge clique (escape); otherwise two adjacent cycle vertices
    join the branch, with fans of 3-edge paths through the other two cycle
    vertices and fresh outside connectors.
    """
    a = tuple(cycle)
    return _extend_c4(g, g.vertex_mask, a, _prepare_subcert(g, subcert, a, "C4"))


def _extend_c4(g: Graph, live: int, a: tuple[int, int, int, int],
               sub: ImmersionCertificate) -> ImmersionCertificate:
    """The construction of ``extend_over_dominating_c4`` on ``live``, for a C4
    that is induced in this order and whose every edge dominates, and a
    ``sub`` of order ceil((|live|-4)/2) off the cycle.  The result keeps
    ``sub.paths``, grown in place; an escape returns a fresh certificate."""
    rest = live & ~mask_of(a)
    mmask = mask_of(sub.branch)
    qmask = rest & ~mmask
    nbar = [live & g.non_neighbors(x) for x in a]

    for i in range(4):
        if (mmask & nbar[i]).bit_count() > (qmask & g.adj[a[i]]).bit_count() + 1:
            return _escape_clique(g, live, a[i])
    for i in range(4):
        for j in range(i + 1, 4):
            clash = nbar[i] & nbar[j] & rest
            if clash:
                u = (clash & -clash).bit_length() - 1
                raise ClaimViolation(
                    "outside vertex misses two cycle vertices",
                    graph=g, context={"vertex": u, "cycle": a,
                                      "missed": (a[i], a[j])})

    # Rotate the scarcest M-non-neighbourhood to the front.
    j = min(range(4), key=lambda i: ((mmask & nbar[i]).bit_count(), i))
    a = a[j:] + a[:j]
    nbar = nbar[j:] + nbar[:j]
    a1, a2, a3, a4 = a

    # Fan into a4: the least non-neighbour rides through a3 directly; the
    # others borrow a connector adjacent to a4, preferring connectors that
    # the a1 fan cannot use anyway.
    m4 = sorted(bits(mmask & nbar[3]))
    q4 = qmask & g.adj[a4]
    used_connectors: set[int] = set()
    if m4:
        _emit(g, live, sub.paths, [m4[0], a3, a4])
    targets4 = sorted(bits(q4 & nbar[0])) + sorted(bits(q4 & ~nbar[0]))
    if len(m4) - 1 > len(targets4):
        raise ClaimViolation(
            "not enough connectors beside the far cycle vertex",
            graph=g, context={"cycle": a, "sources": m4, "targets": targets4})
    for x, t in zip(m4[1:], targets4):
        used_connectors.add(t)
        mid = a2 if g.has_edge(t, a2) else a3
        _emit(g, live, sub.paths, [x, mid, t, a4])
    for x in bits(mmask & g.adj[a4]):
        _emit(g, live, sub.paths, [x, a4])

    # Fan into a1, avoiding connectors the a4 fan consumed.
    m1 = sorted(bits(mmask & nbar[0]))
    if m1:
        _emit(g, live, sub.paths, [m1[0], a2, a1])
    targets1 = [t for t in sorted(bits(qmask & g.adj[a1])) if t not in used_connectors]
    if len(m1) - 1 > len(targets1):
        raise ClaimViolation(
            "not enough connectors beside the near cycle vertex",
            graph=g, context={"cycle": a, "sources": m1, "targets": targets1})
    for y, t in zip(m1[1:], targets1):
        mid = a2 if g.has_edge(t, a2) else a3
        _emit(g, live, sub.paths, [y, mid, t, a1])
    for y in bits(mmask & g.adj[a1]):
        _emit(g, live, sub.paths, [y, a1])

    _emit(g, live, sub.paths, [a1, a4])
    branch = tuple(sorted(set(sub.branch) | {a1, a4}))
    if len(branch) != half_ceil(live.bit_count()):
        raise AssertionError("extension produced the wrong order")
    return ImmersionCertificate(g.sha256(), branch, sub.paths)


def extend_over_dominating_c5(g: Graph, cycle: tuple[int, int, int, int, int],
                              subcert: ImmersionCertificate) -> ImmersionCertificate:
    """Grow a certificate of g minus the *first four* vertices of an induced
    dominating C5 into a ceil(n/2) certificate of g.

    ``cycle`` lists the 5-cycle in cyclic order; only cycle[0..3] are removed
    in the subproblem -- the fifth vertex stays and needs special handling
    throughout, since it is the unique outside-the-path vertex allowed to miss
    two of the removed vertices.
    """
    sub = _prepare_subcert(g, subcert, tuple(cycle), "C5")
    return _extend_articulated(g, g.vertex_mask, tuple(cycle[:4]), cycle[4], sub)


def extend_over_dominating_p4(g: Graph, path: tuple[int, int, int, int],
                              subcert: ImmersionCertificate) -> ImmersionCertificate:
    """Grow a certificate of g minus an induced dominating P4 into a
    ceil(n/2) certificate of g.  ``path`` lists the path in order."""
    sub = _prepare_subcert(g, subcert, tuple(path), "P4")
    return _extend_articulated(g, g.vertex_mask, tuple(path), None, sub)


def _extend_articulated(g: Graph, live: int, p: tuple[int, int, int, int], a5: int | None,
                        sub: ImmersionCertificate) -> ImmersionCertificate:
    """Shared engine for the dominating-C5 and dominating-P4 extensions on
    ``live``, growing ``sub`` as ``_extend_c4`` does.

    The removed part is the path p = (a1, a2, a3, a4); for the C5 case a5
    closes the cycle and is *not* removed.  Strategy: pick the path end a4 and
    the interior-or-end vertex a_ell whose fan is cheapest, attach both to the
    branch, route every sub-branch vertex to a4 through connectors adjacent to
    a4, to a_ell through connectors adjacent to a_ell, and join a_ell to a4
    along the path itself.  The fifth cycle vertex may appear as a connector
    of last resort, which reroutes one fan path and the a_ell--a4 join.
    """
    a1, a2, a3, a4 = p
    hverts = p + ((a5,) if a5 is not None else ())
    hmask = mask_of(hverts)
    outside = live & ~hmask
    mmask = mask_of(sub.branch)
    qmask = live & ~mask_of(p) & ~mmask
    nbar = {x: live & g.non_neighbors(x) for x in p}

    # Escapes: a path end overloaded at all, or a middle vertex overloaded
    # beyond its one-vertex slack, owns a ceil(n/2) clique of non-neighbours.
    for i, ai in enumerate(p, start=1):
        slack = 0 if i in (1, 4) else 1
        if (mmask & nbar[ai]).bit_count() > (qmask & g.adj[ai]).bit_count() + slack:
            return _escape_clique(g, live, ai)

    # Outside the 5- or 4-vertex structure, nobody misses two path vertices.
    for (x, y) in combinations(p, 2):
        clash = nbar[x] & nbar[y] & outside
        if clash:
            u = (clash & -clash).bit_length() - 1
            raise ClaimViolation(
                "outside vertex misses two path vertices",
                graph=g, context={"vertex": u, "path": p, "missed": (x, y)})

    a5mask = (1 << a5) if a5 is not None else 0
    ell = min((1, 2, 3),
              key=lambda i: ((mmask & nbar[p[i - 1]] & ~a5mask).bit_count(), i))
    al = p[ell - 1]

    # Fan into a4.  Sources may include a5 never (a5 ~ a4); targets may
    # include a5, but only as the very last resort within its class.
    fsources = sorted(bits(mmask & nbar[a4]))
    if a5 is not None:
        for x in fsources:
            if not g.has_edge(x, a5):
                raise ClaimViolation(
                    "vertex missing the far path end must see the fifth cycle vertex",
                    graph=g, context={"vertex": x, "cycle": hverts})
    q4 = qmask & g.adj[a4]
    class_useless = sorted(bits(q4 & nbar[al]))      # invisible to the a_ell fan
    class_useful = sorted(bits(q4 & ~nbar[al]))
    for cls in (class_useless, class_useful):
        if a5 is not None and a5 in cls:
            cls.remove(a5)
            cls.append(a5)
    ftargets = class_useless + class_useful
    if len(fsources) > len(ftargets):
        raise ClaimViolation(
            "not enough connectors beside the far path end",
            graph=g, context={"path": p, "sources": fsources, "targets": ftargets})
    fmap = dict(zip(fsources, ftargets))
    q_f = set(fmap.values())
    a5_hit = a5 is not None and a5 in q_f

    def fan_mid(t: int, banned: int) -> int:
        for i in (1, 2, 3):
            if i != banned and g.has_edge(t, p[i - 1]):
                return p[i - 1]
        raise ClaimViolation(
            "connector sees none of the available middle vertices",
            graph=g, context={"connector": t, "path": p, "banned": p[banned - 1]})

    ml = sorted(bits(mmask & nbar[al]))
    tl = [t for t in sorted(bits(qmask & g.adj[al])) if t not in q_f and t != a5]

    if ell == 1:
        # If the a4 fan was forced to consume a5, its source walks the path
        # middle instead and the a1--a4 join steps over a5.
        join_walk = [a1, a5, a4] if a5_hit else [a1, a2, a3, a4]
        shortfall = max(0, len(q_f) - (qmask & nbar[a1]).bit_count())
        if a5 is not None and shortfall == 0 and (qmask >> a5 & 1):
            # Spare-vertex subcase: the fifth cycle vertex carries the join,
            # freeing the path for the least fan source.
            if a5_hit:
                raise ClaimViolation(
                    "fifth cycle vertex cannot both join the ends and serve the far fan",
                    graph=g, context={"cycle": hverts})
            join_walk = [a1, a5, a4]
            if len(ml) - 1 > len(tl):
                raise ClaimViolation(
                    "not enough connectors beside the near path end",
                    graph=g, context={"path": p, "sources": ml, "targets": tl})
            if ml:
                _emit(g, live, sub.paths, [ml[0], a2, a1])
            for y, t in zip(ml[1:], tl):
                _emit(g, live, sub.paths, [y, fan_mid(t, 1), t, a1])
        else:
            if len(ml) > len(tl):
                raise ClaimViolation(
                    "not enough connectors beside the near path end",
                    graph=g, context={"path": p, "sources": ml, "targets": tl})
            for y, t in zip(ml, tl):
                _emit(g, live, sub.paths, [y, fan_mid(t, 1), t, a1])
        for x in fsources:
            t = fmap[x]
            if t == a5:
                _emit(g, live, sub.paths, [x, a2, a3, a4])
            else:
                _emit(g, live, sub.paths, [x, fan_mid(t, 1), t, a4])
        _emit(g, live, sub.paths, join_walk)
    else:
        if len(ml) - 1 > len(tl):
            raise ClaimViolation(
                "not enough connectors beside the chosen middle vertex",
                graph=g, context={"path": p, "vertex": al,
                                  "sources": ml, "targets": tl})
        if ml:
            w = a5 if (a5 is not None and (mmask >> a5 & 1) and a5 in ml) else ml[0]
            _emit(g, live, sub.paths, [w] + list(p[:ell - 1]) + [al])
            grest = [y for y in ml if y != w]
            for y, t in zip(grest, tl):
                _emit(g, live, sub.paths, [y, fan_mid(t, ell), t, al])
        for x in fsources:
            t = fmap[x]
            if t == a5:
                _emit(g, live, sub.paths, [x, a1, a5, a4])
            else:
                _emit(g, live, sub.paths, [x, fan_mid(t, ell), t, a4])
        _emit(g, live, sub.paths, list(p[ell - 1:]))

    for x in bits(mmask & g.adj[a4]):
        _emit(g, live, sub.paths, [x, a4])
    for y in bits(mmask & g.adj[al]):
        _emit(g, live, sub.paths, [y, al])

    branch = tuple(sorted(set(sub.branch) | {al, a4}))
    if len(branch) != half_ceil(live.bit_count()):
        raise AssertionError("extension produced the wrong order")
    return ImmersionCertificate(g.sha256(), branch, sub.paths)


# -- house-free and owh-free graphs: peeling ------------------------------------------


def house_free_immersion(g: Graph) -> ImmersionCertificate:
    """K_{ceil(n/2)} immersion for house-free graphs with independence <= 2

    (the house: a 4-cycle plus a roof vertex adjacent to two adjacent cycle
    vertices)."""
    _require_alpha_at_most_two(g)
    _require_pattern_free(g, "house")
    return _house_free_inner(g)


def owh_free_immersion(g: Graph) -> ImmersionCertificate:
    """K_{ceil(n/2)} immersion for graphs with independence <= 2 and no
    induced triangle-with-a-two-edge-tail (the 5-vertex "owh" pattern)."""
    _require_alpha_at_most_two(g)
    _require_pattern_free(g, "owh")
    return _owh_free_inner(g)


def _peel(g: Graph, p4_steps: bool) -> ImmersionCertificate:
    """The induction of the house-free and owh-free routes as one loop over
    the mask ``live`` of the vertices not yet peeled.  Going in, each step
    peels a dominating induced P4 while ``p4_steps`` holds and one is left
    (peeling creates none), else a dominating induced C4, down to a base case
    or a C4-free rest.  Coming out, the extensions run in reverse order, each
    on the live set of its step.  A ``ClaimViolation`` gains ``"live"``."""
    live = g.vertex_mask
    steps: list[tuple[int, Callable[[ImmersionCertificate], ImmersionCertificate]]] = []
    try:
        while (cert := _base_case(g, live)) is None:
            step = _p4_step(g, live) if p4_steps else None
            if step is None:
                p4_steps = False
                step = _c4_step(g, live)
            if step is None:
                # No induced C4 and independence <= 2: no hole in [4, 2*alpha].
                cert = trim_certificate(_hole_free_build(g, live), half_ceil(live.bit_count()))
                break
            peeled, extend = step
            steps.append((live, extend))
            live &= ~mask_of(peeled)
        for live, extend in reversed(steps):
            cert = extend(cert)
    except ClaimViolation as exc:
        exc.context["live"] = sorted(bits(live))
        raise
    return cert


_house_free_inner = partial(_peel, p4_steps=False)
_owh_free_inner = partial(_peel, p4_steps=True)


def _c4_step(g: Graph, live: int) -> tuple[tuple[int, ...], partial] | None:
    """The least 4-hole of the live set and its extension; house-freeness
    makes it dominate.  None when the live set has no induced C4."""
    cycle = find_hole_in_range(g, 4, 4, live)
    if cycle is None:
        return None
    fmask = mask_of(cycle)
    for u in bits(live & ~fmask):
        if (g.adj[u] & fmask).bit_count() < 3:
            raise ClaimViolation(
                "every vertex outside an induced 4-cycle must see at least "
                "three of it (fewer forces a house or an independent triple)",
                graph=g,
                context={"vertex": u, "cycle": cycle,
                         "sees": sorted(bits(g.adj[u] & fmask))})
    # The hole is listed in cycle order, and a vertex seeing three of
    # the four cycle vertices sees an end of every cycle edge.
    return cycle, partial(_extend_c4, g, live, cycle)


def _p4_step(g: Graph, live: int) -> tuple[tuple[int, ...], partial] | None:
    """An induced P4 of the live set and its extension; owh-freeness makes
    it dominate, or close a dominating C5.  None when there is no induced P4."""
    a = find_induced_embedding(g, pattern("P4"), live)
    if a is None:
        return None
    hit = _undominated(g, live, a, [(a[0], a[1]), (a[2], a[3])])
    if hit is not None:
        raise ClaimViolation(
            "an end edge of an induced path fails to dominate, which "
            "forces the forbidden triangle-with-tail",
            graph=g, context={"path": a, "edge": hit[0], "vertex": hit[1]})
    # The embedding is an induced P4 in path order, so once its middle edge
    # dominates too, the P4 extension's preconditions hold.
    mid = _undominated(g, live, a, [(a[1], a[2])])
    a5 = None
    if mid is not None:
        # The middle edge misses someone: that someone sees exactly the two
        # path ends, closing an induced 5-cycle, whose edges must dominate.
        a5 = mid[1]
        if not (g.has_edge(a5, a[0]) and g.has_edge(a5, a[3])):
            raise ClaimViolation(
                "vertex missing the middle edge must see both path ends",
                graph=g, context={"path": a, "vertex": a5})
        cycle = a + (a5,)
        hit = _undominated(g, live, cycle, [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)])
        if hit is not None:
            raise ClaimViolation(
                "a 5-cycle edge fails to dominate, which forces the "
                "forbidden triangle-with-tail",
                graph=g, context={"cycle": cycle, "edge": hit[0], "vertex": hit[1]})
    return a, partial(_extend_articulated, g, live, a, a5)


# -- K4-free graphs (at most 8 vertices) ------------------------------------------------


def k4_free_immersion(g: Graph) -> ImmersionCertificate:
    """K_{ceil(n/2)} immersion for K4-free graphs with independence <= 2,
    found by exhaustive search (R(3, 4) = 9 keeps the class at n <= 8)."""
    _require_alpha_at_most_two(g)
    _require_pattern_free(g, "K4")
    return _k4_free_inner(g)


def _k4_free_inner(g: Graph) -> ImmersionCertificate:
    """The construction of ``k4_free_immersion``: the oracle's search at
    order ceil(n/2), whose miss on this class would be a counterexample."""
    if g.n > 8:
        raise ClaimViolation(
            "a K4-free graph with independence number at most 2 cannot have "
            "nine or more vertices", graph=g)
    cert = brute_force_immersion(g, half_ceil(g.n))
    if cert is None:
        raise ClaimViolation(
            "exhaustive search finds no ceil(n/2) immersion in a K4-free graph "
            "with independence <= 2", graph=g)
    return cert


# -- K4-minus-an-edge-free graphs --------------------------------------------------------


def k4minus_free_clique(g: Graph) -> tuple[ImmersionCertificate, TwoCliques | None]:
    """For graphs with independence <= 2 and no induced K4-minus-an-edge:
    a partition of the vertices into two cliques, the larger first, and the
    clique certificate of that whole first side, which is the largest side
    over all two-clique partitions (so at least ceil(n/2)).  A plain 5-cycle
    has no partition: it gets None and its K3 immersion from the K4-free
    route's exhaustive search.
    """
    _require_alpha_at_most_two(g)
    _require_pattern_free(g, "K4minus")
    return _k4minus_build(g)


def _k4minus_build(g: Graph, keep: int | None = None
                   ) -> tuple[ImmersionCertificate, TwoCliques | None]:
    """Two cliques of g are the colour classes of a proper 2-colouring of its
    complement, which independence <= 2 makes triangle-free and the missing
    K4-minus-an-edge (whose complement is K2 + 2K1) makes bipartite unless g
    is a plain 5-cycle.  Each complement component puts its larger side (its
    first side on ties) into the first clique, the largest any partition has.
    The certificate is the clique certificate of the first clique's ``keep``
    lowest ids (default all of it)."""
    first = second = 0
    left = g.vertex_mask
    while left:
        frontier = left & -left
        sides = [frontier, 0]
        k = 0
        while frontier:
            reach = 0
            for v in bits(frontier):
                row = g.non_neighbors(v)
                clash = row & sides[k]
                if clash:
                    if g.n == 5:
                        return _k4_free_inner(g), None  # a plain 5-cycle is K4-free
                    raise ClaimViolation(
                        "the complement has an odd cycle through a non-edge inside "
                        "one side, which forces the forbidden K4-minus-an-edge",
                        graph=g, context={"non_edge": (v, next(bits(clash)))})
                reach |= row
            k ^= 1
            frontier = reach & ~(sides[0] | sides[1])
            sides[k] |= frontier
        big, small = sorted(sides, key=int.bit_count, reverse=True)
        first, second = first | big, second | small
        left &= ~(big | small)
    if not (g.is_clique(first) and g.is_clique(second)):
        raise AssertionError("assembled part is not a clique")
    parts = frozenset(bits(first)), frozenset(bits(second))
    return direct_clique_certificate(g, list(bits(first))[:keep]), parts


# -- one excluded 4-vertex pattern: the ceil(n/2) bound --------------------------------------


#: The builder for each excluded 4-vertex pattern, returning order exactly
#: ceil(n/2); it assumes independence <= 2, which its caller has checked, and
#: the pattern's absence, which its caller has checked too except for C4: the
#: hole-free route's own scan tests that, and raises ``PreconditionError`` on
#: an induced C4.
_PATTERN_BUILDERS: dict[str, Callable[[Graph], ImmersionCertificate]] = {
    "C4": lambda g: trim_certificate(hole_free_immersion(g), half_ceil(g.n)),
    "P4": _house_free_inner,
    "paw": _house_free_inner,
    "twoK2": _owh_free_inner,
    "K3v": _owh_free_inner,
    "K4minus": lambda g: _k4minus_build(g, half_ceil(g.n))[0],
    "K4": _k4_free_inner,
}


def pattern_free_immersion(g: Graph, pattern_name: str) -> ImmersionCertificate:
    """K_{ceil(n/2)} immersion when g has independence <= 2 and omits one of
    the seven 4-vertex patterns as an induced subgraph.

    Dispatch: C4-free graphs are hole-free; P4- or paw-free graphs are
    house-free (the house contains both); twoK2- or K3v-free graphs avoid the
    triangle-with-tail (it contains both); K4-minus-free graphs split into
    two cliques (a plain 5-cycle excepted); K4-free graphs have n <= 8 and go
    to the exhaustive oracle.  The result has order exactly ceil(n/2).
    """
    if pattern_name not in FOUR_VERTEX_PATTERNS:
        raise ValueError(
            f"pattern must be one of {FOUR_VERTEX_PATTERNS}, got {pattern_name!r}")
    _require_alpha_at_most_two(g)
    if pattern_name != "C4":
        _require_pattern_free(g, pattern_name)
    return _PATTERN_BUILDERS[pattern_name](g)


def auto_immersion(g: Graph) -> tuple[str, ImmersionCertificate]:
    """Try each pattern-exclusion route in a fixed order, then the oracle.

    Returns (method token, certificate); the token names the route that
    applied, e.g. ``vergara:C4`` or ``oracle``.  Independence <= 2 is checked
    once.  The C4 route runs first, its hole scan being its own C4 test;
    then the first absent pattern's builder runs without re-checking.
    """
    _require_alpha_at_most_two(g)
    try:
        return "vergara:C4", _PATTERN_BUILDERS["C4"](g)
    except PreconditionError:
        pass  # at independence <= 2, only an induced C4 raises this
    for name in FOUR_VERTEX_PATTERNS[1:]:
        if find_induced(g, pattern(name)) is None:
            return f"vergara:{name}", _PATTERN_BUILDERS[name](g)
    budget = OracleBudget()
    if g.n <= budget.max_n:
        _t, cert = max_immersion_order(g, budget)
        return "oracle", cert
    raise PreconditionError(
        "every 4-vertex pattern occurs and the graph exceeds the exhaustive "
        f"search bound n <= {budget.max_n}")


#: The ``immlab solve --method`` routes other than ``auto``: token -> route
#: returning (certificate, two-clique partition or None).  Each checks its
#: own preconditions.
METHODS: dict[str, Callable[[Graph], tuple[ImmersionCertificate, TwoCliques | None]]] = {
    "forbholes": lambda g: (hole_free_immersion(g), None),
    "house": lambda g: (house_free_immersion(g), None),
    "owh": lambda g: (owh_free_immersion(g), None),
    "k4": lambda g: (k4_free_immersion(g), None),
    "k4minus": k4minus_free_clique,
    "oracle": lambda g: (max_immersion_order(g)[1], None),
    **{f"vergara:{name}": (lambda g, name=name: (pattern_free_immersion(g, name), None))
       for name in FOUR_VERTEX_PATTERNS},
}
