"""Exact structural analysis: cliques, colourings, induced patterns, holes.

Everything here is exact and deterministic; these routines double as the
independent referees for the constructive machinery, so none of them may
share code with it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import PreconditionError
from .graphs import Graph, bits

MAX_CLIQUE_N = 128
MAX_CHROMATIC_N = 24
MAX_HOST_5PATTERN = 512


# -- cliques and independent sets --------------------------------------------


def max_clique(g: Graph, within: int | None = None) -> tuple[int, frozenset[int]]:
    """Maximum clique size and one witness (branch and bound, colour bound)
    among the vertices of the mask ``within`` (host ids; default all).

    The search runs on a relabelled copy in non-increasing degree order,
    ties to the lower id (Tomita & Seki's MCQ initial order): vertices that
    see almost everything take the first greedy colours, so they are
    branched on last and pruned at once.
    """
    within = g.vertex_mask if within is None else within
    n = within.bit_count()
    if n > MAX_CLIQUE_N:
        raise PreconditionError(f"max_clique limited to n <= {MAX_CLIQUE_N}, got {n}")
    if n == 0:
        return 0, frozenset()
    by_degree = sorted(bits(within), key=[-(row & within).bit_count()
                                          for row in g.adj].__getitem__)
    label = [0] * g.n
    for new, old in enumerate(by_degree):
        label[old] = 1 << new
    adj = []
    for old in by_degree:
        row = 0
        rest = g.adj[old] & within
        while rest:
            low = rest & -rest
            row |= label[low.bit_length() - 1]
            rest ^= low
        adj.append(row)
    best_mask = 1  # relabelled vertex 0 alone; any vertex is a 1-clique
    best_size = 1

    def expand(r_mask: int, r_size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        # Greedy-colour the candidates; a vertex's colour number bounds the
        # clique extension possible from it and everything coloured earlier.
        order: list[int] = []
        bound: list[int] = []
        uncoloured = cand
        colour = 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~adj[v] & ~low
                uncoloured ^= low
                order.append(v)
                bound.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            new_cand = cand & adj[v]
            if new_cand:
                expand(r_mask | (1 << v), r_size + 1, new_cand)
            elif r_size + 1 > best_size:
                best_size = r_size + 1
                best_mask = r_mask | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return best_size, frozenset(by_degree[v] for v in bits(best_mask))


def independence_number(g: Graph) -> tuple[int, frozenset[int]]:
    """alpha(g) with a witness independent set."""
    return max_clique(g.complement())


def independent_triple(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least independent 3-set, or None (certifying alpha <= 2).

    Works at any n the toolkit admits; this is the cheap exact test the
    constructions use for their alpha <= 2 precondition.
    """
    non = [g.non_neighbors(v) for v in range(g.n)]
    for u in range(g.n):
        above_u = non[u] >> (u + 1) << (u + 1)
        for v in bits(above_u):
            common = non[u] & non[v]
            common = common >> (v + 1) << (v + 1)
            if common:
                w = (common & -common).bit_length() - 1
                return (u, v, w)
    return None


# -- colouring ----------------------------------------------------------------


def _greedy_colouring(g: Graph) -> list[int]:
    colour = [-1] * g.n
    for v in range(g.n):
        used = 0
        for u in bits(g.adj[v]):
            if colour[u] >= 0:
                used |= 1 << colour[u]
        c = 0
        while used >> c & 1:
            c += 1
        colour[v] = c
    return colour


def _max_matching(adj: list[int] | tuple[int, ...]) -> list[int]:
    """Mates of a maximum matching (-1 for unmatched) of the loopless graph
    with bitset rows ``adj``: Edmonds' blossom algorithm ("Paths, trees, and
    flowers", 1965) from a greedy lowest-id matching.

    Each unmatched vertex roots one search for an augmenting path; a root
    that has none stays unmatched for good.  The forest grows over masks of
    outer and inner vertices, so a vertex is labelled once per search and
    an outer vertex meets the outer vertices of other blossoms in one mask
    operation; each blossom keeps the mask of its members under its base.
    """
    n = len(adj)
    mate = [-1] * n
    free = (1 << n) - 1
    for v in range(n):
        cand = adj[v] & free
        if cand and free >> v & 1:
            u = (cand & -cand).bit_length() - 1
            mate[v], mate[u] = u, v
            free ^= 1 << v | 1 << u
    for root in bits(free):
        if not free >> root & 1:
            continue  # the far end of an earlier augmenting path
        parent = [-1] * n  # inner vertex (or blossom-path outer) -> tree parent
        base = list(range(n))
        members: dict[int, int] = {}  # blossom base -> mask of its vertices
        outer, labelled = 1 << root, 1 << root
        queue = [root]

        def mark_path(x: int, top: int, child: int) -> int:
            # Point the blossom path from outer x up to base ``top`` back
            # along the new edge; return the bases it passes through.
            found = 0
            while base[x] != top:
                found |= 1 << base[x] | 1 << base[mate[x]]
                parent[x] = child
                child = mate[x]
                x = parent[child]
            return found

        for v in queue:
            fresh = adj[v] & ~labelled
            hit = fresh & free
            if hit:
                end = (hit & -hit).bit_length() - 1
                parent[end] = v
                free ^= 1 << root | 1 << end
                while end >= 0:
                    up = parent[end]
                    after = mate[up]
                    mate[end], mate[up] = up, end
                    end = after
                break
            for u in bits(fresh):
                if labelled >> u & 1:
                    continue  # an earlier u's mate, now outer: a blossom edge
                parent[u] = v
                w = mate[u]
                outer |= 1 << w
                labelled |= 1 << u | 1 << w
                queue.append(w)
            while True:
                cand = adj[v] & outer & ~members.get(base[v], 1 << base[v])
                if not cand:
                    break
                u = (cand & -cand).bit_length() - 1
                seen, a = 0, v  # the bases on v's path to the root
                while True:
                    a = base[a]
                    seen |= 1 << a
                    if mate[a] < 0:
                        break
                    a = parent[mate[a]]
                top = u
                while not seen >> base[top] & 1:
                    top = parent[mate[base[top]]]
                top = base[top]
                kept = blossom = members.get(top, 1 << top)
                for b in bits(mark_path(v, top, u) | mark_path(u, top, v)):
                    blossom |= members.pop(b, 1 << b)
                for x in bits(blossom & ~kept):
                    base[x] = top
                members[top] = blossom
                queue.extend(bits(blossom & ~outer))
                outer |= blossom
    return mate


def _matching_colouring(g: Graph) -> tuple[int, tuple[int, ...]]:
    """chi = n - nu(complement) with its colouring, for alpha(g) <= 2: every
    colour class is one vertex or one non-edge, so the classes are the pairs
    of a maximum matching of the complement plus singletons, each class
    numbered by its lowest vertex."""
    mate = _max_matching([g.non_neighbors(v) for v in range(g.n)])
    colour = [-1] * g.n
    chi = 0
    for v in range(g.n):
        if colour[v] < 0:
            colour[v] = chi
            if mate[v] >= 0:
                colour[mate[v]] = chi
            chi += 1
    return chi, tuple(colour)


class CliqueProfile(NamedTuple):
    """alpha and omega with witnesses; chi with a colouring, or None for both
    when n is 0, or alpha >= 3 and n is above MAX_CHROMATIC_N."""

    alpha: int
    alpha_witness: frozenset[int]
    omega: int
    omega_witness: frozenset[int]
    chi: int | None
    colouring: tuple[int, ...] | None


def clique_profile(g: Graph) -> CliqueProfile:
    """alpha and omega, each clique search run once, then chi: at alpha <= 2
    from a maximum matching of the complement at any n, otherwise (for
    0 < n <= MAX_CHROMATIC_N) by a branch and bound whose bounds reuse the
    alpha and omega found here."""
    alpha, alpha_set = independence_number(g)
    omega, clique = max_clique(g)
    chi, colouring = None, None
    if g.n and alpha <= 2:
        chi, colouring = _matching_colouring(g)
    elif 0 < g.n <= MAX_CHROMATIC_N:
        chi, colouring = _colour(g, alpha, omega, clique)
    return CliqueProfile(alpha, alpha_set, omega, clique, chi, colouring)


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper-colouring witness.

    When ``independent_triple`` finds no independent 3-set, chi is n minus
    the matching number of the complement, at any n, with no clique search.
    Otherwise (n <= MAX_CHROMATIC_N) it is ``clique_profile``'s branch and
    bound.
    """
    if g.n == 0:
        return 0, ()
    if independent_triple(g) is None:
        return _matching_colouring(g)
    if g.n > MAX_CHROMATIC_N:
        raise PreconditionError(
            f"chromatic_number limited to n <= {MAX_CHROMATIC_N} at alpha >= 3, got {g.n}")
    profile = clique_profile(g)
    return profile.chi, profile.colouring


def _colour(g: Graph, alpha: int, omega: int, clique: frozenset[int]
            ) -> tuple[int, tuple[int, ...]]:
    """Branch and bound over colour classes: vertices are coloured in a fixed
    order, each with an already-used colour or one fresh colour.  A maximum
    clique is pre-coloured (sound symmetry breaking), and the search stops as
    soon as the lower bound is met: the clique size, or u + ceil((n - u) /
    alpha) for u universal vertices, since each of those needs a colour of
    its own and every other colour class is an independent set.
    """
    u = sum(1 for row in g.adj if row.bit_count() == g.n - 1)
    lower = max(omega, u + -(-(g.n - u) // alpha))

    colour = [-1] * g.n
    clique_sorted = sorted(clique)
    for c, v in enumerate(clique_sorted):
        colour[v] = c
    rest = [v for v in range(g.n) if colour[v] < 0]

    greedy = _greedy_colouring(g)
    best_used = max(greedy) + 1
    best = list(greedy)
    if best_used == lower:
        return best_used, tuple(best)

    def descend(i: int, used: int) -> bool:
        """Returns True once a colouring matching the lower bound is found."""
        nonlocal best_used, best
        if used >= best_used:
            return False
        if i == len(rest):
            best_used = used
            best = colour.copy()
            return best_used == lower
        v = rest[i]
        seen = 0
        for u in bits(g.adj[v]):
            if colour[u] >= 0:
                seen |= 1 << colour[u]
        for c in range(used):
            if not seen >> c & 1:
                colour[v] = c
                if descend(i + 1, used):
                    return True
        if used + 1 < best_used:
            colour[v] = used
            if descend(i + 1, used + 1):
                return True
        colour[v] = -1
        return False

    descend(0, omega)
    return best_used, tuple(best)


# -- induced-subgraph search ---------------------------------------------------


def _twin_classes(g: Graph) -> list[int]:
    """Masks of g's true-twin classes (equal closed neighbourhoods) with at
    least two members, kept on g the way ``sha256`` keeps its digest."""
    classes = g.__dict__.get("_twin_classes")
    if classes is None:
        # Rows as bytes: Python hashes an int modulo 2**61 - 1, so rows that
        # differ in a few far-apart bits collide and a dict of them degrades.
        size, by_row = (g.n + 7) // 8, {}
        for v, row in enumerate(g.adj):
            key = (row | 1 << v).to_bytes(size, "little")
            by_row[key] = by_row.get(key, 0) | 1 << v
        classes = [cls for cls in by_row.values() if cls & cls - 1]
        object.__setattr__(g, "_twin_classes", classes)
    return classes


def _twin_prefix(g: Graph, within: int, t: int) -> int:
    """``within`` less all but the t lowest members of each of g's true-twin
    classes.  Twins in g stay twins in g[within], so the mask still holds
    the t lowest members of each true-twin class of g[within]."""
    for cls in _twin_classes(g):
        rest = cls & within
        for _ in range(t):
            rest &= rest - 1
        within &= ~rest
    return within


def _twin_width(h: Graph) -> int:
    """Size of h's largest true-twin class."""
    return max((cls.bit_count() for cls in _twin_classes(h)), default=1)


def find_induced_embedding(g: Graph, h: Graph, within: int | None = None
                           ) -> tuple[int, ...] | None:
    """First (in DFS order over ascending host ids) induced embedding of h
    among the vertices of the mask ``within`` (host ids; default all).

    Returns a tuple phi with phi[i] = host vertex playing h-vertex i, such
    that g.has_edge(phi[i], phi[j]) iff h.has_edge(i, j).  Candidates are
    narrowed with bitmasks: degree-based pruning is unsound for *induced*
    embeddings, so only exact prefix compatibility is used.  The 5-vertex
    gate counts the vertices of ``within``.  The constructions ask for
    induced cycles through ``find_hole_in_range``, which has no gate, and
    for the other patterns here.

    The DFS returns the lexicographically least phi, and runs only over the
    t lowest members of each of g's true-twin classes that ``within`` meets,
    t the size of h's largest true-twin class (1 for C4, P4, C5 and the
    house).  That loses no answer: swapping a vertex of phi for a lower
    unused twin gives a smaller embedding, so the least phi takes the lowest
    members of each class of g[within], and the h-vertices it maps into one
    class are true twins in h.
    """
    within = g.vertex_mask if within is None else within
    n = within.bit_count()
    if h.n == 0:
        return ()
    if h.n >= 5 and n > MAX_HOST_5PATTERN:
        raise PreconditionError(
            f"induced search for {h.n}-vertex patterns limited to hosts with "
            f"n <= {MAX_HOST_5PATTERN}, got {n}")
    if n < h.n:
        return None
    within = _twin_prefix(g, within, _twin_width(h))
    phi: list[int] = []

    def extend(cands: list[int]) -> tuple[int, ...] | None:
        i = len(phi)
        if i == h.n:
            return tuple(phi)
        for v in bits(cands[i]):
            narrowed = list(cands)
            ok = True
            for j in range(i + 1, h.n):
                if h.has_edge(i, j):
                    narrowed[j] &= g.adj[v]
                else:
                    narrowed[j] &= within & ~g.adj[v] & ~(1 << v)
                if not narrowed[j]:
                    ok = False
                    break
            if not ok:
                continue
            phi.append(v)
            got = extend(narrowed)
            if got is not None:
                return got
            phi.pop()
        return None

    return extend([within] * h.n)


def find_induced(g: Graph, h: Graph) -> frozenset[int] | None:
    """Vertex set of some induced copy of h in g, or None."""
    emb = find_induced_embedding(g, h)
    return None if emb is None else frozenset(emb)


# -- holes ---------------------------------------------------------------------


def find_hole_in_range(g: Graph, lo: int, hi: int, within: int | None = None
                       ) -> tuple[int, ...] | None:
    """First induced cycle with length in [lo, hi] among the vertices of the
    mask ``within`` (host ids; default all); lo must be >= 4.

    The returned tuple lists the hole in cyclic order starting at its minimum
    vertex.  Search is DFS over induced paths whose start is the path minimum,
    ascending at every choice point, so the answer is deterministic: the
    lexicographically least such sequence.  It runs over the lowest member
    of each of g's true-twin classes that ``within`` meets.  A hole has no
    two true twins, and swapping a hole vertex for a lower twin off the hole
    gives a smaller sequence, so the least hole avoids every other member.
    """
    if lo < 4:
        raise ValueError(f"holes start at length 4, got lo={lo}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    within = _twin_prefix(g, g.vertex_mask if within is None else within, 1)
    adj = g.adj

    def grow(s: int, path: list[int], forbidden: int) -> tuple[int, ...] | None:
        # forbidden: <= s, outside ``within``, used, or next to a non-tip path vertex.
        tail = path[-1]
        for v in bits(adj[tail] & ~forbidden):
            if adj[s] >> v & 1:
                if len(path) + 1 >= lo:
                    return tuple(path) + (v,)
                # adjacent to s but the cycle would be short: v cannot sit in
                # the interior either, or it chords the eventual cycle.
                continue
            if len(path) + 1 < hi:
                got = grow(s, path + [v], forbidden | (1 << v) | adj[tail])
                if got is not None:
                    return got
        return None

    for s in bits(within):
        below = ~within | ((2 << s) - 1)
        for p1 in bits(adj[s] & ~below):
            got = grow(s, [s, p1], below | (1 << p1))
            if got is not None:
                return got
    return None


# -- chordality ------------------------------------------------------------------


def chordal_peo(g: Graph, within: int | None = None) -> tuple[int, ...] | None:
    """A perfect elimination ordering of the vertices of the mask ``within``
    (host ids; default all) if they induce a chordal graph, else None.

    Maximum-cardinality search (max visited-neighbour count, lowest id on
    ties) over one mask of unvisited vertices per count.  The reverse visit
    order is a PEO iff at each visit the earlier-visited neighbours other
    than the latest all see the latest; the first visit that fails ends it.
    """
    within = g.vertex_mask if within is None else within
    by_count = {0: within}
    seen = [0]  # seen[i]: the first i visited vertices
    visit: list[int] = []
    for _ in range(within.bit_count()):
        top = max(by_count)
        low = by_count[top] & -by_count[top]
        v = low.bit_length() - 1
        earlier = g.adj[v] & seen[-1]
        if earlier:
            # The shortest visit prefix holding them all ends at the latest.
            latest = visit[bisect_left(seen, True, key=lambda m: not earlier & ~m) - 1]
            if earlier & ~g.adj[latest] & ~(1 << latest):
                return None
        visit.append(v)
        seen.append(seen[-1] | low)
        by_count[top] ^= low
        for count in sorted(by_count, reverse=True):
            moved = by_count[count] & g.adj[v]
            if moved:
                by_count[count] ^= moved
                by_count[count + 1] = by_count.get(count + 1, 0) | moved
            if not by_count[count]:
                del by_count[count]
    return tuple(visit[::-1])


def peo_max_clique(g: Graph, peo: tuple[int, ...]) -> frozenset[int]:
    """Maximum clique of a chordal graph read off a perfect elimination order
    of the subgraph induced on the vertices it lists: the first largest set
    of a vertex and its later neighbours."""
    best = later = 0
    for v in reversed(peo):
        members = g.adj[v] & later | 1 << v
        if members.bit_count() >= best.bit_count():
            best = members
        later |= 1 << v
    return frozenset(bits(best))
