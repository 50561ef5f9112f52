"""Inflations: blow each vertex of a base graph up into a clique bag.

An inflation of a base graph B with bag sizes f replaces vertex i by a clique
on f(i) fresh vertices and joins two bags completely iff their base vertices
are adjacent.  Two engines live here:

* ``inflate_path`` -- for inflations of even paths it produces a clique
  immersion on the two end bags, with all cross paths alternating through the
  interior bags (pairwise edge-disjoint by construction).
* ``inflate_cycle`` -- for inflations of cycles it produces a clique immersion
  *and* a proper colouring with exactly as many colours as the immersion's
  order, certifying immersion-order >= chromatic number in one object.

Each engine checks its preconditions once, then calls a private builder
that works on bag ids alone and consults no graph; only the public entry
points hash the host.  The cycle builder recurses on the (k-2)-cycle
inflation of the remaining bags, numbered by fresh consecutive ids, builds
its seam with the path engine's cross walks alone, and maps the inner walks
back to its own ids.

``cycle_inflation_chromatic`` computes the exact chromatic number of a cycle
inflation in polynomial time by a transfer DP; it is independent of the
engines and is cross-checked against ``analysis.chromatic_number`` and a
plain backtracking referee in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterable

from .certificates import ImmersionCertificate, Pair, Walk
from .errors import PreconditionError
from .graphs import MAX_VERTICES, Graph, graph_from_doc, mask_of

INFLATION_FORMAT = "immlab-inflation-v1"

Bags = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InflationSpec:
    """A base graph plus the bag size of every base vertex."""

    base: Graph
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != self.base.n:
            raise ValueError(f"{len(self.sizes)} bag sizes for {self.base.n} base vertices")
        for s in self.sizes:
            if not (type(s) is int and s >= 1):
                raise ValueError(f"bag sizes must be positive ints, got {s!r}")


def inflate(base: Graph, sizes: tuple[int, ...]) -> tuple[Graph, Bags]:
    """Build the inflation graph; bag i gets the next sizes[i] consecutive ids."""
    spec = InflationSpec(base, tuple(sizes))
    if sum(spec.sizes) > MAX_VERTICES:
        raise ValueError(f"inflation of {sum(spec.sizes)} vertices exceeds {MAX_VERTICES}")
    bags: list[tuple[int, ...]] = []
    total = 0
    for s in spec.sizes:
        bags.append(tuple(range(total, total + s)))
        total += s
    masks = [mask_of(b) for b in bags]
    adj = [0] * total
    for i, bag in enumerate(bags):
        row = masks[i]
        for j in range(base.n):
            if base.has_edge(i, j):
                row |= masks[j]
        for v in bag:
            adj[v] = row & ~(1 << v)
    return Graph(total, tuple(adj)), tuple(bags)


def inflation_to_json(spec: InflationSpec) -> str:
    return (f'{{"format":"{INFLATION_FORMAT}","base":{spec.base.to_json()},'
            f'"f":[{",".join(map(str, spec.sizes))}]}}')


def inflation_from_json(text: str) -> InflationSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != INFLATION_FORMAT:
        raise ValueError(f"not a {INFLATION_FORMAT} document")
    base = graph_from_doc(doc.get("base"))
    f = doc.get("f")
    if not (isinstance(f, list) and all(type(s) is int for s in f)):
        raise ValueError("'f' must be a list of ints")
    return InflationSpec(base, tuple(f))


# -- structural checks ---------------------------------------------------------


def _check_bags(g: Graph, bags: Bags, *, minimum: int) -> list[int]:
    if len(bags) < minimum:
        raise PreconditionError(f"need at least {minimum} bags, got {len(bags)}")
    seen = 0
    for i, bag in enumerate(bags):
        if not bag:
            raise PreconditionError(f"bag {i} is empty")
        m = mask_of(bag)
        if m & seen:
            raise PreconditionError(f"bag {i} overlaps an earlier bag")
        if m & ~g.vertex_mask:
            raise PreconditionError(f"bag {i} mentions vertices outside the host")
        if not g.is_clique(m):
            raise PreconditionError(f"bag {i} is not a clique")
        seen |= m
    return [mask_of(b) for b in bags]


def _complete_between(g: Graph, a: tuple[int, ...], bmask: int) -> bool:
    return all(bmask & ~g.adj[v] == 0 for v in a)


# -- path inflations --------------------------------------------------------------


def inflate_path(g: Graph, bags: Bags) -> ImmersionCertificate:
    """Clique immersion on the two end bags of an even-path inflation.

    Preconditions (checked): an even number >= 2 of pairwise disjoint clique
    bags, consecutive bags completely joined, first bag no bigger than every
    bag and last bag no bigger than every even-position bag.

    Cross paths alternate between two fixed rows: pair (r, s) walks the r-th
    smallest vertex of every odd-position bag and the s-th smallest of every
    even-position bag, so for each junction the traversed edge is determined
    by (r, s) and all cross paths are pairwise edge-disjoint.
    """
    L = len(bags)
    if L % 2 != 0:
        raise PreconditionError(f"path inflation engine needs an even bag count, got {L}")
    masks = _check_bags(g, bags, minimum=2)
    for i in range(L - 1):
        if not _complete_between(g, bags[i], masks[i + 1]):
            raise PreconditionError(f"bags {i} and {i + 1} are not completely joined")
    if any(len(b) < len(bags[0]) for b in bags):
        raise PreconditionError("first bag must be no bigger than every bag")
    if any(len(bags[j]) < len(bags[L - 1]) for j in range(1, L, 2)):
        raise PreconditionError("last bag must be no bigger than every even-position bag")
    paths = {(u, v): (u, v) for bag in (bags[0], bags[L - 1])
             for u, v in combinations(sorted(bag), 2)}
    return ImmersionCertificate(g.sha256(), tuple(sorted((*bags[0], *bags[L - 1]))),
                                _cross_walks(bags, paths))


def _cross_walks(bags: Bags, paths: dict[Pair, Walk]) -> dict[Pair, Walk]:
    """``paths`` with ``inflate_path``'s paths between the two end bags added,
    for bags that meet its preconditions, in the order r, then s.

    Walk (r, s) takes the r-th smallest vertex of every odd-position bag (the
    first, third, ...) and the s-th smallest of every even-position bag, so
    the walks of one r are the tuples of one ``zip``: each odd-position
    bag's r-th vertex repeated, beside the even-position bags cut to the
    last bag's size.  A walk whose first end is the larger is stored
    reversed, keyed by its ordered ends.
    """
    rows = [sorted(b) for b in bags]
    m = len(rows[-1])
    for r in range(len(rows[0])):
        for walk in zip(*[repeat(row[r]) if j % 2 == 0 else row[:m]
                          for j, row in enumerate(rows)]):
            a, b = walk[0], walk[-1]
            if a < b:
                paths[a, b] = walk
            else:
                paths[b, a] = walk[::-1]
    return paths


# -- exact chromatic number of cycle inflations -------------------------------------


def _transition_bounds(sizes: tuple[int, ...], t: int, i: int, x: int) -> range:
    """Feasible |S_{i+1} cap S_0| values given |S_i cap S_0| = x."""
    b0, bi, bnext = sizes[0], sizes[i], sizes[i + 1]
    outside = t - b0 - bi + x  # colours in neither S_0 nor S_i
    lo = max(0, bnext - outside)
    hi = min(b0 - x, bnext)
    return range(lo, hi + 1)


def _bag_sets_for(sizes: tuple[int, ...], t: int) -> tuple[tuple[int, ...], ...] | None:
    """Colour sets S_i, |S_i| = sizes[i], cyclically disjoint, within t colours.

    Transfer DP on x_i = |S_i cap S_0|: by colour-permutation symmetry the
    reachable futures depend on (S_0, S_i) only through x_i.  Accepts iff
    x_{k-1} = 0.  Reconstruction picks the smallest feasible intersection at
    each step and realises sets lowest-colours-first, so output is canonical.
    """
    k = len(sizes)
    if sizes[0] > t:
        return None
    reachable: list[set[int]] = [set() for _ in range(k)]
    reachable[0] = {sizes[0]}
    for i in range(k - 1):
        for x in reachable[i]:
            for y in _transition_bounds(sizes, t, i, x):
                reachable[i + 1].add(y)
    if 0 not in reachable[k - 1]:
        return None
    xs = [0] * k
    xs[0] = sizes[0]
    xs[k - 1] = 0
    for i in range(k - 2, 0, -1):
        xs[i] = min(x for x in reachable[i]
                    if xs[i + 1] in _transition_bounds(sizes, t, i, x))
    s0 = tuple(range(sizes[0]))
    sets = [s0]
    prev = set(s0)
    palette = set(range(t))
    for i in range(1, k):
        y = xs[i]
        from_s0 = sorted(set(s0) - prev)[:y]
        outside = sorted(palette - set(s0) - prev)[: sizes[i] - y]
        cur = tuple(sorted(from_s0 + outside))
        if len(cur) != sizes[i]:
            raise AssertionError("reconstruction desynchronised from the DP")
        sets.append(cur)
        prev = set(cur)
    return tuple(sets)


def cycle_inflation_chromatic(sizes: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact chromatic number of the inflation of C_k with these bag sizes.

    Returns (chi, colour sets per bag).  Search ascends from the maximum
    adjacent bag-size sum (a clique in the inflation, hence a lower bound);
    t = n is always feasible, so the loop terminates.
    """
    k = len(sizes)
    if k < 3:
        raise PreconditionError(f"cycles need at least 3 bags, got {k}")
    for s in sizes:
        if s < 1:
            raise PreconditionError("bag sizes must be positive")
    start = max(sizes[i] + sizes[(i + 1) % k] for i in range(k))
    total = sum(sizes)
    for t in range(start, total + 1):
        sets = _bag_sets_for(tuple(sizes), t)
        if sets is not None:
            return t, sets
    raise AssertionError("t = n is always feasible for disjoint colour sets")


# -- cycle inflations ----------------------------------------------------------------


def _validate_cycle_bags(g: Graph, bags: Bags, cover: int) -> None:
    """The bags tile the vertices of the mask ``cover`` as an exact cycle inflation."""
    masks = _check_bags(g, bags, minimum=3)
    k = len(bags)
    if sum(masks) != cover:  # the masks are disjoint
        raise PreconditionError("bags must cover every host vertex")
    for i in range(k):
        for j in range(i + 1, k):
            if j - i == 1 or (i == 0 and j == k - 1):
                if not _complete_between(g, bags[i], masks[j]):
                    raise PreconditionError(f"bags {i} and {j} are not completely joined")
            elif any(masks[j] & g.adj[v] for v in bags[i]):
                raise PreconditionError(
                    f"bags {i} and {j} must be anticomplete (inflation not exact)")


def _max_adjacent_rotation(sizes: list[int]) -> int:
    """Index i (lowest on ties) maximising sizes[i] + sizes[i+1 mod k]."""
    k = len(sizes)
    return max(range(k), key=lambda i: (sizes[i] + sizes[(i + 1) % k], -i))


def inflate_cycle(g: Graph, bags: Bags) -> tuple[ImmersionCertificate, tuple[int, ...]]:
    """Clique immersion plus a matching proper colouring for a cycle inflation.

    The certificate's order equals the number of colours used, so the pair
    witnesses immersion-order >= #colours >= chi(g).  The order can exceed
    chi(g) -- the bigger immersion is genuinely there; callers wanting chi
    exactly should trim against ``cycle_inflation_chromatic``.

    Triangle inflations are complete graphs (direct certificate, all colours
    distinct).  C4 inflations are perfect: the best adjacent bag pair is a
    maximum clique and four colour blocks reach the same count.  Longer
    cycles rotate the heaviest adjacent pair to the end, route all paths
    between the end pair's neighbours through it (even-path engine on four
    bags), and recurse on the (k-2)-cycle inflation of the other bags, over
    fresh consecutive ids.  Each inner walk comes back to the host step by
    step, riding a seam path wherever it crosses between the two end bags.
    The colouring of the deleted two bags reuses the neighbours' colours plus
    a leftover palette, with fresh colours only when the heavy pair itself
    forces the count up -- and then the heavy pair is itself a big enough
    clique to certify directly.
    """
    _validate_cycle_bags(g, bags, g.vertex_mask)
    branch, paths, colour = _cycle_build(bags)
    return ImmersionCertificate(g.sha256(), branch, paths), colour


def _clique(vertices: Iterable[int]) -> tuple[tuple[int, ...], dict[Pair, Walk]]:
    branch = tuple(sorted(vertices))
    return branch, {(u, v): (u, v) for u, v in combinations(branch, 2)}


def _shortcut(walk: list[int]) -> list[int]:
    """Delete closed subwalks until the walk is simple.

    Each cut removes walk[i+1..j] where walk[i] == walk[j], i.e. a closed
    subwalk, so the surviving edge multiset is a subset of the original and
    edge-disjointness with other paths is preserved.
    """
    while True:
        seen: dict[int, int] = {}
        cut = None
        for idx, v in enumerate(walk):
            if v in seen:
                cut = (seen[v], idx)
                break
            seen[v] = idx
        if cut is None:
            return walk
        i, j = cut
        walk = walk[: i + 1] + walk[j + 1:]


def _cycle_build(bags: Bags) -> tuple[tuple[int, ...], dict[Pair, Walk], tuple[int, ...]]:
    """Branch, paths and colouring of ``inflate_cycle`` over the ids of
    ``bags``, which form an exact cycle inflation; the colouring is indexed
    by id up to the largest, and ids in no bag get -1.

    No graph is consulted.  The top-level bags were proved exact by
    ``_validate_cycle_bags``, so every pair inside a bag or across adjacent
    bags is an edge, and the inner levels, numbered from 0, are exact by
    construction.  The seam bags meet ``inflate_path``'s size conditions by
    the rotation.

    An inner step a -> b is lifted by d = bag_of[a] - bag_of[b] alone: with
    |d| <= 1 it is a host edge, with d = +-(k-3) it joins the inner end bags
    and rides the seam walk of its host pair, and any other d is an error.
    A two-vertex inner walk, the only kind the k = 3 and k = 5 levels make,
    lifts to its host pair or to that pair's seam walk as it stands: a seam
    walk is simple and runs from the lower id.
    """
    k = len(bags)
    sizes = [len(b) for b in bags]
    colour = [-1] * (1 + max(map(max, bags)))

    if k == 3:
        branch, paths = _clique(v for bag in bags for v in bag)
        for c, v in enumerate(branch):
            colour[v] = c
        return branch, paths, tuple(colour)

    if k == 4:
        heavy = _max_adjacent_rotation(sizes)
        branch, paths = _clique([*bags[heavy], *bags[(heavy + 1) % 4]])
        x = max(sizes[0], sizes[2])
        for bag_index, base in ((0, 0), (2, 0), (1, x), (3, x)):
            for offset, v in enumerate(sorted(bags[bag_index])):
                colour[v] = base + offset
        return branch, paths, tuple(colour)

    # k >= 5: rotate the heaviest adjacent pair to positions (k-2, k-1).
    shift = (_max_adjacent_rotation(sizes) + 2) % k
    rb = tuple(bags[(j + shift) % k] for j in range(k))
    rs = [len(b) for b in rb]
    # Heaviest-at-end gives rs[0] <= rs[k-2] and rs[k-3] <= rs[k-1].
    if rs[0] > rs[k - 2] or rs[k - 3] > rs[k - 1]:
        raise AssertionError("rotation failed to dominate its neighbours")

    # Inner (k-2)-cycle inflation: bag j gets the next rs[j] consecutive ids,
    # as ``inflate`` numbers them; inner id <-> host id by rank within a bag.
    to_host: list[int] = []
    bag_of: list[int] = []
    inner_bags: list[tuple[int, ...]] = []
    for j in range(k - 2):
        inner_bags.append(tuple(range(len(to_host), len(to_host) + rs[j])))
        to_host.extend(sorted(rb[j]))
        bag_of.extend([j] * rs[j])
    inner_branch, inner_paths, inner_colour = _cycle_build(tuple(inner_bags))

    # Extend the colouring to the two heavy bags.
    t_inner = max(inner_colour) + 1
    for a, c in enumerate(inner_colour):
        colour[to_host[a]] = c
    first_colours = sorted(colour[v] for v in rb[0])
    last_colours = sorted(colour[v] for v in rb[k - 3])
    heavy1 = sorted(rb[k - 2])  # neighbour of rb[k-3] and rb[k-1]
    heavy2 = sorted(rb[k - 1])  # neighbour of rb[k-2] and rb[0]
    for v, c in zip(heavy1, first_colours):
        colour[v] = c
    for v, c in zip(heavy2, last_colours):
        colour[v] = c
    leftovers = [c for c in range(t_inner)
                 if c not in set(first_colours) | set(last_colours)]
    fresh = t_inner
    for v in heavy1[len(first_colours):] + heavy2[len(last_colours):]:
        if leftovers:
            colour[v] = leftovers.pop(0)
        else:
            colour[v] = fresh
            fresh += 1

    if fresh > t_inner:
        # The heavy adjacent pair is a clique of exactly `fresh` vertices.
        if rs[k - 2] + rs[k - 1] != fresh:
            raise AssertionError("fresh-colour count disagrees with the heavy pair")
        branch, paths = _clique([*rb[k - 2], *rb[k - 1]])
        return branch, paths, tuple(colour)

    # All |B_{k-3}| x |B_0| seam paths through the two heavy bags.
    if rs[k - 3] <= rs[0]:
        seam = _cross_walks((rb[k - 3], rb[k - 2], rb[k - 1], rb[0]), {})
    else:
        seam = _cross_walks((rb[0], rb[k - 1], rb[k - 2], rb[k - 3]), {})

    # Each inner step within a bag or between adjacent inner bags is a host
    # edge, except a step between the two end bags, which rides its seam path.
    # As ``to_host`` is a bijection, only a walk that rode a seam can repeat a vertex.
    last = k - 3
    paths: dict[Pair, Walk] = {}
    for walk in inner_paths.values():
        hu, hv = to_host[walk[0]], to_host[walk[-1]]
        key = (hu, hv) if hu < hv else (hv, hu)
        if len(walk) == 2:  # the host edge or its seam walk, as it stands
            d = bag_of[walk[0]] - bag_of[walk[1]]
            if -1 <= d <= 1:
                paths[key] = key
                continue
            if d == last or d == -last:
                paths[key] = seam[key]
                continue
        host_walk = [hu]
        rode_seam = False
        for a, b in zip(walk, walk[1:]):
            d = bag_of[a] - bag_of[b]
            if -1 <= d <= 1:
                host_walk.append(to_host[b])
            elif d == last or d == -last:
                ha, hb = to_host[a], to_host[b]
                seam_walk = seam[(ha, hb) if ha < hb else (hb, ha)]
                host_walk.extend(seam_walk[1:] if seam_walk[0] == ha else seam_walk[-2::-1])
                rode_seam = True
            else:
                raise AssertionError(
                    f"inner step ({a},{b}) joins non-adjacent bags {bag_of[a]}, {bag_of[b]}")
        if rode_seam:
            host_walk = _shortcut(host_walk)
        paths[key] = tuple(host_walk) if hu < hv else tuple(host_walk[::-1])
    branch = tuple(sorted(to_host[b] for b in inner_branch))
    return branch, paths, tuple(colour)
