"""Exact analysis: cliques, independence, colouring, induced patterns, holes."""

from __future__ import annotations

import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from immlab import analysis
from immlab.analysis import (
    _max_matching,
    _twin_prefix,
    _twin_width,
    chordal_peo,
    chromatic_number,
    clique_profile,
    find_hole_in_range,
    find_induced,
    find_induced_embedding,
    independence_number,
    independent_triple,
    max_clique,
    peo_max_clique,
)
from immlab.construct import k4minus_free_clique
from immlab.errors import PreconditionError
from immlab.gen import random_alpha2
from immlab.graphs import (
    FOUR_VERTEX_PATTERNS,
    PATTERN_EDGES,
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    mask_of,
    path_graph,
    pattern,
)
from immlab.inflation import cycle_inflation_chromatic, inflate

from conftest import (
    count_calls,
    graphs,
    ref_chordal_peo,
    ref_chromatic_number,
    ref_find_hole_in_range,
    ref_find_induced_embedding,
    ref_has_independent_triple,
    ref_independence_number,
    ref_is_induced,
    ref_masked_embedding,
    ref_matching_number,
    ref_max_clique_size,
    ref_peo_max_clique,
)


def test_max_clique_known_values():
    assert max_clique(complete_graph(5))[0] == 5
    assert max_clique(cycle_graph(5))[0] == 2
    assert max_clique(cycle_graph(7).complement())[0] == 3
    assert max_clique(empty_graph(4))[0] == 1
    assert max_clique(empty_graph(0))[0] == 0
    size, witness = max_clique(join(complete_graph(3), complete_graph(2)))
    assert size == 5 and len(witness) == 5


def test_max_clique_on_c4_inflation():
    g, _ = inflate(cycle_graph(4), (2, 1, 2, 1))
    assert max_clique(g)[0] == 3


def test_max_clique_witness_is_a_clique():
    g = cycle_graph(7).complement()
    size, witness = max_clique(g)
    assert g.is_clique(mask_of(witness)) and len(witness) == size


@given(graphs(max_n=11))
@settings(max_examples=60)
def test_max_clique_agrees_with_enumeration(g):
    assert max_clique(g)[0] == ref_max_clique_size(g)


def c5_inflation_join(bag: int, top: Graph) -> Graph:
    core, _ = inflate(cycle_graph(5), (bag,) * 5)
    return join(core, top)


def complete_minus_perfect_matching(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if not (u % 2 == 0 and v == u + 1)])


@pytest.mark.parametrize("g, omega", [
    # C5[K20] joined to K20: 20 universal vertices over an odd-cycle colour gap.
    (c5_inflation_join(20, complete_graph(20)), 60),
    # C5[K16] joined to K16 minus a perfect matching: no universal vertex.
    (c5_inflation_join(16, complete_minus_perfect_matching(16)), 40),
], ids=["C5[K20]+K20", "C5[K16]+K16-M"])
def test_max_clique_fast_on_hole_free_joins(g, omega):
    start = time.perf_counter()
    size, witness = max_clique(g)
    elapsed = time.perf_counter() - start
    assert size == omega and len(witness) == omega
    assert g.is_clique(mask_of(witness))
    assert elapsed < 2.0, f"max_clique took {elapsed:.2f}s on n={g.n}"


def test_independence_number_known_values():
    assert independence_number(cycle_graph(7).complement())[0] == 2
    assert independence_number(cycle_graph(7))[0] == 3
    assert independence_number(complete_graph(6))[0] == 1


@given(graphs(max_n=11))
@settings(max_examples=60)
def test_independence_number_agrees_with_enumeration(g):
    assert independence_number(g)[0] == ref_independence_number(g)


def test_independent_triple_is_lex_least():
    assert independent_triple(cycle_graph(7)) == (0, 2, 4)
    assert independent_triple(complete_graph(6)) is None
    assert independent_triple(empty_graph(3)) == (0, 1, 2)


@given(graphs(max_n=12))
@settings(max_examples=80)
def test_independent_triple_agrees_with_enumeration(g):
    triple = independent_triple(g)
    assert (triple is not None) == ref_has_independent_triple(g)
    if triple is not None:
        a, b, c = triple
        assert not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))


def test_chromatic_known_values():
    assert chromatic_number(cycle_graph(5))[0] == 3
    assert chromatic_number(cycle_graph(6))[0] == 2
    assert chromatic_number(complete_graph(7))[0] == 7
    assert chromatic_number(empty_graph(5))[0] == 1
    g, _ = inflate(cycle_graph(5), (2, 2, 2, 2, 2))
    assert chromatic_number(g)[0] == 5


def test_chromatic_colouring_is_proper():
    g, _ = inflate(cycle_graph(5), (2, 1, 2, 1, 1))
    chi, colouring = chromatic_number(g)
    assert len(set(colouring)) == chi
    assert all(colouring[u] != colouring[v] for u, v in g.edges())


@given(graphs(max_n=9))
@settings(max_examples=50)
def test_chromatic_agrees_with_backtracking(g):
    assert chromatic_number(g)[0] == ref_chromatic_number(g)


def test_chromatic_counts_universal_vertices():
    g = c5_inflation_join(4, complete_graph(4))
    chi, colouring = chromatic_number(g)
    assert chi == cycle_inflation_chromatic((4,) * 5)[0] + 4 == 14
    assert all(colouring[u] != colouring[v] for u, v in g.edges())


@given(graphs(max_n=7), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_clique_and_chromatic_of_joins_with_cliques(g, u):
    h = join(g, complete_graph(u))
    assert max_clique(h)[0] == ref_max_clique_size(g) + u
    assert chromatic_number(h)[0] == ref_chromatic_number(g) + u


@given(graphs(max_n=12))
@settings(max_examples=120)
def test_max_matching_agrees_with_the_referee(g):
    mate = _max_matching(g.adj)
    pairs = {(v, mate[v]) for v in range(g.n) if v < mate[v]}
    assert all(mate[v] < 0 or mate[mate[v]] == v for v in range(g.n))
    assert all(g.has_edge(u, v) for u, v in pairs)
    assert len({v for pair in pairs for v in pair}) == 2 * len(pairs)
    assert len(pairs) == ref_matching_number(g)


@given(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=80)
def test_chromatic_at_alpha_two_agrees_with_backtracking(n, seed, u):
    """random_alpha2 graphs, and their joins with K_u (kept at n <= 12)."""
    g = random_alpha2(n, seed)
    if n + u <= 12:
        g = join(g, complete_graph(u))
    chi, colouring = chromatic_number(g)
    assert chi == ref_chromatic_number(g)
    assert len(colouring) == g.n and set(colouring) == set(range(chi))
    assert all(colouring[a] != colouring[b] for a, b in g.edges())


def test_chromatic_at_alpha_two_runs_no_clique_search(monkeypatch):
    counts = count_calls(monkeypatch, analysis, "max_clique", "_colour")
    for g in (random_alpha2(20, 4), c5_inflation_join(4, complete_graph(4)),
              c5_inflation_join(14, complete_graph(14))):
        chromatic_number(g)
    assert counts == {}
    # clique_profile searches for alpha and omega, and no more.
    assert clique_profile(c5_inflation_join(14, complete_graph(14))).chi == 49
    assert counts == {"max_clique": 2}


def test_chromatic_at_alpha_two_above_the_branch_and_bound_gate():
    chi, colouring = chromatic_number(c5_inflation_join(14, complete_graph(14)))
    assert chi == cycle_inflation_chromatic((14,) * 5)[0] + 14 == 49
    assert len(set(colouring)) == chi
    # Classes are numbered by their lowest vertex.
    firsts = [colouring.index(c) for c in range(chi)]
    assert firsts == sorted(firsts)
    with pytest.raises(PreconditionError, match="alpha >= 3"):
        chromatic_number(empty_graph(analysis.MAX_CHROMATIC_N + 1))


def test_find_induced_embedding_known_hits():
    house = pattern("house")
    emb = find_induced_embedding(house, pattern("C4"))
    assert emb is not None
    # The house is its own witness.
    assert find_induced_embedding(house, pattern("house")) == (0, 1, 2, 3, 4)
    assert find_induced_embedding(complete_graph(6), pattern("C4")) is None
    emb = find_induced_embedding(cycle_graph(6), pattern("P4"))
    assert emb is not None
    a, b, c, d = emb
    g = cycle_graph(6)
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))


def test_house_contains_p4_and_paw():
    house = pattern("house")
    assert find_induced(house, pattern("P4")) is not None
    assert find_induced(house, pattern("paw")) is not None
    owh = pattern("owh")
    assert find_induced(owh, pattern("twoK2")) is not None
    assert find_induced(owh, pattern("K3v")) is not None


@given(graphs(max_n=8), st.sampled_from(FOUR_VERTEX_PATTERNS + ("C5",)))
@settings(max_examples=120)
def test_find_induced_agrees_with_enumeration(g, name):
    pat = pattern(name)
    assert (find_induced(g, pat) is not None) == ref_is_induced(g, pat)


@given(graphs(max_n=10), st.data())
@settings(max_examples=120)
def test_masked_induced_search_matches_the_copied_subgraph(g, data):
    """Searching inside a mask gives the copy's first embedding in host ids:
    the copy's ids keep the host's order, so both DFS orders agree."""
    within = data.draw(st.integers(0, g.vertex_mask))
    for name in FOUR_VERTEX_PATTERNS + ("C5",):
        pat = pattern(name)
        assert find_induced_embedding(g, pat, within) == ref_masked_embedding(g, pat, within)


def test_masked_induced_search_gates_on_the_searched_vertices():
    """The 5-vertex gate counts the vertices of the mask, not the host's."""
    g = join(cycle_graph(5), complete_graph(595))
    assert g.n == 600
    live = mask_of(range(10))
    assert find_induced_embedding(g, pattern("C5"), live) == (0, 1, 2, 3, 4)
    assert find_induced_embedding(g, pattern("C5"), live) == ref_masked_embedding(
        g, pattern("C5"), live)
    with pytest.raises(PreconditionError, match="got 513"):
        find_induced_embedding(g, pattern("C5"), mask_of(range(513)))
    with pytest.raises(PreconditionError, match="got 600"):
        find_induced_embedding(g, pattern("C5"))


@st.composite
def twin_hosts(draw):
    """A random graph (independence at most 2 or arbitrary) with each vertex
    blown up into a clique of 1-4 true twins, its ids shuffled, and a random
    vertex mask or None."""
    if draw(st.booleans()):
        base = random_alpha2(draw(st.integers(1, 8)), draw(st.integers(0, 10**6)))
    else:
        base = draw(graphs(max_n=7, min_n=1))
    g, _ = inflate(base, tuple(draw(st.lists(st.integers(1, 4), min_size=base.n,
                                             max_size=base.n))))
    perm = draw(st.permutations(range(g.n)))
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    within = draw(st.none() | st.integers(0, g.vertex_mask))
    return g, within


@given(twin_hosts())
@settings(max_examples=120, deadline=None)
def test_induced_search_returns_the_referee_witness(host):
    """Searching twin-class representatives returns exactly the unreduced
    DFS's embedding, for every catalogue pattern."""
    g, within = host
    for name in PATTERN_EDGES:
        h = pattern(name)
        assert find_induced_embedding(g, h, within) == ref_find_induced_embedding(g, h, within)


@given(twin_hosts())
@settings(max_examples=120, deadline=None)
def test_hole_scan_returns_the_referee_hole(host):
    g, within = host
    for lo, hi in ((4, 4), (4, 5), (5, 5), (4, 9), (5, 7), (6, 12)):
        assert find_hole_in_range(g, lo, hi, within) == ref_find_hole_in_range(g, lo, hi, within)


def test_twin_widths_of_the_catalogue():
    widths = {name: _twin_width(pattern(name)) for name in PATTERN_EDGES}
    assert widths == {"C4": 1, "P4": 1, "C5": 1, "house": 1, "paw": 2, "twoK2": 2,
                      "K4minus": 2, "owh": 2, "K3v": 3, "K4": 4}


@given(twin_hosts(), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_twin_prefix_keeps_the_lowest_members_of_each_class(host, t):
    """The mask keeps the t lowest members inside ``within`` of each class of
    equal closed rows of g, so also the t lowest of each class of g[within]."""
    g, within = host
    within = g.vertex_mask if within is None else within
    mask = _twin_prefix(g, within, t)
    classes: dict[int, list[int]] = {}
    inside: dict[int, list[int]] = {}
    for v in bits(within):
        classes.setdefault(g.adj[v] | 1 << v, []).append(v)
        inside.setdefault((g.adj[v] | 1 << v) & within, []).append(v)
    assert mask == mask_of(v for c in classes.values() for v in c[:t])
    for c in inside.values():
        assert mask_of(c[:t]) & ~mask == 0


def test_twin_prefix_on_twin_free_graphs_is_within():
    for g in (cycle_graph(7), path_graph(9), pattern("house"), cycle_graph(9).complement()):
        assert _twin_prefix(g, g.vertex_mask, 1) == g.vertex_mask
        assert _twin_prefix(g, g.vertex_mask & ~1, 2) == g.vertex_mask & ~1


def two_k300():
    half = (1 << 300) - 1
    rows = [(half << (v // 300 * 300)) & ~(1 << v) for v in range(600)]
    return Graph(600, tuple(rows))


def test_k4minus_search_on_two_cliques_covers_four_vertices():
    """On 2K_300 the K4minus search runs over two twins per clique and finds
    no copy (the unreduced DFS took 53 s on this graph)."""
    g = two_k300()
    assert _twin_prefix(g, g.vertex_mask, _twin_width(pattern("K4minus"))) == mask_of(
        (0, 1, 300, 301))
    start = time.perf_counter()
    assert find_induced_embedding(g, pattern("K4minus")) is None
    assert time.perf_counter() - start < 5.0


def test_c5_search_on_two_cliques_still_hits_the_gate():
    """The 5-vertex gate counts the caller's vertices, not the representatives."""
    with pytest.raises(PreconditionError, match="n <= 512, got 600"):
        find_induced_embedding(two_k300(), pattern("C5"))


def test_k4minus_route_answers_on_two_cliques():
    """The route's C5 test is a [5, 5] hole scan, which has no 5-vertex gate."""
    cert, (a, b) = k4minus_free_clique(two_k300())
    assert cert.order == 300
    assert (len(a), len(b)) == (300, 300)


def test_find_hole_in_range_on_cycles():
    c7 = cycle_graph(7)
    assert find_hole_in_range(c7, 4, 6) is None
    hole = find_hole_in_range(c7, 4, 7)
    assert hole is not None and len(hole) == 7 and hole[0] == 0
    assert find_hole_in_range(complete_graph(6), 4, 6) is None
    assert find_hole_in_range(path_graph(6), 4, 6) is None
    c4hole = find_hole_in_range(cycle_graph(4), 4, 4)
    assert c4hole == (0, 1, 2, 3)


def test_find_hole_returns_cyclic_order():
    g, _ = inflate(cycle_graph(5), (1, 2, 1, 1, 1))
    hole = find_hole_in_range(g, 4, 5)
    assert hole is not None and len(hole) == 5
    k = len(hole)
    for i in range(k):
        assert g.has_edge(hole[i], hole[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if not (i == 0 and j == k - 1):
                assert not g.has_edge(hole[i], hole[j])


def test_find_hole_respects_bounds():
    c5 = cycle_graph(5)
    assert find_hole_in_range(c5, 4, 4) is None
    assert find_hole_in_range(c5, 5, 5) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        find_hole_in_range(c5, 3, 5)


def test_chordal_peo_and_clique():
    tree = path_graph(6)
    peo = chordal_peo(tree)
    assert peo is not None
    assert peo_max_clique(tree, peo) is not None
    assert chordal_peo(cycle_graph(4)) is None
    assert chordal_peo(cycle_graph(5)) is None
    k = complete_graph(5)
    peo = chordal_peo(k)
    assert peo is not None and len(peo_max_clique(k, peo)) == 5


@given(graphs(max_n=10))
@settings(max_examples=80)
def test_peo_clique_matches_max_clique_on_chordal(g):
    peo = chordal_peo(g)
    if peo is None:
        assert find_hole_in_range(g, 4, g.n if g.n >= 4 else 4) is not None
    else:
        assert find_hole_in_range(g, 4, max(g.n, 4)) is None
        assert len(peo_max_clique(g, peo)) == max_clique(g)[0]


@st.composite
def chordal_graphs(draw, max_n: int = 24):
    """A random chordal graph: each new vertex joins a clique of earlier
    ones (a drawn subset, greedily cut down to a clique), then the ids are
    shuffled."""
    n = draw(st.integers(0, max_n))
    adj = [0] * n
    for v in range(n):
        clique = 0
        for u in draw(st.lists(st.integers(0, v - 1), max_size=v)) if v else ():
            if clique & ~adj[u] & ~(1 << u) == 0:
                clique |= 1 << u
        for u in bits(clique):
            adj[u] |= 1 << v
        adj[v] = clique
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u in range(n) for v in bits(adj[u])
                                if u < v])


def assert_chordal_answers_match_the_referees(g, within):
    peo = chordal_peo(g, within)
    assert peo == ref_chordal_peo(g, within)
    if peo is not None:
        assert peo_max_clique(g, peo) == ref_peo_max_clique(g, peo)


@st.composite
def density_graphs(draw, max_n: int = 15):
    """A random graph whose pairs are edges with one drawn probability, so
    dense graphs are as likely as sparse ones."""
    n = draw(st.integers(0, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    p = rnd.random()
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


@given(density_graphs(), st.none() | st.integers(0, 2**15 - 1))
@settings(max_examples=600, deadline=None)
def test_chordal_peo_returns_the_referee_answers(g, within):
    """The bucketed search visits in the referee's order, so it returns the
    same PEO, the same None, and the same clique."""
    within = None if within is None else within & g.vertex_mask
    assert_chordal_answers_match_the_referees(g, within)


@given(chordal_graphs(), st.none() | st.integers(0, 2**24 - 1))
@settings(max_examples=200, deadline=None)
def test_chordal_peo_returns_the_referee_answers_on_chordal_graphs(g, within):
    within = None if within is None else within & g.vertex_mask
    assert chordal_peo(g, within) is not None
    assert_chordal_answers_match_the_referees(g, within)
