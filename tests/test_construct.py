"""Constructive immersion routes: frozen fixtures plus randomized batteries."""

from __future__ import annotations

import hashlib
import sys
import time
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from immlab import analysis, construct
from immlab.analysis import find_induced, independence_number, max_clique
from immlab.certificates import (
    ImmersionCertificate,
    certificate_to_json,
    direct_clique_certificate,
    verify_certificate,
)
from immlab.cli import _solve_with_method
from immlab.construct import (
    _k4_free_inner,
    _k4_on_seven,
    auto_immersion,
    extend_over_dominating_c4,
    extend_over_dominating_c5,
    extend_over_dominating_p4,
    half_ceil,
    hole_free_immersion,
    house_free_immersion,
    k4_free_immersion,
    k4minus_free_clique,
    owh_free_immersion,
    pattern_free_immersion,
)
from immlab.errors import ClaimViolation, PreconditionError
from immlab.gen import (
    dominating_c4_family,
    dominating_c5_family,
    dominating_p4_family,
    forbholes_family,
    random_alpha2,
    random_hfree_alpha2,
)
from immlab.graphs import (
    FOUR_VERTEX_PATTERNS,
    Graph,
    complete_graph,
    cycle_graph,
    join,
    mask_of,
    path_graph,
    pattern,
)
from immlab.inflation import cycle_inflation_chromatic, inflate, inflate_cycle
from immlab.oracle import OracleBudget, brute_force_immersion

from conftest import complement_join, count_calls, p4_free_join, ref_auto_token


def checked(g, cert, order):
    assert cert.order == order
    verdict = verify_certificate(g, cert)
    assert verdict.ok, verdict
    return cert


def subcert_on_clique_rest(g, removed):
    """Direct clique certificate of g minus `removed`, in g's ids."""
    return direct_clique_certificate(g, [v for v in range(g.n) if v not in removed])


def test_half_ceil():
    assert [half_ceil(n) for n in range(6)] == [0, 1, 1, 2, 2, 3]


# -- hole-free route -----------------------------------------------------------------


def test_hole_free_frozen_orders():
    assert checked(cycle_graph(5), hole_free_immersion(cycle_graph(5)), 3)
    g, _ = inflate(cycle_graph(5), (2, 2, 2, 2, 2))
    assert checked(g, hole_free_immersion(g), 5)  # exact chi, engine's 6 trimmed
    big = join(g, complete_graph(2))
    assert checked(big, hole_free_immersion(big), 7)
    assert checked(path_graph(5), hole_free_immersion(path_graph(5)), 2)
    assert checked(complete_graph(1), hole_free_immersion(complete_graph(1)), 1)
    assert checked(complete_graph(6), hole_free_immersion(complete_graph(6)), 6)


def test_hole_free_rejects_short_holes():
    with pytest.raises(PreconditionError):
        hole_free_immersion(cycle_graph(4))


def test_hole_free_reaches_chi_at_alpha_two_above_the_clique_gate():
    """C5[K30] joined to K10 has n = 160, above the n <= 128 clique search:
    the route reaches chi without computing alpha."""
    core, _bags = inflate(cycle_graph(5), (30,) * 5)
    g = join(core, complete_graph(10))
    chi = cycle_inflation_chromatic((30,) * 5)[0] + 10
    assert checked(g, hole_free_immersion(g), chi) and chi == 85


def test_hole_free_empty_graph():
    g = Graph.from_edges(0, [])
    assert hole_free_immersion(g).order == 0


@pytest.mark.parametrize("host", [
    *(partial(forbholes_family, 3, s) for s in range(3)),
    lambda: (join(inflate(cycle_graph(5), (40,) * 5)[0], complete_graph(56)), {"chi": 156}),
], ids=["forbholes-3-0", "forbholes-3-1", "forbholes-3-2", "c5k40-k56"])
def test_hole_free_route_scans_for_holes_once(monkeypatch, host):
    """One scan over [4, n] both checks the precondition and finds the hole
    to build around."""
    g, info = host()
    counts = count_calls(monkeypatch, construct, "find_hole_in_range")
    checked(g, hole_free_immersion(g), info["chi"])
    assert counts["find_hole_in_range"] == 1


def test_hole_free_rescans_when_the_build_fails(monkeypatch):
    """The scan over [4, 5] meets the 5-hole (0, 2, 5, 1, 4) first, though
    the C4 (0, 2, 5, 3) exists: the build around the 5-hole fails, and the
    rescan of [4, 4] names the C4 as a precondition failure."""
    g = random_alpha2(6, 65)
    assert analysis.find_hole_in_range(g, 4, 5) == (0, 2, 5, 1, 4)
    counts = count_calls(monkeypatch, construct, "find_hole_in_range")
    with pytest.raises(PreconditionError,
                       match=r"hole of length 4 inside \[4, 4\]: \(0, 2, 5, 3\)"):
        hole_free_immersion(g)
    assert counts["find_hole_in_range"] == 2


def cycle_join(k, bag, universal):
    """C_k[K_bag] joined to K_universal."""
    return join(inflate(cycle_graph(k), (bag,) * k)[0], complete_graph(universal))


def disjoint_cliques(count, size):
    """count disjoint copies of K_size: chordal, alpha = count."""
    return Graph.from_edges(count * size, [
        e for q in range(count) for e in combinations(range(q * size, (q + 1) * size), 2)])


def path_square(n):
    """P_n plus the edges between vertices two apart: chordal, alpha = ceil(n/3)."""
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])


@pytest.mark.parametrize("host, chi", [
    (lambda: cycle_join(7, 19, 10), cycle_inflation_chromatic((19,) * 7)[0] + 10),
    (lambda: cycle_join(11, 50, 10), cycle_inflation_chromatic((50,) * 11)[0] + 10),
    (lambda: disjoint_cliques(3, 50), 50),
], ids=["C7[K19]+K10", "C11[K50]+K10", "3K50"])
def test_forbholes_reaches_chi_above_the_clique_gate_at_alpha_three_and_more(host, chi):
    """n = 143, 560 and 150, with alpha = 3, 5 and 3: the chordal graph is
    taken by its PEO clique, the others by the build around the least hole,
    and no route computes alpha."""
    g = host()
    _token, cert, _parts = _solve_with_method(g, "forbholes")
    checked(g, cert, chi)


def test_forbholes_takes_the_square_of_a_long_path_by_its_peo():
    """The square of P_200 is chordal with alpha = 67: the route reads its
    triangles off the PEO instead of scanning its induced paths for holes."""
    g = path_square(200)
    start = time.perf_counter()
    cert = hole_free_immersion(g)
    elapsed = time.perf_counter() - start
    checked(g, cert, 3)
    assert elapsed < 1.0, f"hole_free_immersion took {elapsed:.2f}s on n=200"


@pytest.mark.parametrize("k, bag, message", [
    (5, 3, r"hole of length 5 inside \[4, 6\]: \(0, 3, 6, 9, 12\)"),
    (7, 2, r"hole of length 7 inside \[4, 8\]: \(0, 2, 4, 6, 8, 10, 12\)"),
], ids=["C5[K3]+K1", "C7[K2]+K1"])
def test_hole_free_blames_the_hole_when_alpha_exceeds_its_half(k, bag, message):
    """An isolated vertex sees none of the (2a+1)-hole, so the build fails;
    no shorter hole exists, and alpha = a + 1 (the triple test at a = 2,
    the clique search at a = 3) makes the hole a precondition failure."""
    core, _bags = inflate(cycle_graph(k), (bag,) * k)
    g = Graph.from_edges(core.n + 1, core.edges())
    with pytest.raises(PreconditionError, match=message):
        hole_free_immersion(g)


@pytest.mark.parametrize("host", [
    lambda: forbholes_family(3, 4)[0],
    lambda: forbholes_family(6, 1)[0],
    lambda: cycle_join(5, 30, 10),
    lambda: cycle_join(7, 19, 10),
    lambda: disjoint_cliques(3, 50),
    lambda: complete_graph(6),
], ids=["forbholes-3-4", "forbholes-6-1", "C5[K30]+K10", "C7[K19]+K10", "3K50", "K6"])
def test_hole_free_success_path_computes_no_alpha(monkeypatch, host):
    g = host()
    counts = count_calls(monkeypatch, construct, "independent_triple", "independence_number")
    assert verify_certificate(g, hole_free_immersion(g)).ok
    assert counts["independent_triple"] == counts["independence_number"] == 0


# -- dominating-cycle extensions -----------------------------------------------------


def test_c4_extension_fan_route_on_planted_families():
    for seed in range(10):
        n = 10 + seed % 5
        g, planted = dominating_c4_family(n, seed)
        inner = brute_force_immersion(g, half_ceil(n - 4), OracleBudget(max_t=9),
                                      within=g.vertex_mask & ~mask_of(planted))
        assert inner is not None
        cert = extend_over_dominating_c4(g, planted, inner)
        checked(g, cert, half_ceil(n))


def test_c4_extension_escape_route_fixture():
    # 4-cycle 0-1-2-3 plus a K5 whose members all miss vertex 0: the branch
    # mass avoids 0's neighbourhood, so 0's non-neighbourhood is the clique.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for v in range(4, 9):
        edges += [(1, v), (2, v), (3, v)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
    g = Graph.from_edges(9, edges)
    assert independence_number(g)[0] == 2
    cert = extend_over_dominating_c4(g, (0, 1, 2, 3), subcert_on_clique_rest(g, [0, 1, 2, 3]))
    assert cert.branch == (2, 4, 5, 6, 7)
    checked(g, cert, 5)


def test_c4_extension_escape_detects_smuggled_independent_triple():
    # Same shape, but the "clique" outside has a missing edge: the input lies
    # about its independence number and the escape route must notice.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for v in range(4, 9):
        edges += [(1, v), (2, v), (3, v)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)
              if (u, v) != (7, 8)]
    g = Graph.from_edges(9, edges)
    sub = ImmersionCertificate(
        g.sha256(), (4, 5, 6),
        {(u, v): (u, v) for u in (4, 5, 6) for v in (5, 6) if u < v})
    with pytest.raises(ClaimViolation) as exc:
        extend_over_dominating_c4(g, (0, 1, 2, 3), sub)
    assert "non-adjacent" in str(exc.value)


def test_c4_extension_rejects_vertex_missing_two_cycle_vertices():
    # Vertex 5 misses both 0 and 2; every cycle edge still dominates, and the
    # engine's entry checks pass, so the pairwise-miss claim must fire.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3),
                             (0, 4), (1, 4), (2, 4), (3, 4),
                             (4, 5), (1, 5), (3, 5)])
    sub = ImmersionCertificate(g.sha256(), (4, 5), {(4, 5): (4, 5)})
    with pytest.raises(ClaimViolation) as exc:
        extend_over_dominating_c4(g, (0, 1, 2, 3), sub)
    assert exc.value.context["vertex"] == 5
    assert exc.value.context["missed"] == (0, 2)


def test_c4_extension_validates_cycle_and_subcert():
    g, planted = dominating_c4_family(10, 0)
    sub = brute_force_immersion(g, half_ceil(g.n - 4), OracleBudget(max_t=9),
                                within=g.vertex_mask & ~mask_of(planted))
    scrambled = (planted[0], planted[2], planted[1], planted[3])
    with pytest.raises(PreconditionError):
        extend_over_dominating_c4(g, scrambled, sub)  # diagonal, not cyclic
    tiny = ImmersionCertificate(g.sha256(), (planted[0],), {})
    with pytest.raises(PreconditionError):
        extend_over_dominating_c4(g, planted, tiny)  # order below required
    wrong_host = ImmersionCertificate("0" * 64, sub.branch, sub.paths)
    with pytest.raises(PreconditionError):
        extend_over_dominating_c4(g, planted, wrong_host)


@pytest.mark.parametrize("extend, family, n", [
    (extend_over_dominating_c4, dominating_c4_family, 10),
    (extend_over_dominating_c5, dominating_c5_family, 11),
    (extend_over_dominating_p4, dominating_p4_family, 10),
], ids=["c4", "c5", "p4"])
def test_extensions_check_the_subcert(extend, family, n):
    """Each public step rejects a sub-certificate over another host, one
    below order ceil((n-4)/2), and one that touches a removed vertex (the
    fourth planted vertex, which every step removes).  A good one, already at
    that order, comes back unchanged: the builders grow their own copy."""
    g, planted = family(n, 0)
    need = half_ceil(n - 4)
    others = [v for v in range(n) if v not in planted]
    cases = [
        ("0" * 64, others[:need], "not over this host graph"),
        (g.sha256(), others[:need - 1], f"order {need - 1} is below the required {need}"),
        (g.sha256(), [planted[3]] + others[:need - 1],
         rf"touches removed vertices \[{planted[3]}\]"),
    ]
    for host_hash, branch, message in cases:
        sub = ImmersionCertificate(host_hash, tuple(sorted(branch)), {})
        with pytest.raises(PreconditionError, match=message):
            extend(g, planted, sub)
    subcert = brute_force_immersion(g, need, OracleBudget(max_t=9),
                                    within=g.vertex_mask & ~mask_of(planted[:4]))
    paths, branch = dict(subcert.paths), subcert.branch
    cert = checked(g, extend(g, planted, subcert), half_ceil(n))
    assert cert.paths is not subcert.paths
    assert dict(subcert.paths) == paths
    assert subcert.branch == branch


def test_emit_keeps_walks_inside_the_live_set():
    """A walk leaving its step's live set is a bug in the construction, not a
    claim about the input: ``_emit`` raises and records nothing."""
    g = complete_graph(5)
    paths = {}
    with pytest.raises(AssertionError, match="leaves the live vertices"):
        construct._emit(g, 0b01111, paths, [0, 4, 1])
    assert paths == {}
    construct._emit(g, 0b01111, paths, [1, 3, 0])
    assert paths == {(0, 1): (0, 3, 1)}


def test_c5_extension_regression_near_miss_apex():
    # 5-cycle plus an apex adjacent to four of its five vertices; the apex is
    # the whole sub-branch, and one fan path must dodge the missing edge.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                             (5, 0), (5, 1), (5, 2), (5, 4)])
    sub = ImmersionCertificate(g.sha256(), (5,), {})
    cert = extend_over_dominating_c5(g, (0, 1, 2, 3, 4), sub)
    assert cert.branch == (0, 3, 5)
    assert cert.paths == {(0, 3): (0, 4, 3), (0, 5): (0, 5), (3, 5): (3, 2, 1, 5)}
    checked(g, cert, 3)


def test_c5_extension_on_planted_families():
    # Only the first four cycle vertices leave the subproblem; the fifth
    # stays behind as the one allowed double-miss.
    for seed in range(10):
        n = 11 + seed % 4
        g, planted = dominating_c5_family(n, seed)
        inner = brute_force_immersion(g, half_ceil(n - 4), OracleBudget(max_t=9),
                                      within=g.vertex_mask & ~mask_of(planted[:4]))
        assert inner is not None
        cert = extend_over_dominating_c5(g, planted, inner)
        checked(g, cert, half_ceil(n))


def test_p4_extension_on_planted_families():
    for seed in range(10):
        n = 10 + seed % 5
        g, planted = dominating_p4_family(n, seed)
        inner = brute_force_immersion(g, half_ceil(n - 4), OracleBudget(max_t=9),
                                      within=g.vertex_mask & ~mask_of(planted))
        assert inner is not None
        cert = extend_over_dominating_p4(g, planted, inner)
        checked(g, cert, half_ceil(n))


# -- house-free and tailed-triangle-free routes ---------------------------------------


def test_house_free_battery():
    for seed in range(24):
        n = 5 + seed % 12
        g = random_hfree_alpha2("house", n, seed)
        checked(g, house_free_immersion(g), half_ceil(n))


def test_house_free_rejects_house_or_big_independence():
    house = pattern("house")
    with pytest.raises(PreconditionError):
        house_free_immersion(house)
    with pytest.raises(PreconditionError):
        house_free_immersion(path_graph(5))  # independence number 3


def test_owh_free_battery():
    for seed in range(24):
        n = 5 + seed % 12
        g = random_hfree_alpha2("owh", n, seed)
        checked(g, owh_free_immersion(g), half_ceil(n))


def test_owh_free_on_plain_5_cycle():
    cert = owh_free_immersion(cycle_graph(5))
    assert cert.branch == (0, 3, 4)
    checked(cycle_graph(5), cert, 3)


# -- K4-free route ---------------------------------------------------------------------


def test_k4_free_battery():
    for seed in range(24):
        n = 4 + seed % 5
        g = random_hfree_alpha2("K4", n, seed)
        cert = k4_free_immersion(g)
        assert cert.order >= half_ceil(n)
        assert verify_certificate(g, cert).ok


def test_k4_free_extremal_circulant():
    # Largest possible K4-free graph with independence two: the circulant on
    # eight vertices with distances 2 and 3.
    g = Graph.from_edges(8, [(i, (i + d) % 8) for i in range(8) for d in (2, 3)])
    assert independence_number(g)[0] == 2
    assert find_induced(g, pattern("K4")) is None
    cert = k4_free_immersion(g)
    checked(g, cert, 4)


def test_k4_free_triangle_free_five_cycle():
    checked(cycle_graph(5), k4_free_immersion(cycle_graph(5)), 3)


def triangle_free_rows(n, max_alpha):
    """Adjacency rows of every labelled triangle-free graph on n vertices with
    independence at most ``max_alpha``, grown one vertex at a time: vertex k
    joins an independent set of earlier vertices, and no independent set of
    size ``max_alpha`` may lie among the ones it misses."""
    def grow(rows):
        k = len(rows)
        if k == n:
            yield rows
            return
        for nb in range(1 << k):
            members = [v for v in range(k) if nb >> v & 1]
            if any(rows[u] & nb for u in members):
                continue
            missed = [v for v in range(k) if not nb >> v & 1]
            if any(all(not rows[a] >> b & 1 for a, b in combinations(s, 2))
                   for s in combinations(missed, max_alpha)):
                continue
            yield from grow([r | (nb >> v & 1) << k for v, r in enumerate(rows)] + [nb])
    return grow([])


def test_k4_on_seven_fits_every_k4_free_alpha2_graph():
    """The direct configuration fits all 13,842 labelled 7-vertex K4-free
    graphs with independence <= 2: the complements of the triangle-free
    graphs with independence <= 3."""
    full = (1 << 7) - 1
    count = 0
    for rows in triangle_free_rows(7, 3):
        g = Graph(7, tuple(full ^ r ^ 1 << v for v, r in enumerate(rows)))
        checked(g, _k4_on_seven(g), 4)
        count += 1
    assert count == 13_842


def test_k4_free_inner_rejects_nine_vertices():
    with pytest.raises(ClaimViolation):
        _k4_free_inner(complete_graph(9))


def test_k4_free_public_rejects_k4():
    with pytest.raises(PreconditionError):
        k4_free_immersion(complete_graph(4))


# -- K4-minus-free route ----------------------------------------------------------------


def test_k4minus_plain_5_cycle_has_no_partition():
    cert, parts = k4minus_free_clique(cycle_graph(5))
    assert parts is None
    assert cert.branch == (0, 1, 2)
    checked(cycle_graph(5), cert, 3)


def test_k4minus_5_cycle_keeps_the_hole_scans_cyclic_order():
    """On every labelled 5-cycle the induced-C5 search lists the cycle in the
    order the hole scan does, so the K3 riding it is the same certificate."""
    for perm in permutations(range(5)):
        g = Graph.from_edges(5, [(perm[i], perm[(i + 1) % 5]) for i in range(5)])
        cert, parts = k4minus_free_clique(g)
        assert parts is None
        assert cert == construct._cycle_k3(g, analysis.find_hole_in_range(g, 4, 5))


@pytest.mark.parametrize("host, searches", [
    (lambda: cycle_graph(5), 1),
    (lambda: complete_graph(5), 0),
    (lambda: random_hfree_alpha2("K4minus", 9, 9), 1),
], ids=["C5", "K5", "random-9"])
def test_k4minus_build_asks_for_an_induced_c5_once(monkeypatch, host, searches):
    """The C5 test is one [5, 5] hole scan, not an induced-pattern search."""
    g = host()
    counts = count_calls(monkeypatch, construct, "find_induced_embedding",
                         "find_hole_in_range")
    construct._k4minus_build(g)
    assert counts["find_hole_in_range"] == searches
    assert counts["find_induced_embedding"] == 0


def test_k4minus_complete_graph():
    g = complete_graph(5)
    cert, parts = k4minus_free_clique(g)
    assert parts == (frozenset(range(5)), frozenset())
    checked(g, cert, 5)


def test_k4minus_two_triangles():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cert, parts = k4minus_free_clique(g)
    assert parts == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert cert.branch == (0, 1, 2)
    checked(g, cert, 3)


def test_k4minus_split_neighbourhood():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    cert, parts = k4minus_free_clique(g)
    assert parts == (frozenset({0, 1, 2}), frozenset({3, 4}))
    assert cert.branch == (0, 1, 2)
    checked(g, cert, 3)


def test_k4minus_prism_exercises_component_split():
    # Triangular prism: the minimum-degree vertex has a disconnected
    # neighbourhood, so the partition comes from the two-component analysis.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                             (0, 3), (1, 4), (2, 5)])
    cert, parts = k4minus_free_clique(g)
    assert parts == (frozenset({3, 4, 5}), frozenset({0, 1, 2}))
    assert cert.branch == (3, 4, 5)
    checked(g, cert, 3)


def test_k4minus_battery_partitions_cover_and_are_cliques():
    for seed in range(24):
        n = 5 + seed % 10
        g = random_hfree_alpha2("K4minus", n, seed)
        cert, parts = k4minus_free_clique(g)
        assert cert.order >= half_ceil(n)
        assert verify_certificate(g, cert).ok
        if parts is None:
            assert n == 5  # only the plain 5-cycle lacks a partition
            continue
        a, b = parts
        assert a | b == set(range(n)) and not (a & b)
        for side in parts:
            for u in side:
                for v in side:
                    assert u == v or g.has_edge(u, v)
        assert max(len(a), len(b)) >= half_ceil(n)


def test_k4minus_rejects_pattern_or_big_independence():
    # K4 itself is fine (the pattern is not induced in it); the rejections
    # are a literal induced copy and an independence number above two.
    cert, parts = k4minus_free_clique(complete_graph(4))
    assert parts == (frozenset(range(4)), frozenset())
    with pytest.raises(PreconditionError):
        k4minus_free_clique(pattern("K4minus"))
    with pytest.raises(PreconditionError):
        k4minus_free_clique(path_graph(5))


# -- dispatch and auto route -------------------------------------------------------------


def test_pattern_free_immersion_battery_all_seven():
    for name in FOUR_VERTEX_PATTERNS:
        top = 8 if name == "K4" else 12
        for seed in range(5):
            n = 5 + seed % (top - 4)
            g = random_hfree_alpha2(name, n, seed)
            checked(g, pattern_free_immersion(g, name), half_ceil(n))


def test_pattern_free_immersion_rejections():
    with pytest.raises(ValueError):
        pattern_free_immersion(cycle_graph(5), "house")  # not a 4-vertex route
    with pytest.raises(PreconditionError):
        pattern_free_immersion(cycle_graph(4), "C4")  # pattern present
    with pytest.raises(PreconditionError):
        pattern_free_immersion(path_graph(5), "C4")  # independence 3


def test_auto_immersion_prefers_earliest_pattern_route():
    token, cert = auto_immersion(cycle_graph(5))
    assert token == "vergara:C4"
    checked(cycle_graph(5), cert, 3)
    cc7 = cycle_graph(7).complement()
    token, cert = auto_immersion(cc7)
    assert token == "vergara:twoK2"
    checked(cc7, cert, 4)


def test_auto_immersion_falls_back_to_oracle():
    g = random_alpha2(8, 1)  # contains all seven patterns
    for name in FOUR_VERTEX_PATTERNS:
        assert find_induced(g, pattern(name)) is not None
    token, cert = auto_immersion(g)
    assert token == "oracle"
    assert cert.order >= half_ceil(8)
    assert verify_certificate(g, cert).ok


def assert_auto_token(g):
    want = ref_auto_token(g)
    if want == "oracle" and g.n > OracleBudget().max_n:
        with pytest.raises(PreconditionError, match="every 4-vertex pattern occurs"):
            auto_immersion(g)
    else:
        assert auto_immersion(g)[0] == want


@given(st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_auto_token_is_the_first_absent_pattern(n, seed):
    """The C4 route's own hole scan picks the same route as asking
    ``find_induced`` for each pattern in turn."""
    assert_auto_token(random_alpha2(n, seed))


@given(st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_auto_token_on_c5_inflation_joins(b, u):
    assert_auto_token(join(inflate(cycle_graph(5), (b,) * 5)[0], complete_graph(u)))


def test_c4_route_names_the_hole_and_auto_moves_on():
    """The [4, 5] scan meets the 5-hole before the C4: the build fails, the
    rescan names the C4, and ``auto`` takes the next absent pattern."""
    g = random_alpha2(6, 65)
    with pytest.raises(PreconditionError,
                       match=r"hole of length 4 inside \[4, 4\]: \(0, 2, 5, 3\)"):
        pattern_free_immersion(g, "C4")
    token, cert = auto_immersion(g)
    assert token == "vergara:twoK2"
    checked(g, cert, 3)


def test_c4_route_takes_a_complete_graph_without_a_hole_scan(monkeypatch):
    g = complete_graph(40)
    counts = count_calls(monkeypatch, construct, "find_hole_in_range")
    token, cert = auto_immersion(g)
    assert token == "vergara:C4"
    checked(g, cert, 20)
    checked(g, pattern_free_immersion(g, "C4"), 20)
    assert counts["find_hole_in_range"] == 0


def test_auto_immersion_large_all_patterns_is_out_of_reach():
    base = random_alpha2(8, 1)
    g = join(base, complete_graph(4))  # n = 12 keeps all patterns, alpha 2
    with pytest.raises(PreconditionError):
        auto_immersion(g)


# -- each precondition is asked once -------------------------------------------------


def count_precondition_calls(monkeypatch):
    """Counting wrappers on the searches construct imports (the routes'
    own induced searches call ``find_induced_embedding`` there); the same
    search is wrapped in analysis too, where ``find_induced`` calls it."""
    log = []
    for module, name in ((construct, "independent_triple"),
                         (construct, "find_hole_in_range"),
                         (construct, "find_induced_embedding"),
                         (analysis, "find_induced_embedding")):
        def counting(*args, _name=name, _real=getattr(module, name)):
            log.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    return log


def calls_of(log, name, *tail):
    return sum(1 for n, args in log if n == name and args[1:] == tail)


def test_auto_asks_each_precondition_once(monkeypatch):
    """The C4 route's one hole scan, over [4, n], is its only C4 test."""
    g = join(inflate(cycle_graph(5), (3,) * 5)[0], complete_graph(2))
    log = count_precondition_calls(monkeypatch)
    token, cert = auto_immersion(g)
    assert token == "vergara:C4"
    checked(g, cert, half_ceil(g.n))
    assert calls_of(log, "independent_triple") == 1
    assert calls_of(log, "find_induced_embedding", pattern("C4")) == 0
    assert calls_of(log, "find_hole_in_range", 4, g.n, g.vertex_mask) == 1
    assert sum(name == "find_hole_in_range" for name, _args in log) == 1


def test_c4_route_runs_no_induced_c4_search(monkeypatch):
    """``vergara:C4`` asks for an induced C4 only through its hole scan."""
    g = join(inflate(cycle_graph(5), (3,) * 5)[0], complete_graph(2))
    log = count_precondition_calls(monkeypatch)
    checked(g, pattern_free_immersion(g, "C4"), half_ceil(g.n))
    assert calls_of(log, "independent_triple") == 1
    assert not [args for name, args in log if name == "find_induced_embedding"]
    assert calls_of(log, "find_hole_in_range", 4, g.n, g.vertex_mask) == 1
    assert sum(name == "find_hole_in_range" for name, _args in log) == 1


def test_k4minus_route_asks_each_precondition_once(monkeypatch):
    g = random_hfree_alpha2("K4minus", 9, 9)
    log = count_precondition_calls(monkeypatch)
    checked(g, pattern_free_immersion(g, "K4minus"), half_ceil(g.n))
    assert calls_of(log, "independent_triple") == 1
    assert calls_of(log, "find_induced_embedding", pattern("K4minus")) == 1


#: Hosts on which the house route and the owh route each take 15 steps:
#: dominating C4s of the P4-free join, dominating P4s of the complement of C64.
PEEL_HOSTS = {"house": lambda: p4_free_join(64),
              "owh": lambda: complement_join(cycle_graph(64))}


@pytest.mark.parametrize("route, name", [(house_free_immersion, "house"),
                                         (owh_free_immersion, "owh")])
def test_recursive_routes_skip_the_extension_checks(monkeypatch, route, name):
    """The peeling loop proves each dominating structure it finds, so it
    calls the extension builders, not the checking public steps; it never
    copies the graph, and never copies or rescans a sub-certificate."""
    g = PEEL_HOSTS[name]()
    counts = count_calls(monkeypatch, construct, "_extend_c4", "_extend_articulated",
                         "_require_induced_at", "_require_dominating_edges",
                         "_prepare_subcert")
    copies = count_calls(monkeypatch, Graph, "induced_subgraph")
    checked(g, route(g), half_ceil(g.n))
    assert counts["_extend_c4"] + counts["_extend_articulated"] == 15
    assert counts["_require_induced_at"] == 0
    assert counts["_require_dominating_edges"] == 0
    assert counts["_prepare_subcert"] == 0
    assert copies["induced_subgraph"] == 0


@pytest.mark.parametrize("host, name, digest", [
    (lambda: p4_free_join(512), "P4",
     "7019165552f9a5108f1f5baa5fd363206a5b33ffe35906dd4033323132d7e54e"),
    (lambda: complement_join(cycle_graph(512)), "twoK2",
     "e88bafabc86b8e9ba36cbbbc19b3886b5b66453c67773a7f99d2d5a1d568b3f0"),
], ids=["p4-free-join-512", "co-C512"])
def test_peeling_depth_does_not_grow_the_stack(host, name, digest):
    """127 steps run in 200 frames above the caller: the peel is a loop.
    The certificate bytes are pinned, so a deep peel keeps its output."""
    g = host()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        cert = pattern_free_immersion(g, name)
    finally:
        sys.setrecursionlimit(limit)
    checked(g, cert, half_ceil(g.n))
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


def test_peeling_violation_names_input_vertices():
    """The C4 0-1-2-3 is joined to the C4 4-5-6-7 and to vertex 8, which
    sees only 4 and 5 of the second cycle: after the first cycle is peeled,
    8 breaks the three-of-four claim for the second, and the violation says
    so in the input's ids."""
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges = c4 + [(u + 4, v + 4) for u, v in c4] + [(8, 4), (8, 5)]
    edges += [(u, v) for u in range(4) for v in range(4, 9)]
    g = Graph.from_edges(9, edges)
    with pytest.raises(ClaimViolation, match="must see at least three") as info:
        construct._house_free_inner(g)
    assert info.value.graph == g
    assert info.value.context["vertex"] == 8
    assert info.value.context["cycle"] == (4, 5, 6, 7)
    assert info.value.context["live"] == [4, 5, 6, 7, 8]


def test_hole_free_build_reports_a_non_inflation_as_claim_violation():
    """Vertices 5 and 6 both see hole vertices 0, 1, 2, so both join bag 0
    with hole vertex 1, but they are not adjacent: the inflation shape check
    fails, and the builder keeps the graph and the hole."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(7, cycle + [(x, h) for x in (5, 6) for h in (0, 1, 2)])
    with pytest.raises(ClaimViolation, match="bag 0 is not a clique") as info:
        construct._hole_free_build(g, g.vertex_mask)
    assert info.value.graph == g
    assert info.value.context["hole"] == (0, 1, 2, 3, 4)
    assert info.value.context["bags"][0] == (1, 5, 6)


def test_residue_violation_names_input_vertices():
    """A graph of independence 3: after one C4 is peeled, the residue has the
    5-hole (3, 8, 4, 7, 9), and vertex 6 sees none of it.  The violation
    names the input graph and its vertex ids, as every peel step's does."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (0, 9), (1, 3), (1, 4),
             (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6),
             (2, 7), (3, 8), (3, 9), (4, 5), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
             (5, 9), (7, 9)]
    g = Graph.from_edges(10, edges)
    with pytest.raises(ClaimViolation, match="exactly three consecutive hole vertices") as info:
        construct._house_free_inner(g)
    assert info.value.graph == g
    assert info.value.context["vertex"] == 6
    assert info.value.context["hole"] == (3, 8, 4, 7, 9)
    assert info.value.context["live"] == [3, 4, 6, 7, 8, 9]


def test_residue_vertex_universal_only_inside_the_live_set_joins_the_core():
    """Vertex 9 sees the 5-cycle 4..8 and the peeled C4 except vertex 0: it
    is universal in the residue, not in g, and still joins its branch."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    edges += [(a, r) for a in range(4) for r in range(4, 9)]
    edges += [(9, v) for v in range(1, 9)]
    g = Graph.from_edges(10, edges)
    residue = construct._hole_free_build(g, g.vertex_mask & ~0b1111)
    assert residue.branch == (4, 7, 8, 9)
    assert residue.paths[(4, 7)] == (4, 5, 6, 7) and residue.paths[(4, 9)] == (4, 9)
    checked(g, house_free_immersion(g), 5)


#: Routes that build over the input in place: each builds no graph and
#: serialises only the host, once, for its hash.
IN_PLACE_SOLVES = {
    "k4": (lambda: random_hfree_alpha2("K4", 8, 0), k4_free_immersion),
    "vergara:C4": (lambda: join(inflate(cycle_graph(5), (3,) * 5)[0], complete_graph(2)),
                   lambda g: pattern_free_immersion(g, "C4")),
    "forbholes": (lambda: forbholes_family(2, 1)[0], hole_free_immersion),
    "forbholes-alpha3": (lambda: forbholes_family(3, 1)[0], hole_free_immersion),
    "house": (PEEL_HOSTS["house"], house_free_immersion),
    "owh": (PEEL_HOSTS["owh"], owh_free_immersion),
}


@pytest.mark.parametrize("name", list(IN_PLACE_SOLVES))
def test_routes_build_no_graph_and_hash_only_the_host(monkeypatch, name):
    host, solve = IN_PLACE_SOLVES[name]
    g = host()
    counts = count_calls(monkeypatch, Graph, "__post_init__", "to_json")
    cert = solve(g)
    assert (counts["__post_init__"], counts["to_json"]) == (0, 1)
    assert verify_certificate(g, cert).ok


# -- each graph is serialised once ---------------------------------------------------


def solve_auto(g):
    _token, cert = auto_immersion(g)
    return cert


def solve_cycle(g):
    bags = inflate(cycle_graph(9), (2,) * 9)[1]
    return inflate_cycle(g, bags)[0]


@pytest.mark.parametrize("host, solve", [
    (lambda: join(inflate(cycle_graph(5), (3,) * 5)[0], complete_graph(2)), solve_auto),
    (lambda: inflate(cycle_graph(9), (2,) * 9)[0], solve_cycle),
    (lambda: forbholes_family(3, 4)[0], hole_free_immersion),
], ids=["auto", "inflate_cycle", "hole_free"])
def test_each_graph_is_serialised_once_per_solve_and_verify(monkeypatch, host, solve):
    g = host()
    serialised = []          # the graphs themselves, so no id is reused
    real = Graph.to_json

    def counting(self):
        serialised.append(self)
        return real(self)
    monkeypatch.setattr(Graph, "to_json", counting)
    cert = solve(g)
    assert verify_certificate(g, cert).ok
    certificate_to_json(cert)
    assert any(h is g for h in serialised)
    for h in serialised:
        assert sum(other is h for other in serialised) == 1, h
