"""Inflations: blow-ups, their immersion constructors, and exact colouring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from immlab import inflation
from immlab.analysis import independence_number
from immlab.certificates import verify_certificate
from immlab.errors import PreconditionError
from immlab.construct import hole_free_immersion
from immlab.gen import forbholes_family, random_inflation
from immlab.graphs import Graph, cycle_graph, path_graph
from immlab.inflation import (
    InflationSpec,
    cycle_inflation_chromatic,
    inflate,
    inflate_cycle,
    inflate_path,
    inflation_from_json,
    inflation_to_json,
)

from conftest import (
    count_calls,
    graphs,
    ref_chromatic_number,
    ref_cross_walks,
    ref_inflation_to_json,
)


def proper(g, colouring):
    return all(colouring[u] != colouring[v] for u, v in g.edges())


def bag_colouring_to_vertices(g, bags, bag_sets):
    """Expand per-bag colour sets into a per-vertex colouring of the host."""
    colour = [-1] * g.n
    for bag, colours in zip(bags, bag_sets):
        for v, c in zip(sorted(bag), sorted(colours)):
            colour[v] = c
    return tuple(colour)


def test_inflate_c4_shape():
    g, bags = inflate(cycle_graph(4), (2, 1, 2, 1))
    assert g.n == 6
    assert len(g.edges()) == 10  # 2+2+2+2 between bags, 1+1 inside
    assert bags == ((0, 1), (2,), (3, 4), (5,))
    assert independence_number(g)[0] == 2


def test_inflate_rejects_bad_sizes():
    with pytest.raises(ValueError):
        inflate(cycle_graph(4), (2, 1, 2))
    with pytest.raises(ValueError):
        inflate(cycle_graph(4), (2, 0, 2, 1))
    # The total is gated before any bag is built.
    for sizes in ((2**63, 1, 1), (2**62, 1, 1), (4094, 1, 2)):
        with pytest.raises(ValueError, match="exceeds 4096"):
            inflate(cycle_graph(3), sizes)


def test_inflation_json_frozen_and_round_trip():
    spec = InflationSpec(cycle_graph(5), (2, 1, 3, 1, 2))
    doc = inflation_to_json(spec)
    assert doc == ('{"format":"immlab-inflation-v1",'
                   '"base":{"format":"immlab-graph-v1","n":5,'
                   '"edges":[[0,1],[0,4],[1,2],[2,3],[3,4]]},'
                   '"f":[2,1,3,1,2]}')
    assert inflation_from_json(doc) == spec
    with pytest.raises(ValueError):
        inflation_from_json('{"format":"immlab-graph-v1","n":1,"edges":[]}')
    with pytest.raises(ValueError):
        inflation_from_json('{"format":"immlab-inflation-v1","base":null,"f":[1]}')


@given(graphs(max_n=8), st.data())
@settings(max_examples=100, deadline=None)
def test_inflation_json_matches_the_referee(base, data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 2**70), min_size=base.n, max_size=base.n)))
    spec = InflationSpec(base, sizes)
    assert inflation_to_json(spec) == ref_inflation_to_json(spec)


def test_inflation_spec_validates_sizes():
    with pytest.raises(ValueError):
        InflationSpec(cycle_graph(4), (1, 1, 1))
    with pytest.raises(ValueError):
        InflationSpec(cycle_graph(3), (1, 0, 1))


def test_inflation_rejects_boolean_bag_sizes():
    with pytest.raises(ValueError):
        inflation_from_json('{"format":"immlab-inflation-v1","base":{"format":'
                            '"immlab-graph-v1","n":1,"edges":[]},"f":[true]}')
    with pytest.raises(ValueError):
        InflationSpec(cycle_graph(3), (1, True, 1))


def test_inflate_path_small_fixed():
    g, bags = inflate(path_graph(4), (2, 2, 2, 2))
    cert = inflate_path(g, bags)
    assert cert.order == 4  # p + q with p = q = 2
    assert set(cert.branch) == set(bags[0]) | set(bags[-1])
    assert verify_certificate(g, cert).ok


def test_inflate_path_hypotheses_enforced():
    g, bags = inflate(path_graph(3), (1, 2, 1))
    with pytest.raises(PreconditionError):
        inflate_path(g, bags)  # odd number of bags
    g2, bags2 = inflate(path_graph(4), (3, 2, 2, 1))
    with pytest.raises(PreconditionError):
        inflate_path(g2, bags2)  # first bag larger than another bag
    g3, bags3 = inflate(path_graph(4), (1, 1, 2, 2))
    with pytest.raises(PreconditionError):
        inflate_path(g3, bags3)  # last bag larger than an alternating-row bag


def test_inflate_path_random_battery():
    for seed in range(40):
        spec = random_inflation("path", 2 + 2 * (seed % 4), 1 + seed % 4, seed)
        g, bags = inflate(spec.base, spec.sizes)
        cert = inflate_path(g, bags)
        assert cert.order == len(bags[0]) + len(bags[-1])
        assert set(cert.branch) == set(bags[0]) | set(bags[-1])
        assert verify_certificate(g, cert).ok


@st.composite
def cross_walk_bags(draw):
    """2, 4 or 6 disjoint bags meeting ``inflate_path``'s size conditions,
    their id blocks in any order and with gaps, each bag listed in any order."""
    L = draw(st.sampled_from((2, 4, 6)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=L, max_size=L))
    sizes[-1] = min(sizes[1::2])
    sizes[0] = min(sizes)
    start = [0] * L
    offset = draw(st.integers(0, 3))
    for i in draw(st.permutations(range(L))):
        start[i] = offset
        offset += sizes[i] + draw(st.integers(0, 2))
    return tuple(tuple(draw(st.permutations(range(start[i], start[i] + sizes[i]))))
                 for i in range(L))


@given(cross_walk_bags())
@settings(max_examples=300, deadline=None)
def test_cross_walks_match_the_referee(bags):
    """Same walks under the same keys, in the same order, whichever end
    bag holds the higher ids (as on a cycle seam)."""
    assert list(inflation._cross_walks(bags, {}).items()) == list(ref_cross_walks(bags, {}).items())


def test_inflate_cycle_formula_small_k():
    # k=3: the inflation is complete multipartite -> complete? no: bags are
    # cliques too, so a triangle inflation is a complete graph.
    g, bags = inflate(cycle_graph(3), (2, 1, 2))
    cert, colouring = inflate_cycle(g, bags)
    assert cert.order == 5
    assert verify_certificate(g, cert).ok
    assert proper(g, colouring)
    # k=4: order = max(b0,b2) + max(b1,b3).
    g4, bags4 = inflate(cycle_graph(4), (2, 1, 3, 2))
    cert4, col4 = inflate_cycle(g4, bags4)
    assert cert4.order == 3 + 2
    assert verify_certificate(g4, cert4).ok
    assert proper(g4, col4)
    assert len(set(col4)) == cert4.order


def test_inflate_cycle_c5_units():
    g, bags = inflate(cycle_graph(5), (1, 1, 1, 1, 1))
    cert, colouring = inflate_cycle(g, bags)
    assert cert.order == 3
    assert len(set(colouring)) == 3
    assert proper(g, colouring)
    assert verify_certificate(g, cert).ok


def test_inflate_cycle_c5_doubled_overshoots_chromatic():
    """Known weak spot: the engine may use one colour above the exact value."""
    g, bags = inflate(cycle_graph(5), (2, 2, 2, 2, 2))
    cert, colouring = inflate_cycle(g, bags)
    assert cycle_inflation_chromatic((2, 2, 2, 2, 2))[0] == 5
    assert cert.order == 6  # one above optimal; trimming happens upstream
    assert cert.order == len(set(colouring))
    assert proper(g, colouring)
    assert verify_certificate(g, cert).ok


def test_inflate_cycle_rejects_paths():
    g, bags = inflate(path_graph(4), (1, 1, 1, 1))
    with pytest.raises(PreconditionError):
        inflate_cycle(g, bags)


def test_cycle_chromatic_dp_frozen_values():
    assert cycle_inflation_chromatic((1, 1, 1, 1, 1))[0] == 3
    assert cycle_inflation_chromatic((2, 2, 2, 2, 2))[0] == 5
    assert cycle_inflation_chromatic((1, 1, 1))[0] == 3
    assert cycle_inflation_chromatic((2, 1, 2, 1))[0] == 3
    assert cycle_inflation_chromatic((4, 1, 4, 1, 1))[0] == 6


def test_cycle_chromatic_witness_is_a_proper_colouring():
    sizes = (2, 1, 3, 1, 2)
    g, bags = inflate(cycle_graph(5), sizes)
    chi, bag_sets = cycle_inflation_chromatic(sizes)
    colouring = bag_colouring_to_vertices(g, bags, bag_sets)
    assert proper(g, colouring)
    assert len(set(colouring)) == chi


@given(st.integers(3, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_cycle_chromatic_dp_matches_reference(k, data):
    sizes = tuple(data.draw(st.integers(1, 3)) for _ in range(k))
    g, _ = inflate(cycle_graph(k), sizes)
    if g.n > 12:
        return
    assert cycle_inflation_chromatic(sizes)[0] == ref_chromatic_number(g)


def test_inflate_cycle_random_battery():
    for seed in range(40):
        spec = random_inflation("cycle", 3 + seed % 6, 1 + seed % 3, seed)
        g, bags = inflate(spec.base, spec.sizes)
        cert, colouring = inflate_cycle(g, bags)
        assert proper(g, colouring)
        assert cert.order == len(set(colouring))
        assert cert.order >= cycle_inflation_chromatic(spec.sizes)[0]
        assert verify_certificate(g, cert).ok


# -- each structure is checked once ------------------------------------------------


def test_inflate_cycle_checks_the_bags_once(monkeypatch):
    """The recursion and the seam reuse the top-level validation."""
    g, bags = inflate(cycle_graph(9), (2,) * 9)
    counts = count_calls(monkeypatch, inflation, "_validate_cycle_bags", "_check_bags")
    cert, colouring = inflate_cycle(g, bags)
    assert verify_certificate(g, cert).ok and proper(g, colouring)
    assert counts["_validate_cycle_bags"] == 1
    assert counts["_check_bags"] == 1


@pytest.mark.parametrize("k", [9, 13])
def test_inflate_cycle_builds_no_graph_and_hashes_only_the_host(monkeypatch, k):
    """The recursion runs over bag ids: no graph is built below the entry
    point, and the one serialisation is the host's, for its hash."""
    g, bags = inflate(cycle_graph(k), (2,) * k)
    counts = count_calls(monkeypatch, Graph, "__post_init__", "to_json")
    cert, colouring = inflate_cycle(g, bags)
    assert (counts["__post_init__"], counts["to_json"]) == (0, 1)
    assert verify_certificate(g, cert).ok and proper(g, colouring)


def test_cycle_build_shortcuts_only_the_walks_that_rode_a_seam(monkeypatch):
    """An inner walk needs a shortcut only if one of its steps joins the
    inner cycle's first and last bags, which the caller's seam paths replace."""
    g, bags = inflate(cycle_graph(9), (2,) * 9)
    levels = []                       # (bags, paths) per call, deepest first
    real = inflation._cycle_build

    def recording(level_bags):
        out = real(level_bags)
        levels.append((level_bags, out[1]))
        return out

    monkeypatch.setattr(inflation, "_cycle_build", recording)
    counts = count_calls(monkeypatch, inflation, "_shortcut")
    cert, colouring = inflate_cycle(g, bags)
    assert verify_certificate(g, cert).ok and proper(g, colouring)
    inner = levels[:-1]
    seam_walks = sum(
        any((x in first and y in last) or (y in first and x in last)
            for x, y in zip(walk, walk[1:]))
        for first, last, paths in ((set(b[0]), set(b[-1]), p) for b, p in inner)
        for walk in paths.values())
    assert 0 < counts["_shortcut"] <= seam_walks < sum(len(p) for _, p in inner)


@pytest.mark.parametrize("sizes", [(2,) * 13, (5, 3, 5, 4, 5, 4, 5, 2, 4, 4, 2)])
def test_cycle_seams_hold_only_the_cross_walks(monkeypatch, sizes):
    """Each level's seam holds one walk per pair of its two end bags,
    |B_{k-3}| * |B_0| in all, and nothing inside either bag."""
    g, bags = inflate(cycle_graph(len(sizes)), sizes)
    seams = []
    real = inflation._cross_walks

    def recording(seam_bags, paths):
        out = real(seam_bags, paths)
        seams.append((seam_bags, out))
        return out

    monkeypatch.setattr(inflation, "_cross_walks", recording)
    cert, colouring = inflate_cycle(g, bags)
    assert verify_certificate(g, cert).ok and proper(g, colouring)
    assert len(seams) >= 4
    for seam_bags, walks in seams:
        first, last = set(seam_bags[0]), set(seam_bags[-1])
        assert len(walks) == len(first) * len(last)
        assert all((u in first) != (v in first) and (u in last) != (v in last)
                   for u, v in walks)


def test_shortcut_cuts_closed_subwalks_in_walk_order():
    # A detour that comes back to a vertex is cut away.
    assert inflation._shortcut([0, 2, 1, 2]) == [0, 2]
    # The first repeat found is cut first: cutting at the 2s first would
    # leave (0, 1, 2, 5) instead.
    assert inflation._shortcut([0, 1, 2, 3, 1, 4, 2, 5]) == [0, 1, 4, 2, 5]


def test_hole_free_route_checks_the_inflation_shape_once(monkeypatch):
    g = forbholes_family(3, 4)[0]
    counts = count_calls(monkeypatch, inflation, "_validate_cycle_bags")
    assert verify_certificate(g, hole_free_immersion(g)).ok
    assert counts["_validate_cycle_bags"] == 1
