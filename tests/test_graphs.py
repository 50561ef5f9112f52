"""Graph core: bitset adjacency, canonical formats, constructors, patterns."""

from __future__ import annotations

import hashlib
import json
import pickle
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from immlab.graphs import (
    FOUR_VERTEX_PATTERNS,
    Graph,
    MAX_VERTICES,
    PATTERN_EDGES,
    bits,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_json,
    graph_from_text,
    join,
    mask_of,
    path_graph,
    pattern,
)

from conftest import count_calls, graphs, ref_edges, ref_to_json, ref_to_text


def test_bits_and_mask_round_trip():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and g.has_edge(3, 2)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert sorted(bits(g.non_neighbors(0))) == [2, 3]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def test_repeated_edges_are_rejected():
    # Otherwise different input documents would parse to the same graph hash.
    with pytest.raises(ValueError, match=r"\(1,0\) repeats the pair \(0, 1\)"):
        graph_from_json('{"format":"immlab-graph-v1","n":2,"edges":[[0,1],[1,0],[0,1]]}')
    with pytest.raises(ValueError, match=r"\(0,1\) repeats"):
        graph_from_json('{"format":"immlab-graph-v1","n":3,"edges":[[0,1],[1,2],[0,1]]}')
    with pytest.raises(ValueError, match=r"\(2,1\) repeats the pair \(1, 2\)"):
        graph_from_text("3 3\n0 1\n1 2\n2 1\n")
    with pytest.raises(ValueError, match="repeats"):
        Graph.from_edges(3, iter([(0, 1), (0, 1)]))


def test_canonical_json_is_bit_exact():
    g = cycle_graph(4)
    doc = '{"format":"immlab-graph-v1","n":4,"edges":[[0,1],[0,3],[1,2],[2,3]]}'
    assert g.to_json() == doc
    # Key order and edge sort are part of the format.
    parsed = json.loads(doc)
    assert list(parsed) == ["format", "n", "edges"]


@given(graphs(max_n=40), st.booleans())
@example(empty_graph(0), False)
@example(empty_graph(1), False)
@example(empty_graph(40), False)
@example(empty_graph(40), True)
@settings(max_examples=200)
def test_canonical_bytes_match_the_bit_by_bit_reference(g, dense):
    if dense:
        g = g.complement()
    assert g.edges() == ref_edges(g)
    assert g.to_json() == ref_to_json(g)
    assert g.to_text() == ref_to_text(g)
    assert graph_from_json(g.to_json()) == g and graph_from_text(g.to_text()) == g


def test_largest_complete_graph_round_trips_quickly():
    n = MAX_VERTICES
    full = (1 << n) - 1
    g = Graph(n, tuple(full & ~(1 << v) for v in range(n)))
    seconds = []
    for _ in range(2):   # the faster of two rounds, in CPU time: a busy host is not the code
        start = time.process_time()
        text = g.to_json()
        parsed = graph_from_json(text)
        seconds.append(time.process_time() - start)
    assert min(seconds) < 10.0
    assert parsed == g
    assert parsed.sha256() == g.sha256() == hashlib.sha256(text.encode("ascii")).hexdigest()


def test_sha256_matches_independent_hash(monkeypatch):
    g = cycle_graph(4)
    want = hashlib.sha256(g.to_json().encode("ascii")).hexdigest()
    serialised = count_calls(monkeypatch, Graph, "to_json")
    assert g.sha256() == want
    assert g.sha256() == want
    assert serialised["to_json"] == 1


def test_kept_digest_is_invisible(monkeypatch):
    g = cycle_graph(5)
    digest = g.sha256()
    fresh = cycle_graph(5)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g == fresh and hash(copy) == hash(fresh)
    serialised = count_calls(monkeypatch, Graph, "to_json")
    assert copy.sha256() == digest == fresh.sha256()
    assert serialised["to_json"] == 1      # fresh only: the copy kept the digest


def test_adjacency_must_be_a_tuple():
    # A list could change after the digest is kept, so it is refused.
    with pytest.raises(ValueError, match="tuple"):
        Graph(2, [2, 1])


ASYMMETRIC = [
    ((2, 0, 0), "asymmetric adjacency 0-1"),
    ((0, 0, 1), "asymmetric adjacency 2-0"),
    ((6, 41, 1, 0, 2, 2), "asymmetric adjacency 1-3"),
]


@pytest.mark.parametrize("adj, message", ASYMMETRIC)
def test_asymmetric_adjacency_names_the_first_pair(adj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(len(adj), adj)


def first_asymmetric_pair(adj):
    """Reference: the smallest v, then the smallest u in adj[v] with v not in adj[u]."""
    for v, row in enumerate(adj):
        for u in bits(row):
            if not adj[u] >> v & 1:
                return f"asymmetric adjacency {v}-{u}"
    return None


@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_symmetry_check_agrees_with_reference(rows):
    adj = tuple(row & ~(1 << v) for v, row in enumerate(rows))
    message = first_asymmetric_pair(adj)
    if message is None:
        assert Graph(len(adj), adj).adj == adj
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(len(adj), adj)


def test_largest_complete_graph_builds_quickly():
    n = MAX_VERTICES
    full = (1 << n) - 1
    rows = tuple(full & ~(1 << v) for v in range(n))
    start = time.perf_counter()
    g = Graph(n, rows)
    assert time.perf_counter() - start < 3.0
    assert g.degree(0) == n - 1


def test_clique_and_independent_masks():
    g = cycle_graph(5)
    assert g.is_independent(0) and g.is_independent(0b1) and g.is_independent(0b101)
    assert not g.is_independent(0b11) and not g.is_independent(0b10001)
    assert g.is_independent(0b1010) and not g.is_independent(0b1011)
    assert complete_graph(4).is_clique(0b1111) and not g.is_clique(0b101)


def test_text_format_round_trip():
    g = cycle_graph(4)
    assert g.to_text() == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert graph_from_text(g.to_text()) == g
    assert graph_from_text("3 0\n") == empty_graph(3)


def test_json_round_trip_and_validation():
    g = cycle_graph(5)
    assert graph_from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        graph_from_json('{"format":"unknown","n":1,"edges":[]}')
    with pytest.raises(ValueError):
        graph_from_json('{"format":"immlab-graph-v1","n":2,"edges":[[0,2]]}')


def test_json_rejects_booleans_for_integers():
    # JSON true would otherwise pass as 1 and hash differently from n = 1.
    with pytest.raises(ValueError):
        graph_from_json('{"format":"immlab-graph-v1","n":true,"edges":[]}')
    with pytest.raises(ValueError):
        graph_from_json('{"format":"immlab-graph-v1","n":2,"edges":[[false,true]]}')


def test_complement_of_c5_is_a_5_cycle():
    h = cycle_graph(5).complement()
    assert h.edge_count() == 5
    assert all(h.degree(v) == 2 for v in range(5))


@given(graphs(max_n=16))
def test_complement_is_an_involution(g):
    assert g.complement().complement() == g


@given(graphs(max_n=16))
def test_complement_degrees(g):
    h = g.complement()
    assert all(g.degree(v) + h.degree(v) == g.n - 1 for v in range(g.n))


def test_induced_subgraph_remap_is_monotone():
    g = cycle_graph(6)
    sub, remap = g.induced_subgraph([5, 1, 3])
    assert sub.n == 3
    assert remap == {1: 0, 3: 1, 5: 2}
    assert sub.edge_count() == 0  # 1, 3, 5 pairwise non-adjacent in C6
    sub2, remap2 = g.induced_subgraph(range(1, 6))
    assert sub2.n == 5 and remap2[5] == 4
    assert sub2.has_edge(0, 1) and not sub2.has_edge(0, 4)


def disjoint_union(a, b):
    return Graph(a.n + b.n, tuple(list(a.adj) + [row << a.n for row in b.adj]))


def test_union_and_join_sizes():
    a, b = complete_graph(3), cycle_graph(4)
    u = disjoint_union(a, b)
    assert (u.n, u.edge_count()) == (7, 3 + 4)
    j = join(a, b)
    assert (j.n, j.edge_count()) == (7, 3 + 4 + 12)
    assert j.has_edge(0, 5) and not u.has_edge(0, 5)


def test_basic_constructors():
    assert complete_graph(5).edge_count() == 10
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle_graph(3) == complete_graph(3)
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert empty_graph(0).n == 0


def test_pattern_catalog_is_frozen():
    assert FOUR_VERTEX_PATTERNS == (
        "C4", "P4", "paw", "twoK2", "K3v", "K4minus", "K4")
    assert pattern("K4").edges() == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pattern("K4minus").edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert pattern("C4").edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert pattern("P4").edges() == [(0, 1), (1, 2), (2, 3)]
    assert pattern("paw").edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert pattern("K3v").edges() == [(0, 1), (0, 2), (1, 2)]
    assert pattern("K3v").n == 4
    assert pattern("twoK2").edges() == [(0, 1), (2, 3)]
    assert pattern("C5").edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert pattern("house").edges() == [
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)]
    assert pattern("owh").edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
    assert set(FOUR_VERTEX_PATTERNS) <= set(PATTERN_EDGES)
    with pytest.raises(ValueError):
        pattern("K5")


def test_pattern_catalogue_is_built_once():
    assert pattern("C4") is pattern("C4")
    with pytest.raises(ValueError, match=r"unknown pattern 'K5'; known: \['C4', "):
        pattern("K5")


@given(graphs(max_n=12), st.data())
def test_induced_subgraph_preserves_adjacency(g, data):
    keep = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)))) if g.n else set()
    keep = sorted(v for v in keep if v < g.n)
    sub, remap = g.induced_subgraph(keep)
    assert sub.n == len(keep)
    for u in keep:
        for v in keep:
            if u < v:
                assert sub.has_edge(remap[u], remap[v]) == g.has_edge(u, v)
