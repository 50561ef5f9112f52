"""Certificates: verification verdicts, canonical JSON, and trimming."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from immlab.analysis import max_clique
from immlab.certificates import (
    ImmersionCertificate,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    direct_clique_certificate,
    ordered_pair,
    trim_certificate,
    verify_certificate,
)
from immlab.gen import random_alpha2, random_inflation
from immlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)
from immlab.inflation import inflate, inflate_cycle, inflate_path
from immlab.oracle import brute_force_immersion

from conftest import graphs, ref_certificate_to_json, ref_verify_certificate


def k4_star():
    """K4 on 0..3 plus a universal hub 4."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(v, 4) for v in range(4)]
    return Graph.from_edges(5, edges)


def test_direct_clique_certificate_verifies():
    g = complete_graph(4)
    cert = direct_clique_certificate(g, range(4))
    assert cert.order == 4
    assert verify_certificate(g, cert).ok
    with pytest.raises(ValueError):
        direct_clique_certificate(cycle_graph(4), range(4))


def test_low_order_certificates_are_valid():
    g = empty_graph(0)
    assert verify_certificate(g, ImmersionCertificate(g.sha256(), (), {})).ok
    h = empty_graph(3)
    assert verify_certificate(h, ImmersionCertificate(h.sha256(), (1,), {})).ok


def test_hash_mismatch_is_detected_first():
    g, h = complete_graph(3), complete_graph(4)
    cert = direct_clique_certificate(g, range(3))
    verdict = verify_certificate(h, cert)
    assert not verdict.ok and verdict.reason == "hash-mismatch"


def test_structural_rejections():
    g = complete_graph(3)
    bad_branch = ImmersionCertificate(g.sha256(), (0, 7), {(0, 7): (0, 7)})
    assert verify_certificate(g, bad_branch).reason == "structural"
    dup_branch = ImmersionCertificate(g.sha256(), (1, 1), {(1, 1): (1, 1)})
    assert verify_certificate(g, dup_branch).reason == "structural"
    extra = ImmersionCertificate(
        g.sha256(), (0, 1), {(0, 1): (0, 1), (0, 2): (0, 2)})
    assert verify_certificate(g, extra).reason == "structural"


def test_condition_one_rejections():
    g = complete_graph(4)
    # Missing pair.
    cert = ImmersionCertificate(g.sha256(), (0, 1, 2), {(0, 1): (0, 1),
                                                        (0, 2): (0, 2)})
    assert verify_certificate(g, cert).reason == "condition-I"
    # Wrong endpoints.
    cert = ImmersionCertificate(g.sha256(), (0, 1), {(0, 1): (1, 0)})
    assert verify_certificate(g, cert).reason == "condition-I"
    # Non-simple walk.
    cert = ImmersionCertificate(g.sha256(), (0, 1), {(0, 1): (0, 2, 3, 2, 1)})
    assert verify_certificate(g, cert).reason == "condition-I"
    # Step along a non-edge.
    c4 = cycle_graph(4)
    cert = ImmersionCertificate(c4.sha256(), (0, 2), {(0, 2): (0, 2)})
    assert verify_certificate(c4, cert).reason == "condition-I"


def test_condition_two_rejects_shared_edges():
    g = k4_star()
    paths = {(0, 1): (0, 4, 1), (0, 2): (0, 4, 2), (1, 2): (1, 2)}
    cert = ImmersionCertificate(g.sha256(), (0, 1, 2), paths)
    verdict = verify_certificate(g, cert)
    assert not verdict.ok and verdict.reason == "condition-II"


def test_condition_three_rejects_branch_interiors():
    g = complete_graph(5)
    # Edge-disjoint and simple, but branch vertex 2 sits inside walk (0,1).
    paths = {(0, 1): (0, 2, 1), (0, 2): (0, 3, 2), (1, 2): (1, 4, 2)}
    cert = ImmersionCertificate(g.sha256(), (0, 1, 2), paths)
    verdict = verify_certificate(g, cert)
    assert not verdict.ok and verdict.reason == "condition-III"


def test_shared_non_branch_interiors_are_allowed():
    g = k4_star()
    paths = {(0, 1): (0, 4, 1), (2, 3): (2, 4, 3),
             (0, 2): (0, 2), (0, 3): (0, 3), (1, 2): (1, 2), (1, 3): (1, 3)}
    cert = ImmersionCertificate(g.sha256(), (0, 1, 2, 3), paths)
    assert verify_certificate(g, cert).ok


def test_certificate_json_is_canonical():
    g = complete_graph(2)
    cert = direct_clique_certificate(g, [0, 1])
    doc = certificate_to_json(cert)
    want = ('{"format":"immlab-cert-v1","graph_sha256":"%s","order":2,'
            '"branch":[0,1],"paths":[{"u":0,"v":1,"walk":[0,1]}]}' % g.sha256())
    assert doc == want
    assert certificate_from_json(doc) == cert


def test_certificate_json_round_trip_preserves_walks():
    g = cycle_graph(5)
    cert = brute_force_immersion(g, 3)
    assert cert is not None
    again = certificate_from_json(certificate_to_json(cert))
    assert again == cert
    assert verify_certificate(g, again).ok


def test_certificate_json_rejections():
    g = complete_graph(2)
    doc = json.loads(certificate_to_json(direct_clique_certificate(g, [0, 1])))
    bad = dict(doc, format="nope")
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps(bad))
    bad = dict(doc, order=3)
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps(bad))
    bad = dict(doc, paths=[{"u": 1, "v": 0, "walk": [1, 0]}])
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps(bad))
    bad = dict(doc, paths=doc["paths"] * 2)
    with pytest.raises(ValueError):
        certificate_from_json(json.dumps(bad))


def test_certificate_json_rejects_booleans_for_integers():
    g = complete_graph(2)
    doc = json.loads(certificate_to_json(direct_clique_certificate(g, [0, 1])))
    for bad in (dict(doc, branch=[False, True]),
                dict(doc, paths=[{"u": 0, "v": 1, "walk": [False, True]}]),
                dict(doc, paths=[{"u": False, "v": 1, "walk": [0, 1]}]),
                dict(doc, paths=[{"u": 0, "v": True, "walk": [0, 1]}]),
                dict(doc, order=True, branch=[0], paths=[])):
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(bad))


def test_verifier_rejects_booleans_for_vertices():
    g = complete_graph(2)
    bool_branch = ImmersionCertificate(g.sha256(), (False, True), {(0, 1): (0, 1)})
    assert verify_certificate(g, bool_branch).reason == "structural"
    bool_walk = ImmersionCertificate(g.sha256(), (0, 1), {(0, 1): (False, True)})
    assert verify_certificate(g, bool_walk).reason == "structural"


def test_trim_keeps_lowest_branch_vertices():
    g = complete_graph(6)
    cert = direct_clique_certificate(g, range(6))
    cut = trim_certificate(cert, 4)
    assert cut.branch == (0, 1, 2, 3)
    assert cut.order == 4 and verify_certificate(g, cut).ok
    assert trim_certificate(cert, 6) == cert
    with pytest.raises(ValueError):
        trim_certificate(cert, 7)


def test_ordered_pair():
    assert ordered_pair(3, 1) == (1, 3)
    assert ordered_pair(1, 3) == (1, 3)


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_direct_clique_certs_verify_on_max_cliques(g):
    size, witness = max_clique(g)
    if size == 0:
        return
    cert = direct_clique_certificate(g, witness)
    assert cert.order == size
    assert verify_certificate(g, cert).ok


def test_verifier_fuzz_500_constructed_certificates():
    """500 certificates from four construction routes, all must verify."""
    checked = 0
    for seed in range(125):
        n = 4 + seed % 6
        g = random_alpha2(n, seed)
        size, witness = max_clique(g)
        cert = direct_clique_certificate(g, witness)
        assert verify_certificate(g, cert).ok
        checked += 1

        cut = trim_certificate(cert, (size + 1) // 2)
        assert verify_certificate(g, cut).ok
        checked += 1

        base = cycle_graph(4 + 2 * (seed % 3))
        sizes = tuple(1 + (seed + i) % 3 for i in range(base.n))
        infl, bags = inflate(base, sizes)
        icert, _ = inflate_cycle(infl, bags)
        assert verify_certificate(infl, icert).ok
        checked += 1

        pbase = path_graph(2 + 2 * (seed % 2))
        psizes = [1 + (seed + i) % 3 for i in range(pbase.n)]
        odd_min = min(psizes[1::2])
        psizes[-1] = min(psizes[-1], odd_min)
        psizes[0] = min(psizes)
        pinfl, pbags = inflate(pbase, tuple(psizes))
        pcert = inflate_path(pinfl, pbags)
        assert verify_certificate(pinfl, pcert).ok
        checked += 1
    assert checked == 500


# -- the verifier against its dict-and-set referee --------------------------------


@st.composite
def host_certificates(draw):
    """A valid certificate: a direct clique on part of a maximum clique of a
    small graph (or of its complement, so that dense hosts are common), or a
    small path or cycle inflation's engine certificate."""
    kind = draw(st.sampled_from(["clique", "path", "cycle"]))
    if kind == "clique":
        g = draw(graphs(max_n=10))
        if draw(st.booleans()):
            g = g.complement()
        _, witness = max_clique(g)
        order = draw(st.permutations(sorted(witness)))
        return g, direct_clique_certificate(g, order[draw(st.integers(0, len(order))):])
    k = draw(st.sampled_from([2, 4, 6]) if kind == "path" else st.integers(3, 9))
    spec = random_inflation(kind, k, draw(st.integers(1, 4)), draw(st.integers(0, 10**6)))
    g, bags = inflate(spec.base, spec.sizes)
    return g, (inflate_path(g, bags) if kind == "path" else inflate_cycle(g, bags)[0])


MUTATIONS = ["none", "flip", "splice", "branch-inside", "drop", "extra-key",
             "bad-walk-vertex", "bad-branch-vertex", "repeat"]


def mutate(draw, g, cert):
    """One of the edits a tampered certificate can carry; None when the
    certificate is too small for the drawn edit."""
    how = draw(st.sampled_from(MUTATIONS))
    branch = list(cert.branch)
    items = [(key, list(walk)) for key, walk in cert.paths.items()]
    if how in ("flip", "splice", "branch-inside", "drop", "bad-walk-vertex", "repeat"):
        if not items:
            return None
        i = draw(st.integers(0, len(items) - 1))
        walk = items[i][1]
    if how == "flip":
        pool = branch if draw(st.booleans()) else list(range(g.n))
        walk[draw(st.integers(0, len(walk) - 1))] = draw(st.sampled_from(pool))
    elif how == "splice":
        # Run along another path from the same start, then step to this
        # path's end: the shared prefix's edges are used twice.
        a, c = walk[0], walk[-1]
        detours = [w2[:j + 1] + [c] for key, w2 in items if key != items[i][0] and w2[0] == a
                   for j in range(1, len(w2)) if c not in w2[:j + 1] and g.has_edge(w2[j], c)]
        if not detours:
            return None
        walk[:] = draw(st.sampled_from(detours))
    elif how == "branch-inside":
        # Reroute some path a -> b through a branch vertex z, as a, [p,] z,
        # [q,] b over edges no path uses: only condition III can fail.  Or
        # put a branch vertex anywhere inside, when there is no such route.
        used = {frozenset(step) for _, w2 in items for step in zip(w2, w2[1:])}
        free = [[y for y in range(g.n) if g.has_edge(x, y) and {x, y} not in used]
                for x in range(g.n)]
        routes = [(h, route) for h, ((a, b), _) in enumerate(items) for z in branch
                  for p in (None, *free[a]) for q in (None, *free[b])
                  if (route := [v for v in (a, p, z, q, b) if v is not None])
                  and len(set(route)) == len(route)
                  and all(y in free[x] for x, y in zip(route, route[1:]))]
        if routes:
            h, route = draw(st.sampled_from(routes))
            items[h][1][:] = route
        elif branch:
            walk.insert(draw(st.integers(1, len(walk) - 1)), draw(st.sampled_from(branch)))
        else:
            return None
    elif how == "drop":
        del items[i]
    elif how == "extra-key":
        key = draw(st.sampled_from([(u, v) for u in range(g.n + 1) for v in range(u, g.n + 1)]))
        if key in cert.paths:
            return None
        items.insert(draw(st.integers(0, len(items))), (key, list(key)))
    elif how == "bad-walk-vertex":
        walk[draw(st.integers(0, len(walk) - 1))] = draw(st.sampled_from([True, False, -1, g.n]))
    elif how == "bad-branch-vertex":
        if not branch:
            return None
        branch[draw(st.integers(0, len(branch) - 1))] = draw(st.sampled_from([True, -1, g.n]))
    elif how == "repeat":
        walk.insert(draw(st.integers(0, len(walk))), draw(st.sampled_from(walk)))
    return ImmersionCertificate(cert.host_hash, tuple(branch),
                                {key: tuple(walk) for key, walk in items})


@given(host_certificates(), st.data())
@settings(max_examples=1000, deadline=None)
def test_verifier_matches_the_referee_on_tampered_certificates(host, data):
    g, cert = host
    assert verify_certificate(g, cert) == ref_verify_certificate(g, cert) == Verdict(True)
    tampered = mutate(data.draw, g, cert)
    if tampered is not None:
        assert verify_certificate(g, tampered) == ref_verify_certificate(g, tampered)


K6 = complete_graph(6)
K6_MINUS_12 = Graph.from_edges(6, [e for e in combinations(range(6), 2) if e != (1, 2)])

#: (host, paths on branch (0, 1, 2), the reason and detail where a case pins them).
FIXED_FAULTS = [
    # Branch vertex 2 inside a path: second of three, third of five, second of four.
    (K6, {(0, 1): (0, 2, 1), (0, 2): (0, 3, 2), (1, 2): (1, 4, 2)}, None),
    (K6, {(0, 1): (0, 3, 2, 4, 1), (0, 2): (0, 2), (1, 2): (1, 2)}, None),
    (K6, {(0, 1): (0, 2, 3, 1), (0, 2): (0, 4, 2), (1, 2): (1, 2)}, None),
    # Edge 3-4 walked in both directions.
    (K6, {(0, 1): (0, 3, 4, 1), (0, 2): (0, 4, 3, 2), (1, 2): (1, 2)}, None),
    # A walk through branch vertex 2 reuses two one-edge walks: the reuse is
    # named, although the walk also breaks condition III.
    (K6, {(0, 1): (0, 2, 1), (0, 2): (0, 2), (1, 2): (1, 2)},
     ("condition-II", "edge (0, 2) used by paths (0, 1) and (0, 2)")),
    # A one-edge walk written backwards.
    (K6, {(0, 1): (1, 0), (0, 2): (0, 2), (1, 2): (1, 2)},
     ("condition-I", "path (0, 1) does not run 0 -> 1: (1, 0)")),
    # A wrong end in path (0, 1) is named before the one-edge walk (1, 2)
    # over a missing edge.
    (K6_MINUS_12, {(0, 1): (0, 3), (0, 2): (0, 2), (1, 2): (1, 2)},
     ("condition-I", "path (0, 1) does not run 0 -> 1: (0, 3)")),
]


@pytest.mark.parametrize("g, paths, named", FIXED_FAULTS,
                         ids=[f"paths{i}" for i in range(len(FIXED_FAULTS))])
def test_verifier_matches_the_referee_on_fixed_faults(g, paths, named):
    cert = ImmersionCertificate(g.sha256(), (0, 1, 2), paths)
    verdict = verify_certificate(g, cert)
    assert verdict == ref_verify_certificate(g, cert) and not verdict.ok
    assert named is None or (verdict.reason, verdict.detail) == named


# -- the canonical writer against its json.dumps referee ----------------------------


@given(host_certificates())
@settings(max_examples=300, deadline=None)
def test_certificate_json_matches_the_referee_on_engine_certificates(host):
    """Direct-clique certificates on parts of maximum cliques of
    ``graphs(max_n=10)``, path and cycle certificates, and each read back."""
    _, cert = host
    text = certificate_to_json(cert)
    assert text == ref_certificate_to_json(cert)
    assert certificate_to_json(certificate_from_json(text)) == text


@st.composite
def parsed_certificates(draw):
    """A certificate read by ``certificate_from_json`` from a document that
    lists its paths in any order, with any ints and any host-hash string."""
    ints = st.integers(-2**70, 2**70)
    keys = draw(st.lists(st.tuples(ints, ints).filter(lambda p: p[0] < p[1]),
                         max_size=8, unique=True))
    branch = draw(st.lists(ints, max_size=8))
    doc = {"format": "immlab-cert-v1",
           "graph_sha256": draw(st.text() | st.sampled_from(
               ['"', "\\", 'a"b\\c', "\u00e9\u2603\U0001f600", "\n\x00\x7f"])),
           "order": len(branch),
           "branch": branch,
           "paths": [{"u": u, "v": v, "walk": draw(st.lists(ints, max_size=6))} for u, v in keys]}
    return certificate_from_json(json.dumps(doc, ensure_ascii=draw(st.booleans())))


@given(parsed_certificates())
@settings(max_examples=300, deadline=None)
def test_certificate_json_matches_the_referee_on_parsed_certificates(cert):
    assert certificate_to_json(cert) == ref_certificate_to_json(cert)
