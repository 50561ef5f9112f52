"""Certificate bytes pinned per route and per inflation engine on seeded fixtures.

Each route token of ``immlab solve --method`` is run through the CLI's
dispatcher on a few seeded graphs that meet its precondition, and the
SHA-256 of the certificates' canonical JSON (one line per fixture) is
compared with a pinned digest.  The two inflation engines are pinned the same
way, with the cycle engine's colouring as one more line per fixture.  The
induced-pattern and hole searches are pinned by their witnesses on hosts
with large true-twin classes, and ``immlab analyze`` by its output digest.  A
refactor of the routes or the engines must leave every digest unchanged; a
deliberate change of output must update the pin and say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import immlab.cli as cli
from immlab.analysis import find_hole_in_range, find_induced_embedding
from immlab.certificates import certificate_to_json, verify_certificate
from immlab.cli import _solve_with_method
from immlab.gen import Rng, forbholes_family, random_alpha2, random_hfree_alpha2, random_inflation
from immlab.graphs import (
    FOUR_VERTEX_PATTERNS,
    PATTERN_EDGES,
    Graph,
    complete_graph,
    cycle_graph,
    join,
    path_graph,
    pattern,
)
from immlab.inflation import inflate, inflate_cycle, inflate_path
from immlab.oracle import OracleBudget, brute_force_immersion, max_immersion_order

from conftest import complement_join, p4_free_join


def c5k3_join_k2():
    core, _ = inflate(cycle_graph(5), (3, 3, 3, 3, 3))
    return join(core, complete_graph(2))


def hfree(name, top=10):
    return [random_hfree_alpha2(name, n, n) for n in range(6, top + 1)]


def fixtures(token):
    if token == "forbholes":
        return ([forbholes_family(2, s)[0] for s in (1, 2, 3)]
                + [forbholes_family(3, s)[0] for s in (1, 2)] + [c5k3_join_k2()])
    if token == "house":
        return hfree("house")
    if token == "owh":
        return hfree("owh")
    if token == "k4":
        return hfree("K4", 8)
    if token == "k4minus":
        return hfree("K4minus")
    if token == "oracle":
        return [random_alpha2(n, n) for n in (6, 7, 8)]
    if token == "auto":
        return ([random_alpha2(n, n) for n in range(6, 11)]
                + [forbholes_family(2, 1)[0], c5k3_join_k2(), cycle_graph(5),
                   complete_graph(5), complete_graph(0)]
                + [random_hfree_alpha2(p, 9, 3) for p in FOUR_VERTEX_PATTERNS
                   if p != "K4"])
    name = token.split(":", 1)[1]
    return hfree(name, 8 if name == "K4" else 10)


GOLDEN = {
    "forbholes": "2bec3473dd8be9afbb0641bd1bb05971fe7c1c5a32245c8b1d6dba977081b156",
    "house": "83a9b59c45ed0d0a1e683d06d3dfeb48d36e8a59970c0a5b18e0c09664be3942",
    "owh": "ab28e5543d5f8e65fcaff5e076869d04734fdc70b98e73e60856710a42fd5730",
    "k4": "fea516c54e793be945ae5836250b4dcf022f5dbd6dcc53793b0f13999c5166f9",
    "k4minus": "ac652ea93adeeb875ecf04f9efd41f47d537787dc18a9efb05af244637c2c160",
    "oracle": "4d6e3d793c3c00af7e9dcc8a0515e0533756b4221ccea7e7958ff53d46caa809",
    "auto": "3944f3087257005abcd5b2d00d5baa54f4edefe0d51f72f1362418085e038be6",
    "vergara:C4": "83a9b59c45ed0d0a1e683d06d3dfeb48d36e8a59970c0a5b18e0c09664be3942",
    "vergara:P4": "05cc13a77ba6d8a70abb3ea6c48b014f93c18f3f21f5f83a6b6677e374489476",
    "vergara:paw": "74ccafcf7935e014638ca720b6f176adc268dcc06cb2c51701d037637e335541",
    "vergara:twoK2": "5cf0d4408d112afa9e9610b5651f32d055a0ca0faf5327c7a5440d5e9a942af8",
    "vergara:K3v": "640b2d01a67480b60adcbc3ead7ec519f60c868890addb4169a55fef5a302246",
    "vergara:K4minus": "fb9834b5efb77f3b0a5d83bc588ab5b7c030dba6fe8b06817301fb5739934446",
    "vergara:K4": "fea516c54e793be945ae5836250b4dcf022f5dbd6dcc53793b0f13999c5166f9",
}

def co_cycles_and_paths():
    return ([complement_join(base(k)) for k in (16, 33, 64, 128)
             for base in (cycle_graph, path_graph)]
            + [complement_join(cycle_graph(5), cycle_graph(7), path_graph(6), cycle_graph(9)),
               complement_join(cycle_graph(6), cycle_graph(6), cycle_graph(6))])


#: Deep peels: (fixtures, routes, pinned digest); every route must give the
#: family's digest.  The house and owh routes take up to 63 dominating-C4 or
#: -P4 steps on these graphs, where the fixtures of ``GOLDEN`` take at most
#: a couple.
DEEP_GOLDEN = {
    "p4-free-join": (lambda: [p4_free_join(n) for n in (32, 64, 128, 256)],
                     ("vergara:P4", "house", "auto"),
                     "511c1e49e0b3e26919c1c976b506b59061f1529b776ba00fbdabd9479b561e42"),
    "co-cycles-paths": (co_cycles_and_paths, ("vergara:twoK2", "vergara:K3v", "owh", "auto"),
                        "ea64c39762705179bb20d4e61021a18c0e64a8ca5270226f450794f8f1ab7c55"),
}

K4MINUS_PARTS = [
    ([1, 2, 3, 5], [0, 4]),
    ([0, 1, 2, 6], [3, 4, 5]),
    ([0, 4, 6, 7], [1, 2, 3, 5]),
    ([0, 2, 3, 4, 7], [1, 5, 6, 8]),
    ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], []),
]

TOKENS = (["forbholes", "house", "owh", "k4", "k4minus", "oracle", "auto"]
          + [f"vergara:{p}" for p in FOUR_VERTEX_PATTERNS])


def route_digest(token, graphs=None):
    lines = []
    for g in fixtures(token) if graphs is None else graphs:
        _token, cert, _parts = _solve_with_method(g, token)
        assert verify_certificate(g, cert).ok
        lines.append(certificate_to_json(cert))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@pytest.mark.parametrize("token", TOKENS)
def test_certificate_bytes_are_pinned(token):
    assert route_digest(token) == GOLDEN[token]


@pytest.mark.parametrize("family, token", [(family, token) for family, (_, tokens, _)
                                           in DEEP_GOLDEN.items() for token in tokens])
def test_deep_peel_bytes_are_pinned(family, token):
    graphs, _tokens, golden = DEEP_GOLDEN[family]
    assert route_digest(token, graphs()) == golden


#: ``forbholes`` on ``forbholes_family(alpha, s)`` for s = 1, 2, 3, at the
#: independence numbers above those of ``GOLDEN``'s fixtures.
FORBHOLES_ALPHA_GOLDEN = {
    4: "dc7fdf4a89c2a237007168012d0ccf008ffdd4baa5f7265c5316963dfdcc2c43",
    5: "078d2e18ddfac3a419bb9a5a62ab1075106378c28bf7dd7337343d604f44c457",
    6: "0a9994cfb05314526fd0e070c9c016c505ba54db2344a553625956f842339053",
}


@pytest.mark.parametrize("alpha", sorted(FORBHOLES_ALPHA_GOLDEN))
def test_forbholes_bytes_at_higher_alpha_are_pinned(alpha):
    graphs = [forbholes_family(alpha, s)[0] for s in (1, 2, 3)]
    assert route_digest("forbholes", graphs) == FORBHOLES_ALPHA_GOLDEN[alpha]


#: The exit-2 message of ``immlab solve --method forbholes``: C6 is its own
#: even hole; on random_alpha2(6, 65) the first hole found is a 5-hole, the
#: build around it fails, and the C4 the rescan finds is blamed.
FORBHOLES_ERROR_GOLDEN = {
    "C6": (lambda: cycle_graph(6),
           "error: input has a hole of length 6 inside [4, 6]: (0, 1, 2, 3, 4, 5)\n"),
    "random-alpha2-6-65": (lambda: random_alpha2(6, 65),
                           "error: input has a hole of length 4 inside [4, 4]: (0, 2, 5, 3)\n"),
}


@pytest.mark.parametrize("host", sorted(FORBHOLES_ERROR_GOLDEN))
def test_forbholes_exit_two_messages_are_pinned(host, tmp_path, capsys):
    graph, message = FORBHOLES_ERROR_GOLDEN[host]
    path = tmp_path / "g.json"
    path.write_text(graph().to_json())
    assert cli.main(["solve", "--method", "forbholes", str(path)]) == 2
    assert capsys.readouterr().err == message


def test_k4minus_partitions_are_pinned():
    parts = []
    for g in fixtures("k4minus"):
        _token, _cert, (a, b) = _solve_with_method(g, "k4minus")
        parts.append((sorted(a), sorted(b)))
    assert parts == K4MINUS_PARTS


def random_hosts(kind, ks, max_bag=3):
    return [inflate(spec.base, spec.sizes) for k in ks
            for spec in (random_inflation(kind, k, max_bag, seed) for seed in (1, 2))]


def is_run(ids):
    return len(ids) > 1 and max(ids) - min(ids) == len(ids) - 1


def relabelled(hosts, seed):
    """Each host and its bags under a seeded permutation of the vertex ids,
    redrawn until no bag of two or more vertices is a run of consecutive ids."""
    rng = Rng(seed)
    out = []
    for g, bags in hosts:
        perm = list(range(g.n))
        while any(is_run([perm[v] for v in bag]) for bag in bags):
            for i in range(g.n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        out.append((h, tuple(tuple(perm[v] for v in bag) for bag in bags)))
    return out


def mixed_cycle_sizes(k):
    """Three bag-size shapes for C_k: sizes 1-4 that reach no fresh colour,
    sizes 1-5 that take the fresh-colour branch at one or more levels (at
    k = 10 only in the inner 8-cycle, under a level that lifts its walks),
    and all size-1 bags."""
    return [tuple(1 + (i * i + k) % 4 for i in range(k)),
            tuple(1 + (3 * i + k) % 5 for i in range(k)),
            (1,) * k]


#: (engine, fixtures as (host, bags), pinned digest).  "cycle-k9-n256" is the
#: k = 9 cycle inflation with the fixed bags the inflation-large benchmark
#: workload analyses; "cycle-k10-13" recurses four or more levels deep and
#: reaches the fresh-colour branch; "cycle-relabelled" gives the engine bags
#: that are not runs of consecutive ids; "cycle-k5-13-mixed" runs every k
#: from 5 to 13 on the shapes of ``mixed_cycle_sizes``.
ENGINE_GOLDEN = {
    "path": ("path", lambda: random_hosts("path", (2, 4, 6, 8, 10)),
             "100fb2c63d49f69d1995ffe02c9cd68169879393a0e66ea85b0563222924138a"),
    "cycle": ("cycle", lambda: random_hosts("cycle", range(3, 10)),
              "05ba4a8f79b517d4fb968529d57ffef4ae299479f6e4613273aa4adc66822f5f"),
    "cycle-k9-n256": ("cycle",
                      lambda: [inflate(cycle_graph(9), (29, 29, 29, 29, 28, 28, 28, 28, 28))],
                      "1d292497c55be02727e2a8abbba3a9920682db4deda5a7b3404184c9d2506517"),
    "cycle-k10-13": ("cycle", lambda: random_hosts("cycle", range(10, 14), max_bag=5),
                     "fd43653683ad6996d2c662992cc69fc8fe3be2591df1d793cbf45929794a129a"),
    "cycle-k5-13-mixed": ("cycle", lambda: [inflate(cycle_graph(k), sizes) for k in range(5, 14)
                                            for sizes in mixed_cycle_sizes(k)],
                          "7f7f417b42d9cad702ef3eba1326690c96510b43c027df63e76aa261e2f208d6"),
    "cycle-relabelled": ("cycle", lambda: relabelled(random_hosts("cycle", range(3, 10)), 19),
                         "94f3848451006ccea8940462228fe970b7c73739d9b5af6429f81737c3a63a8f"),
}


def engine_digest(kind, hosts):
    lines = []
    for g, bags in hosts:
        if kind == "path":
            cert = inflate_path(g, bags)
        else:
            cert, colour = inflate_cycle(g, bags)
        assert verify_certificate(g, cert).ok
        lines.append(certificate_to_json(cert))
        if kind == "cycle":
            lines.append(json.dumps(colour, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(ENGINE_GOLDEN))
def test_engine_bytes_are_pinned(name):
    kind, hosts, golden = ENGINE_GOLDEN[name]
    assert engine_digest(kind, hosts()) == golden


#: The two n = 10 graphs on which the small-mix benchmark workload's ``auto``
#: solves fall back to the longest oracle searches.
ORACLE_WORST = (450, 1371)

#: (fixtures, budget cap or None, pinned digest).  Each fixture contributes
#: ``brute_force_immersion(g, t)`` for t = 2..6 (``null`` when absent) and
#: ``max_immersion_order(g)`` -- or only the latter, under the cap, when one
#: is given.
ORACLE_GOLDEN = {
    "worst": (lambda: [random_alpha2(10, s) for s in ORACLE_WORST], None,
              "22f831629c6311e800ff6dd419cd1b898d03299688c3936b31a8b70a2f2da6ff"),
    "n9-n10": (lambda: [random_alpha2(n, s) for n in (9, 10) for s in range(5)], None,
               "3cc50df8304b1c5d15a1eb0216e0e03b5f37371094758dc93af6242e1944f130"),
    "max-t9": (lambda: [random_alpha2(9, 3), random_alpha2(10, 3)], 9,
               "7c90cdd01d5d398bdbabc2aceb904dd1d8da8e00a43f9d431bd1ce34efaec0a9"),
}


def oracle_digest(graphs, cap):
    lines = []
    for g in graphs:
        if cap is None:
            for t in range(2, 7):
                cert = brute_force_immersion(g, t)
                lines.append("null" if cert is None else certificate_to_json(cert))
            order, cert = max_immersion_order(g)
        else:
            order, cert = max_immersion_order(g, OracleBudget(max_t=cap))
        assert order == cert.order and verify_certificate(g, cert).ok
        lines.append(certificate_to_json(cert))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_bytes_are_pinned(name):
    graphs, cap, golden = ORACLE_GOLDEN[name]
    assert oracle_digest(graphs(), cap) == golden


def c5k20_join_k20():
    core, _ = inflate(cycle_graph(5), (20,) * 5)
    return join(core, complete_graph(20))


#: Hosts with large true-twin classes: C5[K20] joined to K20 (n = 120), the
#: k = 9 cycle inflation the inflation-large workload analyses (n = 256),
#: and the P4-free join of 2K4 copies (n = 256).
TWIN_HOSTS = {
    "c5k20-k20": c5k20_join_k20,
    "c9-n256": lambda: inflate(cycle_graph(9), (29, 29, 29, 29, 28, 28, 28, 28, 28))[0],
    "p4-free-join-256": lambda: p4_free_join(256),
}

#: ``find_induced_embedding`` for every catalogue pattern and, under "hole",
#: ``find_hole_in_range(g, 4, 9)`` on each host of ``TWIN_HOSTS``.
WITNESS_GOLDEN = {
    "c5k20-k20": {
        "K4": (0, 1, 2, 3), "K4minus": (0, 1, 20, 80), "C4": None, "P4": (0, 20, 40, 60),
        "paw": (0, 1, 20, 40), "K3v": (0, 1, 2, 40), "twoK2": (0, 1, 40, 41),
        "C5": (0, 20, 40, 60, 80), "house": None, "owh": (0, 1, 20, 40, 60),
        "hole": (0, 20, 40, 60, 80)},
    "c9-n256": {
        "K4": (0, 1, 2, 3), "K4minus": (0, 1, 29, 228), "C4": None, "P4": (0, 29, 58, 87),
        "paw": (0, 1, 29, 58), "K3v": (0, 1, 2, 58), "twoK2": (0, 1, 58, 59),
        "C5": None, "house": None, "owh": (0, 1, 29, 58, 87),
        "hole": (0, 29, 58, 87, 116, 144, 172, 200, 228)},
    "p4-free-join-256": {
        "K4": (0, 1, 2, 3), "K4minus": (0, 1, 8, 12), "C4": (0, 8, 4, 12), "P4": None,
        "paw": (0, 1, 8, 4), "K3v": (0, 1, 2, 4), "twoK2": (0, 1, 4, 5),
        "C5": None, "house": None, "owh": None, "hole": (0, 8, 4, 12)},
}

#: SHA-256 of the ``immlab analyze`` stdout on the first two hosts.  The
#: first has independence 2, so its report carries ``"chi": 70`` from the
#: complement's matching; it differs from the n <= 24 gate's ``"chi": null``
#: report in that line only.
ANALYZE_GOLDEN = {
    "c5k20-k20": "55a3daf1ba5cfb58976ac06aff9ebb2c88e9217f20f6ea98e9afb650ae4f9ab8",
    "c9-n256": "cfdd639e22b1d6bd850b071566a3316e4725f1e54a79614d1830e6455fe7219c",
}


@pytest.mark.parametrize("host", sorted(WITNESS_GOLDEN))
def test_search_witnesses_are_pinned(host):
    g = TWIN_HOSTS[host]()
    found = {name: find_induced_embedding(g, pattern(name)) for name in PATTERN_EDGES}
    found["hole"] = find_hole_in_range(g, 4, 9)
    assert found == WITNESS_GOLDEN[host]


@pytest.mark.parametrize("host", sorted(ANALYZE_GOLDEN))
def test_analyze_bytes_are_pinned(host, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(TWIN_HOSTS[host]().to_json())
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ANALYZE_GOLDEN[host]
