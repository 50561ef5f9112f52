"""Acceptance suite: ten end-to-end criteria with pinned runtime bounds.

Each criterion runs as its own test and prints one summary line; the elapsed
time must stay under the criterion's bound on top of all content assertions.
"""

from __future__ import annotations

import contextlib
import json
import time

from immlab.analysis import chromatic_number, find_induced, independence_number
from immlab.certificates import certificate_from_json, verify_certificate
from immlab.cli import main as cli_main
from immlab.construct import (
    auto_immersion,
    half_ceil,
    hole_free_immersion,
    k4minus_free_clique,
    pattern_free_immersion,
)
from immlab.gen import (
    dominating_c4_family,
    dominating_c5_family,
    dominating_p4_family,
    forbholes_family,
    random_alpha2,
    random_hfree_alpha2,
    random_inflation,
)
from immlab.graphs import FOUR_VERTEX_PATTERNS, cycle_graph, mask_of, pattern
from immlab.inflation import (
    cycle_inflation_chromatic,
    inflate,
    inflate_cycle,
    inflate_path,
)
from immlab.oracle import OracleBudget, max_immersion_order


# One line per criterion; a terminal-summary hook in conftest.py prints the
# collected lines after the run so they survive output capture.
SUMMARY_LINES: list[str] = []


@contextlib.contextmanager
def criterion(number, label, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        SUMMARY_LINES.append(f"criterion {number:2} ({label}): FAIL after "
                             f"{elapsed:.2f}s (bound {bound_seconds}s)")
        raise
    elapsed = time.perf_counter() - start
    line = (f"criterion {number:2} ({label}): PASS in {elapsed:.2f}s "
            f"(bound {bound_seconds}s)")
    if elapsed >= bound_seconds:
        SUMMARY_LINES.append(line.replace("PASS", "FAIL: over bound,"))
        raise AssertionError(
            f"criterion {number} exceeded its {bound_seconds}s bound: {elapsed:.2f}s")
    SUMMARY_LINES.append(line)


def test_criterion_01_path_inflations():
    with criterion(1, "200 path inflations", 10):
        for i in range(200):
            bag_count = 2 * (1 + i % 5)            # 2, 4, 6, 8, 10
            spec = random_inflation("path", bag_count, 1 + i % 5, i)
            assert spec.sizes[0] <= min(spec.sizes)
            assert spec.sizes[-1] <= min(spec.sizes[1::2])
            g, bags = inflate(spec.base, spec.sizes)
            cert = inflate_path(g, bags)
            assert cert.order == len(bags[0]) + len(bags[-1])
            assert set(cert.branch) == set(bags[0]) | set(bags[-1])
            assert verify_certificate(g, cert).ok


def test_criterion_02_cycle_inflations():
    with criterion(2, "200 cycle inflations", 60):
        for i in range(200):
            spec = random_inflation("cycle", 3 + i % 7, 1 + i % 4, i)
            g, bags = inflate(spec.base, spec.sizes)
            cert, colouring = inflate_cycle(g, bags)
            assert verify_certificate(g, cert).ok
            assert all(colouring[u] != colouring[v] for u, v in g.edges())
            assert cert.order == len(set(colouring))
            chi = cycle_inflation_chromatic(spec.sizes)[0]
            assert cert.order >= chi
            if g.n <= 14:
                assert chi == chromatic_number(g)[0]


def test_criterion_03_doubled_five_cycle_fixture():
    with criterion(3, "doubled 5-cycle reaches half order", 5):
        g, _bags = inflate(cycle_graph(5), (2, 2, 2, 2, 2))
        assert g.n == 10
        assert cycle_inflation_chromatic((2, 2, 2, 2, 2))[0] == 5
        assert chromatic_number(g)[0] == 5
        cert = hole_free_immersion(g)
        assert cert.order == 5 == half_ceil(g.n)
        assert verify_certificate(g, cert).ok


def test_criterion_04_hole_free_families():
    with criterion(4, "100 hole-free instances at exact chi", 120):
        for i in range(100):
            alpha = 2 + i % 2
            g, info = forbholes_family(alpha, i)
            cert = hole_free_immersion(g)
            assert cert.order == info["chi"]
            assert verify_certificate(g, cert).ok
            if g.n <= 18:
                assert chromatic_number(g)[0] == info["chi"]


def test_criterion_05_dominating_extensions():
    from immlab.construct import (
        extend_over_dominating_c4,
        extend_over_dominating_c5,
        extend_over_dominating_p4,
    )
    from immlab.oracle import brute_force_immersion

    jobs = [(dominating_c4_family, extend_over_dominating_c4),
            (dominating_c5_family, extend_over_dominating_c5),
            (dominating_p4_family, extend_over_dominating_p4)]
    with criterion(5, "300 dominating-structure extensions", 120):
        for family, extend in jobs:
            for i in range(100):
                n = 6 + i % 9                      # 6..14
                g, planted = family(n, i)
                inner = brute_force_immersion(g, half_ceil(n - 4),
                                              within=g.vertex_mask & ~mask_of(planted[:4]))
                assert inner is not None
                cert = extend(g, planted, inner)
                assert cert.order == half_ceil(n)
                assert verify_certificate(g, cert).ok


def test_criterion_06_house_and_tailed_triangle_free():
    from immlab.construct import house_free_immersion, owh_free_immersion

    with criterion(6, "200 house-free and tail-free graphs", 300):
        for name, solve in [("house", house_free_immersion),
                            ("owh", owh_free_immersion)]:
            for i in range(100):
                n = 5 + i % 20                      # 5..24
                g = random_hfree_alpha2(name, n, i)
                cert = solve(g)
                assert cert.order == half_ceil(n)
                assert verify_certificate(g, cert).ok


def test_criterion_07_all_seven_pattern_routes():
    with criterion(7, "7 patterns x 50 pattern-free graphs", 300):
        for name in FOUR_VERTEX_PATTERNS:
            for i in range(50):
                n = 5 + i % 4 if name == "K4" else 5 + i % 16   # caps 8 / 20
                g = random_hfree_alpha2(name, n, i)
                cert = pattern_free_immersion(g, name)
                assert cert.order == half_ceil(n)
                assert verify_certificate(g, cert).ok


def test_criterion_08_oracle_dominates_constructions():
    budget = OracleBudget(max_n=10, max_t=9, max_nodes=20_000_000)
    with criterion(8, "oracle bounds every constructive route", 600):
        for i in range(100):
            n = 3 + i % 7                           # 3..9
            g = random_alpha2(n, i)
            best, best_cert = max_immersion_order(g, budget)
            assert verify_certificate(g, best_cert).ok
            assert best >= half_ceil(n)
            for name in FOUR_VERTEX_PATTERNS:
                if find_induced(g, pattern(name)) is None:
                    cert = pattern_free_immersion(g, name)
                    assert verify_certificate(g, cert).ok
                    assert best >= cert.order
            token, cert = auto_immersion(g)
            assert verify_certificate(g, cert).ok
            assert best >= cert.order


def test_criterion_09_two_clique_partitions():
    with criterion(9, "50 two-clique partitions", 30):
        c5 = cycle_graph(5)
        cert, parts = k4minus_free_clique(c5)
        assert parts is None and cert.order == 3
        assert verify_certificate(c5, cert).ok
        for i in range(50):
            n = 5 + i % 10                          # 5..14
            g = random_hfree_alpha2("K4minus", n, i)
            cert, parts = k4minus_free_clique(g)
            assert verify_certificate(g, cert).ok
            if parts is None:
                assert n == 5
                assert cert.order == 3 >= half_ceil(n)
                continue
            a, b = parts
            assert a | b == set(range(n)) and not (a & b)
            for side in parts:
                assert all(u == v or g.has_edge(u, v)
                           for u in side for v in side)
            assert len(a) >= len(b) and len(a) >= half_ceil(n)
            assert cert.branch == tuple(sorted(a))


def test_criterion_10_cli_round_trip_and_tamper(tmp_path, capsys):
    families = ["alpha2", "hfree:C4", "hfree:house", "hfree:owh", "hfree:K4minus"]
    with criterion(10, "20 CLI round trips with tamper detection", 10):
        for i in range(20):
            family = families[i % len(families)]
            # Plain draws must stay inside the exhaustive-search fallback's
            # reach (they may contain all seven patterns); pattern-free
            # draws always have a constructive route at any size.
            n = 6 + i % 4 if family == "alpha2" else 6 + i % 7
            graph_path = tmp_path / f"g{i}.json"
            cert_path = tmp_path / f"g{i}.cert.json"
            assert cli_main(["gen", family, "--n", str(n), "--seed", str(i),
                             "--out", str(graph_path)]) == 0
            assert cli_main(["solve", str(graph_path),
                             "--cert", str(cert_path)]) == 0
            assert cli_main(["verify", str(graph_path), str(cert_path)]) == 0
            # One-bit tamper: flip the low bit of the first interior-or-end
            # vertex of the first walk; the result stays in range and breaks
            # either the key agreement or an edge.
            doc = json.loads(cert_path.read_text())
            assert doc["paths"], "certificates here always carry a path"
            doc["paths"][0]["walk"][0] ^= 1
            tampered = tmp_path / f"g{i}.tampered.json"
            tampered.write_text(json.dumps(doc))
            assert cli_main(["verify", str(graph_path), str(tampered)]) == 1
            capsys.readouterr()  # keep the buffer small
