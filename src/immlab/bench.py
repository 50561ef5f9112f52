"""Randomized stress suites, shared by the command line and the test suite.

Each suite maps a seed to one self-checking case: generate an instance whose
structure is known by construction, run the matching solver, verify the
certificate from scratch, and compare the order against what the structure
promises.  A ``ClaimViolation`` is recorded rather than raised -- for these
input classes it means a counterexample and deserves a report, not a
traceback -- while any other exception is a plain bug and propagates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable

from .certificates import verify_certificate
from .construct import (
    auto_immersion,
    extend_over_dominating_c4,
    extend_over_dominating_c5,
    extend_over_dominating_p4,
    half_ceil,
    hole_free_immersion,
    house_free_immersion,
    k4minus_free_clique,
    owh_free_immersion,
    pattern_free_immersion,
)
from .errors import BudgetExceeded, ClaimViolation
from .gen import (
    Rng,
    dominating_c4_family,
    dominating_c5_family,
    dominating_p4_family,
    forbholes_family,
    random_alpha2,
    random_hfree_alpha2,
    random_inflation,
)
from .graphs import FOUR_VERTEX_PATTERNS, Graph, mask_of
from .inflation import cycle_inflation_chromatic, inflate, inflate_cycle, inflate_path
from .oracle import brute_force_immersion, max_immersion_order


def _run_case(suite: str, seed: int, body: Callable[[], dict]) -> dict:
    report: dict = {"suite": suite, "seed": seed}
    try:
        detail = body()
    except ClaimViolation as exc:
        report.update(ok=False, violation=True, error=str(exc))
        return report
    except BudgetExceeded as exc:
        report.update(ok=False, violation=False, budget_exceeded=True, error=str(exc))
        return report
    report.update(ok=detail.pop("ok", True), violation=False)
    report.update(detail)
    return report


def _checked(g: Graph, cert, expected_order: int | None) -> dict:
    verdict = verify_certificate(g, cert)
    detail = {"n": g.n, "order": cert.order,
              "verdict": verdict.reason if not verdict.ok else "ok"}
    detail["ok"] = verdict.ok and (expected_order is None
                                   or cert.order == expected_order)
    if expected_order is not None:
        detail["expected_order"] = expected_order
    return detail


def case_path_inflation(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        k = 2 * (1 + rng.below(4))
        spec = random_inflation("path", k, 1 + rng.below(4), rng.next64())
        g, bags = inflate(spec.base, spec.sizes)
        cert = inflate_path(g, bags)
        want = len(bags[0]) + len(bags[-1])
        return _checked(g, cert, want)
    return _run_case("path-inflation", seed, body)


def case_cycle_inflation(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        k = 3 + rng.below(6)
        spec = random_inflation("cycle", k, 1 + rng.below(3), rng.next64())
        g, bags = inflate(spec.base, spec.sizes)
        cert, colouring = inflate_cycle(g, bags)
        detail = _checked(g, cert, len(set(colouring)))
        proper = all(colouring[u] != colouring[v] for u, v in g.edges())
        chi, _ = cycle_inflation_chromatic(spec.sizes)
        detail["chi"] = chi
        detail["ok"] = detail["ok"] and proper and cert.order >= chi
        return detail
    return _run_case("cycle-inflation", seed, body)


def case_forbholes(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        g, info = forbholes_family(2 + rng.below(3), rng.next64())
        cert = hole_free_immersion(g)
        return _checked(g, cert, info["chi"])
    return _run_case("forbholes", seed, body)


def _dominating_case(suite: str, family: Callable, extend: Callable, seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        n = 6 + rng.below(7)
        g, planted = family(n, rng.next64())
        subcert = brute_force_immersion(g, half_ceil(g.n - 4),
                                        within=g.vertex_mask & ~mask_of(planted[:4]))
        if subcert is None:
            raise ClaimViolation(
                "small graph with independence <= 2 refused a half-order "
                "immersion", graph=g, context={"removed": planted[:4]})
        cert = extend(g, planted, subcert)
        return _checked(g, cert, half_ceil(g.n))
    return _run_case(suite, seed, body)


def _pattern_free_case(suite: str, pattern_name: str, route: Callable, seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        g = random_hfree_alpha2(pattern_name, 5 + rng.below(6), rng.next64())
        return _checked(g, route(g), half_ceil(g.n))
    return _run_case(suite, seed, body)


def case_patterns(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        runs = []
        ok = True
        for name in FOUR_VERTEX_PATTERNS:
            n = 5 + rng.below(4 if name == "K4" else 6)
            g = random_hfree_alpha2(name, n, rng.next64())
            cert = pattern_free_immersion(g, name)
            part = _checked(g, cert, half_ceil(g.n))
            ok = ok and part.pop("ok")
            part["pattern"] = name
            runs.append(part)
        return {"ok": ok, "runs": runs}
    return _run_case("patterns", seed, body)


def case_oracle_agree(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        g = random_alpha2(4 + rng.below(4), rng.next64())
        best, best_cert = max_immersion_order(g)
        method, cert = auto_immersion(g)
        # A pattern route gives exactly ceil(n/2); the oracle gives the optimum.
        detail = _checked(g, cert, best if method == "oracle" else half_ceil(g.n))
        detail.update(method=method, optimum=best)
        detail["ok"] = (detail["ok"] and best >= half_ceil(g.n)
                        and verify_certificate(g, best_cert).ok)
        return detail
    return _run_case("oracle-agree", seed, body)


def case_two_clique(seed: int) -> dict:
    def body() -> dict:
        rng = Rng(seed)
        g = random_hfree_alpha2("K4minus", 5 + rng.below(6), rng.next64())
        cert, parts = k4minus_free_clique(g)
        detail = _checked(g, cert, None)
        detail["ok"] = detail["ok"] and cert.order >= half_ceil(g.n)
        if parts is None:
            # Only the plain 5-cycle may refuse a partition.
            detail["ok"] = detail["ok"] and g.n == 5 and all(
                g.degree(v) == 2 for v in range(5))
            detail["partition"] = None
        else:
            p1, p2 = parts
            covers = (p1 | p2 == set(range(g.n))) and not (p1 & p2)
            cliques = g.is_clique(mask_of(p1)) and g.is_clique(mask_of(p2))
            detail["ok"] = detail["ok"] and covers and cliques
            detail["partition"] = [sorted(p1), sorted(p2)]
        return detail
    return _run_case("two-clique", seed, body)


SUITES: dict[str, Callable[[int], dict]] = {
    "path-inflation": case_path_inflation,
    "cycle-inflation": case_cycle_inflation,
    "forbholes": case_forbholes,
    "dominating-c4": partial(_dominating_case, "dominating-c4", dominating_c4_family,
                             extend_over_dominating_c4),
    "dominating-c5": partial(_dominating_case, "dominating-c5", dominating_c5_family,
                             extend_over_dominating_c5),
    "dominating-p4": partial(_dominating_case, "dominating-p4", dominating_p4_family,
                             extend_over_dominating_p4),
    "house-free": partial(_pattern_free_case, "house-free", "house", house_free_immersion),
    "owh-free": partial(_pattern_free_case, "owh-free", "owh", owh_free_immersion),
    "patterns": case_patterns,
    "oracle-agree": case_oracle_agree,
    "two-clique": case_two_clique,
}

ALL_SUITES = tuple(SUITES)


def run_suite(name: str, count: int = 10, start_seed: int = 0,
              jobs: int = 1) -> dict:
    """Run ``count`` seeded cases of one suite, optionally across processes."""
    case = SUITES[name]
    seeds = range(start_seed, start_seed + count)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(case, seeds))
    else:
        reports = [case(seed) for seed in seeds]
    passed = sum(1 for r in reports if r["ok"])
    return {
        "suite": name,
        "passed": passed,
        "failed": len(reports) - passed,
        "violations": sum(1 for r in reports if r.get("violation")),
        "reports": reports,
    }
