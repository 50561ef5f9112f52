"""The benchmark's request kinds and the checks on their outputs.

Each request calls the library's public functions the way the CLI does:
``solve`` mirrors ``immlab solve --cert`` without the small-n alpha/omega/chi
report, ``verify`` mirrors ``immlab verify`` and ``analyze`` mirrors
``immlab analyze``.  Requests return raw outputs; the ``check_*`` functions,
which run outside the timed region, turn them into a list of problems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from immlab import analysis, certificates, construct, graphs, inflation, oracle
from immlab.errors import PreconditionError

from workloads import Instance


@dataclass
class Solved:
    graph: graphs.Graph
    cert: certificates.ImmersionCertificate
    verdict: certificates.Verdict
    text: str
    parts: tuple | None = None       # k4minus: the two-clique partition
    bags: tuple | None = None        # inflations: the bags of the host
    colouring: tuple | None = None   # cycle inflations: the engine's colouring
    chi: int | None = None           # cycle inflations: chi from the DP


def _route(g: graphs.Graph, method: str):
    """Certificate and (k4minus only) partition, as ``immlab solve`` picks them."""
    if method == "auto":
        return construct.auto_immersion(g)[1], None
    if method == "forbholes":
        return construct.hole_free_immersion(g), None
    if method == "house":
        return construct.house_free_immersion(g), None
    if method == "owh":
        return construct.owh_free_immersion(g), None
    if method == "k4":
        return construct.k4_free_immersion(g), None
    if method == "k4minus":
        return construct.k4minus_free_clique(g)
    if method == "oracle":
        return oracle.max_immersion_order(g)[1], None
    if method.startswith("vergara:"):
        return construct.pattern_free_immersion(g, method.split(":", 1)[1]), None
    raise ValueError(f"unknown method {method!r}")


def solve(inst: Instance) -> Solved:
    if inst.method.startswith("inflation:"):
        spec = inflation.inflation_from_json(inst.text)
        g, bags = inflation.inflate(spec.base, spec.sizes)
        if inst.method == "inflation:path":
            cert, colouring, chi = inflation.inflate_path(g, bags), None, None
        else:
            cert, colouring = inflation.inflate_cycle(g, bags)
            chi, _ = inflation.cycle_inflation_chromatic(spec.sizes)
        verdict = certificates.verify_certificate(g, cert)
        return Solved(g, cert, verdict, certificates.certificate_to_json(cert),
                      bags=bags, colouring=colouring, chi=chi)
    g = graphs.graph_from_json(inst.text)
    cert, parts = _route(g, inst.method)
    verdict = certificates.verify_certificate(g, cert)
    return Solved(g, cert, verdict, certificates.certificate_to_json(cert), parts=parts)


def verify(graph_text: str, cert_text: str) -> certificates.Verdict:
    g = graphs.graph_from_json(graph_text)
    cert = certificates.certificate_from_json(cert_text)
    return certificates.verify_certificate(g, cert)


def analyze(graph_text: str) -> tuple[graphs.Graph, dict]:
    g = graphs.graph_from_json(graph_text)
    degrees = [g.degree(v) for v in range(g.n)]
    report: dict = {
        "graph_sha256": g.sha256(),
        "n": g.n,
        "m": g.edge_count(),
        "min_degree": min(degrees) if degrees else None,
        "max_degree": max(degrees) if degrees else None,
    }
    if g.n <= analysis.MAX_CLIQUE_N:
        alpha, alpha_set = analysis.independence_number(g)
        omega, omega_set = analysis.max_clique(g)
        report["alpha"] = alpha
        report["alpha_witness"] = sorted(alpha_set)
        report["omega"] = omega
        report["omega_witness"] = sorted(omega_set)
        hole = analysis.find_hole_in_range(g, 4, max(4, 2 * alpha)) if g.n else None
        report["short_hole"] = list(hole) if hole else None
    else:
        report["alpha"] = None
        report["omega"] = None
    if g.n and g.n <= analysis.MAX_CHROMATIC_N:
        report["chi"] = analysis.chromatic_number(g)[0]
    else:
        report["chi"] = None
    induced: dict = {}
    for name in graphs.FOUR_VERTEX_PATTERNS + ("house", "owh"):
        try:
            hit = analysis.find_induced(g, graphs.pattern(name))
        except PreconditionError:
            induced[name] = "skipped"
            continue
        induced[name] = sorted(hit) if hit is not None else None
    report["induced"] = induced
    json.dumps(report, indent=2)
    return g, report


def tamper(cert_text: str) -> str:
    """Flip the low bit of the first vertex of the first walk, as the CLI
    acceptance test does; the walk then no longer starts at its pair."""
    doc = json.loads(cert_text)
    doc["paths"][0]["walk"][0] ^= 1
    return json.dumps(doc, separators=(",", ":"))


# -- output checks (untimed) --------------------------------------------------------


def check_solve(inst: Instance, s: Solved) -> list[str]:
    problems = []
    if not s.verdict.ok:
        problems.append(f"verifier rejected the certificate: {s.verdict.reason}")
    if s.cert.order < inst.promise:
        problems.append(f"order {s.cert.order} below the promised {inst.promise}")
    if inst.method == "k4minus":
        problems += _check_partition(s.graph, s.parts)
    if inst.method == "inflation:cycle":
        if s.chi != inst.promise:
            problems.append(f"DP chromatic number {s.chi} != {inst.promise}")
        problems += _check_bag_colouring(s.graph, s.bags, s.colouring)
    return problems


def _check_partition(g: graphs.Graph, parts) -> list[str]:
    if parts is None:
        return ["no two-clique partition returned"]
    a, b = (graphs.mask_of(p) for p in parts)
    if a & b or a | b != g.vertex_mask:
        return ["two-clique partition does not split the vertex set"]
    if not (g.is_clique(a) and g.is_clique(b)):
        return ["a side of the two-clique partition is not a clique"]
    return []


def _check_bag_colouring(g: graphs.Graph, bags, colouring) -> list[str]:
    """Proper colouring of an inflation: distinct colours inside each bag and
    disjoint colour sets on adjacent bags."""
    if colouring is None or len(colouring) != g.n or min(colouring) < 0:
        return ["colouring does not cover every vertex"]
    sets = [{colouring[v] for v in bag} for bag in bags]
    for i, bag in enumerate(bags):
        if len(sets[i]) != len(bag):
            return [f"bag {i} repeats a colour"]
        for j in range(i + 1, len(bags)):
            if g.has_edge(bag[0], bags[j][0]) and sets[i] & sets[j]:
                return [f"adjacent bags {i} and {j} share a colour"]
    return []


def check_analyze(inst: Instance, g: graphs.Graph, report: dict) -> list[str]:
    problems = []
    facts = inst.facts
    alpha, omega, chi = report["alpha"], report["omega"], report["chi"]
    if alpha is not None:
        if len(report["alpha_witness"]) != alpha or not g.is_independent(
                graphs.mask_of(report["alpha_witness"])):
            problems.append("alpha witness is not an independent set of size alpha")
        if len(report["omega_witness"]) != omega or not g.is_clique(
                graphs.mask_of(report["omega_witness"])):
            problems.append("omega witness is not a clique of size omega")
        if alpha > facts.get("alpha_at_most", alpha) or alpha != facts.get("alpha", alpha):
            problems.append(f"alpha {alpha} contradicts the instance family")
        if omega != facts.get("omega", omega):
            problems.append(f"omega {omega} != {facts['omega']}")
        if facts.get("no_short_hole") and report["short_hole"] is not None:
            problems.append("found a hole the family excludes")
    if chi is not None:
        if omega is not None and chi < omega:
            problems.append(f"chi {chi} below omega {omega}")
        if chi != facts.get("chi", chi):
            problems.append(f"chi {chi} != {facts['chi']}")
    free_of = facts.get("free_of")
    if free_of is not None and report["induced"][free_of] not in (None, "skipped"):
        problems.append(f"found an induced {free_of} the family excludes")
    return problems
