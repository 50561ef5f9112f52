"""Command line: analyze graphs, construct and verify immersion certificates,
generate instances, and run the stress suites.

Exit codes: 0 success; 1 ``verify`` rejected the certificate it was handed;
2 invalid input or unmet precondition (including certificate/graph hash
mismatch); 3 a structural claim failed on an input that should satisfy it (a
violation document is written next to the input); 4 search budget exceeded;
5 internal error (a bug in immlab, including a certificate that ``solve``
built and its verifier rejects; the traceback goes to stderr and, with the
command and the input path, to ``<input>.crash.json``, or ``crash.json`` for
stdin).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from .analysis import (
    MAX_CHROMATIC_N,
    MAX_CLIQUE_N,
    chromatic_number,
    clique_profile,
    find_hole_in_range,
    find_induced,
)
from .bench import ALL_SUITES, run_suite
from .certificates import (
    ImmersionCertificate,
    certificate_from_json,
    certificate_to_json,
    ordered_pair,
    verify_certificate,
)
from .construct import METHODS, auto_immersion, half_ceil
from .errors import BudgetExceeded, ClaimViolation, PreconditionError
from .gen import (
    dominating_c4_family,
    dominating_c5_family,
    dominating_p4_family,
    forbholes_family,
    random_alpha2,
    random_hfree_alpha2,
    random_inflation,
)
from .graphs import (
    FOUR_VERTEX_PATTERNS,
    Graph,
    graph_from_json,
    graph_from_text,
    pattern,
)
from .inflation import inflate, inflation_to_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CLAIM_VIOLATION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

CRASH_FORMAT = "immlab-crash-v1"

#: Every ``solve --method`` token: ``auto`` picks among the table's routes.
METHOD_TOKENS = ("auto", *METHODS)


# -- plumbing ------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "text"
    return graph_from_json(text) if fmt == "json" else graph_from_text(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _print_json(doc: dict, out: str | None = None) -> None:
    _write_text(out, json.dumps(doc, indent=2))


_DOT_COLOURS = ("crimson", "royalblue", "forestgreen", "darkorange", "purple",
                "teal", "magenta", "saddlebrown", "olive", "navy")


def certificate_to_dot(g: Graph, cert: ImmersionCertificate) -> str:
    """DOT rendering: branch vertices double-circled, each path in its own
    colour, untouched edges gray."""
    lines = ["graph immersion {", "  node [shape=circle];"]
    for v in cert.branch:
        lines.append(f"  {v} [shape=doublecircle];")
    colour_of: dict[tuple[int, int], str] = {}
    for idx, (_, walk) in enumerate(sorted(cert.paths.items())):
        shade = _DOT_COLOURS[idx % len(_DOT_COLOURS)]
        for x, y in zip(walk, walk[1:]):
            colour_of[ordered_pair(x, y)] = shade
    for u, v in g.edges():
        shade = colour_of.get((u, v))
        if shade is None:
            lines.append(f"  {u} -- {v} [color=gray70];")
        else:
            lines.append(f"  {u} -- {v} [color={shade}, penwidth=2];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    degrees = [g.degree(v) for v in range(g.n)]
    report: dict = {
        "graph_sha256": g.sha256(),
        "n": g.n,
        "m": g.edge_count(),
        "min_degree": min(degrees) if degrees else None,
        "max_degree": max(degrees) if degrees else None,
    }
    hole = hi = None
    if g.n <= MAX_CLIQUE_N:
        p = clique_profile(g)
        report["alpha"] = p.alpha
        report["alpha_witness"] = sorted(p.alpha_witness)
        report["omega"] = p.omega
        report["omega_witness"] = sorted(p.omega_witness)
        hi = max(4, 2 * p.alpha)
        hole = find_hole_in_range(g, 4, hi)
        report["short_hole"] = list(hole) if hole else None
        report["chi"] = p.chi
    else:
        report.update(alpha=None, omega=None, chi=None)
        try:  # n - nu(complement) at alpha <= 2; no answer above n = 24 otherwise
            report["chi"] = chromatic_number(g)[0]
        except PreconditionError:
            pass
    # At alpha <= 2 the short-hole scan is the [4, 4] scan: an induced C4.
    c4 = hole if hi == 4 else find_hole_in_range(g, 4, 4)
    induced: dict = {"C4": sorted(c4) if c4 is not None else None}
    for name in FOUR_VERTEX_PATTERNS[1:] + ("house", "owh"):
        try:
            hit = find_induced(g, pattern(name))
        except PreconditionError:
            induced[name] = "skipped"
            continue
        induced[name] = sorted(hit) if hit is not None else None
    report["induced"] = induced
    _print_json(report)
    return EXIT_OK


def _solve_with_method(g: Graph, method: str):
    """Returns (method token, certificate, two-clique partition or None)."""
    if method == "auto":
        token, cert = auto_immersion(g)
        return token, cert, None
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; known: {', '.join(METHOD_TOKENS)}")
    cert, parts = METHODS[method](g)
    return method, cert, parts


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    start = time.perf_counter()
    token, cert, parts = _solve_with_method(g, args.method)
    elapsed = time.perf_counter() - start
    # The one check of the certificate: a bad one is a bug, not a verdict on the input.
    verdict = verify_certificate(g, cert)
    if not verdict.ok:
        raise AssertionError(f"constructed certificate failed verification: {verdict}")
    report: dict = {
        "graph_sha256": g.sha256(),
        "n": g.n,
        "method": token,
        "order": cert.order,
        "half_order": half_ceil(g.n),
        "verdict": {"ok": verdict.ok, "reason": verdict.reason,
                    "detail": verdict.detail},
        "seconds": round(elapsed, 6),
    }
    if parts is not None:
        report["partition"] = [sorted(parts[0]), sorted(parts[1])]
    if g.n and g.n <= MAX_CHROMATIC_N:
        p = clique_profile(g)
        report.update(alpha=p.alpha, omega=p.omega, chi=p.chi)
    if args.cert:
        _write_text(args.cert, certificate_to_json(cert))
    if args.dot:
        _write_text(args.dot, certificate_to_dot(g, cert))
    _print_json(report)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    cert = certificate_from_json(_read_text(args.cert))
    verdict = verify_certificate(g, cert)
    _print_json({"ok": verdict.ok, "reason": verdict.reason,
                 "detail": verdict.detail, "order": cert.order})
    if verdict.ok:
        return EXIT_OK
    return EXIT_BAD_INPUT if verdict.reason == "hash-mismatch" else EXIT_VERIFY_FAILED


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family == "alpha2":
        g = random_alpha2(args.n, args.seed)
        _write_text(args.out, g.to_json())
    elif family.startswith("hfree:"):
        g = random_hfree_alpha2(family.split(":", 1)[1], args.n, args.seed)
        _write_text(args.out, g.to_json())
    elif family in ("inflation:path", "inflation:cycle"):
        spec = random_inflation(family.split(":", 1)[1], args.k,
                                args.max_bag, args.seed)
        if args.inflate:
            g, _ = inflate(spec.base, spec.sizes)
            _write_text(args.out, g.to_json())
        else:
            _write_text(args.out, inflation_to_json(spec))
    elif family in ("dominating:c4", "dominating:c5", "dominating:p4"):
        fn = {"dominating:c4": dominating_c4_family,
              "dominating:c5": dominating_c5_family,
              "dominating:p4": dominating_p4_family}[family]
        g, planted = fn(args.n, args.seed)
        print(f"planted structure on vertices {list(planted)}", file=sys.stderr)
        _write_text(args.out, g.to_json())
    elif family == "forbholes":
        g, info = forbholes_family(args.alpha, args.seed)
        print(f"family info: {json.dumps(info)}", file=sys.stderr)
        _write_text(args.out, g.to_json())
    else:
        raise ValueError(f"unknown family {family!r}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    names = ALL_SUITES if args.suite == "all" else (args.suite,)
    summaries = [run_suite(name, count=args.count, start_seed=args.seed)
                 for name in names]
    if len(summaries) == 1:
        doc: dict = summaries[0]
        failed = doc["failed"]
        violations = doc["violations"]
    else:
        failed = sum(s["failed"] for s in summaries)
        violations = sum(s["violations"] for s in summaries)
        doc = {"suites": summaries,
               "passed": sum(s["passed"] for s in summaries),
               "failed": failed, "violations": violations}
    _print_json(doc, args.out)
    if violations:
        return EXIT_CLAIM_VIOLATION
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# -- parser / entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="immlab",
        description="clique immersions in graphs of independence number two")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("auto", "json", "text"),
                       default="auto", help="input graph format")

    pa = sub.add_parser("analyze", help="structural report for a graph")
    pa.add_argument("graph", help="graph file, or - for stdin")
    add_format(pa)
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("solve", help="construct an immersion certificate")
    ps.add_argument("graph", help="graph file, or - for stdin")
    add_format(ps)
    ps.add_argument("--method", default="auto", help=" | ".join(METHOD_TOKENS))
    ps.add_argument("--cert", help="write the certificate JSON to this file")
    ps.add_argument("--dot", help="write a DOT rendering to this file")
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser("verify", help="check a certificate against a graph")
    pv.add_argument("graph", help="graph file, or - for stdin")
    pv.add_argument("cert", help="certificate JSON file")
    add_format(pv)
    pv.set_defaults(func=_cmd_verify)

    pg = sub.add_parser("gen", help="generate instances")
    pg.add_argument("family",
                    help="alpha2 | hfree:<pattern> | inflation:path | "
                         "inflation:cycle | dominating:c4 | dominating:c5 | "
                         "dominating:p4 | forbholes")
    pg.add_argument("--n", type=int, default=10, help="vertex count")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--k", type=int, default=4, help="bag count for inflations")
    pg.add_argument("--max-bag", type=int, default=3,
                    help="largest bag size for inflations")
    pg.add_argument("--alpha", type=int, default=2,
                    help="independence number for the forbholes family")
    pg.add_argument("--inflate", action="store_true",
                    help="emit the inflated graph instead of the inflation document")
    pg.add_argument("--out", help="output file (default stdout)")
    pg.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="run randomized stress suites")
    pb.add_argument("--suite", default="all", choices=("all",) + ALL_SUITES)
    pb.add_argument("--count", type=int, default=10, help="cases per suite")
    pb.add_argument("--seed", type=int, default=0, help="first seed")
    pb.add_argument("--out", help="write the summary JSON to this file")
    pb.set_defaults(func=_cmd_bench)
    return ap


def _sidecar_path(args: argparse.Namespace, kind: str, default: str) -> Path:
    """``<input>.<kind>.json`` next to the input graph, else ``default``."""
    source = getattr(args, "graph", None)
    if source and source != "-":
        return Path(f"{source}.{kind}.json")
    return Path(default)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClaimViolation as exc:
        side = _sidecar_path(args, "violation", "claim.violation.json")
        side.write_text(json.dumps(exc.to_json_doc(), indent=2) + "\n")
        print(f"claim violated: {exc}", file=sys.stderr)
        print(f"violation document written to {side}", file=sys.stderr)
        return EXIT_CLAIM_VIOLATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        doc = {"format": CRASH_FORMAT, "command": args.command,
               "input": getattr(args, "graph", None),
               "traceback": traceback.format_exc()}
        try:
            _sidecar_path(args, "crash", "crash.json").write_text(
                json.dumps(doc, indent=2) + "\n")
        except OSError:
            pass  # the exit code and the traceback on stderr still report it
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
