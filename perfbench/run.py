"""Benchmark of immlab's solve / verify / analyze pipeline.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
client in one process issues closed-loop requests: each pass over the
workload's instance pool solves every instance, verifies the certificate it
just produced, verifies a tampered copy of every tenth certificate (which must
be rejected) and analyses the instances the workload marks.  A run makes
``--seconds`` / ``PASS_SECONDS`` whole passes (rounded), so every run issues the
same request mix.  An instance's latency is the fastest of its repetitions
(see ``Recorder.best``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the library's
public entry points (see ``spans.py``) and prints the per-layer metrics.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
details (tail percentile and its sample count, digests of the instances and
of all certificate bytes, failures, Python version and CPU count).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import quantiles
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAMPER_EVERY = 10
KINDS = ("solve", "verify", "tamper", "analyze")
REQUEST_ROOTS = frozenset(f"bench.{k}" for k in KINDS)
SETUP_ROOTS = frozenset({"bench.setup"})


class Recorder:
    """Latencies per request kind and instance, plus attempted and failed requests."""

    def __init__(self) -> None:
        self.latency: dict[str, dict[int, list[float]]] = {k: defaultdict(list) for k in KINDS}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.order_ratio: dict[int, float] = {}
        self.cert_texts: dict[int, str] = {}
        self.labels: dict[int, tuple[str, str]] = {}   # traced request id -> (kind, label)

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {problem}")

    def timed(self, kind: str, i: int, label: str, tracer, fn, *args):
        """Run one request on instance ``i``; None if it raised (a failure)."""
        self.attempted += 1
        root = -1
        if tracer:
            root = tracer.open(f"bench.{kind}", new_request=True)
            self.labels[tracer.request_id] = (kind, label)
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # one failed request must not end the run
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(root)
        self.latency[kind][i].append(elapsed)
        return out

    def checked(self, kind: str, problems: list[str]) -> None:
        if problems:
            self.fail(kind, "; ".join(problems))

    def best(self, kind: str) -> list[float]:
        """Each instance's fastest repetition of this request kind.

        The machine this runs on is shared: the same request takes up to
        twice as long during another tenant's busy spell, which lasts seconds.
        Every instance is repeated several times, spread over the run, and
        the fastest repetition is its latency."""
        return [min(samples) for samples in self.latency[kind].values()]


def pass_order(pool) -> list[int]:
    """Instance indices of one pass: round r issues every instance whose
    ``repeat`` exceeds r, so the repetitions of an instance are spread out."""
    rounds = max(inst.repeat for inst in pool)
    return [i for r in range(rounds) for i, inst in enumerate(pool) if inst.repeat > r]


def run_pass(calls, pool, rec: Recorder, tracer=None) -> None:
    for i in pass_order(pool):
        inst = pool[i]
        solved = rec.timed("solve", i, inst.label, tracer, calls.solve, inst)
        if solved is None:
            continue
        problems = calls.check_solve(inst, solved)
        if rec.cert_texts.setdefault(i, solved.text) != solved.text:
            problems.append("certificate bytes differ from an earlier repetition")
        rec.checked("solve", problems)
        rec.order_ratio[i] = solved.cert.order / inst.promise
        verdict = rec.timed("verify", i, inst.label, tracer, calls.verify,
                            inst.graph_text, solved.text)
        if verdict is not None:
            rec.checked("verify", [] if verdict.ok else [f"rejected: {verdict.reason}"])
        if i % TAMPER_EVERY == 0:
            bad = calls.tamper(solved.text)
            verdict = rec.timed("tamper", i, inst.label, tracer, calls.verify,
                                inst.graph_text, bad)
            if verdict is not None:
                rec.checked("tamper", ["tampered certificate accepted"] if verdict.ok else [])
        if inst.analyze:
            out = rec.timed("analyze", i, inst.label, tracer, calls.analyze, inst.graph_text)
            if out is not None:
                rec.checked("analyze", calls.check_analyze(inst, *out))


def measure(calls, pool, passes: int, rec: Recorder, tracer=None) -> float:
    start = time.perf_counter()
    for _ in range(passes):
        run_pass(calls, pool, rec, tracer)
    return time.perf_counter() - start


def set_up(workloads, calls, name: str, seed: int):
    """Generate the pool, then warm up on the smallest instance of each route."""
    start = time.perf_counter()
    pool = workloads.WORKLOADS[name](seed)
    smallest = {}
    for inst in pool:
        if inst.method not in smallest or len(inst.text) < len(smallest[inst.method].text):
            smallest[inst.method] = inst
    warm = Recorder()
    run_pass(calls, [replace(inst, repeat=1) for inst in smallest.values()], warm)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.errors}")
    return pool, time.perf_counter() - start


def end_to_end(rec: Recorder, setup_s: float) -> tuple[dict, dict]:
    best = {kind: rec.best(kind) for kind in ("solve", "verify", "analyze")}

    def per_s(kind):
        return len(best[kind]) / sum(best[kind])

    def p50_ms(kind):
        return quantiles.median(best[kind]) * 1e3

    tail_s, level, beyond = quantiles.tail(best["solve"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_per_s": (per_s("solve"), "1/s"),
        "solve_p50_ms": (p50_ms("solve"), "ms"),
        "solve_tail_ms": (tail_s * 1e3, "ms"),
        "verify_per_s": (per_s("verify"), "1/s"),
        "verify_p50_ms": (p50_ms("verify"), "ms"),
        "analyze_per_s": (per_s("analyze"), "1/s"),
        "analyze_p50_ms": (p50_ms("analyze"), "ms"),
        "order_ratio": (statistics.fmean(rec.order_ratio.values()), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"solve_tail": {"percentile": level, "samples": len(best["solve"]),
                             "beyond": beyond}}
    return metrics, detail


def per_layer(summary, tracer, overhead: float) -> tuple[dict, dict]:
    S = summary
    req, setup = REQUEST_ROOTS, SETUP_ROOTS
    solve = frozenset({"bench.solve"})

    def incl(*names, roots=req):
        return S.total(S.INCLUSIVE, roots, names)

    def calls(*names, roots=req):
        return S.total(S.CALLS, roots, names)

    def self_s(layer, roots=req):
        return S.total(S.SELF, roots, prefix=f"{layer}.")

    request_s = S.total(S.INCLUSIVE, req, tuple(req))
    solve_s = incl("bench.solve", roots=solve)
    solves = calls("bench.solve", roots=solve)
    setup_s = incl("bench.setup", roots=setup)
    candidates = S.calls_from(setup, "gen.", ("analysis.has_independence_at_most_two",
                                              "analysis.independent_triple"))
    accepted = calls("gen.random_alpha2", "gen.random_hfree_alpha2", roots=setup)
    m = {
        "analysis.self_s": (self_s("analysis"), "s"),
        "analysis.hole_scan_s": (incl("analysis.find_hole_in_range"), "s"),
        "analysis.hole_scan_calls": (calls("analysis.find_hole_in_range"), "count"),
        "analysis.hole_scan_solve_frac": (
            incl("analysis.find_hole_in_range", roots=solve) / solve_s, "ratio"),
        "analysis.induced_search_s": (
            S.total(S.SELF, req, ("analysis.find_induced",
                                  "analysis.find_induced_embedding")), "s"),
        "analysis.induced_search_calls": (calls("analysis.find_induced_embedding"), "count"),
        "analysis.triple_test_calls": (calls("analysis.independent_triple"), "count"),
        "analysis.max_clique_s": (incl("analysis.max_clique"), "s"),
        "analysis.max_clique_max_s": (S.longest(req, "analysis.max_clique"), "s"),
        "analysis.chromatic_s": (incl("analysis.chromatic_number"), "s"),
        "graphs.self_s": (self_s("graphs"), "s"),
        "graphs.sha256_calls": (calls("graphs.Graph.sha256"), "count"),
        "graphs.sha256_s": (incl("graphs.Graph.sha256"), "s"),
        "graphs.sha256_per_solve": (calls("graphs.Graph.sha256", roots=solve) / solves, "count"),
        "graphs.parse_s": (incl("graphs.graph_from_json"), "s"),
        "graphs.graph_builds": (calls("graphs.Graph.__post_init__"), "count"),
        "inflation.self_s": (self_s("inflation"), "s"),
        "inflation.engine_calls": (calls("inflation.inflate_path", "inflation.inflate_cycle"),
                                   "count"),
        "inflation.dp_s": (incl("inflation.cycle_inflation_chromatic"), "s"),
        "certificates.self_s": (self_s("certificates"), "s"),
        "certificates.verify_s": (incl("certificates.verify_certificate",
                                       "certificates.verify_pattern_immersion"), "s"),
        "certificates.verify_calls": (calls("certificates.verify_certificate"), "count"),
        "certificates.walk_steps": (sum(v for root, v in tracer.walk_steps.items()
                                        if root in req), "count"),
        "certificates.serialize_s": (incl("certificates.certificate_to_json",
                                          "certificates.certificate_from_json"), "s"),
        "construct.self_s": (self_s("construct"), "s"),
        "construct.calls": (S.total(S.CALLS, req, prefix="construct."), "count"),
        "construct.extension_calls": (calls("construct.extend_over_dominating_c4",
                                            "construct.extend_over_dominating_c5",
                                            "construct.extend_over_dominating_p4"), "count"),
        "oracle.self_s": (self_s("oracle"), "s"),
        "oracle.calls": (S.total(S.CALLS, req, prefix="oracle."), "count"),
        "gen.self_s": (self_s("gen", roots=setup), "s"),
        "gen.candidates": (candidates, "count"),
        "gen.accept_ratio": (accepted / candidates if candidates else 1.0, "ratio"),
        "gen.setup_frac": (S.total(S.INCLUSIVE, setup, prefix="gen.") / setup_s, "ratio"),
        "bench.self_s": (self_s("bench"), "s"),
        "bench.request_s": (request_s, "s"),
        "bench.trace_overhead_frac": (overhead, "ratio"),
    }
    layer_sum = S.total(S.SELF, req, prefix="")
    detail = {"layer_self_sum_s": layer_sum,
              "layer_self_matches_request_s": abs(layer_sum - request_s) <= 1e-6 * request_s}
    return m, detail


def by_label(summary, labels: dict[int, tuple[str, str]]) -> dict:
    """Traced time per instance label: solve time and the hole scans inside
    it, analyze time and the max_clique calls inside it."""
    spent = summary.per_request()
    holes = summary.per_request("analysis.find_hole_in_range")
    cliques = summary.per_request("analysis.max_clique")
    out: dict[str, dict] = {}
    for rid, (kind, label) in labels.items():
        if kind not in ("solve", "analyze"):
            continue
        row = out.setdefault(label, {"solves": 0, "solve_s": 0.0, "solve_hole_scan_s": 0.0,
                                     "analyzes": 0, "analyze_s": 0.0,
                                     "analyze_max_clique_s": 0.0})
        row[f"{kind}s"] += 1
        row[f"{kind}_s"] += spent[rid]
        if kind == "solve":
            row["solve_hole_scan_s"] += holes.get(rid, 0.0)
        else:
            row["analyze_max_clique_s"] += cliques.get(rid, 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "immlab" / "__init__.py").is_file():
        print(f"perfbench: no immlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))  # the checkout's library, not an installed one
    import calls
    import workloads
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    pass_s = workloads.PASS_SECONDS[args.workload]
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "python": platform.python_version(), "nproc": os.cpu_count(),
                    "import_s": import_s}
    correct = True
    rec = Recorder()
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        root = tracer.open("bench.setup", new_request=True)
        pool, _ = set_up(workloads, calls, args.workload, args.seed)
        tracer.close(root)
        tracer.uninstall()
        gc.collect()
        # Half the passes untraced, half traced: the overhead compares the two.
        passes = max(1, round(args.seconds / 2 / pass_s))
        untraced = Recorder()
        plain_s = measure(calls, pool, passes, untraced)
        tracer.install()
        try:
            measured_s = measure(calls, pool, passes, rec, tracer)
        finally:
            tracer.uninstall()
        overhead = measured_s / plain_s - 1
        summary = tracer.summarise()
        metrics, extra = per_layer(summary, tracer, overhead)
        extra["by_label"] = by_label(summary, rec.labels)
        correct = extra["layer_self_matches_request_s"]
        rec.attempted += untraced.attempted
        rec.failed += untraced.failed
        rec.errors += untraced.errors
        detail["spans"] = len(tracer.start)
    else:
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            pool, elapsed = set_up(workloads, calls, args.workload, args.seed)
            setups.append(import_s + elapsed)
            digests.add(workloads.pool_digest(pool))
        if len(digests) != 1:
            correct = False
            detail["problem"] = "the same seed gave different instances"
        gc.collect()
        passes = max(1, round(args.seconds / pass_s))
        measured_s = measure(calls, pool, passes, rec)
        metrics, extra = end_to_end(rec, statistics.median(setups))
        extra["setup_runs_s"] = setups

    detail.update(extra)

    certs = hashlib.sha256()
    for i in sorted(rec.cert_texts):
        certs.update(rec.cert_texts[i].encode())
    detail.update(
        passes=passes, measured_s=measured_s, pool=len(pool),
        instance_sha256=workloads.pool_digest(pool),
        certificate_sha256=certs.hexdigest(),
        requests={k: sum(map(len, v.values())) for k, v in rec.latency.items()},
        fail_frac=rec.failed / rec.attempted, errors=rec.errors)
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": correct and rec.failed == 0 and len(rec.cert_texts) == len(pool),
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
