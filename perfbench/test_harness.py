"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calls  # noqa: E402
import quantiles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from immlab.certificates import Verdict  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert quantiles.tail(values) == (990.0, 99.0, 10)
    # Shuffled input, same answer.
    assert quantiles.tail(values[::-1]) == (990.0, 99.0, 10)
    value, level, beyond = quantiles.tail([float(v) for v in range(1, 12)])
    assert (value, beyond) == (1.0, 10)
    assert abs(level - 100 / 11) < 1e-12
    # Too few samples for the rule: the minimum, with the true count beyond it.
    assert quantiles.tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)


def _tracer_with(ticks):
    clock = iter(ticks)
    return spans.Tracer(clock=lambda: float(next(clock)))


def test_self_time_subtracts_direct_children_only():
    t = _tracer_with([0, 1, 2, 3, 4, 5, 9, 10])
    root = t.open("bench.solve", new_request=True)   # 0 .. 10
    a = t.open("construct.a")                       # 1 .. 4
    b = t.open("analysis.b")                        # 2 .. 3
    t.close(b)
    t.close(a)
    c = t.open("analysis.c")                        # 5 .. 9
    t.close(c)
    t.close(root)
    s = t.summarise()
    roots = {"bench.solve"}
    assert s.total(s.SELF, roots, ("bench.solve",)) == 10 - 3 - 4
    assert s.total(s.SELF, roots, ("construct.a",)) == 3 - 1
    assert s.total(s.SELF, roots, prefix="analysis.") == 1 + 4
    # Self times of all layers add up to the request's time.
    assert s.total(s.SELF, roots, prefix="") == 10
    assert s.total(s.INCLUSIVE, roots, ("construct.a",)) == 3
    assert s.calls_from(roots, "construct.", ("analysis.b",)) == 1


def test_inclusive_time_counts_recursion_once():
    t = _tracer_with([0, 1, 2, 3, 4, 6])
    root = t.open("bench.solve", new_request=True)   # 0 .. 6
    outer = t.open("inflation.f")                    # 1 .. 4
    inner = t.open("inflation.f")                    # 2 .. 3
    t.close(inner)
    t.close(outer)
    t.close(root)
    s = t.summarise()
    assert s.total(s.INCLUSIVE, {"bench.solve"}, ("inflation.f",)) == 3
    assert s.total(s.SELF, {"bench.solve"}, ("inflation.f",)) == 3
    assert s.total(s.CALLS, {"bench.solve"}, ("inflation.f",)) == 2
    assert s.longest({"bench.solve"}, "inflation.f") == 3


def test_install_patches_every_namespace_and_uninstall_restores():
    import immlab
    from immlab import analysis, construct, graphs
    original = analysis.find_induced
    t = spans.Tracer()
    t.install()
    try:
        assert construct.find_induced is analysis.find_induced is immlab.find_induced
        assert analysis.find_induced is not original
        assert "bits" not in {n.split(".")[-1] for n in t.names}
        g = graphs.graph_from_json(graphs.cycle_graph(5).to_json())
        root = t.open("bench.analyze", new_request=True)
        analysis.find_induced(g, graphs.pattern("P4"))
        t.close(root)
    finally:
        t.uninstall()
    assert analysis.find_induced is original and construct.find_induced is original
    names = set(t.names)
    assert {"graphs.graph_from_json", "graphs.Graph.__post_init__",
            "analysis.find_induced", "analysis.find_induced_embedding"} <= names


def _small_pool():
    return workloads.holefree_ladder(3)[:12]


def test_tampered_certificate_accepted_counts_as_failure(monkeypatch):
    pool = _small_pool()
    honest = run.Recorder()
    run.run_pass(calls, pool, honest)
    assert honest.failed == 0 and honest.latency["tamper"]

    real_verify = calls.verify

    def loosened(graph_text, cert_text):
        real_verify(graph_text, cert_text)
        return Verdict(True)

    monkeypatch.setattr(calls, "verify", loosened)
    rec = run.Recorder()
    run.run_pass(calls, pool, rec)
    tampered = sum(map(len, rec.latency["tamper"].values()))
    assert rec.failed == tampered > 0
    assert rec.failed / rec.attempted > 0
    assert all(e.startswith("tamper:") for e in rec.errors)


def test_same_seed_gives_identical_instances():
    for build in workloads.WORKLOADS.values():
        first = workloads.pool_digest(build(11))
        assert workloads.pool_digest(build(11)) == first
        assert workloads.pool_digest(build(12)) != first


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_printed_metrics_are_the_ones_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    pool = _small_pool()

    rec = run.Recorder()
    run.run_pass(calls, pool, rec)
    metrics, _ = run.end_to_end(rec, setup_s=1.0)
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}

    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.open("bench.setup", new_request=True)
        workloads.small_mix(5)
        tracer.close(root)
        rec = run.Recorder()
        run.run_pass(calls, pool, rec, tracer)
    finally:
        tracer.uninstall()
    metrics, detail = run.per_layer(tracer.summarise(), tracer, overhead=0.0)
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert detail["layer_self_matches_request_s"]
    assert metrics["gen.candidates"][0] >= metrics["gen.accept_ratio"][0] > 0
    assert rec.failed == 0
