"""Command-line interface: round trips, exit codes, and output contracts."""

from __future__ import annotations

import io
import json

import pytest

import immlab.cli as cli
from immlab import analysis, certificates, construct
from immlab.certificates import (
    ImmersionCertificate,
    certificate_from_json,
    certificate_to_json,
)
from immlab.errors import BudgetExceeded, ClaimViolation, PreconditionError
from immlab.gen import random_alpha2, random_hfree_alpha2
from immlab.graphs import (
    FOUR_VERTEX_PATTERNS,
    complete_graph,
    cycle_graph,
    graph_from_json,
    join,
    pattern,
)
from immlab.inflation import inflate

from conftest import p4_free_join


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_c5(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(cycle_graph(5).to_json())
    return path


def test_analyze_reports_structure(tmp_path, capsys):
    path = write_c5(tmp_path)
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["m"] == 5
    assert doc["alpha"] == 2 and doc["omega"] == 2
    assert doc["chi"] == 3
    assert doc["induced"]["C4"] is None
    assert doc["induced"]["P4"] is not None
    assert doc["graph_sha256"] == cycle_graph(5).sha256()


def test_analyze_text_format(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_analyze_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == cli.EXIT_BAD_INPUT
    assert err.strip()


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "1.0"])
def test_text_input_takes_ascii_decimal_tokens_only(tmp_path, capsys, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"3 1\n{token} 2\n", encoding="utf-8")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == cli.EXIT_BAD_INPUT and not out
    assert err == f"error: non-integer token in edge list: {token!r}\n"


@pytest.mark.parametrize("body, message", [
    ("0 1\n1 2\n2\n", "header promises 2 edges but 2 given, and a dangling endpoint 2"),
    ("0 1\n1\n", "header promises 2 edges but 1 given, and a dangling endpoint 1"),
    ("0 1\n", "header promises 2 edges but 1 given"),
])
def test_text_input_counts_whole_edges(tmp_path, capsys, body, message):
    path = tmp_path / "short.txt"
    path.write_text("3 2\n" + body)
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == cli.EXIT_BAD_INPUT and not out
    assert err == f"error: {message}\n"


def test_text_input_keeps_negative_ids_for_the_range_check(tmp_path, capsys):
    path = tmp_path / "negative.txt"
    path.write_text("3 1\n-1 2\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == cli.EXIT_BAD_INPUT
    assert err == "error: edge (-1,2) out of range for n=3\n"


def test_solve_auto_writes_cert_and_dot(tmp_path, capsys):
    path = write_c5(tmp_path)
    cert_path = tmp_path / "c5.cert.json"
    dot_path = tmp_path / "c5.dot"
    code, out, _ = run(capsys, ["solve", str(path), "--cert", str(cert_path),
                                "--dot", str(dot_path)])
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "vergara:C4"
    assert report["order"] == 3 and report["half_order"] == 3
    assert report["verdict"]["ok"] is True
    cert = certificate_from_json(cert_path.read_text())
    assert cert.order == 3
    dot = dot_path.read_text()
    assert dot.startswith("graph {") or dot.startswith("graph immersion")
    assert "doublecircle" in dot


def test_solve_named_methods(tmp_path, capsys):
    path = write_c5(tmp_path)
    for method, order in [("vergara:C4", 3), ("k4", 3), ("k4minus", 3),
                          ("house", 3), ("owh", 3), ("oracle", 3),
                          ("forbholes", 3)]:
        code, out, _ = run(capsys, ["solve", str(path), "--method", method])
        assert code == 0, method
        assert json.loads(out)["order"] == order


def test_solve_k4minus_reports_partition(tmp_path, capsys):
    path = tmp_path / "tt.json"
    path.write_text(
        '{"format":"immlab-graph-v1","n":6,'
        '"edges":[[0,1],[0,2],[1,2],[3,4],[3,5],[4,5]]}')
    code, out, _ = run(capsys, ["solve", str(path), "--method", "k4minus"])
    assert code == 0
    report = json.loads(out)
    assert sorted(map(sorted, report["partition"])) == [[0, 1, 2], [3, 4, 5]]


def test_solve_k4minus_reports_the_larger_side_first(tmp_path, capsys):
    """The paw (edges 01, 02, 03, 23) splits as {0, 2, 3} + {1} or
    {0, 1} + {2, 3}; the route takes the triangle, at order 3."""
    path = tmp_path / "paw.json"
    path.write_text(random_hfree_alpha2("K4minus", 4, 2).to_json())
    code, out, _ = run(capsys, ["solve", str(path), "--method", "k4minus"])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 3
    assert report["partition"] == [[0, 2, 3], [1]]


def test_solve_rejects_inapplicable_method(tmp_path, capsys):
    path = tmp_path / "k5.json"
    path.write_text('{"format":"immlab-graph-v1","n":5,"edges":'
                    '[[0,1],[0,2],[0,3],[0,4],[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}')
    code, _, err = run(capsys, ["solve", str(path), "--method", "k4"])
    assert code == cli.EXIT_BAD_INPUT and err.strip()
    code, _, err = run(capsys, ["solve", str(path), "--method", "vergara:K5"])
    assert code == cli.EXIT_BAD_INPUT
    code, _, err = run(capsys, ["solve", str(path), "--method", "sorcery"])
    assert code == cli.EXIT_BAD_INPUT


def test_k4_route_rejects_nine_vertices_by_an_induced_k4(tmp_path, capsys):
    """R(3, 4) = 9: at independence 2, nine vertices hold a K4, which the
    route's precondition names before its n <= 8 gate is reached."""
    path = tmp_path / "g.json"
    for seed in range(4):
        g = random_alpha2(9, seed)
        with pytest.raises(PreconditionError, match="induced K4 on"):
            construct.k4_free_immersion(g)
        path.write_text(g.to_json())
        code, _, err = run(capsys, ["solve", str(path), "--method", "k4"])
        assert code == cli.EXIT_BAD_INPUT and "induced K4 on" in err


def test_method_help_and_error_list_every_route(tmp_path, capsys):
    assert cli.METHOD_TOKENS == ("auto",) + tuple(construct.METHODS)
    assert {"forbholes", "house", "owh", "k4", "k4minus", "oracle"} | {
        f"vergara:{p}" for p in FOUR_VERTEX_PATTERNS} == set(construct.METHODS)
    with pytest.raises(SystemExit):
        cli.main(["solve", "--help"])
    assert " | ".join(cli.METHOD_TOKENS) in " ".join(capsys.readouterr().out.split())
    path = write_c5(tmp_path)
    code, _, err = run(capsys, ["solve", str(path), "--method", "sorcery"])
    assert code == cli.EXIT_BAD_INPUT
    assert ", ".join(cli.METHOD_TOKENS) in err


def test_repeated_edge_is_bad_input(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"format":"immlab-graph-v1","n":2,"edges":[[0,1],[1,0]]}')
    for command in ("analyze", "solve"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == cli.EXIT_BAD_INPUT and out == ""
        assert "repeats the pair (0, 1)" in err
    text = tmp_path / "dup.txt"
    text.write_text("2 2\n0 1\n0 1\n")
    code, _, err = run(capsys, ["analyze", str(text)])
    assert code == cli.EXIT_BAD_INPUT and "repeats" in err


def test_huge_vertex_count_is_bad_input(tmp_path, capsys):
    """The vertex-count gate runs at parse time, before any row is allocated."""
    doc = tmp_path / "huge.json"
    doc.write_text('{"format":"immlab-graph-v1","n":9223372036854775807,"edges":[]}')
    text = tmp_path / "huge.txt"
    text.write_text("9223372036854775807 0\n")
    for path in (doc, text):
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == cli.EXIT_BAD_INPUT and out == ""
        assert "outside [0, 4096]" in err


def test_analyze_runs_two_clique_searches(tmp_path, capsys, monkeypatch):
    # alpha and omega each take one search; chi reuses both.
    calls = []
    real = analysis.max_clique

    def counting(g, within=None):
        calls.append(g.n)
        return real(g, within)

    monkeypatch.setattr(analysis, "max_clique", counting)
    path = tmp_path / "g.json"
    path.write_text(random_alpha2(12, 3).to_json())
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0 and json.loads(out)["chi"] is not None
    assert len(calls) == 2
    calls.clear()
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 0 and json.loads(out)["chi"] is not None
    assert len(calls) == 2


@pytest.mark.parametrize("bag, top, chi", [(14, 14, 49), (25, 3, 66)])
def test_analyze_reports_chi_above_the_branch_and_bound_gate(tmp_path, capsys, bag, top, chi):
    """At alpha <= 2 chi is n minus the complement's matching number, so
    ``analyze`` reports it up to the n <= 128 clique gate."""
    g = join(inflate(cycle_graph(5), (bag,) * 5)[0], complete_graph(top))
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    code, out, _ = run(capsys, ["analyze", str(path)])
    report = json.loads(out)
    assert code == 0 and report["n"] == 5 * bag + top > 24
    assert report["alpha"] == 2 and report["chi"] == chi


@pytest.mark.parametrize("g, chi", [
    (inflate(cycle_graph(5), (26,) * 5)[0], 65),    # alpha 2, n = 130
    (inflate(cycle_graph(7), (19,) * 7)[0], None),  # alpha 3, n = 133
])
def test_analyze_reports_chi_above_the_clique_gate(tmp_path, capsys, g, chi):
    """Above n = 128 ``analyze`` reports no alpha or omega, but chi where
    ``chromatic_number`` answers: at alpha <= 2, from the matching."""
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    code, out, _ = run(capsys, ["analyze", str(path)])
    report = json.loads(out)
    assert code == 0 and report["n"] > 128
    assert (report["alpha"], report["omega"], report["chi"]) == (None, None, chi)


def test_analyze_asks_for_an_induced_c4_once(tmp_path, capsys, monkeypatch):
    """At alpha <= 2 the short-hole scan is the [4, 4] scan, and it answers
    ``induced["C4"]`` too: no induced-C4 embedding search runs."""
    scans, searched = [], []
    real_scan, real_search = cli.find_hole_in_range, analysis.find_induced_embedding

    def scan(g, lo, hi, within=None):
        scans.append((lo, hi))
        return real_scan(g, lo, hi, within)

    def search(g, h, within=None):
        searched.append(h)
        return real_search(g, h, within)

    monkeypatch.setattr(cli, "find_hole_in_range", scan)
    monkeypatch.setattr(analysis, "find_induced_embedding", search)
    path = tmp_path / "g.json"
    path.write_text(random_alpha2(12, 3).to_json())
    code, out, _ = run(capsys, ["analyze", str(path)])
    report = json.loads(out)
    assert code == 0 and report["alpha"] <= 2
    assert scans == [(4, 4)]
    assert report["induced"]["C4"] == (None if report["short_hole"] is None
                                       else sorted(report["short_hole"]))
    assert pattern("C4") not in searched and len(searched) == 8


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    path = write_c5(tmp_path)
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["solve", str(path), "--cert", str(cert_path)])
    assert code == 0
    code, out, _ = run(capsys, ["verify", str(path), str(cert_path)])
    assert code == 0
    assert json.loads(out)["ok"] is True
    # Flip one endpoint bit in one walk: must fail verification with exit 1.
    doc = json.loads(cert_path.read_text())
    doc["paths"][0]["walk"][0] ^= 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(path), str(tampered)])
    assert code == cli.EXIT_VERIFY_FAILED
    assert json.loads(out)["ok"] is False


def test_verify_wrong_graph_is_hash_mismatch(tmp_path, capsys):
    path = write_c5(tmp_path)
    cert_path = tmp_path / "cert.json"
    run(capsys, ["solve", str(path), "--cert", str(cert_path)])
    other = tmp_path / "c6.json"
    other.write_text(cycle_graph(6).to_json())
    code, out, _ = run(capsys, ["verify", str(other), str(cert_path)])
    assert code == cli.EXIT_BAD_INPUT
    assert json.loads(out)["reason"] == "hash-mismatch"


def test_gen_families_emit_loadable_graphs(tmp_path, capsys):
    for family, extra in [("alpha2", []), ("hfree:house", []),
                          ("dominating:c4", []), ("dominating:c5", ["--n", "11"]),
                          ("dominating:p4", []), ("forbholes", ["--alpha", "2"])]:
        out_path = tmp_path / "g.json"
        code, _, _ = run(capsys, ["gen", family, "--n", "10", "--seed", "3",
                                  "--out", str(out_path)] + extra)
        assert code == 0, family
        g = graph_from_json(out_path.read_text())
        assert g.n >= 5


def test_gen_inflation_document_and_graph(tmp_path, capsys):
    code, out, _ = run(capsys, ["gen", "inflation:cycle", "--k", "5",
                                "--max-bag", "2", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["format"] == "immlab-inflation-v1"
    code, out, _ = run(capsys, ["gen", "inflation:cycle", "--k", "5",
                                "--max-bag", "2", "--seed", "1", "--inflate"])
    assert code == 0
    assert json.loads(out)["format"] == "immlab-graph-v1"


def test_gen_rejects_unknown_family(capsys):
    code, _, err = run(capsys, ["gen", "mystery", "--n", "8"])
    assert code == cli.EXIT_BAD_INPUT and err.strip()


def test_full_pipeline_via_stdin_like_files(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    cert_path = tmp_path / "g.cert.json"
    code, _, _ = run(capsys, ["gen", "hfree:owh", "--n", "12", "--seed", "7",
                              "--out", str(graph_path)])
    assert code == 0
    code, out, _ = run(capsys, ["solve", str(graph_path), "--method", "owh",
                                "--cert", str(cert_path)])
    assert code == 0 and json.loads(out)["order"] == 6
    code, _, _ = run(capsys, ["verify", str(graph_path), str(cert_path)])
    assert code == 0


def test_bench_subcommand_smoke(tmp_path, capsys):
    out_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, ["bench", "--suite", "two-clique", "--count", "3",
                                "--out", str(out_path)])
    assert code == 0
    summary = json.loads(out_path.read_text())
    assert summary["passed"] == 3 and summary["failed"] == 0


def test_claim_violation_writes_sidecar(tmp_path, capsys, monkeypatch):
    path = write_c5(tmp_path)

    def boom(g, method):
        raise ClaimViolation("synthetic impossibility", graph=g,
                             context={"note": 1})

    monkeypatch.setattr(cli, "_solve_with_method", boom)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == cli.EXIT_CLAIM_VIOLATION
    sidecar = tmp_path / "c5.json.violation.json"
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text())
    assert doc["format"] == "immlab-violation-v1"
    assert "synthetic impossibility" in doc["message"]
    assert doc["context"] == {"note": 1}
    assert doc["n"] == 5
    assert doc["graph_sha256"] == cycle_graph(5).sha256()


def test_budget_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    path = write_c5(tmp_path)

    def boom(g, method):
        raise BudgetExceeded("synthetic limit")

    monkeypatch.setattr(cli, "_solve_with_method", boom)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == cli.EXIT_BUDGET
    assert err.strip()


def test_internal_error_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    path = write_c5(tmp_path)

    def boom(g, method):
        raise AssertionError("constructed certificate failed verification")

    monkeypatch.setattr(cli, "_solve_with_method", boom)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == cli.EXIT_INTERNAL == 5
    assert code != cli.EXIT_VERIFY_FAILED
    assert err.startswith("internal error:")
    assert "AssertionError: constructed certificate failed verification" in err


def test_internal_error_writes_a_crash_sidecar(tmp_path, capsys, monkeypatch):
    path = write_c5(tmp_path)

    def boom(g, method):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(cli, "_solve_with_method", boom)
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == cli.EXIT_INTERNAL and out == ""
    assert err.startswith("internal error:") and "RuntimeError: synthetic bug" in err
    doc = json.loads((tmp_path / "c5.json.crash.json").read_text())
    assert doc["format"] == "immlab-crash-v1"
    assert doc["command"] == "solve" and doc["input"] == str(path)
    assert doc["traceback"].startswith("Traceback")
    assert doc["traceback"].rstrip().endswith("RuntimeError: synthetic bug")


def broken(cert):
    """``cert`` with the walk of its lowest pair cut to one vertex."""
    key = min(cert.paths)
    return ImmersionCertificate(cert.host_hash, cert.branch,
                                {**cert.paths, key: key[:1]})


@pytest.mark.parametrize("method", cli.METHOD_TOKENS)
def test_solve_exits_internal_when_its_certificate_fails(tmp_path, capsys, monkeypatch,
                                                         method):
    """A route's bad certificate is a bug in immlab, not a verdict on the
    input: ``solve`` exits 5 with a crash sidecar naming the verdict."""
    g = p4_free_join(8) if method == "vergara:P4" else cycle_graph(5)
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    if method == "auto":
        real_auto = cli.auto_immersion

        def auto(g):
            token, cert = real_auto(g)
            return token, broken(cert)
        monkeypatch.setattr(cli, "auto_immersion", auto)
    else:
        real_route = cli.METHODS[method]

        def route(g):
            cert, parts = real_route(g)
            return broken(cert), parts
        monkeypatch.setitem(cli.METHODS, method, route)
    code, out, err = run(capsys, ["solve", "--method", method, str(path)])
    assert code == cli.EXIT_INTERNAL and out == ""
    assert "constructed certificate failed verification" in err
    doc = json.loads((tmp_path / "g.json.crash.json").read_text())
    assert doc["command"] == "solve" and doc["input"] == str(path)
    assert "reason='condition-I'" in doc["traceback"]


def test_solve_verifies_its_certificate_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(p4_free_join(16).to_json())
    calls = []

    def counting(g, cert):
        calls.append(cert)
        return certificates.verify_certificate(g, cert)
    monkeypatch.setattr(cli, "verify_certificate", counting)
    # construct imports no verifier; one bound there would be counted too.
    monkeypatch.setattr(construct, "verify_certificate", counting, raising=False)
    code, out, _ = run(capsys, ["solve", "--method", "vergara:P4", str(path)])
    assert code == 0 and json.loads(out)["order"] == 8
    assert len(calls) == 1


def test_internal_error_on_stdin_writes_crash_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(cycle_graph(5).to_json()))

    def boom(g):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(cli, "clique_profile", boom)
    code, _, _ = run(capsys, ["analyze", "-"])
    assert code == cli.EXIT_INTERNAL
    doc = json.loads((tmp_path / "crash.json").read_text())
    assert doc["command"] == "analyze" and doc["input"] == "-"
    assert "RuntimeError: synthetic bug" in doc["traceback"]


def test_missing_file_is_bad_input(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/graph.json"])
    assert code == cli.EXIT_BAD_INPUT and err.strip()
