"""Violation documents: every context value becomes plain JSON."""

from __future__ import annotations

import json

from immlab.errors import VIOLATION_FORMAT, ClaimViolation
from immlab.graphs import cycle_graph


def test_violation_document_flattens_every_container():
    g = cycle_graph(4)
    exc = ClaimViolation("broken claim", graph=g, context={
        "cycle": (3, 1, 2),
        "seen": frozenset({5, 2, 9}),
        "split": {1: [frozenset({4, 0}), (7, 6)], "side": {"a": (1,)}},
    })
    doc = exc.to_json_doc()
    assert doc["format"] == VIOLATION_FORMAT and doc["message"] == "broken claim"
    assert doc["graph_sha256"] == g.sha256() and doc["n"] == 4
    assert doc["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert doc["context"] == {
        "cycle": [3, 1, 2],
        "seen": [2, 5, 9],
        "split": {"1": [[0, 4], [7, 6]], "side": {"a": [1]}},
    }
    assert json.loads(json.dumps(doc)) == doc


def test_violation_without_graph_or_context_is_a_bare_document():
    assert ClaimViolation("bare").to_json_doc() == {
        "format": VIOLATION_FORMAT, "message": "bare"}
