"""Exhaustive immersion search: soundness, completeness, and budget limits."""

from __future__ import annotations

import pytest

from immlab import oracle
from immlab.certificates import certificate_to_json, verify_certificate
from immlab.errors import BudgetExceeded, PreconditionError
from immlab.gen import (
    dominating_c4_family,
    dominating_c5_family,
    dominating_p4_family,
    random_alpha2,
)
from immlab.graphs import Graph, complete_graph, cycle_graph, empty_graph, mask_of
from immlab.oracle import OracleBudget, brute_force_immersion, max_immersion_order

from conftest import (
    count_calls,
    ref_find_immersion,
    ref_masked_immersion,
    ref_max_immersion_order,
)


def test_c5_has_k3_but_not_k4():
    g = cycle_graph(5)
    cert = brute_force_immersion(g, 3)
    assert cert is not None and cert.order == 3
    assert verify_certificate(g, cert).ok
    assert brute_force_immersion(g, 4) is None


def test_complement_c7_has_k4():
    g = cycle_graph(7).complement()
    cert = brute_force_immersion(g, 4)
    assert cert is not None
    assert verify_certificate(g, cert).ok


def test_max_immersion_order_on_cliques_and_empties():
    g = complete_graph(6)
    order, cert = max_immersion_order(g)
    assert order == 6 and cert.order == 6
    assert verify_certificate(g, cert).ok
    e = empty_graph(4)
    order, cert = max_immersion_order(e, OracleBudget(max_t=4))
    assert order == 1 and verify_certificate(e, cert).ok


def test_trivial_orders():
    g = cycle_graph(4)
    zero = brute_force_immersion(g, 0)
    one = brute_force_immersion(g, 1)
    assert zero is not None and zero.order == 0
    assert one is not None and one.order == 1
    assert verify_certificate(g, zero).ok and verify_certificate(g, one).ok
    assert brute_force_immersion(g, 1, within=0b1100).branch == (2,)
    assert brute_force_immersion(g, 0, within=0).branch == ()
    assert brute_force_immersion(g, 1, within=0) is None


def test_budget_preconditions():
    g = complete_graph(6)
    with pytest.raises(PreconditionError):
        brute_force_immersion(g, 3, OracleBudget(max_n=5))
    with pytest.raises(PreconditionError):
        brute_force_immersion(g, 7, OracleBudget(max_t=6))


def test_size_gate_counts_the_masked_vertices():
    """On a host of n = 14 the n <= 10 gate counts the vertices of ``within``."""
    g = cycle_graph(14).complement()
    cert = brute_force_immersion(g, 4, within=(1 << 10) - 1)
    assert cert is not None and verify_certificate(g, cert).ok
    assert cert == ref_masked_immersion(g, 4, (1 << 10) - 1)
    with pytest.raises(PreconditionError, match="n <= 10, got 11"):
        brute_force_immersion(g, 4, within=(1 << 11) - 1)
    with pytest.raises(PreconditionError, match="n <= 10, got 14"):
        brute_force_immersion(g, 4)


@pytest.mark.parametrize("family", [dominating_c4_family, dominating_c5_family,
                                    dominating_p4_family], ids=["c4", "c5", "p4"])
def test_masked_search_matches_the_copy_solve_relabel_referee(family):
    """Searching g inside the mask of the vertices the extension steps keep
    gives the very certificate the copy of that subgraph gives, relabelled:
    the same branch set, the same walks, the same bytes."""
    for seed in range(30):
        n = 6 + seed % 9  # 6..14
        g, planted = family(n, seed)
        within = g.vertex_mask & ~mask_of(planted[:4])
        need = (n - 3) // 2  # ceil((n - 4) / 2), the order the steps extend
        for t in range(need, min(need + 3, 7)):
            want = ref_masked_immersion(g, t, within)
            cert = brute_force_immersion(g, t, within=within)
            assert cert == want, (n, seed, t)
            if cert is not None:
                assert certificate_to_json(cert) == certificate_to_json(want)
                assert set(cert.branch) <= set(range(n)) - set(planted[:4])


def test_budget_node_limit_raises():
    g = cycle_graph(7).complement()
    with pytest.raises(BudgetExceeded):
        brute_force_immersion(g, 4, OracleBudget(max_nodes=1))


def test_agrees_with_reference_search():
    """Independent reference search and oracle agree on found/not-found."""
    for seed in range(30):
        n = 4 + seed % 4  # 4..7, within the reference's reach
        g = random_alpha2(n, seed)
        for t in range(2, 5):
            ref = ref_find_immersion(g, t)
            cert = brute_force_immersion(g, t)
            assert (ref is None) == (cert is None), (n, seed, t)
            if cert is not None:
                assert verify_certificate(g, cert).ok
            if ref is not None:
                rcert = type(cert)(g.sha256(), ref["branch"], ref["paths"])
                assert verify_certificate(g, rcert).ok


def test_every_alpha2_graph_reaches_half_order():
    for seed in range(20):
        n = 3 + seed % 7
        g = random_alpha2(n, seed)
        order, cert = max_immersion_order(g, OracleBudget(max_t=9))
        assert order >= (n + 1) // 2
        assert verify_certificate(g, cert).ok


def test_max_order_at_the_cap_takes_one_level(monkeypatch):
    """K6, the cap, is found first, so no lower level is searched."""
    calls = count_calls(monkeypatch, oracle, "brute_force_immersion")
    order, _cert = max_immersion_order(random_alpha2(10, 450))
    assert order == 6 and calls["brute_force_immersion"] == 1


@pytest.mark.parametrize("max_nodes", [1, 10, 100, 1000])
def test_downward_search_answers_wherever_ascending_does(max_nodes):
    budget = OracleBudget(max_nodes=max_nodes)
    answered = 0
    for n in range(4, 11):
        for seed in range(6):
            g = random_alpha2(n, seed)
            try:
                want, want_cert = ref_max_immersion_order(g, budget)
            except BudgetExceeded:
                continue
            answered += 1
            order, cert = max_immersion_order(g, budget)
            assert order == want, (n, seed)
            assert certificate_to_json(cert) == certificate_to_json(want_cert), (n, seed)
    assert answered >= 10


def test_downward_search_skips_a_level_out_of_budget():
    """Level 3 runs out of 30 nodes, so the ascending search raises; the
    downward one proves 6 and 5 absent and finds 4 first."""
    g = random_alpha2(7, 8)
    budget = OracleBudget(max_nodes=30)
    with pytest.raises(BudgetExceeded):
        ref_max_immersion_order(g, budget)
    order, cert = max_immersion_order(g, budget)
    assert order == 4 == max_immersion_order(g)[0]
    assert verify_certificate(g, cert).ok


def test_downward_search_raises_when_the_level_above_is_unknown():
    """A found level stands only if the level above was proved absent: here
    K4 is absent, K3 runs out of one node and K2 is found."""
    g = random_alpha2(4, 18)
    assert brute_force_immersion(g, 2, OracleBudget(max_nodes=1)) is not None
    with pytest.raises(BudgetExceeded):
        max_immersion_order(g, OracleBudget(max_nodes=1))
    assert max_immersion_order(g, OracleBudget(max_t=2, max_nodes=1))[0] == 2


def test_node_budget_of_one_level_is_unchanged():
    """Exactly 32,929 DFS nodes settle K5 on random_alpha2(10, 450): the
    edge bookkeeping must not change the search order or the node count."""
    g = random_alpha2(10, 450)
    assert brute_force_immersion(g, 5, OracleBudget(max_nodes=32_929)) is not None
    with pytest.raises(BudgetExceeded):
        brute_force_immersion(g, 5, OracleBudget(max_nodes=32_928))
