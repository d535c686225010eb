import random
from fractions import Fraction
from itertools import combinations

import pytest

from pairset.combinatorics import binomial, turan_count
from pairset.constructions import BASE_SINGLE_EDGE, BlowupSpec, iterated_blowup
from pairset.errors import BudgetExceededError
from pairset.hypergraph import complete, hypergraph, induced, spectrum
from pairset.oracle import (
    graph_arrows,
    non_arrowing_sizes,
    pair_arrows,
    resolve_budget,
    verify_blowup_claims,
)


def test_graph_arrows_examples():
    assert graph_arrows(complete(6, 3), 4, 4)
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    assert not graph_arrows(g2, 6, 10)
    assert graph_arrows(hypergraph(3, 8, []), 6, 0)


def test_pair_arrows_unique_graph():
    v = pair_arrows(5, 10, 3, 4, 4)
    assert v.arrows
    assert v.graphs_examined == 1
    assert v.counterexample is None


def test_pair_arrows_counterexample():
    v = pair_arrows(5, 7, 3, 4, 4)
    assert not v.arrows
    cex = v.counterexample
    assert (cex.n, cex.edge_count) == (5, 7)
    missing = sorted(set(complete(5, 3).edges) - cex.edges)
    # colex-least failing edge set; its three missing triples hit every 4-subset
    assert missing == [(0, 1, 2), (1, 3, 4), (2, 3, 4)]
    for four in combinations(range(5), 4):
        assert any(set(t) <= set(four) for t in missing)
    assert not graph_arrows(cex, 4, 4)
    # deterministic across calls
    again = pair_arrows(5, 7, 3, 4, 4)
    assert again.counterexample == cex


def test_pair_arrows_turan_for_graphs():
    # for ordinary graphs, forcing a triangle takes more edges than the
    # 2-part balanced count
    v = pair_arrows(5, 7, 2, 3, 3)
    assert v.arrows


def test_non_arrowing_sizes_examples():
    assert non_arrowing_sizes(5, 3, 4, 4) == set(range(8))
    assert non_arrowing_sizes(5, 2, 3, 3) == set(range(7))
    # host order equal to the target order: only the exact size arrows
    top = binomial(5, 3)
    assert non_arrowing_sizes(5, 3, 5, 4) == set(range(top + 1)) - {4}


def test_turan_cross_check():
    for n in (5, 6):
        threshold = turan_count(n, 2, 2)
        na = non_arrowing_sizes(n, 2, 3, 3)
        arrowing = set(range(binomial(n, 2) + 1)) - na
        assert arrowing == {e for e in range(binomial(n, 2) + 1) if e > threshold}


def test_complement_duality():
    for n, r, m in ((5, 3, 4), (5, 2, 3), (6, 2, 3)):
        top_e = binomial(n, r)
        top_f = binomial(m, r)
        for f in range(top_f // 2 + 1):
            na = non_arrowing_sizes(n, r, m, f)
            nb = non_arrowing_sizes(n, r, m, top_f - f)
            assert {top_e - e for e in na} == nb


def test_budget_refusal_and_env(monkeypatch):
    with pytest.raises(BudgetExceededError):
        pair_arrows(9, 10, 3, 6, 4, budget=100)
    monkeypatch.setenv("PAIRSET_BUDGET", "123")
    assert resolve_budget() == 123
    monkeypatch.delenv("PAIRSET_BUDGET")
    assert resolve_budget() == 100_000_000
    assert resolve_budget(7) == 7


def test_verify_blowup_depth_one_degenerate():
    report = verify_blowup_claims(1)
    assert report.n == 3
    assert report.max_six_subset_edges is None
    assert "degenerate" in report.note


def test_verify_blowup_depth_two():
    report = verify_blowup_claims(2)
    assert (report.n, report.edge_count) == (9, 30)
    assert report.max_six_subset_edges == 8
    assert report.complement_min_six == 12
    assert report.density == Fraction(30, 84) == Fraction(5, 14)
    assert report.low_interval == (0, 30)
    assert report.high_interval == (54, 84)
    assert report.covered_sizes == 62


def test_verify_blowup_budget():
    with pytest.raises(BudgetExceededError):
        verify_blowup_claims(4)


def test_subgraph_monotonicity_of_six_set_maxima():
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    edges = sorted(g2.edges)
    rng = random.Random(11)
    for _ in range(100):
        keep = [e for e in edges if rng.random() < rng.random()]
        sub = hypergraph(3, 9, keep)
        assert spectrum(sub, 6).max <= 8
    g3 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 3))
    edges3 = sorted(g3.edges)
    for _ in range(3):
        keep = [e for e in edges3 if rng.random() < 0.6]
        sub = hypergraph(3, 27, keep)
        assert spectrum(sub, 6).max <= 8


def test_counterexamples_reverify_via_independent_pass():
    for e in range(8):
        v = pair_arrows(5, e, 3, 4, 4)
        assert not v.arrows
        assert v.counterexample is not None
        assert not graph_arrows(v.counterexample, 4, 4)
        assert v.counterexample.edge_count == e
