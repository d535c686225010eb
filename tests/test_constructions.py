from fractions import Fraction
from itertools import combinations

import pytest

from pairset.combinatorics import binomial, colex_key, turan_count
from pairset.constructions import (
    BASE_SINGLE_EDGE,
    BASE_TIGHT_CYCLE,
    BlowupSpec,
    SparseGenConfig,
    iterated_blowup,
    random_sparse,
    realize_clique_plus_sparse,
    realize_complement_sparse,
    turan_graph,
)
from pairset.errors import BudgetExceededError
from pairset.hypergraph import complement, complete, induced, is_sparse, serialize, spectrum
from pairset.oracle import graph_arrows


def test_turan_graph_counts():
    assert turan_graph(9, 3, 3).edge_count == 27
    assert turan_graph(12, 4, 3).edge_count == 108
    assert turan_graph(5, 2, 3).edge_count == 0
    for n in range(0, 12):
        for l in range(1, n + 1):
            for r in (2, 3):
                assert turan_graph(n, l, r).edge_count == turan_count(n, l, r)


def test_blowup_depths():
    g1 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 1))
    assert (g1.n, g1.edge_count) == (3, 1)
    assert g1 == complete(3, 3)
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    assert (g2.n, g2.edge_count) == (9, 30)
    g3 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 3))
    assert (g3.n, g3.edge_count) == (27, 819)


def test_blowup_recurrence_matches_enumeration():
    prev_n, prev_e = 1, 0
    for depth in range(1, 5):
        g = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, depth))
        assert g.n == 3 * prev_n
        assert g.edge_count == prev_n**3 + 3 * prev_e
        prev_n, prev_e = g.n, g.edge_count


def test_blowup_density_approaches_a_quarter_from_above():
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    g3 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 3))
    d2 = Fraction(g2.edge_count, binomial(g2.n, 3))
    d3 = Fraction(g3.edge_count, binomial(g3.n, 3))
    assert d2 == Fraction(30, 84) == Fraction(5, 14)
    assert d3 == Fraction(819, 2925) == Fraction(7, 25)
    assert d2 > d3 >= Fraction(1, 4)


def test_blowup_budget():
    with pytest.raises(BudgetExceededError):
        iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 6))
    with pytest.raises(ValueError):
        BlowupSpec("unknown", 2)
    with pytest.raises(ValueError):
        BlowupSpec(BASE_SINGLE_EDGE, 0)


def test_tight_cycle_blowup():
    c1 = iterated_blowup(BlowupSpec(BASE_TIGHT_CYCLE, 1))
    assert (c1.n, c1.edge_count) == (5, 5)
    assert sorted(c1.edges) == [
        (0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4),
    ]
    c2 = iterated_blowup(BlowupSpec(BASE_TIGHT_CYCLE, 2))
    assert (c2.n, c2.edge_count) == (25, 5 * 125 + 5 * 5)
    # interpretation check: the depth-2 object never induces a 6-set with 10 edges
    assert not graph_arrows(c2, 6, 10)


def test_random_sparse_postconditions():
    config = SparseGenConfig(30, 3, 6, seed=1)
    g, log = random_sparse(config)
    assert is_sparse(g, 6)
    assert log.final_edges == g.edge_count
    g_again, log_again = random_sparse(config)
    assert serialize(g_again) == serialize(g)
    assert log_again == log


def test_random_sparse_logs_expected_sample_size():
    # the target is p * C(n, r): 0.25 * 20**(-6/7) * 1140 = 21.9
    _, log = random_sparse(SparseGenConfig(20, 3, 6, seed=3))
    assert log.theoretical_target == 22
    assert log.theoretical_target == round(log.probability * binomial(20, 3))
    assert log.sampled_edges == 19


def test_random_sparse_supplies_enough_edges():
    # downstream clique fillers need at least C(7,2) = 21 edges at this scale
    for seed in range(20):
        g, _ = random_sparse(SparseGenConfig(30, 3, 6, seed=seed))
        assert g.edge_count >= 21


def test_random_sparse_repairs_dense_samples():
    config = SparseGenConfig(12, 3, 5, seed=5, density_constant=Fraction(4, 1))
    g, log = random_sparse(config)
    assert log.repairs > 0
    assert is_sparse(g, 5)


def test_random_sparse_validation():
    with pytest.raises(ValueError):
        SparseGenConfig(5, 3, 6, seed=0)  # n must exceed m
    with pytest.raises(BudgetExceededError):
        random_sparse(SparseGenConfig(60, 3, 20, seed=0))


def test_realize_exact_clique_sizes():
    g = realize_clique_plus_sparse(12, binomial(7, 3), 3, 6)
    assert (g.n, g.edge_count) == (12, 35)
    assert induced(g, range(7)) == complete(7, 3)
    assert g == realize_clique_plus_sparse(12, 35, 3, 6)


def test_realize_zero_edges():
    g = realize_clique_plus_sparse(9, 0, 3, 5)
    assert (g.n, g.edge_count) == (9, 0)


def test_realize_with_sparse_remainder():
    g = realize_clique_plus_sparse(40, 1000, 3, 6)
    assert (g.n, g.edge_count) == (40, 1000)
    # clique order fixed by the largest binomial below the target
    assert induced(g, range(19)) == complete(19, 3)
    rest = induced(g, range(19, 40))
    assert rest.edge_count == 1000 - binomial(19, 3)
    assert is_sparse(rest, 6)
    # deterministic for a fixed seed
    assert serialize(realize_clique_plus_sparse(40, 1000, 3, 6)) == serialize(g)


def test_realize_density_cap_and_infeasibility():
    with pytest.raises(ValueError):
        realize_clique_plus_sparse(10, 100, 3, 5)  # above half of C(10,3)
    with pytest.raises(ValueError):
        realize_clique_plus_sparse(8, 25, 3, 6)  # leftover edges with too few vertices


def test_realize_complement_full():
    assert realize_complement_sparse(8, binomial(8, 3), 3, 5) == complete(8, 3)


def test_realize_complement_sparse_example():
    g = realize_complement_sparse(10, 115, 3, 5)
    assert (g.n, g.edge_count) == (10, 115)
    comp = complement(g)
    assert comp.edge_count == 5
    assert is_sparse(comp, 5)


def test_realize_complement_validation():
    with pytest.raises(ValueError):
        realize_complement_sparse(10, 20, 3, 5)  # below half; realize directly
    with pytest.raises(ValueError):
        realize_complement_sparse(10, 121, 3, 5)
