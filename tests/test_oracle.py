import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairset.combinatorics import binomial, turan_count
from pairset.constructions import BASE_SINGLE_EDGE, iterated_blowup
from pairset.errors import BudgetExceededError, WORK_CAP, below_binomial, binomial_bits, charge
from pairset.hypergraph import complete, graph_arrows, hypergraph, induced, spectrum
from pairset.oracle import (
    non_arrowing_sizes,
    _tables,
    pair_arrows,
    resolve_budget,
    verify_blowup_claims,
)
from reference import reference_arrows, reference_walk


def test_graph_arrows_examples():
    assert graph_arrows(complete(6, 3), 4, 4)
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
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


def test_budget_refusal_and_default():
    with pytest.raises(BudgetExceededError):
        pair_arrows(9, 10, 3, 6, 4, budget=100)
    assert resolve_budget() == 100_000_000
    assert resolve_budget(7) == 7


def test_refusals_state_long_exponents_as_powers_of_two():
    # an exponent of 1024 bits or more is stated as 2^(2^k), k its
    # bit_length() - 1; a shorter one in full, as before
    with pytest.raises(BudgetExceededError, match=r"at least 2\^\(2\^1023\) units"):
        charge(2**1023, "x", log2=True)
    with pytest.raises(BudgetExceededError, match=rf"at least 2\^{2**1023 - 1} units"):
        charge(2**1023 - 1, "x", log2=True)
    # C(300000, 150000) has about 90,000 decimal digits and is not computed
    with pytest.raises(BudgetExceededError, match=r"at least 2\^\(2\^150000\) units"):
        non_arrowing_sizes(300000, 150000, 300000, 0)
    # C(20, 10) + binomial_bits(20, 4): C(20, 4) = 4845 >= 2^(4 * (bit_length(5) - 1)) = 2^8
    with pytest.raises(BudgetExceededError, match=r"at least 2\^184764 units"):
        non_arrowing_sizes(20, 10, 4, 0)
    # a lower bound on C(10^30, 5 * 10^29) with too many bits for 1 << bits is
    # capped, and still refuses
    with pytest.raises(BudgetExceededError, match=r"at least 2\^\(2\^1048576\) units"):
        non_arrowing_sizes(10**30, 5 * 10**29, 4, 0)


@given(st.integers(0, 400), st.integers(0, 400))
def test_binomial_bits_is_a_lower_bound(a, b):
    n, k = max(a, b), min(a, b)
    assert 2 ** binomial_bits(n, k) <= binomial(n, k)
    if k < n:
        assert binomial_bits(k, n) == 0  # C(k, n) = 0, so this 0 is no bound


# C(5, 5) = 1 holds only 0 below it, C(3, 4) = 0 holds nothing, and no
# negative count is placed
@given(st.integers(0, 400), st.integers(0, 410), st.integers(-2, 2**400))
@example(5, 5, 1)
@example(3, 4, 0)
@example(10, 3, -1)
def test_below_binomial_places_only_counts_below(n, k, x):
    if below_binomial(x, n, k):
        assert 0 <= x < binomial(n, k)


def test_any_bound_over_the_budget_refuses():
    # 2^23 < WORK_CAP < 2^24: the bound refuses as soon as 2^b passes the cap,
    # not only from 2^EXACT_BITS on
    assert 2**23 < WORK_CAP < 2**24
    charge(23, "x", log2=True)
    with pytest.raises(BudgetExceededError, match=r"at least 2\^24 units"):
        charge(24, "x", log2=True)
    charge(9, "x", 512, log2=True)
    with pytest.raises(BudgetExceededError, match=r"at least 2\^10 units"):
        charge(10, "x", 1023, log2=True)


def test_budget_boundary():
    # the charge is C(C(n, r), e) * max(1, C(n, m)): exactly that budget runs,
    # one unit less refuses
    for n, e, r, m, f in ((6, 3, 3, 4, 0), (5, 7, 3, 4, 4), (7, 2, 3, 0, 0), (6, 0, 3, 5, 1), (5, 10, 2, 3, 3)):
        cost = binomial(binomial(n, r), e) * max(1, binomial(n, m))
        pair_arrows(n, e, r, m, f, budget=cost)
        with pytest.raises(BudgetExceededError):
            pair_arrows(n, e, r, m, f, budget=cost - 1)
    # e = C(n, r) with f != C(m, r): the complete counterexample's r-sets are
    # charged to the same budget
    pair_arrows(8, 56, 3, 7, 0, budget=56)
    with pytest.raises(BudgetExceededError):
        pair_arrows(8, 56, 3, 7, 0, budget=55)
    for n, r, m, f in ((5, 3, 4, 4), (5, 3, 0, 0)):
        cost = 2 ** binomial(n, r) * max(1, binomial(n, m))
        non_arrowing_sizes(n, r, m, f, budget=cost)
        with pytest.raises(BudgetExceededError):
            non_arrowing_sizes(n, r, m, f, budget=cost - 1)


class ReadCounter(list):
    """A list that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_walk_steps_within_graph_count():
    # over k = min(e, C(n, r) - e) fixed ranks the walk has C(C(n, r), k - 1)
    # prefixes of up to k - 1 ranks, no more than the C(C(n, r), e) graphs
    # charged; each reads one table at most once: a run of leaves scans the
    # masks, and any other prefix scans the decided m-sets below it
    for n, e, r, m, f in (
        (20, 1139, 3, 20, 1139), (20, 1138, 3, 20, 1138), (9, 83, 3, 6, 20),
        (9, 82, 3, 6, 20), (9, 81, 3, 6, 18), (9, 2, 3, 6, 1), (7, 32, 3, 5, 9), (7, 3, 3, 5, 1),
        (8, 3, 3, 4, 0), (8, 53, 3, 4, 4), (7, 4, 3, 5, 0),
    ):
        rsets, masks, decided = _tables(n, r, m)
        masks, decided = ReadCounter(masks), ReadCounter(decided)
        v = pair_arrows(n, e, r, m, f, tables=(rsets, masks, decided))
        graphs = binomial(binomial(n, r), e)
        assert v.graphs_examined <= graphs
        assert masks.reads + decided.reads <= graphs
    # prefixes that read no table escape that count, so time the walk too: one
    # edge short of complete, the non-edge walk pushes nothing, where fixing
    # the edges would visit C(4060, 4058), about 8.2 million, prefixes
    started = time.perf_counter()
    v = pair_arrows(30, 4059, 3, 30, 4059)
    assert time.perf_counter() - started < 0.5
    assert (v.arrows, v.graphs_examined) == (True, 4060)


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
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    edges = sorted(g2.edges)
    rng = random.Random(11)
    for _ in range(100):
        keep = [e for e in edges if rng.random() < rng.random()]
        sub = hypergraph(3, 9, keep)
        assert max(spectrum(sub, 6).counts) <= 8
    g3 = iterated_blowup(BASE_SINGLE_EDGE, 3)
    edges3 = sorted(g3.edges)
    for _ in range(3):
        keep = [e for e in edges3 if rng.random() < 0.6]
        sub = hypergraph(3, 27, keep)
        assert max(spectrum(sub, 6).counts) <= 8


def test_counterexamples_reverify_via_independent_pass():
    for e in range(8):
        v = pair_arrows(5, e, 3, 4, 4)
        assert not v.arrows
        assert v.counterexample is not None
        assert not graph_arrows(v.counterexample, 4, 4)
        assert v.counterexample.edge_count == e


# the reference builds one Hypergraph per graph, so queries stay this small
REFERENCE_WORK = 5000


@st.composite
def arrow_queries(draw, max_n=7, work=REFERENCE_WORK):
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n))
    slots = binomial(n, r)
    # C(slots, e) = C(slots, slots - e): the sizes lie on both sides of half
    sizes = [e for e in range(slots + 1) if binomial(slots, e) * binomial(n, m) <= work]
    e = draw(st.sampled_from(sizes))
    f = draw(st.integers(min_value=0, max_value=binomial(m, r)))
    return n, e, r, m, f


@settings(max_examples=150, deadline=None)
@given(arrow_queries())
@example((0, 0, 2, 0, 0))
@example((6, 0, 3, 4, 1))  # e = 0
@example((5, 10, 3, 4, 4))  # e = C(n, r)
@example((5, 10, 3, 4, 3))
@example((5, 9, 3, 4, 3))  # e = C(n, r) - 1, walked over its one non-edge
@example((5, 6, 3, 4, 2))  # e > C(n, r) / 2
@example((6, 19, 3, 5, 9))
@example((6, 3, 3, 0, 0))  # m = 0
@example((5, 3, 3, 2, 0))  # m < r
@example((6, 2, 3, 4, 0))  # f = 0
@example((5, 7, 3, 4, 4))  # f = C(m, r)
@example((7, 2, 4, 5, 5))
def test_pair_arrows_matches_reference(query):
    arrows, cex, examined = reference_arrows(*query)
    v = pair_arrows(*query)
    assert (v.arrows, v.counterexample, v.graphs_examined) == (arrows, cex, examined)


# the unpruned walk reads every m-subset at every run of leaves, so queries
# stay within this many graph-subsets
WALK_WORK = 3_000_000


@settings(max_examples=200, deadline=None)
@given(arrow_queries(max_n=8, work=WALK_WORK))
@example((8, 1, 3, 4, 0))  # e = 1: the root holds the leaves
@example((8, 1, 3, 4, 1))
@example((8, 55, 3, 4, 4))  # e = C(n, r) - 1
@example((8, 55, 3, 5, 6))
@example((6, 3, 3, 2, 0))  # m < r
@example((7, 2, 3, 0, 0))  # m = 0
@example((8, 3, 3, 4, 0))  # f = 0
@example((8, 3, 3, 5, 0))
@example((7, 4, 3, 5, 0))
@example((8, 53, 3, 4, 4))  # f = C(m, r), under flip at count 0
@example((7, 31, 3, 5, 10))
@example((7, 16, 2, 4, 4))
def test_pruned_walk_matches_the_unpruned_walk(query):
    v = pair_arrows(*query)
    assert (v.arrows, v.counterexample, v.graphs_examined) == reference_walk(*query)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 6), st.data())
def test_non_arrowing_sizes_match_the_unpruned_walk(r, n, data):
    m = data.draw(st.integers(0, n), label="m")
    f = data.draw(st.integers(0, binomial(m, r)), label="f")
    slots = binomial(n, r)
    expected = {e for e in range(slots + 1) if not reference_walk(n, e, r, m, f)[0]}
    assert non_arrowing_sizes(n, r, m, f, budget=2**slots * binomial(n, m)) == expected


def test_ground_truth_at_seven_and_eight_vertices():
    # with the budget raised; each sweep or query takes well under a second pruned
    for n in (7, 8):
        slots = binomial(n, 3)
        for f in (7, 8, 9, 11):  # the certified m = 6 pairs at r = 3 arrow at no e
            sizes = non_arrowing_sizes(n, 3, 6, f, budget=2**slots * binomial(n, 6))
            assert sizes == set(range(slots + 1))
    v = pair_arrows(7, 12, 3, 4, 0, budget=binomial(35, 12) * 35)
    assert not v.arrows
    assert v.counterexample.edge_count == 12
    assert not graph_arrows(v.counterexample, 4, 0)
    # ex(n, K4^(3)), the most edges with no 4-set holding all four of its triples
    assert non_arrowing_sizes(5, 3, 4, 4) == set(range(8))
    assert non_arrowing_sizes(6, 3, 4, 4) == set(range(15))
