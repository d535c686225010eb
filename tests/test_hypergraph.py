from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairset.combinatorics import binomial
from pairset.constructions import BASE_SINGLE_EDGE, BlowupSpec, iterated_blowup
from pairset.errors import BudgetExceededError
from pairset.hypergraph import (
    Hypergraph,
    ParseError,
    complement,
    complete,
    disjoint_union,
    hypergraph,
    induced,
    is_sparse,
    parse,
    serialize,
    spectrum,
)


@st.composite
def small_graphs(draw, max_n=7):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    slots = list(combinations(range(n), r))
    edges = draw(st.sets(st.sampled_from(slots)) if slots else st.just(set()))
    return hypergraph(r, n, edges)


def test_complete_counts():
    assert complete(5, 3).edge_count == 10
    assert complete(2, 3).edge_count == 0
    assert complete(6, 3).edge_count == 20


def test_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, 4, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Hypergraph(3, 4, frozenset({(0, 2, 1)}))
    with pytest.raises(ValueError):
        Hypergraph(3, 4, frozenset({(0, 1, 4)}))
    with pytest.raises(ValueError):
        hypergraph(3, 4, [(0, 1, 1)])


def test_complement_examples():
    assert complement(complete(5, 3)).edge_count == 0
    one_edge = hypergraph(3, 3, [(0, 1, 2)])
    assert complement(one_edge).edge_count == 0


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_complement_involution_and_counts(g):
    cg = complement(g)
    assert complement(cg) == g
    assert g.edge_count + cg.edge_count == binomial(g.n, g.r)


def test_disjoint_union():
    k5 = complete(5, 3)
    point = hypergraph(3, 1, [])
    u = disjoint_union(k5, point)
    assert (u.n, u.edge_count) == (6, 10)
    empty = hypergraph(3, 0, [])
    g = hypergraph(3, 4, [(0, 1, 2)])
    assert disjoint_union(empty, g) == g
    k4k4 = disjoint_union(complete(4, 3), complete(4, 3))
    assert (k4k4.n, k4k4.edge_count) == (8, 8)
    with pytest.raises(ValueError):
        disjoint_union(complete(4, 3), complete(4, 2))


def test_induced_examples():
    k6 = complete(6, 3)
    assert induced(k6, [0, 2, 3, 5]) == complete(4, 3)
    g = hypergraph(3, 5, [(0, 1, 4), (1, 2, 3)])
    assert induced(g, range(5)) == g
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    two_copies = induced(g2, [0, 1, 2, 3, 4, 5])
    assert two_copies.edge_count == 2
    with pytest.raises(ValueError):
        induced(k6, [0, 6])


def test_spectrum_examples():
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    sp = spectrum(g2, 6)
    assert sp.max == 8
    assert sp.min == 2
    assert sp.total == binomial(9, 6)
    empty10 = hypergraph(3, 10, [])
    assert spectrum(empty10, 6).counts == {0: 210}


def test_spectrum_validation_and_cap():
    g = complete(6, 3)
    with pytest.raises(ValueError):
        spectrum(g, 7)
    with pytest.raises(BudgetExceededError):
        spectrum(g, 3, cap=5)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6), st.integers(min_value=0, max_value=6))
def test_spectrum_reflection_and_totals(g, m):
    if m > g.n:
        m = g.n
    sp = spectrum(g, m)
    spc = spectrum(complement(g), m)
    top = binomial(m, g.r)
    assert sp.total == spc.total == binomial(g.n, m)
    assert sp.counts == {top - k: v for k, v in spc.counts.items()}


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6), st.data())
def test_induced_commutes_with_complement(g, data):
    k = data.draw(st.integers(min_value=0, max_value=g.n))
    s = data.draw(st.permutations(range(g.n)))[:k]
    assert induced(complement(g), s) == complement(induced(g, s))


def test_is_sparse_examples():
    assert is_sparse(hypergraph(3, 8, []), 6)
    assert not is_sparse(complete(6, 3), 6)
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    assert not is_sparse(g2, 6)
    assert is_sparse(hypergraph(3, 4, [(0, 1, 2)]), 5)  # m > n is vacuous


def test_parse_basic():
    g = parse("3 4\n0 1 2\n1 2 3\n")
    assert (g.r, g.n, g.edge_count) == (3, 4, 2)
    assert parse("3 4\n# comment\n\n0 1 2\n") == hypergraph(3, 4, [(0, 1, 2)])


def test_serialize_round_trip():
    g2 = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, 2))
    assert parse(serialize(g2)) == g2
    assert serialize(parse(serialize(g2))) == serialize(g2)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_round_trip_property(g):
    assert parse(serialize(g)) == g


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("3\n0 1 2\n", 1, "malformed header"),
        ("3 x\n", 1, "malformed header"),
        ("3 4\n0 1 5\n", 2, "out of range"),
        ("3 4\n0 1\n", 2, "expected 3 vertices"),
        ("3 4\n0 2 1\n", 2, "strictly increasing"),
        ("3 4\n0 1 2\n0 1 2\n", 3, "duplicate edge"),
        ("3 4\n0 1 a\n", 2, "non-integer"),
        ("", 1, "missing header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)
