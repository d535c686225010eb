import inspect
import pkgutil
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairset.combinatorics import binomial
from pairset.constructions import BASE_SINGLE_EDGE, iterated_blowup
from pairset.errors import BudgetExceededError
from pairset.hypergraph import (
    Hypergraph,
    ParseError,
    _scan,
    complement,
    complete,
    disjoint_union,
    graph_arrows,
    hypergraph,
    induced,
    is_sparse,
    overfull_subsets,
    parse,
    serialize,
    spectrum,
)
from reference import reference_counts, reference_serialize


@st.composite
def small_graphs(draw, max_n=7):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    slots = list(combinations(range(n), r))
    edges = draw(st.sets(st.sampled_from(slots)) if slots else st.just(set()))
    return hypergraph(r, n, edges)


def test_package_attributes_do_not_shadow_submodules():
    # `import pairset.hypergraph as h` reads the package attribute, so a
    # re-exported name equal to a submodule's would bind that name instead
    import pairset
    import pairset.hypergraph as h

    assert inspect.ismodule(h)
    assert h.graph_arrows is graph_arrows
    for info in pkgutil.iter_modules(pairset.__path__):
        assert not hasattr(pairset, info.name) or inspect.ismodule(getattr(pairset, info.name)), info.name


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
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph(3, 4, frozenset({(-1, 0, 1)}))
    with pytest.raises(ValueError, match="strictly increasing"):
        Hypergraph(3, 4, frozenset({(0, 1, 1)}))
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
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    two_copies = induced(g2, [0, 1, 2, 3, 4, 5])
    assert two_copies.edge_count == 2
    with pytest.raises(ValueError):
        induced(k6, [0, 6])


def test_spectrum_examples():
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    sp = spectrum(g2, 6)
    assert max(sp.counts) == 8
    assert min(sp.counts) == 2
    assert sum(sp.counts.values()) == binomial(9, 6)
    empty10 = hypergraph(3, 10, [])
    assert spectrum(empty10, 6).counts == {0: 210}


def test_spectrum_validation_and_cap():
    g = complete(6, 3)
    with pytest.raises(ValueError):
        spectrum(g, 7)
    # C(400, 3) = 10,586,800 subsets, above the work cap of 10**7
    with pytest.raises(BudgetExceededError):
        spectrum(hypergraph(3, 400, []), 3)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6), st.integers(min_value=0, max_value=6))
def test_spectrum_reflection_and_totals(g, m):
    if m > g.n:
        m = g.n
    sp = spectrum(g, m)
    spc = spectrum(complement(g), m)
    top = binomial(m, g.r)
    assert sum(sp.counts.values()) == sum(spc.counts.values()) == binomial(g.n, m)
    assert sp.counts == {top - k: v for k, v in spc.counts.items()}


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6), st.data())
def test_induced_commutes_with_complement(g, data):
    k = data.draw(st.integers(min_value=0, max_value=g.n))
    s = data.draw(st.permutations(range(g.n)))[:k]
    assert induced(complement(g), s) == complement(induced(g, s))


@st.composite
def scan_cases(draw):
    r = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(min_value=0, max_value=9))
    slots = list(combinations(range(n), r))
    kind = draw(st.sampled_from(["empty", "complete", "random"]))
    if kind == "random":
        keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        slots = [t for t, k in zip(slots, keep) if k]
    elif kind == "empty":
        slots = []
    m = draw(st.integers(min_value=0, max_value=n))
    return hypergraph(r, n, slots), m


@settings(max_examples=150, deadline=None)
@given(scan_cases())
@example((hypergraph(3, 0, []), 0))
@example((complete(9, 5), 9))
@example((complete(8, 4), 3))
@example((hypergraph(2, 9, [(0, 8), (3, 4)]), 9))
# prefixes that already exceed small limits, whose extensions are listed
# without descending: the first five vertices, and the pair {0, 1}
@example((complete(9, 5), 7))
@example((hypergraph(2, 9, [(0, 1), (0, 8), (3, 4), (5, 6)]), 6))
# the prefixes of m - 2 vertices read each (m - 1)-set's level-1 row: at
# r = 2, m = 2 the link bit of the edge {y, z} is y itself
@example((hypergraph(2, 3, [(0, 1), (1, 2)]), 2))
@example((hypergraph(2, 5, [(0, 4), (1, 2), (2, 3), (3, 4)]), 2))
# m = n: one m-subset, whose (m - 1)-prefix is everything but the last vertex
@example((hypergraph(3, 6, [(0, 1, 5), (1, 2, 3), (2, 4, 5), (3, 4, 5)]), 6))
# the prefix {0, 1, 2, 3} of (m - 1) vertices holds 4 edges: limits 1..3 cut
# it at its last vertex, limit 0 at {0, 1, 2}
@example((hypergraph(3, 7, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (2, 5, 6)]), 5))
# r = 4 and r = 5, where level 2 feeds the level-1 row
@example((hypergraph(4, 8, [(0, 1, 2, 3), (0, 1, 4, 7), (1, 2, 5, 6), (2, 3, 5, 7), (3, 4, 6, 7)]), 5))
@example((hypergraph(5, 9, [(0, 1, 2, 3, 4), (0, 2, 3, 5, 8), (1, 3, 4, 6, 7), (2, 4, 6, 7, 8)]), 7))
def test_scan_kernel_matches_reference(case):
    g, m = case
    counts = reference_counts(g, m)
    assert spectrum(g, m).counts == Counter(counts)
    for f in range(binomial(m, g.r) + 1):
        assert graph_arrows(g, m, f) == (f in counts)
        over = [s for s, c in zip(combinations(range(g.n), m), counts) if c > f]
        assert list(_scan(g.edges, g.n, g.r, m, f)) == over
    assert list(overfull_subsets(g, m)) == [s for s, c in zip(combinations(range(g.n), m), counts) if c > m]
    assert is_sparse(g, m) == (max(counts) <= m)


def test_is_sparse_examples():
    assert is_sparse(hypergraph(3, 8, []), 6)
    assert not is_sparse(complete(6, 3), 6)
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    assert not is_sparse(g2, 6)
    assert is_sparse(hypergraph(3, 4, [(0, 1, 2)]), 5)  # m > n is vacuous


def test_parse_basic():
    g = parse("3 4\n0 1 2\n1 2 3\n")
    assert (g.r, g.n, g.edge_count) == (3, 4, 2)
    assert parse("3 4\n# comment\n\n0 1 2\n") == hypergraph(3, 4, [(0, 1, 2)])


def test_serialize_round_trip():
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    assert parse(serialize(g2)) == g2
    assert serialize(parse(serialize(g2))) == serialize(g2)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_round_trip_property(g):
    assert parse(serialize(g)) == g


@settings(max_examples=150, deadline=None)
@given(scan_cases())
@example((hypergraph(2, 0, []), 0))
@example((hypergraph(5, 7, []), 0))
def test_serialize_matches_reference(case):
    g, _ = case
    assert serialize(g) == reference_serialize(g)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(0, 6),
       st.lists(st.integers(-2, 7), min_size=1, max_size=5).map(tuple))
def test_values_and_files_share_one_edge_rule(r, n, e):
    text = f"{r} {n}\n{' '.join(map(str, e))}\n"
    try:
        g = Hypergraph(r, n, frozenset({e}))
    except ValueError:
        with pytest.raises(ParseError):
            parse(text)
    else:
        assert parse(text) == g
