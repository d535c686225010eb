import hashlib
import itertools
import random
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairset import constructions
from pairset.avoidability import absolutely_avoidable
from pairset.combinatorics import binomial, colex_key, subsets_colex, turan_count
from pairset.constructions import (
    BASE_SINGLE_EDGE,
    BASE_TIGHT_CYCLE,
    SparseGenLog,
    _blowup_edge_count,
    iterated_blowup,
    random_sparse,
    realize_clique_plus_sparse,
    realize_complement_sparse,
    turan_graph,
)
from pairset.errors import BudgetExceededError
from pairset.oracle import pair_arrows
from pairset.hypergraph import (
    Hypergraph,
    _edge_error,
    _unchecked,
    complement,
    complete,
    disjoint_union,
    graph_arrows,
    induced,
    is_sparse,
    parse,
    serialize,
    spectrum,
)
import reference
from reference import reference_counts, reference_repair, reference_turan_edges


def test_turan_graph_matches_reference():
    for n in range(0, 13):
        for l in range(1, 8):
            for r in range(2, 6):
                assert turan_graph(n, l, r).edges == reference_turan_edges(n, l, r), (n, l, r)


def test_turan_graph_counts():
    assert turan_graph(9, 3, 3).edge_count == 27
    assert turan_graph(12, 4, 3).edge_count == 108
    assert turan_graph(5, 2, 3).edge_count == 0
    for n in range(0, 12):
        for l in range(1, n + 1):
            for r in (2, 3):
                assert turan_graph(n, l, r).edge_count == turan_count(n, l, r)
    # fewer nonempty parts than r: no edges, whatever the size of r
    assert turan_graph(10, 2, 2000).edge_count == 0
    assert turan_graph(10, 2000, 2000).edge_count == 0
    for n, l, r in ((-(10**400), 1, 3), (10**400, 1, 1), (10**400, 10**400, 1), (10, 0, 3)):
        with pytest.raises(ValueError):
            turan_graph(n, l, r)


def test_blowup_depths():
    g1 = iterated_blowup(BASE_SINGLE_EDGE, 1)
    assert (g1.n, g1.edge_count) == (3, 1)
    assert g1 == complete(3, 3)
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    assert (g2.n, g2.edge_count) == (9, 30)
    g3 = iterated_blowup(BASE_SINGLE_EDGE, 3)
    assert (g3.n, g3.edge_count) == (27, 819)


def test_blowup_recurrence_matches_enumeration():
    prev_n, prev_e = 1, 0
    for depth in range(1, 5):
        g = iterated_blowup(BASE_SINGLE_EDGE, depth)
        assert g.n == 3 * prev_n
        assert g.edge_count == prev_n**3 + 3 * prev_e
        prev_n, prev_e = g.n, g.edge_count


def test_blowup_density_approaches_a_quarter_from_above():
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    g3 = iterated_blowup(BASE_SINGLE_EDGE, 3)
    d2 = Fraction(g2.edge_count, binomial(g2.n, 3))
    d3 = Fraction(g3.edge_count, binomial(g3.n, 3))
    assert d2 == Fraction(30, 84) == Fraction(5, 14)
    assert d3 == Fraction(819, 2925) == Fraction(7, 25)
    assert d2 > d3 >= Fraction(1, 4)


def test_blowup_budget():
    with pytest.raises(BudgetExceededError):
        iterated_blowup(BASE_SINGLE_EDGE, 6)
    with pytest.raises(BudgetExceededError):
        iterated_blowup(BASE_TIGHT_CYCLE, 4)
    with pytest.raises(ValueError, match="unknown blow-up base 'unknown'"):
        iterated_blowup("unknown", 2)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        iterated_blowup(BASE_SINGLE_EDGE, 0)


def test_blowup_edge_count_closed_form(monkeypatch):
    # the closed form that iterated_blowup charges before it builds any edge
    for base, depths in ((BASE_SINGLE_EDGE, range(1, 5)), (BASE_TIGHT_CYCLE, range(1, 4))):
        for depth in depths:
            assert _blowup_edge_count(base, depth) == iterated_blowup(base, depth).edge_count
    # on either side of the work cap of 10**7 edges
    assert _blowup_edge_count(BASE_SINGLE_EDGE, 5) == 597_861
    assert _blowup_edge_count(BASE_SINGLE_EDGE, 6) == 16_142_490
    assert _blowup_edge_count(BASE_TIGHT_CYCLE, 3) == 81_375
    assert _blowup_edge_count(BASE_TIGHT_CYCLE, 4) == 10_172_500

    # and before the closed form, its first charge: a b with 2^b <= the edge count
    class FirstCharge(Exception):
        pass

    def first_charge(work, what, *, log2=False):
        assert log2
        raise FirstCharge(work)

    monkeypatch.setattr(constructions, "charge", first_charge)
    for base in (BASE_SINGLE_EDGE, BASE_TIGHT_CYCLE):
        for depth in range(1, 9):
            with pytest.raises(FirstCharge) as bits:
                iterated_blowup(base, depth)
            assert 2 ** bits.value.args[0] <= _blowup_edge_count(base, depth), (base, depth)


def test_tight_cycle_blowup():
    c1 = iterated_blowup(BASE_TIGHT_CYCLE, 1)
    assert (c1.n, c1.edge_count) == (5, 5)
    assert sorted(c1.edges) == [
        (0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4),
    ]
    c2 = iterated_blowup(BASE_TIGHT_CYCLE, 2)
    assert (c2.n, c2.edge_count) == (25, 5 * 125 + 5 * 5)
    # interpretation check: the depth-2 object never induces a 6-set with 10 edges
    assert not graph_arrows(c2, 6, 10)


def test_random_sparse_postconditions():
    g, log = random_sparse(30, 3, 6, seed=1)
    assert is_sparse(g, 6)
    assert log.final_edges == g.edge_count
    g_again, log_again = random_sparse(30, 3, 6, seed=1)
    assert serialize(g_again) == serialize(g)
    assert log_again == log


def test_random_sparse_logs_expected_sample_size():
    # the target is p * C(n, r): 0.25 * 20**(-6/7) * 1140 = 21.9
    _, log = random_sparse(20, 3, 6, seed=3)
    assert log.theoretical_target == 22
    assert log.theoretical_target == round(log.probability * binomial(20, 3))
    assert log.sampled_edges == 19


def test_random_sparse_supplies_enough_edges():
    # downstream clique fillers need at least C(7,2) = 21 edges at this scale
    for seed in range(20):
        g, _ = random_sparse(30, 3, 6, seed=seed)
        assert g.edge_count >= 21


def test_random_sparse_repairs_dense_samples():
    g, log = random_sparse(12, 3, 5, seed=5, density_constant=Fraction(4, 1))
    assert log.repairs > 0
    assert is_sparse(g, 5)


@st.composite
def dense_sparse_args(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(r, 10))
    n = draw(st.integers(m + 1, 11))
    constant = draw(st.fractions(Fraction(1, 4), 16, max_denominator=4))
    return (n, r, m, draw(st.integers(0, 10**6)), constant)


@settings(max_examples=300, deadline=None)
@given(dense_sparse_args())
@example((11, 3, 5, 5, Fraction(16)))
def test_random_sparse_output_is_sparse(args):
    # the one repair pass, with no re-scan after it, leaves every m-set with
    # at most m edges; checked by the plain loop, not by the kernel
    g, log = random_sparse(*args)
    m = args[2]
    assert max(reference_counts(g, m)) <= m
    assert log.final_edges == g.edge_count == log.sampled_edges - log.repairs


def _sample(n, r, seed, p):
    """random_sparse's sample: each r-set, in colex order, kept with probability p."""
    rng = random.Random(seed)
    return [t for t in subsets_colex(n, r) if rng.random() < p]


@settings(max_examples=200, deadline=None)
@given(dense_sparse_args())
@example((16, 3, 6, 853, Fraction(4)))  # the benchmark's dense construct slot
def test_random_sparse_matches_reference_repair(args):
    # visiting only the over-full m-sets, each once, deletes exactly what the
    # pass over every m-set through every surviving anchor deletes
    n, r, m, seed, _ = args
    g, log = random_sparse(*args)
    sample = _sample(n, r, seed, log.probability)
    edges, repairs = reference_repair(sample, n, r, m)
    assert g == Hypergraph(r, n, frozenset(edges))
    target = round(log.probability * binomial(n, r))
    assert log == SparseGenLog(log.probability, target, len(sample), repairs, len(edges))


def test_random_sparse_validation():
    with pytest.raises(ValueError, match="need n > m >= r, got n=5, m=6, r=3"):
        random_sparse(5, 3, 6, seed=0)  # n must exceed m
    with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
        random_sparse(12, 1, 5, seed=0)
    with pytest.raises(ValueError, match="density_constant must be positive"):
        random_sparse(12, 3, 5, seed=0, density_constant=Fraction(0))
    with pytest.raises(BudgetExceededError):
        random_sparse(60, 3, 20, seed=0)


def test_enumerations_refuse_before_enumerating():
    with pytest.raises(BudgetExceededError):
        complete(10**5, 3)
    with pytest.raises(BudgetExceededError):
        complement(Hypergraph(3, 10**5, frozenset()))
    # C(10^6, 5 * 10^5) takes seconds to compute; its lower bound 2^500000
    # refuses at once
    for enumerate_all in (lambda: complete(10**6, 5 * 10**5),
                          lambda: complement(Hypergraph(5 * 10**5, 10**6, frozenset()))):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"at least 2\^500000 "):
            enumerate_all()
        assert time.perf_counter() - started < 1.0
    with pytest.raises(BudgetExceededError):
        turan_graph(10**5, 3, 3)
    # C(60, 59) = 60 subsets would pass; sampling C(60, 30) r-sets must not
    with pytest.raises(BudgetExceededError):
        random_sparse(60, 30, 59, 0)
    # 1,254 sampled edges x C(37, 3) m-sets would pass; the repair pass's
    # C(6, 3) r-set lookups in each of those m-sets must not
    with pytest.raises(BudgetExceededError, match="r-set lookups"):
        random_sparse(40, 3, 6, 0, density_constant=Fraction(3))


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


@cache
def _certified(m, r):
    """The sizes f that absolutely_avoidable certifies at (m, r)."""
    return frozenset(f for f in range(binomial(m, r) + 1) if absolutely_avoidable(m, f, r))


def _realized_host(n, e, r, m, seed=0):
    """The host built for (n, e): clique plus sparse up to half of the
    r-sets, its complement above; None where the constructor refuses e as
    infeasible at this n."""
    realize = realize_clique_plus_sparse if 2 * e <= binomial(n, r) else realize_complement_sparse
    try:
        host = realize(n, e, r, m, seed=seed)
    except ValueError:
        return None
    assert (host.n, host.edge_count) == (n, e)
    return host


# hosts built of the C(n, 3) + 1 sizes; the rest (76%, 84% and 95%) are
# refused, since at these n the part beside the clique has at most m vertices
# or too few sparse edges
@pytest.mark.parametrize("m, n, built", [(6, 14, 86), (8, 15, 74), (12, 16, 26)])
def test_certified_sizes_absent_from_realized_hosts(m, n, built):
    certified = _certified(m, 3)
    assert m != 12 or 110 in certified  # theorem-main's size at m = 12
    hosts = [_realized_host(n, e, 3, m) for e in range(binomial(n, 3) + 1)]
    hosts = [h for h in hosts if h is not None]
    assert len(hosts) == built
    for host in hosts:
        # an induced m-set of either host has C(x, 3) + h edges, h <= min(m, C(m - x, 3)),
        # or C(m, 3) minus that, so a certified f, refuted on both sides, never appears
        assert not certified & spectrum(host, m).counts.keys(), host


def _any_graph(draw, r):
    n = draw(st.integers(0, 7))
    return Hypergraph(r, n, frozenset(t for t in itertools.combinations(range(n), r) if draw(st.booleans())))


def _any_union(draw):
    r = draw(st.integers(2, 4))
    return disjoint_union(_any_graph(draw, r), _any_graph(draw, r))


def _any_induced(draw):
    g = _any_graph(draw, draw(st.integers(2, 4)))
    return induced(g, draw(st.sets(st.integers(0, g.n - 1))) if g.n else ())


def _any_realized(draw):
    n = draw(st.integers(9, 14))
    host = _realized_host(n, draw(st.integers(0, binomial(n, 3))), 3, draw(st.integers(3, 6)))
    assume(host is not None)  # e refused as infeasible at this n
    return host


def _any_counterexample(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 7))
    m = draw(st.integers(0, n))
    slots = binomial(n, r)
    e = draw(st.sampled_from([e for e in range(slots + 1) if binomial(slots, e) * binomial(n, m) <= 10**5]))
    verdict = pair_arrows(n, e, r, m, draw(st.integers(0, binomial(m, r))))
    assume(not verdict.arrows)
    return verdict.counterexample  # the walk's, or the one graph of e = 0 or C(n, r)


# every builder whose output skips Hypergraph's per-edge checks, with the
# arguments it is drawn on
BUILDERS = {
    "complete": lambda draw: complete(draw(st.integers(0, 8)), draw(st.integers(2, 4))),
    "complement": lambda draw: complement(_any_graph(draw, draw(st.integers(2, 4)))),
    "disjoint_union": _any_union,
    "induced": _any_induced,
    "parse": lambda draw: parse(serialize(_any_graph(draw, draw(st.integers(2, 4))))),
    "turan_graph": lambda draw: turan_graph(draw(st.integers(0, 12)), draw(st.integers(1, 5)), draw(st.integers(2, 4))),
    "iterated_blowup": lambda draw: iterated_blowup(*draw(st.sampled_from(
        [(BASE_SINGLE_EDGE, 1), (BASE_SINGLE_EDGE, 2), (BASE_SINGLE_EDGE, 3), (BASE_TIGHT_CYCLE, 1), (BASE_TIGHT_CYCLE, 2)]))),
    "random_sparse": lambda draw: random_sparse(*draw(dense_sparse_args()))[0],
    "realize": _any_realized,  # realize_clique_plus_sparse, or realize_complement_sparse above half
    "pair_arrows": _any_counterexample,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.data())
def test_builders_make_only_valid_edges(builder, data):
    g = BUILDERS[builder](data.draw)
    assert type(g.edges) is frozenset
    for e in g.edges:
        assert type(e) is tuple and _edge_error(e, g.r, g.n) is None, (builder, e)


def test_builders_keep_the_uniformity_and_vertex_count_errors():
    # the builders skip only the per-edge checks; r and n are checked as by Hypergraph
    with pytest.raises(ValueError, match=r"^uniformity must be >= 2, got 1$"):
        complete(5, 1)
    with pytest.raises(ValueError, match=r"^uniformity must be >= 2, got 0$"):
        complete(3, 0)
    with pytest.raises(ValueError, match=r"^vertex count must be >= 0, got -1$"):
        _unchecked(3, -1, frozenset())
    # Hypergraph(...) itself still checks every edge
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph(3, 4, frozenset({(0, 1, 4)}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certified_sizes_absent_from_any_realized_host(data):
    m = data.draw(st.integers(min_value=4, max_value=8), label="m")
    n = data.draw(st.integers(min_value=m + 1, max_value=15), label="n")
    e = data.draw(st.integers(min_value=0, max_value=binomial(n, 3)), label="e")
    seed = data.draw(st.integers(min_value=0, max_value=3), label="seed")
    host = _realized_host(n, e, 3, m, seed)
    if host is None:
        return
    assert not _certified(m, 3) & spectrum(host, m).counts.keys()


# sha256 prefixes of serialize() and the full generator logs, recorded before
# the sparsity scan was rewritten, so that a faster scan must reproduce the
# same graphs edge for edge.  Configurations: the sparse slots of the
# benchmark's construct mix (m = 6) at seeds 0..2, both unrepaired samples
# (constants 1/4, 1/2) and samples with hundreds of repairs (constant 4).
PINNED_SPARSE = [
    # (n, r, constant, probability), then per seed (digest, target, sampled, repairs, final)
    ((14, 3, "1/4", 0.026034218742433637), [
        ("4352fe585f396e5b", 9, 10, 0, 10),
        ("3f446aeba93f825b", 9, 14, 0, 14),
        ("a2b01a754ee92d61", 9, 11, 0, 11)]),
    ((16, 3, "1", 0.09287464307105929), [
        ("885bdcef29729947", 52, 62, 15, 47),
        ("1ab5ba31a17a7b0b", 52, 53, 10, 43),
        ("baa65b1331f59b97", 52, 47, 1, 46)]),
    ((16, 3, "4", 0.37149857228423716), [
        ("64fa9b5bab3cb8ff", 208, 200, 173, 27),
        ("5a5e9672b116e5e6", 208, 202, 162, 40),
        ("8e7eff66e2f34017", 208, 202, 167, 35)]),
    ((18, 3, "1/2", 0.041978038625261206), [
        ("04787679570973ec", 34, 40, 0, 40),
        ("8e9944433663b5db", 34, 42, 0, 42),
        ("803a08abcf7058b1", 34, 33, 0, 33)]),
    ((14, 4, "1/4", 0.026034218742433637), [
        ("14bf0a2a6b085f6f", 26, 31, 0, 31),
        ("426859182af973ca", 26, 28, 0, 28),
        ("6ce362c1a945beb7", 26, 23, 0, 23)]),
    ((16, 4, "2", 0.18574928614211858), [
        ("4b0967839e6b3b14", 338, 333, 57, 276),
        ("e24b342e11b1a19c", 338, 322, 58, 264),
        ("2600b294cfb94495", 338, 322, 42, 280)]),
    ((14, 4, "4", 0.4165474998789382), [
        ("5f7bd0ec74db1436", 417, 420, 294, 126),
        ("20fb665c526472c4", 417, 399, 282, 117),
        ("b51dd468abe496f7", 417, 401, 286, 115)]),
    ((16, 4, "1/2", 0.046437321535529645), [
        ("2de685fcb699fda8", 85, 113, 1, 112),
        ("bd4dc4a278ff094a", 85, 98, 0, 98),
        ("207773144f0732c7", 85, 90, 0, 90)]),
]

# (n, e, seed) of clique-plus-sparse calls, with the digests of that call and
# of the complement-sparse call at C(n, 3) - e; r = 3, m = 6
PINNED_REALIZE = [
    ((26, 223, 0), "bd858cec93fa30bb", "942a2c995993800b"),
    ((27, 175, 5), "50e69c09bda705c7", "9953360245669968"),
    ((28, 365, 17), "c928e80b14ac169e", "4e9a2d58b899c987"),
    ((28, 293, 999), "2fa23374720101c2", "008acf92fa43d000"),
]


def _digest(g):
    return hashlib.sha256(serialize(g).encode()).hexdigest()[:16]


def test_random_sparse_outputs_pinned():
    repairs = []
    for (n, r, constant, p), runs in PINNED_SPARSE:
        for seed, (digest, target, sampled, repaired, final) in enumerate(runs):
            g, log = random_sparse(n, r, 6, seed, Fraction(constant))
            assert (_digest(g), log) == (digest, SparseGenLog(p, target, sampled, repaired, final))
            repairs.append(repaired)
    assert 0 in repairs and max(repairs) > 100


def test_repair_pass_looks_up_a_quarter_of_the_reference(monkeypatch):
    # the work of the repair pass, counted as the r-sets of an m-set that it
    # looks up; the reference runs only on the samples is_sparse refuses,
    # which are exactly those with repairs, as the pass does
    looked_up = {}

    def counting(key):
        def combinations(items, k):
            items = tuple(items)
            if len(items) == 6:  # an m-set, not the vertices extending an anchor
                looked_up[key] = looked_up.get(key, 0) + binomial(6, k)
            return itertools.combinations(items, k)
        return combinations

    monkeypatch.setattr("pairset.constructions.combinations", counting("pass"))
    monkeypatch.setattr(reference, "combinations", counting("reference"))
    for (n, r, constant, p), runs in PINNED_SPARSE:
        for seed, (*_, repaired, _final) in enumerate(runs):
            random_sparse(n, r, 6, seed, Fraction(constant))
            if repaired:
                reference_repair(_sample(n, r, seed, p), n, r, 6)
    assert 0 < 4 * looked_up["pass"] <= looked_up["reference"]


def test_realize_outputs_pinned():
    for (n, e, seed), plus, minus in PINNED_REALIZE:
        assert _digest(realize_clique_plus_sparse(n, e, 3, 6, seed=seed)) == plus
        assert _digest(realize_complement_sparse(n, binomial(n, 3) - e, 3, 6, seed=seed)) == minus
