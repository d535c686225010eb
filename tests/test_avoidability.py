from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairset.avoidability import (
    KIND_CLIQUE_PLUS,
    KIND_COMPLEMENT,
    AbsenceProof,
    AvoidabilityCertificate,
    CheckedInequality,
    BelowThresholdError,
    RealizabilityWitness,
    absolutely_avoidable,
    certificate_document,
    clique_deficit_gap,
    clique_minus_witness,
    clique_plus_witness,
    clique_surplus_gap,
    near_half_avoidable_pair,
    positive_density_candidates,
)
from pairset.combinatorics import binomial
from pairset.density import density_upper_bound
from pairset.hypergraph import complete, disjoint_union, hypergraph
from reference import reference_witness


def test_clique_plus_witness_examples():
    w = clique_plus_witness(6, 10, 3)
    assert isinstance(w, RealizabilityWitness)
    assert (w.x, w.h) == (5, 0)
    a = clique_plus_witness(12, 110, 3)
    assert isinstance(a, AbsenceProof)
    assert all(c.verify() for c in a.failures)
    w0 = clique_plus_witness(9, 0, 3)
    assert isinstance(w0, RealizabilityWitness)
    assert w0.h == 0 and w0.x == 2  # largest edgeless clique order


def test_clique_plus_witness_capacity_constraint():
    # residual edges must fit on the leftover vertices: here exactly C(3,3)
    w = clique_plus_witness(10, 36, 3)
    assert isinstance(w, RealizabilityWitness)
    assert (w.x, w.h) == (7, 1)
    # one more residual edge cannot fit next to the same clique
    a = clique_plus_witness(6, 13, 3)
    assert isinstance(a, AbsenceProof)


def test_clique_minus_witness_examples():
    a = clique_minus_witness(10, 36, 3)
    assert isinstance(a, AbsenceProof)
    w = clique_minus_witness(6, 10, 3)
    assert isinstance(w, RealizabilityWitness)
    assert (w.x, w.h) == (5, 0)
    full = clique_minus_witness(7, binomial(7, 3), 3)
    assert isinstance(full, RealizabilityWitness)
    assert (full.x, full.h) == (7, 0)


def _as_tuples(failures):
    return [(c.label, c.lhs, c.op, c.rhs, c.expected) for c in failures]


@st.composite
def witness_queries(draw):
    r = draw(st.integers(min_value=3, max_value=5))
    m = draw(st.integers(min_value=r, max_value=25))
    f = draw(st.integers(min_value=0, max_value=binomial(m, r)))
    return m, f, r, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(witness_queries())
@example((12, 110, 3, False))  # theorem-main's pair
@example((6, 13, 3, False))  # refuted by the capacity check alone
def test_witnesses_match_eager_reference(query):
    m, f, r, strict = query
    for kind, witness in ((KIND_CLIQUE_PLUS, clique_plus_witness), (KIND_COMPLEMENT, clique_minus_witness)):
        expected = reference_witness(kind, m, f, r, strict)
        got = witness(m, f, r, strict=strict)
        if isinstance(expected, RealizabilityWitness):
            assert got == expected
        else:
            assert isinstance(got, AbsenceProof) and got.kind == kind
            assert _as_tuples(got.failures) == _as_tuples(expected)


def test_unread_refutations_build_no_inequalities(monkeypatch):
    built = []
    init = CheckedInequality.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CheckedInequality, "__init__", counting_init)
    positive_density_candidates(20, 3)
    density_upper_bound(20, 570, 3)
    assert built == []
    proof = clique_plus_witness(12, 110, 3)
    assert isinstance(proof, AbsenceProof) and built == []
    assert len(proof.failures) == 13 and len(built) == 13
    assert proof.failures is proof.failures and len(built) == 13  # rendered once


def test_gap_examples():
    assert clique_surplus_gap(12, 110, 3) == 9
    assert clique_surplus_gap(6, 10, 3) is None
    assert clique_surplus_gap(12, 96, 3) is None  # boundary: not strict
    assert clique_deficit_gap(10, 36, 3) == 8
    assert clique_deficit_gap(6, 10, 3) is None
    assert clique_deficit_gap(9, 0, 3) is None


def test_gap_implies_absence_exhaustively():
    for m in range(3, 21):
        top = binomial(m, 3)
        for f in range(top + 1):
            if clique_surplus_gap(m, f, 3) is not None:
                assert isinstance(clique_plus_witness(m, f, 3), AbsenceProof)
            if clique_deficit_gap(m, f, 3) is not None:
                assert isinstance(clique_minus_witness(m, f, 3), AbsenceProof)


def test_witness_has_largest_x():
    for m in range(3, 13):
        top = binomial(m, 3)
        for f in range(top + 1):
            w = clique_plus_witness(m, f, 3)
            if isinstance(w, RealizabilityWitness):
                for x in range(w.x + 1, m + 1):
                    h = f - binomial(x, 3)
                    assert not (0 <= h <= min(m, binomial(m - x, 3)))


def test_witness_round_trip_builds_realizing_graph():
    for m in range(3, 13):
        top = binomial(m, 3)
        for f in range(top + 1):
            w = clique_plus_witness(m, f, 3)
            if not isinstance(w, RealizabilityWitness):
                continue
            rest = [t for t in combinations(range(m - w.x), 3)][: w.h]
            g = disjoint_union(complete(w.x, 3), hypergraph(3, m - w.x, rest))
            assert (g.n, g.edge_count) == (m, f)


def test_absolutely_avoidable_examples():
    cert = absolutely_avoidable(12, 110, 3)
    assert cert is not None
    assert cert.case == "both"
    assert (cert.k_f, cert.k_fbar) == (9, 9)
    assert cert.verify_trace()
    assert absolutely_avoidable(6, 10, 3) is None
    assert absolutely_avoidable(9, 0, 3) is None


def test_absolutely_avoidable_without_gap():
    # absence can rest on the vertex-capacity constraint alone
    cert = absolutely_avoidable(6, 13, 3)
    assert cert is not None
    assert cert.case == "no-gap"
    assert cert.verify_trace()


def test_certificate_complement_symmetry():
    for m in range(4, 13):
        top = binomial(m, 3)
        for f in range(top + 1):
            a = absolutely_avoidable(m, f, 3)
            b = absolutely_avoidable(m, top - f, 3)
            assert (a is None) == (b is None)


def test_near_half_examples():
    res = near_half_avoidable_pair(12, 3)
    assert isinstance(res, AvoidabilityCertificate)
    assert (res.pair.f, res.case) == (110, "1")
    res100 = near_half_avoidable_pair(100, 3)
    assert (res100.pair.f, res100.case) == (80850, "1")
    with pytest.raises(BelowThresholdError) as exc:
        near_half_avoidable_pair(5, 3)
    assert "C(3,2)" in str(exc.value)
    with pytest.raises(ValueError):
        near_half_avoidable_pair(12, 2)


def test_near_half_reverifies_independently():
    # the small-m failure sets are frozen; note r = 4 wobbles (m = 8 goes
    # through case 2 before the headroom check breaks again at m = 9)
    expected_failures = {
        3: set(range(3, 12)),
        4: {4, 5, 6, 7, 9},
        5: {5, 6, 7, 8},
    }
    for r, expect in expected_failures.items():
        failures = set()
        for m in range(r, 501):
            try:
                res = near_half_avoidable_pair(m, r)
            except BelowThresholdError:
                failures.add(m)
                continue
            cert = absolutely_avoidable(m, res.pair.f, r)
            assert cert is not None, (m, r, res.pair.f)
        assert failures == expect


def test_candidates_truth_table():
    # small orders admit trivial realizations (empty clique plus up to m
    # edges), so the filter keeps extra sizes there; from order 7 on the
    # complement side kills everything except (6, 10) below 16
    assert positive_density_candidates(4, 3) == {1, 2, 3}
    assert positive_density_candidates(5, 3) == {5}
    assert positive_density_candidates(6, 3) == {10}
    for m in range(7, 16):
        assert positive_density_candidates(m, 3) == set()


def test_candidates_complement_closed():
    for m in range(4, 13):
        top = binomial(m, 3)
        cands = positive_density_candidates(m, 3)
        assert {top - f for f in cands} == cands


def test_strict_window_variant():
    # the open-window variant only diverges at (5, 5) in this range, where
    # the closed window accepts exactly m residual edges
    for m in range(4, 16):
        closed = positive_density_candidates(m, 3)
        opened = positive_density_candidates(m, 3, strict=True)
        if m == 5:
            assert closed == {5} and opened == set()
        else:
            assert closed == opened


def test_certificate_document_shape():
    cert = absolutely_avoidable(12, 110, 3)
    doc = certificate_document(cert)
    assert set(doc) >= {"pair", "checks", "conclusion", "trace"}
    assert doc["pair"] == {"r": 3, "m": 12, "f": 110}
    assert doc["conclusion"] == "absolutely-avoidable"
    assert len(doc["checks"]) == 2
    assert all(ch["outcome"] == "absent" for ch in doc["checks"])
