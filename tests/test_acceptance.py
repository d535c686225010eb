"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline) and enforcing its runtime
budget.

Criteria 1 and 3 check reference values derived from the definitions the
program documents, on counts obtained apart from the function under test:

* Criterion 1: the largest l with 2 t(m, l) < C(m, 3) is 2 at m = 4, 3 for
  5..10, 4 for 11..72 and 5 for 73..120. An older table (3 parts for 4..11,
  4 for 12..72) broke that strict inequality: t(4,3) = 2 = C(4,3)/2 and
  t(11,4) = 81 < 82.5. No tie-break saves it, since t(10,4) = 60 =
  C(10,3)/2 needs the strict rule that m = 4 would have to drop.
* Criterion 3: with a residual budget of m, the candidate sweep over orders
  4..15 keeps (4,1), (4,2), (4,3), (5,5) and (6,10). The first four have
  both f <= m and C(m,3) - f <= m, so each side is an empty clique plus
  that many edges and also the m-clique minus the other side's count. An
  older reference of "only (6,10)" holds only for a residual budget of at
  most m - 3, which the program does not define; (6,10) is the lone
  survivor outside that trivial range.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from pairset.avoidability import (
    AbsenceProof,
    BelowThresholdError,
    RealizabilityWitness,
    absolutely_avoidable,
    certificate_document,
    clique_minus_witness,
    clique_plus_witness,
    clique_surplus_gap,
    near_half_avoidable_pair,
    positive_density_candidates,
)
from pairset.combinatorics import binomial, max_parts_below_half, turan_count
from pairset.constructions import (
    BASE_SINGLE_EDGE,
    iterated_blowup,
    random_sparse,
    turan_graph,
)
from pairset.density import density_bound_table, density_upper_bound
from pairset.hypergraph import (
    complement,
    complete,
    disjoint_union,
    graph_arrows,
    hypergraph,
    is_sparse,
    serialize,
    spectrum,
)
from pairset.oracle import non_arrowing_sizes, pair_arrows, verify_blowup_claims


def _finish(name: str, started: float, budget: float, ok: bool, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s){tail}")
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s"
    assert ok, f"{name}: {detail}"


def _partite_edges(m: int, l: int) -> int:
    """t(m, l) for r = 3, counted apart from max_parts_below_half: by building
    the graph at small orders, above that by turan_count, which the unit
    tests check against brute force."""
    return turan_graph(m, l, 3).edge_count if m <= 12 else turan_count(m, l, 3)


def test_criterion_1_part_count_boundaries():
    t0 = time.perf_counter()
    expected = {4: 2}
    expected.update({m: 3 for m in range(5, 11)})
    expected.update({m: 4 for m in range(11, 73)})
    expected.update({m: 5 for m in range(73, 121)})
    problems = []
    for m, l in expected.items():
        total = binomial(m, 3)
        if not 2 * _partite_edges(m, l) < total <= 2 * _partite_edges(m, l + 1):
            problems.append(f"m={m}: l={l} breaks 2t(m,l) < C(m,3) <= 2t(m,l+1)")
        got = max_parts_below_half(m, 3)
        if got != l:
            problems.append(f"m={m}: max_parts_below_half gives {got}, exact count gives {l}")
    # the counts that refute the older table (3 parts for 4..11, 4 for 12..72)
    t4_3, t10_4, t11_4 = _partite_edges(4, 3), _partite_edges(10, 4), _partite_edges(11, 4)
    if (t4_3, t10_4, t11_4) != (2, 60, 81):
        problems.append(f"refuting counts moved: t(4,3)={t4_3} t(10,4)={t10_4} t(11,4)={t11_4}")
    detail = (
        "; ".join(problems)
        if problems
        else "exact table {4: 2, 5-10: 3, 11-72: 4, 73-120: 5}; the older rows fail "
        f"the strict bound: t(4,3)={t4_3} = C(4,3)/2, t(11,4)={t11_4} < 82.5, and "
        f"t(10,4)={t10_4} = C(10,3)/2 rules out a non-strict tie-break"
    )
    _finish("criterion 1 (part-count boundaries)", t0, 1.0, not problems, detail)


def test_criterion_2_bound_table_from_first_principles():
    t0 = time.perf_counter()
    r3 = [row.bound for row in density_bound_table(3)]
    r4 = [row.bound for row in density_bound_table(4)]
    ok = (
        r3[:2] == [Fraction(7, 9), Fraction(5, 9)]
        and Fraction(5, 8) in r3
        and Fraction(13, 25) in r3
        and Fraction(29, 32) in r4
        and Fraction(131, 243) in r4
    )
    _finish(
        "criterion 2 (bound table)",
        t0,
        1.0,
        ok,
        f"r=3 rows {[str(b) for b in r3]}, r=4 rows {[str(b) for b in r4]}",
    )


def test_criterion_3_classification_sweep():
    t0 = time.perf_counter()
    orders = range(4, 16)
    survivors = {(m, f) for m in orders for f in positive_density_candidates(m, 3)}
    expected = {(4, 1), (4, 2), (4, 3), (5, 5), (6, 10)}
    # with f <= m and C(m,3) - f <= m every check has a witness: an empty
    # clique plus f edges, or the m-clique minus C(m,3) - f edges, per side
    trivial = {
        (m, f)
        for m in orders
        for f in range(1, binomial(m, 3))
        if max(f, binomial(m, 3) - f) <= m
    }
    ok = survivors == expected and trivial <= survivors and survivors - trivial == {(6, 10)}
    witnesses = ", ".join(
        f"({m},{f}): K0+{f} = K{m}-{binomial(m, 3) - f}"
        f" and K0+{binomial(m, 3) - f} = K{m}-{f}"
        for m, f in sorted(trivial)
    )
    detail = (
        f"survivors {sorted(survivors)}; trivial {witnesses}; "
        "(6,10) is the lone non-trivial candidate"
        if ok
        else f"survivors {sorted(survivors)}, expected {sorted(expected)}; "
        f"trivial pairs {sorted(trivial)}, non-trivial {sorted(survivors - trivial)}"
    )
    _finish("criterion 3 (classification sweep)", t0, 10.0, ok, detail)


def test_criterion_4_near_half_sweep_to_500():
    t0 = time.perf_counter()
    certified: dict[int, int] = {}
    failures: list[int] = []
    for m in range(4, 501):
        try:
            res = near_half_avoidable_pair(m, 3)
        except BelowThresholdError:
            failures.append(m)
            continue
        certified[m] = res.pair.f
        cert = absolutely_avoidable(m, res.pair.f, 3)
        assert cert is not None, f"certificate for m={m} failed independent re-verification"
    threshold = max(failures) + 1 if failures else 4
    ok = (
        all(m in certified for m in range(threshold, 501))
        and certified.get(12) == 110
        and certified.get(100) == 80850
    )
    _finish(
        "criterion 4 (near-half sweep)",
        t0,
        30.0,
        ok,
        f"threshold m={threshold}, spot pairs (12,{certified.get(12)}) and (100,{certified.get(100)})",
    )


def test_criterion_5_blowup_verification():
    t0 = time.perf_counter()
    g3 = iterated_blowup(BASE_SINGLE_EDGE, 3)
    g2 = iterated_blowup(BASE_SINGLE_EDGE, 2)
    recurrence_ok = (
        g3.n == 27
        and g3.edge_count == 819
        and g3.edge_count == g2.n**3 + 3 * g2.edge_count
    )
    report = verify_blowup_claims(3)
    density_ok = report.density == Fraction(819, 2925) >= Fraction(1, 4)
    max_ok = report.max_six_subset_edges == 8
    covered_ok = report.covered_sizes >= 2 * 819
    ok = recurrence_ok and density_ok and max_ok and covered_ok
    _finish(
        "criterion 5 (blow-up verification)",
        t0,
        120.0,
        ok,
        f"n={g3.n} e={g3.edge_count} max6={report.max_six_subset_edges} "
        f"density={report.density} covered={report.covered_sizes}/{report.total_slots + 1}",
    )


def test_criterion_6_oracle_ground_truth():
    t0 = time.perf_counter()
    sizes = non_arrowing_sizes(5, 3, 4, 4)
    sizes_ok = sizes == set(range(8))
    verdict = pair_arrows(5, 7, 3, 4, 4)
    cex_ok = (
        not verdict.arrows
        and verdict.counterexample is not None
        and verdict.counterexample.edge_count == 7
        and not graph_arrows(verdict.counterexample, 4, 4)
    )
    turan_ok = True
    for n in (5, 6):
        na = non_arrowing_sizes(n, 2, 3, 3)
        arrowing = set(range(binomial(n, 2) + 1)) - na
        turan_ok &= arrowing == {
            e for e in range(binomial(n, 2) + 1) if e > turan_count(n, 2, 2)
        }
    ok = sizes_ok and cex_ok and turan_ok
    _finish(
        "criterion 6 (oracle ground truth)",
        t0,
        60.0,
        ok,
        f"non-arrowing {sorted(sizes)}, counterexample re-verified, graph cross-check ok",
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    problems: list[str] = []

    # complement involution and spectrum reflection over a seeded sample
    import random

    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 7)
        slots = list(combinations(range(n), 3))
        g = hypergraph(3, n, [e for e in slots if rng.random() < 0.5])
        if complement(complement(g)) != g:
            problems.append("complement involution")
        m = rng.randint(0, n)
        sp = spectrum(g, m)
        spc = spectrum(complement(g), m)
        if sp.counts != {binomial(m, 3) - k: v for k, v in spc.counts.items()}:
            problems.append("spectrum reflection")

    # gap implies absence, exhaustively for r = 3 up to order 20
    for m in range(3, 21):
        for f in range(binomial(m, 3) + 1):
            if clique_surplus_gap(m, f, 3) is not None and isinstance(
                clique_plus_witness(m, f, 3), RealizabilityWitness
            ):
                problems.append(f"surplus gap unsound at ({m},{f})")
            if clique_deficit_gap_is_unsound(m, f):
                problems.append(f"deficit gap unsound at ({m},{f})")

    # complement symmetry of certificates and bounds
    for m in range(4, 11):
        top = binomial(m, 3)
        for f in range(top + 1):
            if (absolutely_avoidable(m, f, 3) is None) != (
                absolutely_avoidable(m, top - f, 3) is None
            ):
                problems.append(f"certificate asymmetry at ({m},{f})")
            if density_upper_bound(m, f, 3).bound != density_upper_bound(m, top - f, 3).bound:
                problems.append(f"bound asymmetry at ({m},{f})")

    # seeded generator determinism
    g1, log1 = random_sparse(24, 3, 6, seed=5)
    g2, log2 = random_sparse(24, 3, 6, seed=5)
    if serialize(g1) != serialize(g2) or log1 != log2:
        problems.append("generator nondeterminism")

    # constructive witness round trip
    for m in range(3, 13):
        for f in range(binomial(m, 3) + 1):
            w = clique_plus_witness(m, f, 3)
            if not isinstance(w, RealizabilityWitness):
                continue
            rest = list(combinations(range(m - w.x), 3))[: w.h]
            built = disjoint_union(complete(w.x, 3), hypergraph(3, m - w.x, rest))
            if (built.n, built.edge_count) != (m, f):
                problems.append(f"witness round trip at ({m},{f})")

    ok = not problems
    _finish(
        "criterion 7 (property suites)",
        t0,
        300.0,
        ok,
        "all property groups green" if ok else "; ".join(sorted(set(problems))),
    )


def clique_deficit_gap_is_unsound(m: int, f: int) -> bool:
    from pairset.avoidability import clique_deficit_gap

    if clique_deficit_gap(m, f, 3) is None:
        return False
    return isinstance(clique_minus_witness(m, f, 3), RealizabilityWitness)


def test_criterion_8_asymptotics_replaced_by_finite_checks():
    t0 = time.perf_counter()
    # certificates never commit to a concrete host-order threshold
    cert = absolutely_avoidable(12, 110, 3)
    doc = certificate_document(cert)
    no_threshold = "n0" not in doc and "threshold" not in doc
    # the probabilistic edge-count guarantee is replaced by a verified
    # postcondition on the generator output at finite size
    g, log = random_sparse(30, 3, 6, seed=2)
    postcondition = is_sparse(g, 6) and log.final_edges == g.edge_count
    ok = no_threshold and postcondition
    _finish(
        "criterion 8 (finite stand-ins for asymptotics)",
        t0,
        30.0,
        ok,
        "certificates unquantified in the host order; generator postcondition verified",
    )
