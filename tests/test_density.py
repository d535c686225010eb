from fractions import Fraction

import pytest

from pairset.avoidability import positive_density_candidates
from pairset.combinatorics import binomial, turan_ratio
from pairset.density import (
    density_bound_table,
    density_upper_bound,
    limiting_parts,
    stable_part_threshold,
    turan_density_bounds,
)


def test_bound_for_the_central_pair():
    b = density_upper_bound(6, 10, 3)
    assert b.bound == Fraction(5, 9)
    assert b.case == "two-sided"
    assert b.l_used == 3


def test_zero_certificate_precedence():
    b = density_upper_bound(12, 1, 3)
    assert b.bound == 0
    assert b.case == "zero-certificate"
    assert "complement" in b.justification


@pytest.mark.parametrize("r", [3, 4, 5])
def test_zero_certificates_miss_exactly_the_candidates(r):
    # both run the same four realizability checks, so they must agree
    for m in range(r + 1, 13):
        total = binomial(m, r)
        uncertified = {
            f for f in range(1, total) if density_upper_bound(m, f, r).case != "zero-certificate"
        }
        assert uncertified == positive_density_candidates(m, r), m


def test_one_sided_bound_for_large_orders():
    b = density_upper_bound(80, binomial(80, 3) // 2, 3)
    if b.case != "zero-certificate":
        assert b.bound <= Fraction(13, 25)


def test_lopsided_sizes_get_deeper_scans():
    # the extreme sizes clear the obstruction at every part count up to
    # m - 1, so the scan beats the generic bound by a wide margin
    b = density_upper_bound(9, 0, 3)
    assert b.case == "one-sided"
    assert b.l_used == 8
    assert b.bound == 1 - turan_ratio(8, 3) == Fraction(11, 32)
    assert b.bound < Fraction(7, 9)


def test_bound_complement_symmetry():
    for m in range(4, 11):
        top = binomial(m, 3)
        for f in range(top + 1):
            a = density_upper_bound(m, f, 3)
            b = density_upper_bound(m, top - f, 3)
            assert a.bound == b.bound
            assert a.case == b.case


def test_bounds_below_one_except_the_known_tie():
    # at (4, 2, 3) the three-part count equals both sides exactly, so no
    # partition obstruction applies and no zero-certificate exists
    for m in range(4, 16):
        top = binomial(m, 3)
        for f in range(top + 1):
            b = density_upper_bound(m, f, 3)
            if (m, f) == (4, 2):
                assert b.case == "trivial"
                assert b.bound == 1
            else:
                assert b.bound < 1


def test_bound_table_r3():
    rows = density_bound_table(3)
    bounds = [row.bound for row in rows]
    assert bounds == [Fraction(7, 9), Fraction(5, 9), Fraction(5, 8), Fraction(13, 25)]
    assert [row.parts for row in rows] == [3, 3, 4, 5]
    assert rows[2].condition == "m >= 11"
    assert rows[3].condition == "m >= 73"


def test_bound_table_r4():
    rows = density_bound_table(4)
    bounds = [row.bound for row in rows]
    assert Fraction(29, 32) in bounds
    assert Fraction(131, 243) in bounds
    assert rows[-1].parts == 9
    with pytest.raises(ValueError):
        density_bound_table(5)


def test_one_sided_rows_decrease():
    for r in (3, 4):
        one_sided = [row.bound for row in density_bound_table(r) if not row.two_sided]
        assert one_sided == sorted(one_sided, reverse=True)


def test_thresholds_and_limits():
    assert limiting_parts(3) == 5
    assert limiting_parts(4) == 9
    assert stable_part_threshold(3, 4) == 11
    assert stable_part_threshold(3, 5) == 73
    assert stable_part_threshold(4, 9) == 74


def test_turan_density_bracket():
    assert turan_density_bounds(4, 3) == (Fraction(5, 9), Fraction(2, 3))
    assert turan_density_bounds(5, 3) == (Fraction(3, 4), Fraction(5, 6))
    for r in range(3, 7):
        m = r + 1
        lo, hi = turan_density_bounds(m, r)
        assert lo == 1 - Fraction(r - 1, r) ** (r - 1)
        assert hi == 1 - Fraction(1, binomial(m - 1, r - 1))


def test_bracket_consistent_for_a_grid():
    for r in range(3, 7):
        for m in range(r + 1, 51):
            lo, hi = turan_density_bounds(m, r)
            assert 0 < lo <= hi < 1


def test_domain_errors():
    with pytest.raises(ValueError):
        density_upper_bound(4, 1, 2)
    with pytest.raises(ValueError):
        density_upper_bound(3, 1, 3)
    with pytest.raises(ValueError):
        turan_density_bounds(3, 3)
