from fractions import Fraction
from math import factorial

import pytest

from pairset.combinatorics import (
    PairQuery,
    binomial,
    binomial_decompose,
    colex_key,
    falling_factorial,
    max_parts_below_half,
    partite_sizes,
    subsets_colex,
    turan_count,
    turan_ratio,
)
from reference import colex, reference_turan_edges


def test_binomial_values():
    assert binomial(5, 3) == 10
    assert binomial(2, 3) == 0
    assert binomial(100, 3) == 100 * 99 * 98 // 6 == 161700
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_falling_factorial_values():
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(9, 4) == 3024
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(2, 5) == 0
    # the two ratios these feed
    assert Fraction(falling_factorial(9, 4), 9**4) == Fraction(112, 243)
    assert Fraction(falling_factorial(5, 3), 5**3) == Fraction(12, 25)


def test_turan_ratio_values():
    assert turan_ratio(3, 3) == Fraction(2, 9)
    assert turan_ratio(6, 3) == Fraction(5, 9)
    assert turan_ratio(4, 4) == Fraction(3, 32)
    with pytest.raises(ValueError):
        turan_ratio(2, 3)


def test_turan_ratio_strictly_increasing():
    for r in range(2, 9):
        prev = turan_ratio(r, r)
        for l in range(r + 1, 65):
            cur = turan_ratio(l, r)
            assert cur > prev
            prev = cur


def test_turan_ratio_at_r_equals_factorial_over_power():
    for r in range(2, 13):
        base = turan_ratio(r, r)
        assert base == Fraction(factorial(r), r**r)
        assert base <= Fraction(1, r)


def test_partite_sizes():
    assert partite_sizes(9, 3) == [3, 3, 3]
    assert partite_sizes(12, 5) == [3, 3, 2, 2, 2]
    assert partite_sizes(5, 3) == [2, 2, 1]
    assert partite_sizes(3, 5) == [1, 1, 1]
    assert partite_sizes(0, 4) == []
    for n in range(0, 20):
        for l in range(1, 8):
            sizes = partite_sizes(n, l)
            assert len(sizes) == min(l, n)  # the nonempty parts only
            assert all(s > 0 for s in sizes)
            assert sum(sizes) == n
            assert sizes == sorted(sizes, reverse=True)
            assert set(sizes) <= {n // l, n // l + 1}


def test_turan_count_values():
    assert turan_count(6, 3, 3) == 8
    assert turan_count(12, 4, 3) == 108
    assert turan_count(5, 2, 3) == 0


def test_turan_count_matches_bruteforce():
    for n in range(0, 13):
        for l in range(1, n + 4):
            for r in (2, 3, 4):
                assert turan_count(n, l, r) == len(reference_turan_edges(n, l, r))


def test_max_parts_boundaries():
    # computed boundaries; an older reference table mis-stated m = 4 and
    # m = 11, where the exact counts are 2 = C(4,3)/2 (tie, so the strict
    # inequality fails at three parts) and 81 < 82.5 (four parts do fit)
    assert max_parts_below_half(4, 3) == 2
    assert max_parts_below_half(10, 3) == 3
    assert max_parts_below_half(11, 3) == 4
    assert max_parts_below_half(12, 3) == 4
    assert max_parts_below_half(72, 3) == 4
    assert max_parts_below_half(73, 3) == 5
    assert max_parts_below_half(120, 3) == 5
    with pytest.raises(ValueError):
        max_parts_below_half(3, 3)
    with pytest.raises(ValueError):
        max_parts_below_half(10, 2)


def test_max_parts_at_least_r():
    # holds everywhere in 3 <= r < m <= 200 except the single tie (4, 3)
    for r in range(3, 7):
        for m in range(r + 1, 201):
            got = max_parts_below_half(m, r)
            if (m, r) == (4, 3):
                assert got == r - 1
            else:
                assert got >= r


def test_binomial_decompose():
    assert binomial_decompose(36, 3) == (7, 1)
    assert binomial_decompose(10, 3) == (5, 0)
    assert binomial_decompose(80850, 3) == (79, 1771)
    assert binomial_decompose(0, 3) == (2, 0)
    assert binomial_decompose(0, 5) == (4, 0)


def test_binomial_decompose_invariants():
    for r in (2, 3, 4):
        for f in range(0, 400):
            x, rem = binomial_decompose(f, r)
            assert binomial(x, r) + rem == f
            assert binomial(x + 1, r) > f
            if x >= r - 1:
                assert rem < binomial(x + 1, r) - binomial(x, r) or x < r
                if x >= r:
                    assert binomial(x + 1, r) - binomial(x, r) == binomial(x, r - 1)


def test_colex_order_and_rank():
    subsets = list(subsets_colex(6, 3))
    assert subsets == sorted(subsets, key=colex_key)
    assert len(subsets) == binomial(6, 3)
    for n in range(10):
        for k in range(n + 2):
            assert list(subsets_colex(n, k)) == colex(n, k)
    # the successor is iterative, so a large k costs no recursion depth
    assert next(subsets_colex(2000, 1999)) == tuple(range(1999))


def test_pair_query_validation():
    q = PairQuery(3, 6, 10)
    assert q.max_size == 20
    assert q.complement() == PairQuery(3, 6, 10)
    assert PairQuery(3, 12, 110).complement() == PairQuery(3, 12, 110)
    with pytest.raises(ValueError):
        PairQuery(1, 6, 3)
    with pytest.raises(ValueError):
        PairQuery(3, 2, 0)
    with pytest.raises(ValueError):
        PairQuery(3, 6, 21)
