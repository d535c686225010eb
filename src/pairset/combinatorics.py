"""Exact integer and rational primitives shared by every other module.

Everything here returns plain ints or ``fractions.Fraction``; Python
integers are arbitrary precision, so no result can overflow or wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Iterator


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n. Both arguments must be non-negative."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {k})")
    return comb(n, k)


def falling_factorial(l: int, r: int) -> int:
    """l(l-1)...(l-r+1); 1 when r = 0, and 0 when r > l."""
    if l < 0 or r < 0:
        raise ValueError(f"falling_factorial requires non-negative arguments, got ({l}, {r})")
    return perm(l, r)


def turan_ratio(l: int, r: int) -> Fraction:
    """Edge fraction of the balanced complete l-partite r-graph in the limit.

    Equals falling_factorial(l, r) / l**r in lowest terms; strictly
    increasing in l at fixed r.
    """
    if r < 2 or l < r:
        raise ValueError(f"turan_ratio requires l >= r >= 2, got (l={l}, r={r})")
    return Fraction(falling_factorial(l, r), l**r)


def partite_sizes(n: int, l: int) -> list[int]:
    """Sizes of the min(l, n) nonempty parts of n vertices balanced over l parts, descending."""
    if n < 0 or l < 1:
        raise ValueError(f"partite_sizes requires n >= 0 and l >= 1, got ({n}, {l})")
    q, rem = divmod(n, l)  # q = 0 and rem = n when l > n
    return [q + 1] * rem + [q] * (min(l, n) - rem)


def turan_count(n: int, l: int, r: int) -> int:
    """Exact edge count of the balanced complete l-partite r-graph on n vertices.

    This is the degree-r elementary symmetric polynomial of the part sizes;
    zero whenever l < r.
    """
    if r < 2:
        raise ValueError(f"turan_count requires r >= 2, got r={r}")
    sizes = partite_sizes(n, l)
    if l < r:
        return 0
    # elementary symmetric polynomial via incremental products
    coeffs = [1] + [0] * r
    for s in sizes:
        for i in range(r, 0, -1):
            coeffs[i] += coeffs[i - 1] * s
    return coeffs[r]


def max_parts_below_half(m: int, r: int) -> int:
    """Largest part count l whose balanced complete l-partite r-graph on m
    vertices has strictly fewer than half of all C(m, r) possible edges.

    The edge count is nondecreasing in l and reaches C(m, r) at l = m, so the
    answer is the last l before the first failure.  Note this can be r - 1:
    at (m, r) = (4, 3) the three-part count is exactly half, so the strict
    inequality already fails at l = 3.
    """
    if r < 3 or m <= r:
        raise ValueError(f"max_parts_below_half requires m > r >= 3, got (m={m}, r={r})")
    total = binomial(m, r)
    l = r - 1  # any l < r gives an empty graph, which passes trivially
    while l < m and 2 * turan_count(m, l + 1, r) < total:
        l += 1
    return l


def binomial_decompose(f: int, r: int) -> tuple[int, int]:
    """Largest x with C(x, r) <= f, together with the remainder f - C(x, r).

    For f = 0 the canonical answer is x = r - 1 (the largest x whose
    binomial is still zero), which keeps the map total and deterministic.
    """
    if f < 0 or r < 1:
        raise ValueError(f"binomial_decompose requires f >= 0 and r >= 1, got ({f}, {r})")
    x = r - 1
    while binomial(x + 1, r) <= f:
        x += 1
    return x, f - binomial(x, r)


def colex_key(subset: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key realising colexicographic order on same-size subsets."""
    return tuple(reversed(subset))


def subsets_colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(n) in colex order; position equals colex rank.

    Each subset follows from the one before: its lowest element that can
    move up by one does, and the elements below it reset to 0, 1, ....
    """
    if k > n:
        return
    s = [*range(k), n]  # n stands above every element
    while True:
        yield tuple(s[:k])
        i = 0
        while i < k and s[i] + 1 == s[i + 1]:
            i += 1
        if i == k:
            return
        s[i] += 1
        s[:i] = range(i)


@dataclass(frozen=True)
class PairQuery:
    """An order-size pair (m, f) under uniformity r."""

    r: int
    m: int
    f: int

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if self.m < self.r:
            raise ValueError(f"order must be >= uniformity, got m={self.m} < r={self.r}")
        if not 0 <= self.f <= binomial(self.m, self.r):
            raise ValueError(
                f"size must lie in [0, C({self.m},{self.r})] = [0, {binomial(self.m, self.r)}], got {self.f}"
            )

    @property
    def max_size(self) -> int:
        return binomial(self.m, self.r)

    def complement(self) -> "PairQuery":
        return PairQuery(self.r, self.m, self.max_size - self.f)
