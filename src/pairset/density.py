"""Exact rational upper bounds on the arrowing density of a pair.

A pair's density is the limiting fraction of edge counts e for which every
large host graph with e edges induces the pair.  Zero-certificates (from the
realizability checks) take precedence; otherwise balanced-multipartite
obstructions give bounds of the form 1 - ratio or 1 - 2*ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# clique_plus_witness stays importable from here: perfbench/bench_selftest.py
# checks that tracing patches and restores it in this namespace
from .avoidability import _missing_realization, clique_plus_witness  # noqa: F401
from .combinatorics import (
    PairQuery,
    binomial,
    max_parts_below_half,
    turan_count,
    turan_ratio,
)

CASE_ZERO = "zero-certificate"
CASE_ONE_SIDED = "one-sided"
CASE_TWO_SIDED = "two-sided"
CASE_TRIVIAL = "trivial"


@dataclass(frozen=True)
class DensityBound:
    pair: PairQuery
    bound: Fraction
    l_used: int
    case: str
    justification: str


def density_upper_bound(m: int, f: int, r: int) -> DensityBound:
    """Best available exact upper bound on the density of (m, f).

    Order of strength: a zero-certificate (any of the four realizability
    checks refuted) gives 0; otherwise scan part counts l >= r, taking
    1 - 2*ratio(l) when f sits strictly between t(m, l) and C(m,r) - t(m, l)
    and 1 - ratio(l) when at least one side clears t(m, l); return the
    minimum over all valid l.
    """
    if r < 3 or m <= r:
        raise ValueError(f"density bounds require m > r >= 3, got (m={m}, r={r})")
    pair = PairQuery(r, m, f)
    total = pair.max_size
    fbar = total - f
    zero = _missing_realization(m, f, r)
    if zero is not None:
        return DensityBound(pair, Fraction(0), 0, CASE_ZERO, zero)
    best: DensityBound | None = None
    for l in range(r, m + 1):
        t = turan_count(m, l, r)
        if t >= max(f, fbar):
            continue  # neither side clears the obstruction at this l
        ratio = turan_ratio(l, r)
        if t < f and t < fbar:
            cand = DensityBound(
                pair,
                1 - 2 * ratio,
                l,
                CASE_TWO_SIDED,
                f"t({m},{l}) = {t} < both {f} and {fbar}",
            )
        else:
            side = f if f > t else fbar
            cand = DensityBound(
                pair, 1 - ratio, l, CASE_ONE_SIDED, f"t({m},{l}) = {t} < {side}"
            )
        if best is None or cand.bound < best.bound:
            best = cand
    if best is None:
        # only possible when both f and its complement equal t(m, r) exactly,
        # e.g. (m, f, r) = (4, 2, 3); no partition obstruction applies
        return DensityBound(pair, Fraction(1), 0, CASE_TRIVIAL, "no partition obstruction applies")
    return best


@dataclass(frozen=True)
class BoundRow:
    condition: str
    bound: Fraction
    parts: int
    two_sided: bool


def stable_part_threshold(r: int, l: int, *, horizon: int = 1000) -> int:
    """Smallest order from which every order up to the horizon admits at
    least l balanced parts below half density."""
    last_bad = r  # orders <= r are out of domain
    for m in range(r + 1, horizon + 1):
        if max_parts_below_half(m, r) < l:
            last_bad = m
    if last_bad >= horizon:
        raise ValueError(f"no stable threshold for l={l} below the horizon {horizon}")
    return last_bad + 1


def limiting_parts(r: int) -> int:
    """Largest part count whose limiting edge ratio is still below one half."""
    l = r
    while turan_ratio(l + 1, r) < Fraction(1, 2):
        l += 1
    return l


def density_bound_table(r: int) -> list[BoundRow]:
    """The standard small-uniformity bound table, regenerated from the ratio
    and threshold computations rather than from stored constants."""
    if r == 3:
        ls = list(range(r + 1, limiting_parts(r) + 1))  # one row per threshold
    elif r == 4:
        ls = [limiting_parts(r)]  # the published table keeps only the limit row
    else:
        raise ValueError(f"bound table is defined for uniformity 3 and 4, got {r}")
    rows = [
        BoundRow(f"any m > {r}", 1 - turan_ratio(r, r), r, False),
        BoundRow(
            f"t(m,{r}) < f < C(m,{r}) - t(m,{r})",
            1 - 2 * turan_ratio(r, r),
            r,
            True,
        ),
    ]
    for l in ls:
        m0 = stable_part_threshold(r, l)
        rows.append(BoundRow(f"m >= {m0}", 1 - turan_ratio(l, r), l, False))
    return rows


def turan_density_bounds(m: int, r: int) -> tuple[Fraction, Fraction]:
    """Exact lower and upper bounds bracketing the clique Turán density for
    forbidden complete graphs on m vertices."""
    if r < 2 or m <= r:
        raise ValueError(f"need m > r >= 2, got (m={m}, r={r})")
    lower = 1 - Fraction(r - 1, m - 1) ** (r - 1)
    upper = 1 - Fraction(1, binomial(m - 1, r - 1))
    return lower, upper
