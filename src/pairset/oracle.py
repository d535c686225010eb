"""Exhaustive ground truth for the arrowing relation at desk scale.

A pair (n, e) arrows (m, f) when every r-graph with n vertices and e edges
has an induced m-vertex subgraph with exactly f edges.  These routines decide
that by enumerating every e-edge graph on n labelled vertices and every
m-subset, refusing outright when the work would exceed the configured budget.
pair_arrows walks the graphs depth first in colex order, keeping the prefix
of fixed edges as one bitmask that each m-subset's count is read off, and
settles all graphs that differ only in their smallest edge with one more
bitmask; above half of the r-sets it walks the non-edges instead.  It skips
every subtree below a prefix where an m-subset whose count is already final
holds f, and counts the skipped graphs as examined, so its verdicts,
counterexamples and graphs_examined are those of the full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinatorics import binomial, subsets_colex
from .constructions import BASE_SINGLE_EDGE, iterated_blowup
from .errors import EXACT_BITS, below_binomial, binomial_bits, charge
from .hypergraph import Hypergraph, _unchecked, complement, spectrum

DEFAULT_BUDGET = 100_000_000


def resolve_budget(budget: int | None = None) -> int:
    """The explicit budget (--budget on the command line), else the default."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return DEFAULT_BUDGET if budget is None else budget


@dataclass(frozen=True)
class ArrowVerdict:
    arrows: bool
    counterexample: Hypergraph | None
    graphs_examined: int


def _tables(n: int, r: int, m: int) -> tuple[list, list, list]:
    """The r-sets of range(n) in colex order; for each m-subset the bitmask of
    the colex ranks of its r-sets; and the nonzero masks as (lowest rank,
    mask) pairs in descending order."""
    rsets = list(subsets_colex(n, r))
    rank = {s: i for i, s in enumerate(rsets)}
    masks = []
    for s in combinations(range(n), m):
        word = 0
        for t in combinations(s, r):
            word |= 1 << rank[t]
        masks.append(word)
    decided = sorted((((word & -word).bit_length() - 1, word) for word in masks if word), reverse=True)
    return rsets, masks, decided


def _check_query(n: int, r: int, m: int, f: int) -> None:
    """The argument checks that both oracle queries make before any charge."""
    if r < 2 or n < 0:
        raise ValueError(f"need r >= 2 and n >= 0, got (n={n}, r={r})")
    if not 0 <= m <= n:
        raise ValueError(f"subset order must lie in [0, {n}], got {m}")
    if not below_binomial(f, m, r) and not 0 <= f <= binomial(m, r):
        raise ValueError(f"size must lie in [0, C({m},{r})], got {f}")


def pair_arrows(
    n: int, e: int, r: int, m: int, f: int, *,
    budget: int | None = None, tables: tuple | None = None,
) -> ArrowVerdict:
    """Decide whether (n, e) arrows (m, f) by exhausting every e-edge graph.

    A graph is an e-subset of the colex ranks of the r-sets, and the graphs
    are visited in colex order: the largest rank is fixed first and the
    smallest varies fastest, so a returned counterexample is the colex-least
    failing edge set.  A depth-first walk fixes all ranks but the smallest,
    keeping the fixed ranks as one bitmask, so an m-subset's induced count
    for that prefix is (mask & fixed).bit_count().  Below a prefix whose
    smallest rank is hi lie the hi graphs that add one rank i < hi; the ones
    missing f are the set bits of AND(masks of the m-subsets at count f)
    & ~OR(masks at count f - 1) & ((1 << hi) - 1).  Above e = C(n, r) / 2 the
    walk fixes the C(n, r) - e non-edges instead, in reverse colex order,
    counting non-edges against C(m, r) - f, so it never takes more steps
    than there are graphs.

    The walk prunes on decided m-subsets.  Every rank still to fix lies below
    the prefix's smallest, so an m-subset whose lowest r-set rank is at or
    above it keeps its count in every graph below the prefix; if that count
    is f (under flip C(m, r) - f), none of those graphs is a counterexample.
    At a prefix of j ranks one scan of the m-subsets whose lowest rank is
    below its smallest, taken in descending order of that rank, finds top,
    the lowest rank of the first one at count f: the children y < top each
    keep it, so their C(top, k - j) graphs are skipped.  A child y >= top is
    skipped, with its C(y, k - j - 1) graphs, when an m-subset of lowest rank
    y is one short of f, since fixing y completes it.

    graphs_examined counts the graphs up to and including the counterexample,
    or all C(C(n, r), e) of them when there is none.  A skipped subtree holds
    no counterexample, and its graphs are added where the colex order visits
    them, so the pruned walk returns the same counterexample and the same
    count as the full one.  tables, if given, is _tables(n, r, m), for a
    caller that asks many e of one (n, r, m).
    """
    _check_query(n, r, m, f)
    allowed = resolve_budget(budget)
    what = "pair_arrows (raise the budget with --budget)"
    # C(n, r) < 2^n is cheap for n < EXACT_BITS; with C(n, r) + n < EXACT_BITS so is the
    # cost C(C(n, r), e) C(n, m) < 2^(C(n, r) + n), and its refusal states it in full, so
    # no lower bound goes first
    slots = binomial(n, r) if n < EXACT_BITS else None
    exact = slots is not None and slots + n < EXACT_BITS
    if not exact and 0 < e and below_binomial(e, n, r):  # then C(C(n, r), e) >= C(n, r)
        charge(binomial_bits(n, r) + binomial_bits(n, m), what, allowed, log2=True)
    if slots is None:
        slots = binomial(n, r)
    if not 0 <= e <= slots:
        raise ValueError(f"edge count must lie in [0, C({n},{r})] = [0, {slots}], got {e}")
    if not exact:
        charge(binomial_bits(slots, e) + binomial_bits(n, m), what, allowed, log2=True)
    charge(binomial(slots, e) * binomial(n, m), what, allowed)
    if e in (0, slots):  # one graph; each m-subset induces none or all of its r-sets
        if f == (binomial(m, r) if e else 0):
            return ArrowVerdict(True, None, 1)
        charge(e, f"the complete counterexample over C({n},{r}) r-sets", allowed)
        edges = frozenset(combinations(range(n), r)) if e else frozenset()
        return ArrowVerdict(False, _unchecked(r, n, edges), 1)
    # the complements of e-sets in colex order are (slots - e)-sets in reverse
    # colex order; over k-sets the walk has at most C(slots, k - 1) prefixes of
    # up to k - 1 ranks, no more than the C(slots, k) graphs while k <= slots / 2
    flip = 2 * e > slots
    k, g = (slots - e, binomial(m, r) - f) if flip else (e, f)
    # here C(slots, e) >= slots >= C(m, r), so the charge covers the tables
    rsets, masks, decided = tables or _tables(n, r, m)

    def leaves(fixed: int, hi: int) -> int:
        """The ranks i < hi whose graph, the prefix in fixed plus i, has no
        m-subset at count g, as a bitmask."""
        miss = (1 << hi) - 1
        for word in masks:
            count = (word & fixed).bit_count()
            if count == g:
                miss &= word
            elif count == g - 1:
                miss &= ~word
            if not miss:
                break
        return miss

    def failing(miss: int, hi: int, prefix: tuple[int, ...], examined: int) -> ArrowVerdict:
        """The verdict at the first missing leaf below hi: they run from rank 0
        up, or under flip from hi - 1 down."""
        i = miss.bit_length() - 1 if flip else (miss & -miss).bit_length() - 1
        chosen = {i, *prefix}  # the edges, or under flip the non-edges
        edges = frozenset(t for j, t in enumerate(rsets) if (j in chosen) != flip)
        return ArrowVerdict(False, _unchecked(r, n, edges), examined + (hi - i if flip else i + 1))

    if k == 1:  # the root holds the leaves
        miss = leaves(0, slots)
        return failing(miss, slots, (), 0) if miss else ArrowVerdict(True, None, slots)
    examined = 0
    prefix: list[int] = []  # the fixed ranks, largest first, down to depth k - 2
    fixed = 0  # their bitmask
    saved: list[tuple[int, int]] = []  # (floor, skip) of the prefixes above this one
    fresh = True  # at a prefix not yet scanned
    while True:
        depth = len(prefix)
        hi = prefix[-1] if prefix else slots
        if fresh:
            # the children run up from floor, or under flip down to it: each
            # one below top keeps a decided m-set at count g, and a set bit y
            # of skip marks a child whose newest m-sets reach g
            fresh = False
            top = skip = 0
            if g <= depth + 1:  # else no count reaches g - 1 over depth fixed ranks
                for low, word in decided:
                    if low >= hi:  # decided above this prefix, and not at count g
                        continue
                    if low < top:
                        break
                    count = (word & fixed).bit_count()
                    if count == g:
                        top = low
                    elif count == g - 1:
                        skip |= 1 << low
            floor = max(top, k - 1 - depth)  # the j-th largest of k is at least k - j
            if flip:
                y = hi - 1
            else:
                examined += binomial(floor, k - depth)  # the children below floor
                y = floor
        if depth < k - 2:
            if floor <= y < hi:
                if skip >> y & 1:
                    examined += binomial(y, k - 1 - depth)
                    y += -1 if flip else 1
                    continue
                fixed |= 1 << y
                prefix.append(y)
                saved.append((floor, skip))
                fresh = True
                continue
        else:  # each child y holds the y leaves below it
            for y in range(hi - 1, floor - 1, -1) if flip else range(floor, hi):
                if not skip >> y & 1:
                    miss = leaves(fixed | 1 << y, y)
                    if miss:
                        return failing(miss, y, (y, *prefix), examined)
                examined += y
        if flip:
            examined += binomial(floor, k - depth)  # the children below floor
        if not prefix:
            return ArrowVerdict(True, None, examined)
        floor, skip = saved.pop()
        y = prefix.pop()
        fixed ^= 1 << y
        y += -1 if flip else 1


def non_arrowing_sizes(
    n: int, r: int, m: int, f: int, *, budget: int | None = None
) -> set[int]:
    """All edge counts e for which (n, e) fails to arrow (m, f)."""
    _check_query(n, r, m, f)
    allowed = resolve_budget(budget)
    what = "sweeping all sizes (raise the budget with --budget)"
    # the sweep costs at least 2^C(n, r) * C(n, m), and C(n, r) >= 2^bits; from bits =
    # EXACT_BITS on, refuse on that bound, capped so 1 << bits stays small, before C(n, r)
    bits = binomial_bits(n, r)
    if bits >= EXACT_BITS:
        charge((1 << min(bits, EXACT_BITS**2)) + binomial_bits(n, m), what, allowed, log2=True)
    slots = binomial(n, r)
    if slots + n >= EXACT_BITS:  # else 2^C(n, r) C(n, m) < 2^EXACT_BITS is stated in full
        charge(slots + binomial_bits(n, m), what, allowed, log2=True)
    charge((2**slots) * binomial(n, m), what, allowed)
    tables = _tables(n, r, m)  # built once for all sizes, freed on return
    return {e for e in range(slots + 1)
            if not pair_arrows(n, e, r, m, f, budget=allowed, tables=tables).arrows}


@dataclass(frozen=True)
class BlowupReport:
    """Exhaustive verification record for one blow-up depth."""

    depth: int
    n: int
    edge_count: int
    total_slots: int
    density: Fraction
    max_six_subset_edges: int | None
    complement_min_six: int | None
    low_interval: tuple[int, int] | None
    high_interval: tuple[int, int] | None
    covered_sizes: int
    subsets_examined: int
    note: str


def verify_blowup_claims(depth: int) -> BlowupReport:
    """Check the iterated triple blow-up at this depth: its exact density,
    the exhaustive maximum over induced 6-set sizes, the complementary
    minimum, and the derived intervals of edge counts that cannot arrow
    (6, 10)."""
    g = iterated_blowup(BASE_SINGLE_EDGE, depth)
    slots = binomial(g.n, 3)
    density = Fraction(g.edge_count, slots)
    if g.n < 6:
        return BlowupReport(
            depth, g.n, g.edge_count, slots, density,
            None, None, None, None, 0, 0,
            f"degenerate: only {g.n} vertices, no 6-subsets to scan",
        )
    sp = spectrum(g, 6)
    spc = spectrum(complement(g), 6)
    mx = max(sp.counts)
    mn = min(spc.counts)
    low = (0, g.edge_count) if mx < 10 else None
    high = (slots - g.edge_count, slots) if mn > 10 else None
    # [0, E] and [C - E, C] overlap exactly when their lengths sum past C + 1,
    # and then jointly cover all C + 1 sizes
    covered = min(slots + 1, sum(b - a + 1 for a, b in filter(None, (low, high))))
    return BlowupReport(
        depth, g.n, g.edge_count, slots, density,
        mx, mn, low, high, covered, sum(sp.counts.values()) + sum(spc.counts.values()),
        "subgraphs keep 6-set maxima, supergraphs of the complement keep 6-set minima",
    )
