"""Exhaustive ground truth for the arrowing relation at desk scale.

A pair (n, e) arrows (m, f) when every r-graph with n vertices and e edges
has an induced m-vertex subgraph with exactly f edges.  These routines decide
that by enumerating every e-edge graph on n labelled vertices and every
m-subset, refusing outright when the work would exceed the configured budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinatorics import binomial, subsets_colex
from .constructions import BASE_SINGLE_EDGE, BlowupSpec, iterated_blowup
from .errors import BudgetExceededError
from .hypergraph import SPECTRUM_CAP, Hypergraph, complement, hypergraph, spectrum

DEFAULT_BUDGET = 100_000_000
BUDGET_ENV_VAR = "PAIRSET_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else the PAIRSET_BUDGET environment variable,
    else the default."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class ArrowVerdict:
    query: tuple[int, int, int, int, int]  # (n, e, r, m, f)
    arrows: bool
    counterexample: Hypergraph | None
    graphs_examined: int


def graph_arrows(g: Hypergraph, m: int, f: int, *, cap: int = SPECTRUM_CAP) -> bool:
    """True iff some m-subset of g induces exactly f edges."""
    if not 0 <= m <= g.n:
        raise ValueError(f"subset order must lie in [0, {g.n}], got {m}")
    if not 0 <= f <= binomial(m, g.r):
        raise ValueError(f"size must lie in [0, C({m},{g.r})], got {f}")
    if binomial(g.n, m) > cap:
        raise BudgetExceededError(
            f"arrowing check needs C({g.n},{m}) = {binomial(g.n, m)} subset scans, above the cap of {cap}"
        )
    es = g.edges
    r = g.r
    if m < r:
        return f == 0 and binomial(g.n, m) > 0
    for s in combinations(range(g.n), m):
        c = 0
        for t in combinations(s, r):
            if t in es:
                c += 1
        if c == f:
            return True
    return False


def pair_arrows(
    n: int, e: int, r: int, m: int, f: int, *, budget: int | None = None
) -> ArrowVerdict:
    """Decide whether (n, e) arrows (m, f) by exhausting every e-edge graph.

    Graphs are enumerated as colex-ordered subsets of the colex-ranked edge
    slots, so a returned counterexample is the colex-least failing edge set.
    """
    if r < 2 or n < 0:
        raise ValueError(f"need r >= 2 and n >= 0, got (n={n}, r={r})")
    slots = binomial(n, r)
    if not 0 <= e <= slots:
        raise ValueError(f"edge count must lie in [0, C({n},{r})] = [0, {slots}], got {e}")
    if not 0 <= m <= n:
        raise ValueError(f"subset order must lie in [0, {n}], got {m}")
    if not 0 <= f <= binomial(m, r):
        raise ValueError(f"size must lie in [0, C({m},{r})], got {f}")
    cost = binomial(slots, e) * max(1, binomial(n, m))
    allowed = resolve_budget(budget)
    if cost > allowed:
        raise BudgetExceededError(
            f"pair_arrows needs {cost} elementary checks, above the budget of {allowed}; "
            f"raise it explicitly (--budget or {BUDGET_ENV_VAR}) to proceed"
        )
    rsets = list(subsets_colex(n, r))
    masks = []
    rank = {s: i for i, s in enumerate(rsets)}
    for s in combinations(range(n), m):
        word = 0
        for t in combinations(s, r):
            word |= 1 << rank[t]
        masks.append(word)
    query = (n, e, r, m, f)
    examined = 0
    for ranks in subsets_colex(slots, e):
        bits = 0
        for i in ranks:
            bits |= 1 << i
        examined += 1
        hit = False
        for mask in masks:
            if (bits & mask).bit_count() == f:
                hit = True
                break
        if not hit:
            cex = hypergraph(r, n, (rsets[i] for i in ranks))
            return ArrowVerdict(query, False, cex, examined)
    return ArrowVerdict(query, True, None, examined)


def non_arrowing_sizes(
    n: int, r: int, m: int, f: int, *, budget: int | None = None
) -> set[int]:
    """All edge counts e for which (n, e) fails to arrow (m, f)."""
    slots = binomial(n, r)
    allowed = resolve_budget(budget)
    total_cost = (2**slots) * max(1, binomial(n, m))
    if total_cost > allowed:
        raise BudgetExceededError(
            f"sweeping all sizes needs {total_cost} elementary checks, above the budget of {allowed}"
        )
    return {
        e
        for e in range(slots + 1)
        if not pair_arrows(n, e, r, m, f, budget=allowed).arrows
    }


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


def verify_blowup_claims(depth: int, *, cap: int = SPECTRUM_CAP) -> BlowupReport:
    """Check the iterated triple blow-up at this depth: its exact density,
    the exhaustive maximum over induced 6-set sizes, the complementary
    minimum, and the derived intervals of edge counts that cannot arrow
    (6, 10)."""
    g = iterated_blowup(BlowupSpec(BASE_SINGLE_EDGE, depth))
    slots = binomial(g.n, 3)
    density = Fraction(g.edge_count, slots)
    if g.n < 6:
        return BlowupReport(
            depth, g.n, g.edge_count, slots, density,
            None, None, None, None, 0, 0,
            f"degenerate: only {g.n} vertices, no 6-subsets to scan",
        )
    sp = spectrum(g, 6, cap=cap)
    spc = spectrum(complement(g), 6, cap=cap)
    mx = sp.max
    mn = spc.min
    low = (0, g.edge_count) if mx < 10 else None
    high = (slots - g.edge_count, slots) if mn > 10 else None
    covered = 0
    if low is not None:
        covered += low[1] - low[0] + 1
    if high is not None:
        covered += high[1] - high[0] + 1
        if low is not None and high[0] <= low[1]:
            covered = slots + 1  # intervals overlap and jointly cover everything
    return BlowupReport(
        depth, g.n, g.edge_count, slots, density,
        mx, mn, low, high, covered, sp.total + spc.total,
        "subgraphs keep 6-set maxima, supergraphs of the complement keep 6-set minima",
    )
