"""Builders for the explicit hypergraph families: balanced multipartite
graphs, iterated blow-ups, seeded sparse generators, and the clique-plus-
sparse realizations of a target (n, e).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, pairwise, product

from .combinatorics import (
    binomial,
    binomial_decompose,
    colex_key,
    partite_sizes,
    subsets_colex,
    turan_count,
)
from .errors import below_binomial, binomial_bits, charge, charge_binomial
from .hypergraph import Hypergraph, _unchecked, complement, complete, disjoint_union, overfull_subsets

BASE_SINGLE_EDGE = "single-edge-on-3-vertices"
BASE_TIGHT_CYCLE = "tight-5-cycle"

# copies per level and which copy-triples receive transversal edges
_BLOWUP_BASES = {
    BASE_SINGLE_EDGE: (3, [(0, 1, 2)]),
    BASE_TIGHT_CYCLE: (5, [tuple(sorted((i % 5, (i + 1) % 5, (i + 2) % 5))) for i in range(5)]),
}


@dataclass(frozen=True)
class SparseGenLog:
    """Side-channel record of one generator run; never part of the graph."""

    probability: float
    theoretical_target: int  # expected sample size, p * C(n, r) rounded
    sampled_edges: int
    repairs: int
    final_edges: int


def turan_graph(n: int, l: int, r: int) -> Hypergraph:
    """Balanced complete l-partite r-graph on n vertices, built as products
    of r parts; the parts are consecutive ranges, so each tuple is increasing."""
    what = f"turan_graph({n}, {l}, {r}) edges"
    # the p = min(l, n) parts, each of at least n // p vertices, hold at least
    # C(p, r) * (n // p)^r edges, none if p < r; charged first, as turan_count
    # loops r times over the p parts (it rejects r < 2, n < 0 and l < 1 itself)
    p = min(l, n)
    if 2 <= r <= p:
        charge(binomial_bits(p, r) + r * ((n // p).bit_length() - 1), what, log2=True)
    charge(turan_count(n, l, r), what)
    ends = list(accumulate(partite_sizes(n, l), initial=0))
    parts = [range(a, b) for a, b in pairwise(ends)]
    edges = (t for chosen in combinations(parts, r) for t in product(*chosen))
    return _unchecked(r, n, frozenset(edges))


def _blowup_edge_count(base: str, depth: int) -> int:
    """Edges of the blow-up, without building it: the recurrence
    count' = copies * count + joins * n**3, n = copies**level, solved."""
    c, joins = _BLOWUP_BASES[base]
    return len(joins) * c ** (depth - 1) * (c ** (2 * depth) - 1) // (c**2 - 1)


def iterated_blowup(base: str, depth: int) -> Hypergraph:
    """Repeatedly replace every vertex by a copy of the previous level and
    join designated copy-triples by all transversal edges."""
    if base not in _BLOWUP_BASES:
        raise ValueError(f"unknown blow-up base {base!r}; choose from {sorted(_BLOWUP_BASES)}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    what = f"depth {depth} {base} blow-up edges"
    copies, join_triples = _BLOWUP_BASES[base]
    # the last level alone adds (copies^(depth - 1))^3 edges per joined triple; charged first
    charge(3 * (depth - 1) * (copies.bit_length() - 1), what, log2=True)
    charge(_blowup_edge_count(base, depth), what)
    n = 1
    edges: list[tuple[int, ...]] = []
    for _ in range(depth):
        nxt: list[tuple[int, ...]] = []
        for c in range(copies):
            off = c * n
            nxt.extend(tuple(v + off for v in e) for e in edges)
        for (a, b, c) in join_triples:
            for va, vb, vc in product(range(n), repeat=3):
                # a < b < c and every v < n, so the triple is already increasing
                nxt.append((a * n + va, b * n + vb, c * n + vc))
        edges = nxt
        n *= copies
    return _unchecked(3, n, frozenset(edges))


def random_sparse(
    n: int, r: int, m: int, seed: int = 0, density_constant: Fraction = Fraction(1, 4)
) -> tuple[Hypergraph, SparseGenLog]:
    """Sample-then-repair generator for m-sparse graphs: every m-set keeps at
    most m edges.

    Each r-set is kept independently with probability derived from the
    density constant.  The sample is scanned once, by overfull_subsets, and
    one with no over-full m-set is the result.  Otherwise one repair pass
    visits, for each sampled edge in colex order that is still present (its
    anchor turn), every m-set through it, and deletes the lowest-colex edge
    of a violating set until it complies.
    One pass suffices: an m-set still holding more than m edges at the end
    holds a surviving edge b; b was present at its own anchor turn, when the
    pass visited the set and left it at most m edges, and edges are only
    ever removed.  The colex order fixes which edges go, so the result is
    fully determined by the seed.

    Because edges are only removed, a visit changes something only in an
    m-set that is over-full (holds more than m edges) in the sample, and
    only at its first visit, which leaves it at most m edges for good.  So
    the pass takes the over-full sets from that same scan, indexes each
    under the sampled edges it holds, and visits each once, at the first
    anchor turn through it.  For one anchor, lexicographic order on the
    m-sets is the order of their extensions, so the visits and deletions
    are those of the pass over every m-set through every anchor.
    """
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if not n > m >= r:
        raise ValueError(f"need n > m >= r, got n={n}, m={m}, r={r}")
    if density_constant <= 0:
        raise ValueError("density_constant must be positive")
    slots = charge_binomial(n, r, f"sampling C({n},{r}) r-sets")
    charge_binomial(n, m, f"sparsity check over C({n},{m}) subsets")
    p = min(1.0, float(density_constant) * n ** (-m / (m + 1)))
    rng = random.Random(seed)
    sample = [t for t in subsets_colex(n, r) if rng.random() < p]
    g = _unchecked(r, n, frozenset(sample))
    repairs = 0
    over = overfull_subsets(g, m)
    first = next(over, None)
    if first is not None:
        # an upper bound: the pass looks up the C(m, r) r-sets of each over-full
        # m-set twice, and as each holds at least m + 1 >= 3 sampled edges, each in
        # C(n - r, m - r) m-sets, there are at most len(sample) * C(n - r, m - r) / 3
        # of them.  C(n - r, m - r) <= C(n, m) and C(m, r) <= C(n, r), both charged
        # above and so at most WORK_CAP, hence this exact charge needs no lower
        # bound first
        charge(len(sample) * binomial(n - r, m - r) * binomial(m, r),
               f"repair pass over {len(sample)} x C({n - r},{m - r}) m-sets x C({m},{r}) r-set lookups")
        edges = set(sample)
        # the over-full sets, and under each sampled edge the positions of the
        # sets through it; visits are marked in a bytearray, since a set of the
        # tuples raised the construct benchmark's peak RSS by about 0.4 MB
        over = [first, *over]
        through: dict[tuple[int, ...], list[int]] = {}
        for k, s in enumerate(over):
            for t in combinations(s, r):
                if t in edges:
                    through.setdefault(t, []).append(k)
        visited = bytearray(len(over))
        for anchor in sample:
            if anchor not in edges:
                continue
            for k in through.get(anchor, ()):
                if visited[k]:
                    continue
                visited[k] = 1
                inside = [t for t in combinations(over[k], r) if t in edges]
                while len(inside) > m:
                    victim = min(inside, key=colex_key)
                    edges.remove(victim)
                    inside.remove(victim)
                    repairs += 1
        g = _unchecked(r, n, frozenset(edges))
    return g, SparseGenLog(p, round(p * slots), len(sample), repairs, g.edge_count)


def realize_clique_plus_sparse(
    n: int,
    e: int,
    r: int,
    m: int,
    *,
    seed: int = 0,
) -> Hypergraph:
    """A graph on exactly n vertices and e edges that is the vertex disjoint
    union of a complete graph and a verified m-sparse graph.

    The clique order is the largest k with C(k, r) <= e; the remaining edges
    are taken greedily in colex order from the seeded sparse generator,
    escalating its density constant if the first run falls short.
    """
    if r < 2 or m < r:
        raise ValueError(f"need m >= r >= 2, got m={m}, r={r}")
    if e < 0:
        raise ValueError(f"edge count must be >= 0, got {e}")
    if not below_binomial(2 * e, n, r) and 2 * e > binomial(n, r):
        raise ValueError(
            f"e={e} exceeds the density cap 1/2 * C({n},{r}) = "
            f"{Fraction(binomial(n, r), 2)}; realize the complement instead"
        )
    k, h = binomial_decompose(e, r)
    # e = 0 gives the edgeless k = r - 1, which may exceed a tiny n; any other
    # k has C(k, r) <= e <= C(n, r) / 2, so k < n
    k = min(k, n)
    if h == 0:
        return _unchecked(r, n, complete(k, r).edges)  # the clique plus isolated vertices
    v = n - k
    if v <= m:
        raise ValueError(
            f"infeasible: the sparse generator needs more than m={m} vertices, has {v}"
        )
    attempts = []
    c = Fraction(1, 4)
    for _ in range(4):
        sparse, _log = random_sparse(v, r, m, seed, c)
        attempts.append(sparse.edge_count)
        if sparse.edge_count >= h:
            # a subset of an m-sparse edge set is m-sparse
            part = _unchecked(r, v, frozenset(sorted(sparse.edges, key=colex_key)[:h]))
            return disjoint_union(complete(k, r), part)
        c *= 2
    raise ValueError(
        f"infeasible: sparse generator supplied at most {max(attempts)} m-sparse edges "
        f"on {v} vertices but {h} are required (n={n}, e={e}, r={r}, m={m})"
    )


def realize_complement_sparse(
    n: int,
    e: int,
    r: int,
    m: int,
    *,
    seed: int = 0,
) -> Hypergraph:
    """A graph on n vertices and e edges whose complement is the disjoint
    union of a complete graph and a verified m-sparse graph.

    Implemented as the complement of realize_clique_plus_sparse at the
    complementary size C(n, r) - e.
    """
    below_half = f"e={e} is below (1 - 1/2) * C({n},{r}); realize the pair directly instead"
    if below_binomial(2 * e, n, r):
        raise ValueError(below_half)
    total = binomial(n, r)
    if not 0 <= e <= total:
        raise ValueError(f"edge count must lie in [0, C({n},{r})] = [0, {total}], got {e}")
    if 2 * (total - e) > total:
        raise ValueError(below_half)
    return complement(realize_clique_plus_sparse(n, total - e, r, m, seed=seed))
