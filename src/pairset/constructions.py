"""Builders for the explicit hypergraph families: balanced multipartite
graphs, iterated blow-ups, seeded sparse generators, and the clique-plus-
sparse realizations of a target (n, e).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .combinatorics import (
    binomial,
    binomial_decompose,
    colex_key,
    partite_sizes,
    subsets_colex,
)
from .errors import BudgetExceededError
from .hypergraph import (
    SPECTRUM_CAP,
    Hypergraph,
    _first_violation,
    complement,
    complete,
    disjoint_union,
    hypergraph,
)

BASE_SINGLE_EDGE = "single-edge-on-3-vertices"
BASE_TIGHT_CYCLE = "tight-5-cycle"

BLOWUP_VERTEX_CAP = 243

# copies per level and which copy-triples receive transversal edges
_BLOWUP_BASES = {
    BASE_SINGLE_EDGE: (3, [(0, 1, 2)]),
    BASE_TIGHT_CYCLE: (5, [tuple(sorted((i % 5, (i + 1) % 5, (i + 2) % 5))) for i in range(5)]),
}


@dataclass(frozen=True)
class BlowupSpec:
    base: str
    depth: int

    def __post_init__(self) -> None:
        if self.base not in _BLOWUP_BASES:
            raise ValueError(f"unknown blow-up base {self.base!r}; choose from {sorted(_BLOWUP_BASES)}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class SparseGenConfig:
    n: int
    r: int
    m: int
    seed: int
    target_f: int | None = None  # per-m-set edge count must stay below this; defaults to m + 1
    density_constant: Fraction = Fraction(1, 4)

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if not self.n > self.m >= self.r:
            raise ValueError(f"need n > m >= r, got n={self.n}, m={self.m}, r={self.r}")
        if self.target_f is not None and self.target_f < 1:
            raise ValueError(f"target_f must be >= 1, got {self.target_f}")
        if self.density_constant <= 0:
            raise ValueError("density_constant must be positive")

    @property
    def edge_limit(self) -> int:
        """Largest induced edge count any m-set is allowed to keep."""
        return (self.target_f if self.target_f is not None else self.m + 1) - 1


@dataclass(frozen=True)
class SparseGenLog:
    """Side-channel record of one generator run; never part of the graph."""

    probability: float
    theoretical_target: int  # expected sample size, p * C(n, r) rounded
    sampled_edges: int
    repairs: int
    final_edges: int


def turan_graph(n: int, l: int, r: int) -> Hypergraph:
    """Balanced complete l-partite r-graph on n vertices."""
    if l < 1:
        raise ValueError(f"part count must be >= 1, got {l}")
    sizes = partite_sizes(n, l)
    part_of = []
    for i, s in enumerate(sizes):
        part_of.extend([i] * s)
    edges = (
        t for t in combinations(range(n), r) if len({part_of[v] for v in t}) == r
    )
    return Hypergraph(r, n, frozenset(edges))


def iterated_blowup(spec: BlowupSpec, *, max_vertices: int = BLOWUP_VERTEX_CAP) -> Hypergraph:
    """Repeatedly replace every vertex by a copy of the previous level and
    join designated copy-triples by all transversal edges."""
    copies, join_triples = _BLOWUP_BASES[spec.base]
    if copies**spec.depth > max_vertices:
        raise BudgetExceededError(
            f"depth {spec.depth} blow-up has {copies**spec.depth} vertices, above the cap of {max_vertices}"
        )
    n = 1
    edges: list[tuple[int, ...]] = []
    for _ in range(spec.depth):
        nxt: list[tuple[int, ...]] = []
        for c in range(copies):
            off = c * n
            nxt.extend(tuple(v + off for v in e) for e in edges)
        for (a, b, c) in join_triples:
            for va, vb, vc in product(range(n), repeat=3):
                nxt.append(tuple(sorted((a * n + va, b * n + vb, c * n + vc))))
        edges = nxt
        n *= copies
    return Hypergraph(3, n, frozenset(edges))


def random_sparse(
    config: SparseGenConfig, *, cap: int = SPECTRUM_CAP
) -> tuple[Hypergraph, SparseGenLog]:
    """Sample-then-repair generator for graphs whose every m-set stays at or
    below the configured edge limit.

    Each r-set is kept independently with probability derived from the
    density constant; afterwards, violating m-sets are repaired by deleting
    their lowest-colex edge until a full scan finds none.  The result is
    fully determined by the seed.
    """
    n, r, m = config.n, config.r, config.m
    if binomial(n, m) > cap:
        raise BudgetExceededError(
            f"cannot verify sparsity: C({n},{m}) = {binomial(n, m)} subset scans exceed the cap of {cap}"
        )
    p = min(1.0, float(config.density_constant) * n ** (-m / (config.edge_limit + 1)))
    rng = random.Random(config.seed)
    edges = {t for t in subsets_colex(n, r) if rng.random() < p}
    sampled = len(edges)
    limit = config.edge_limit
    repairs = 0
    while True:
        removed = 0
        for anchor in sorted(edges, key=colex_key):
            if anchor not in edges:
                continue
            inside_anchor = set(anchor)
            others = [v for v in range(n) if v not in inside_anchor]
            for ext in combinations(others, m - r):
                s = tuple(sorted(anchor + ext))
                inside = [t for t in combinations(s, r) if t in edges]
                while len(inside) > limit:
                    victim = min(inside, key=colex_key)
                    edges.remove(victim)
                    inside.remove(victim)
                    repairs += 1
                    removed += 1
        if removed == 0:
            break
    log = SparseGenLog(p, round(p * binomial(n, r)), sampled, repairs, len(edges))
    return Hypergraph(r, n, frozenset(edges)), log


def realize_clique_plus_sparse(
    n: int,
    e: int,
    r: int,
    m: int,
    *,
    seed: int = 0,
    density_cap: Fraction = Fraction(1, 2),
    cap: int = SPECTRUM_CAP,
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
    if e > density_cap * binomial(n, r):
        raise ValueError(
            f"e={e} exceeds the density cap {density_cap} * C({n},{r}) = "
            f"{density_cap * binomial(n, r)}; realize the complement instead"
        )
    k, h = binomial_decompose(e, r)
    k = min(k, n)  # k = r - 1 cliques are edgeless; never exceeds n under the cap
    if h == 0:
        return disjoint_pad(complete(k, r), n)
    v = n - k
    if v < r:
        raise ValueError(
            f"infeasible: {h} leftover edges need at least {r} of the {v} non-clique vertices"
        )
    if v <= m:
        raise ValueError(
            f"infeasible: the sparse generator needs more than m={m} vertices, has {v}"
        )
    attempts = []
    c = Fraction(1, 4)
    for _ in range(4):
        config = SparseGenConfig(v, r, m, seed, density_constant=c)
        sparse, _log = random_sparse(config, cap=cap)
        attempts.append(sparse.edge_count)
        if sparse.edge_count >= h:
            chosen = sorted(sparse.edges, key=colex_key)[:h]
            part = hypergraph(r, v, chosen)
            if _first_violation(part.edges, v, r, m, m) is not None:
                raise AssertionError("trimmed sparse part lost its sparsity; this cannot happen")
            return disjoint_union(complete(k, r), part)
        c *= 2
    raise ValueError(
        f"infeasible: sparse generator supplied at most {max(attempts)} m-sparse edges "
        f"on {v} vertices but {h} are required (n={n}, e={e}, r={r}, m={m})"
    )


def disjoint_pad(g: Hypergraph, n: int) -> Hypergraph:
    """g plus isolated vertices up to a total of n."""
    if n < g.n:
        raise ValueError(f"cannot pad {g.n} vertices down to {n}")
    return Hypergraph(g.r, n, g.edges)


def realize_complement_sparse(
    n: int,
    e: int,
    r: int,
    m: int,
    *,
    seed: int = 0,
    density_cap: Fraction = Fraction(1, 2),
    cap: int = SPECTRUM_CAP,
) -> Hypergraph:
    """A graph on n vertices and e edges whose complement is the disjoint
    union of a complete graph and a verified m-sparse graph.

    Implemented as the complement of realize_clique_plus_sparse at the
    complementary size C(n, r) - e.
    """
    total = binomial(n, r)
    if not 0 <= e <= total:
        raise ValueError(f"edge count must lie in [0, C({n},{r})] = [0, {total}], got {e}")
    if total - e > density_cap * total:
        raise ValueError(
            f"e={e} is below (1 - {density_cap}) * C({n},{r}); realize the pair directly instead"
        )
    return complement(
        realize_clique_plus_sparse(n, total - e, r, m, seed=seed, density_cap=density_cap, cap=cap)
    )
