"""Uniform hypergraph values plus induced-subgraph queries and file I/O.

Subset scans here are exhaustive and budget-checked; exceeding a budget is
an error, never a silent approximation.  complete and complement enumerate
all C(n, r) r-sets without a cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .combinatorics import binomial, colex_key
from .errors import BudgetExceededError

SPECTRUM_CAP = 10_000_000


class ParseError(ValueError):
    """Malformed hypergraph file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on labelled vertices 0..n-1.

    Edges are stored as strictly increasing r-tuples; the value is immutable
    and safe to share.
    """

    r: int
    n: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        for e in self.edges:
            if len(e) != self.r:
                raise ValueError(f"edge {e} does not have {self.r} vertices")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e} is not strictly increasing")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} out of range for n={self.n}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(self.edges)


def hypergraph(r: int, n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Build a hypergraph, normalising each edge to a sorted tuple."""
    norm = set()
    for e in edges:
        t = tuple(sorted(e))
        if len(set(t)) != len(t):
            raise ValueError(f"edge {tuple(e)} has repeated vertices")
        norm.add(t)
    return Hypergraph(r, n, frozenset(norm))


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices (empty when n < r)."""
    return Hypergraph(r, n, frozenset(combinations(range(n), r)))


def complement(g: Hypergraph) -> Hypergraph:
    """Same vertices; edge set is all r-subsets not in g."""
    missing = frozenset(t for t in combinations(range(g.n), g.r) if t not in g.edges)
    return Hypergraph(g.r, g.n, missing)


def disjoint_union(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Vertex disjoint union; h's vertices are shifted above g's."""
    if g.r != h.r:
        raise ValueError(f"uniformity mismatch: {g.r} vs {h.r}")
    shifted = (tuple(v + g.n for v in e) for e in h.edges)
    return Hypergraph(g.r, g.n + h.n, g.edges | frozenset(shifted))


def induced(g: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Sub-hypergraph induced on the given vertices, relabelled to 0..|S|-1
    preserving order."""
    chosen = sorted(set(vertices))
    for v in chosen:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    relabel = {v: i for i, v in enumerate(chosen)}
    keep = set(chosen)
    edges = (
        tuple(relabel[v] for v in e) for e in g.edges if all(v in keep for v in e)
    )
    return Hypergraph(g.r, len(chosen), frozenset(edges))


@dataclass(frozen=True)
class Spectrum:
    """Histogram of induced edge counts over all m-vertex subsets."""

    m: int
    counts: dict[int, int]

    @property
    def max(self) -> int:
        return max(self.counts)

    @property
    def min(self) -> int:
        return min(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def spectrum(g: Hypergraph, m: int, *, cap: int = SPECTRUM_CAP) -> Spectrum:
    """Exact induced-size histogram over all C(n, m) subsets of size m."""
    if not 0 <= m <= g.n:
        raise ValueError(f"subset order must lie in [0, {g.n}], got {m}")
    subsets = binomial(g.n, m)
    if subsets > cap:
        raise BudgetExceededError(
            f"spectrum needs C({g.n},{m}) = {subsets} subset scans, above the cap of {cap}"
        )
    es = g.edges
    r = g.r
    counts: Counter[int] = Counter()
    if m < r:
        counts[0] = subsets
        return Spectrum(m, dict(counts))
    for s in combinations(range(g.n), m):
        c = 0
        for t in combinations(s, r):
            if t in es:
                c += 1
        counts[c] += 1
    return Spectrum(m, dict(counts))


def _first_violation(
    edges: frozenset[tuple[int, ...]], n: int, r: int, m: int, limit: int
) -> tuple[int, ...] | None:
    """First m-subset (in edge-anchored scan order) inducing > limit edges.

    Any violating subset induces at least one edge since limit >= 0, so
    anchoring the scan at each edge is exhaustive while skipping the vast
    majority of empty subsets.
    """
    if m < r:
        return None
    spare = m - r
    for anchor in sorted(edges, key=colex_key):
        inside = set(anchor)
        others = [v for v in range(n) if v not in inside]
        for ext in combinations(others, spare):
            s = tuple(sorted(anchor + ext))
            c = 0
            for t in combinations(s, r):
                if t in edges:
                    c += 1
                    if c > limit:
                        return s
    return None


def is_sparse(g: Hypergraph, m: int, *, cap: int = SPECTRUM_CAP) -> bool:
    """True iff every m-vertex subset induces at most m edges."""
    if m < 0:
        raise ValueError(f"subset order must be >= 0, got {m}")
    if m > g.n:
        return True
    if binomial(g.n, m) > cap:
        raise BudgetExceededError(
            f"sparsity check needs C({g.n},{m}) = {binomial(g.n, m)} subset scans, above the cap of {cap}"
        )
    return _first_violation(g.edges, g.n, g.r, m, m) is None


def serialize(g: Hypergraph) -> str:
    """Canonical text form: header line 'r n', then one edge per line."""
    lines = [f"{g.r} {g.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse(text: str) -> Hypergraph:
    """Parse the text format written by serialize; comments start with '#'."""
    r = n = None
    edges: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if r is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, f"malformed header: expected 'r n', got {line!r}")
            try:
                r, n = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"malformed header: expected integers, got {line!r}") from None
            if r < 2 or n < 0:
                raise ParseError(lineno, f"malformed header: need r >= 2 and n >= 0, got r={r}, n={n}")
            continue
        parts = line.split()
        if len(parts) != r:
            raise ParseError(lineno, f"expected {r} vertices per edge, got {len(parts)}")
        try:
            vs = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ParseError(lineno, f"vertices must be strictly increasing, got {line!r}")
        if vs[0] < 0 or vs[-1] >= n:
            raise ParseError(lineno, f"vertex {vs[-1] if vs[-1] >= n else vs[0]} out of range for n={n}")
        if vs in edges:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        edges.add(vs)
    if r is None or n is None:
        raise ParseError(1, "missing header line 'r n'")
    return Hypergraph(r, n, frozenset(edges))
