"""Uniform hypergraph values plus induced-subgraph queries and file I/O.

Every induced-count query (spectrum, is_sparse, overfull_subsets and
graph_arrows) runs on one private kernel, _scan, which no other module
calls: a depth-first search over the m-subsets that carries the counts of
each prefix forward, so the last vertex of an m-subset costs one list read
instead of C(m, r) r-set lookups.  The kernel charges its own C(n, m)
subsets, and complete and complement their C(n, r) r-sets, to
errors.charge_binomial before they start, so every enumeration here is
exhaustive or refuses.  The builders here and in constructions, whose edges
are valid by construction or, in parse, checked line by line, skip
Hypergraph's per-edge checks through _unchecked; Hypergraph(...) and
hypergraph(...) check every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import lt
from typing import Collection, Iterable, Iterator, Sequence

from .combinatorics import binomial
from .errors import charge, charge_binomial


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
            if error := _edge_error(e, self.r, self.n):
                raise ValueError(error)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _edge_error(e: tuple[int, ...], r: int, n: int) -> str | None:
    """Why e is not an edge of an r-graph on range(n), or None if it is."""
    if len(e) != r:
        return f"expected {r} vertices per edge, got {len(e)} in {e}"
    if not all(map(lt, e, e[1:])):
        return f"vertices must be strictly increasing, got {e}"
    if e[0] < 0 or e[-1] >= n:
        return f"vertex {e[-1] if e[-1] >= n else e[0]} out of range for n={n}"
    return None


def _unchecked(r: int, n: int, edges: frozenset[tuple[int, ...]]) -> Hypergraph:
    """Hypergraph(r, n, edges) for edges that this package builds valid: r and
    n are checked, with the same errors, and the per-edge checks are skipped."""
    g = Hypergraph(r, n, frozenset())
    object.__setattr__(g, "edges", edges)  # frozen: set once, before g is shared
    return g


def hypergraph(r: int, n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Build a hypergraph, normalising each edge to a sorted tuple; an edge
    with a repeated vertex is not strictly increasing, so it is rejected."""
    return Hypergraph(r, n, frozenset(tuple(sorted(e)) for e in edges))


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices (empty when n < r)."""
    charge_binomial(n, r, f"complete over C({n},{r}) r-sets")
    return _unchecked(r, n, frozenset(combinations(range(n), r)))


def complement(g: Hypergraph) -> Hypergraph:
    """Same vertices; edge set is all r-subsets not in g."""
    charge_binomial(g.n, g.r, f"complement over C({g.n},{g.r}) r-sets")
    missing = frozenset(t for t in combinations(range(g.n), g.r) if t not in g.edges)
    return _unchecked(g.r, g.n, missing)


def disjoint_union(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Vertex disjoint union; h's vertices are shifted above g's."""
    if g.r != h.r:
        raise ValueError(f"uniformity mismatch: {g.r} vs {h.r}")
    shifted = (tuple(v + g.n for v in e) for e in h.edges)
    return _unchecked(g.r, g.n + h.n, g.edges | frozenset(shifted))


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
    return _unchecked(g.r, len(chosen), frozenset(edges))


@dataclass(frozen=True)
class Spectrum:
    """Histogram of induced edge counts over all m-vertex subsets."""

    m: int
    counts: dict[int, int]


def _scan(
    edges: Collection[tuple[int, ...]], n: int, r: int, m: int, limit: int | None = None
) -> Iterator[dict[int, int] | tuple[int, ...]]:
    """Induced edge counts of the m-subsets of range(n), for r >= 2, m >= 0.

    Without a limit, yields one value: the histogram {count: number of
    m-subsets}, keys in increasing order.  With a limit, yields lazily, in
    lexicographic order, every m-subset inducing more than limit edges; a
    prefix that already induces more than limit edges yields all of its
    extensions at once, with no descent below it.  The C(n, m) subsets are
    charged when the first value is asked for, to errors.charge_binomial,
    then the table copies of the C(n, m - 1) prefixes, n / 16 each (a copy
    holds at most n entries), and then the (m - 1) n level-1 table entries
    held at once.
    Unless r <= m <= n no m-subset holds an edge: the histogram is then
    {0: C(n, m)}, and nothing is over a limit.

    A depth-first search over sorted prefixes P, in lexicographic order.
    Level j of P holds, for each j-set T above max(P), the number of
    (r - j)-subsets Q of P for which Q | T is an edge.  Only the top j
    vertices of an edge can form such a T, so levels j >= 2 are tables over
    edge suffixes; level 1 is a suffix table, one entry per vertex above
    max(P), so extending P by y copies the n - y - 1 entries above y.
    Extending P by y adds level 1 at y to the count of P, and level j + 1 at
    {y} | T to level j at T.  Levels 1..top are tables, top = max(1, r - 2).
    Level top + 1 is a popcount: the link bitmask of an (r - 1)-set (the
    lowest vertices of the edges through it) against the bitmask of P.
    The prefixes of m - 2 vertices push no frames: for each y they build
    the level-1 row above y of P | {y}, whose entries are the counts of
    the m-subsets P | {y, z}, and read it into the histogram or the listing.
    """
    subsets = charge_binomial(n, m, f"induced-count scan over C({n},{m}) subsets")
    if not r <= m <= n:
        if limit is None:
            yield {0: subsets}
        return
    # each (m - 1)-prefix copies an n-entry table; C(n, m - 1) = C(n, m) m / (n - m + 1)
    charge(subsets * m // (n - m + 1) * -(-n // 16), f"copying {n}-entry tables for C({n},{m - 1}) prefixes")
    charge((m - 1) * n, f"holding {m - 1} tables of {n} entries")
    top = max(1, r - 2)
    link: dict[tuple[int, ...], int] = {}
    for e in edges:
        # for r = 2 the key is the edge and the bit its first vertex y, which
        # the bitmask of P | {y} holds, so the popcount is the edge indicator
        key = e[r - top - 1:]
        link[key] = link.get(key, 0) | 1 << e[0]
    slot: list[dict[tuple[int, ...], int]] = [{} for _ in range(top + 1)]
    for key in link:
        for j in range(2, top + 1):
            slot[j].setdefault(key[-j:], len(slot[j]))

    def index(j: int, key: tuple[int, ...]) -> int:
        # where level j of P | {key[0]} keeps key[1:]; level 1 starts at key[0] + 1
        return key[1] - key[0] - 1 if j == 1 else slot[j][key[1:]]

    # feed[j][y]: (index at level j, index at level j + 1 or link bits) of
    # the suffixes that start at y
    feed: list[list[list[tuple[int, int]]]] = [[[] for _ in range(n)] for _ in range(top + 1)]
    for j in range(1, top):
        for key, k in slot[j + 1].items():
            feed[j][key[0]].append((index(j, key), k))
    for key, bits in link.items():
        feed[top][key[0]].append((index(top, key), bits))

    def extensions(y: int) -> Iterator[tuple[int, ...]]:
        # every m-subset through the prefix on the stack and y
        prefix = (*(f[0] for f in frames[1:]), y)
        return (prefix + rest for rest in combinations(range(y + 1, n), m - len(prefix)))

    # no m-subset induces more edges than there are
    hist = [0] * (len(edges) + 1) if limit is None else None
    # one frame per prefix vertex: [max(P), count, bitmask, levels, next y]
    frames = [[-1, 0, 0, [[0] * n] + [[0] * len(slot[j]) for j in range(2, top + 1)], 0]]
    while frames:
        d = len(frames) - 1
        last, c, mask, tables, start = frames[-1]
        stop = n - m + d + 1  # a larger y leaves too few vertices above it
        level1 = tables[0]
        if d == m - 2:  # the children of P | {y} are whole m-subsets
            above = tables[1] if top > 1 else None
            for y in range(start, stop):
                c2 = c + level1[y - last - 1]
                if limit is not None and c2 > limit:
                    yield from extensions(y)
                    continue
                row = level1[y - last:]
                if above is None:
                    mask2 = mask | 1 << y
                    for s, bits in feed[1][y]:
                        row[s] += (bits & mask2).bit_count()
                else:
                    for s, k in feed[1][y]:
                        row[s] += above[k]
                if limit is None:
                    for a in row:
                        hist[c2 + a] += 1
                elif c2 + max(row) > limit:
                    prefix = (*(f[0] for f in frames[1:]), y)
                    for z, a in enumerate(row, y + 1):
                        if c2 + a > limit:
                            yield (*prefix, z)
            frames.pop()
            continue
        levels = range(1, min(top, m - d - 1) + 1)  # the levels children need
        for y in range(start, stop):
            c2 = c + level1[y - last - 1]
            if limit is not None and c2 > limit:
                yield from extensions(y)
                continue
            mask2 = mask | 1 << y
            tables2 = []
            for j in levels:
                table = level1[y - last:] if j == 1 else tables[j - 1][:]
                if j < top:
                    above = tables[j]
                    for s, k in feed[j][y]:
                        table[s] += above[k]
                else:
                    for s, bits in feed[j][y]:
                        table[s] += (bits & mask2).bit_count()
                tables2.append(table)
            frames[-1][4] = y + 1
            frames.append([y, c2, mask2, tables2, y + 1])
            break
        else:
            frames.pop()
    if limit is None:
        yield {k: v for k, v in enumerate(hist) if v}


def spectrum(g: Hypergraph, m: int) -> Spectrum:
    """Exact induced-size histogram over all C(n, m) subsets of size m."""
    if not 0 <= m <= g.n:
        raise ValueError(f"subset order must lie in [0, {g.n}], got {m}")
    return Spectrum(m, next(_scan(g.edges, g.n, g.r, m)))


def overfull_subsets(g: Hypergraph, m: int) -> Iterator[tuple[int, ...]]:
    """Every m-vertex subset inducing more than m edges, in lexicographic
    order and generated lazily; the kernel charges the C(n, m) subsets it
    scans when the first one is asked for."""
    if m < 0:
        raise ValueError(f"subset order must be >= 0, got {m}")
    return _scan(g.edges, g.n, g.r, m, m)


def is_sparse(g: Hypergraph, m: int) -> bool:
    """True iff every m-vertex subset induces at most m edges, read from the
    first of overfull_subsets; the scan stops there."""
    return next(overfull_subsets(g, m), None) is None


def graph_arrows(g: Hypergraph, m: int, f: int) -> bool:
    """True iff some m-subset of g induces exactly f edges."""
    if not 0 <= m <= g.n:
        raise ValueError(f"subset order must lie in [0, {g.n}], got {m}")
    if not 0 <= f <= binomial(m, g.r):
        raise ValueError(f"size must lie in [0, C({m},{g.r})], got {f}")
    return f in next(_scan(g.edges, g.n, g.r, m))


def serialize(g: Hypergraph) -> str:
    """Canonical text form: header line 'r n', then one edge per line."""
    line = " ".join(["%d"] * g.r) + "\n"
    return f"{g.r} {g.n}\n" + "".join(map(line.__mod__, sorted(g.edges)))


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
        try:
            vs = tuple(int(p) for p in line.split())
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
        if error := _edge_error(vs, r, n):
            raise ParseError(lineno, error)
        if vs in edges:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        edges.add(vs)
    if r is None or n is None:
        raise ParseError(1, "missing header line 'r n'")
    return _unchecked(r, n, frozenset(edges))
