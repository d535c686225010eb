"""Brute-force references that the fast kernels are differentially tested
against: plain loops over the definitions, kept in this one module."""

from itertools import combinations

from pairset.avoidability import (
    KIND_CLIQUE_PLUS,
    KIND_COMPLEMENT,
    CheckedInequality,
    RealizabilityWitness,
)
from pairset.combinatorics import binomial, colex_key, partite_sizes, subsets_colex
from pairset.hypergraph import Hypergraph, hypergraph


def reference_counts(g, m):
    """Induced edge count of every m-subset, in lexicographic order.

    The plain loop over C(n, m) * C(m, r) r-set lookups: the one reference
    that the induced-count kernel behind spectrum, graph_arrows and the
    sparsity check is tested against.
    """
    return [sum(t in g.edges for t in combinations(s, g.r)) for s in combinations(range(g.n), m)]


def reference_repair(sample, n, r, m):
    """(edges, repairs) after one repair pass over a colex-ordered sample.

    For each sampled edge still present at its turn (the anchor), every
    m-set through it, in the lexicographic order of the m - r vertices that
    extend the anchor, loses its lowest-colex edge until it holds at most m:
    C(n - r, m - r) m-sets per anchor and C(m, r) lookups in each.  The
    reference for random_sparse, which visits only the over-full m-sets.
    """
    edges = set(sample)
    repairs = 0
    for anchor in sample:
        if anchor not in edges:
            continue
        inside_anchor = set(anchor)
        others = [v for v in range(n) if v not in inside_anchor]
        for ext in combinations(others, m - r):
            s = tuple(sorted(anchor + ext))
            inside = [t for t in combinations(s, r) if t in edges]
            while len(inside) > m:
                victim = min(inside, key=colex_key)
                edges.remove(victim)
                inside.remove(victim)
                repairs += 1
    return edges, repairs


def reference_serialize(g):
    """The text form of g built line by line with str: the reference for
    serialize, which formats each edge with one format string per r."""
    lines = [f"{g.r} {g.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(g.edges))
    return "\n".join(lines) + "\n"


def colex(n, k):
    """The k-subsets of range(n) in colex order, by sorting reversed tuples."""
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def reference_arrows(n, e, r, m, f):
    """(arrows, counterexample, graphs_examined) for (n, e) -> (m, f).

    Every e-edge graph in colex order of its edge ranks, each tested with
    reference_counts: the first graph with no m-subset inducing f edges is
    the counterexample, and graphs_examined counts up to and including it.
    """
    rsets = colex(n, r)
    examined = 0
    for ranks in colex(len(rsets), e):
        examined += 1
        g = hypergraph(r, n, (rsets[i] for i in ranks))
        if f not in reference_counts(g, m):
            return False, g, examined
    return True, None, examined


def reference_walk_tables(n, r, m):
    """The r-sets of range(n) in colex order, and for each m-subset the
    bitmask of the colex ranks of its r-sets: the tables of reference_walk."""
    rsets = list(subsets_colex(n, r))
    rank = {s: i for i, s in enumerate(rsets)}
    masks = []
    for s in combinations(range(n), m):
        word = 0
        for t in combinations(s, r):
            word |= 1 << rank[t]
        masks.append(word)
    return rsets, masks


def reference_walk(n, e, r, m, f):
    """(arrows, counterexample, graphs_examined) from the unpruned prefix walk.

    pair_arrows' walk before it skipped subtrees below decided m-sets, kept
    line for line without the budget: every prefix of k - 1 fixed ranks is
    visited, and each reads every m-subset's mask.  Fast enough to compare
    against on hundreds of thousands of graphs, where reference_arrows,
    one Hypergraph per graph, is not.
    """
    slots = binomial(n, r)
    if e in (0, slots):  # one graph; each m-subset induces none or all of its r-sets
        if f == (binomial(m, r) if e else 0):
            return True, None, 1
        edges = frozenset(combinations(range(n), r)) if e else frozenset()
        return False, Hypergraph(r, n, edges), 1
    flip = 2 * e > slots
    k, g = (slots - e, binomial(m, r) - f) if flip else (e, f)
    rsets, masks = reference_walk_tables(n, r, m)
    examined = 0
    prefix = []  # the fixed ranks, largest first
    fixed = 0  # their bitmask
    y = slots - 1 if flip else k - 1  # next rank to fix; the j-th largest of k is at least k - j
    while True:
        depth = len(prefix)
        if depth < k - 1:
            if k - 1 - depth <= y < (prefix[-1] if prefix else slots):
                fixed |= 1 << y
                prefix.append(y)
                y = y - 1 if flip else k - 2 - depth
                continue
        else:
            hi = prefix[-1] if prefix else slots
            miss = (1 << hi) - 1
            for word in masks:
                count = (word & fixed).bit_count()
                if count == g:
                    miss &= word
                elif count == g - 1:
                    miss &= ~word
                if not miss:
                    break
            if miss:  # the leaves run from rank 0 up, or under flip from hi - 1 down
                i = miss.bit_length() - 1 if flip else (miss & -miss).bit_length() - 1
                chosen = {i, *prefix}  # the edges, or under flip the non-edges
                cex = hypergraph(r, n, (t for j, t in enumerate(rsets) if (j in chosen) != flip))
                return False, cex, examined + (hi - i if flip else i + 1)
            examined += hi
        if not prefix:
            return True, None, examined
        y = prefix.pop()
        fixed ^= 1 << y
        y += -1 if flip else 1


def reference_turan_edges(n, l, r):
    """The r-sets of range(n) that meet r distinct balanced parts: the
    filter over all C(n, r) r-sets that turan_graph and turan_count are
    tested against."""
    part_of = []
    for i, s in enumerate(partite_sizes(n, l)):
        part_of.extend([i] * s)
    return {t for t in combinations(range(n), r) if len({part_of[v] for v in t}) == r}


def reference_witness(kind, m, f, r, strict):
    """The witness (largest valid clique order), or the tuple of every x's
    failing CheckedInequality, for kind KIND_CLIQUE_PLUS or KIND_COMPLEMENT.

    The eager per-x loops, which build every failure as they meet it: the
    reference for clique_plus_witness and clique_minus_witness, whose
    refutations keep raw values and render the failures on first read.
    """
    limit = m - 1 if strict else m
    witness_x = None
    failures = []
    if kind == KIND_CLIQUE_PLUS:
        for x in range(m + 1):
            h = f - binomial(x, r)
            if h < 0:
                failures.append(
                    CheckedInequality(f"x={x}: residual f - C(x,{r})", h, ">=", 0, expected=False)
                )
                continue
            if h > limit:
                failures.append(
                    CheckedInequality(f"x={x}: residual edge budget", h, "<=", limit, expected=False)
                )
                continue
            room = binomial(m - x, r)
            if h > room:
                failures.append(
                    CheckedInequality(
                        f"x={x}: residual capacity on {m - x} vertices", h, "<=", room, expected=False
                    )
                )
                continue
            witness_x = x
        if witness_x is not None:
            return RealizabilityWitness(KIND_CLIQUE_PLUS, witness_x, f - binomial(witness_x, r))
        return tuple(failures)
    for x in range(m + 1):
        h = binomial(x, r) - f
        if h < 0:
            failures.append(
                CheckedInequality(f"x={x}: removed count C(x,{r}) - f", h, ">=", 0, expected=False)
            )
            continue
        if h > limit:
            failures.append(
                CheckedInequality(f"x={x}: removal budget", h, "<=", limit, expected=False)
            )
            continue
        witness_x = x
    if witness_x is not None:
        return RealizabilityWitness(KIND_COMPLEMENT, witness_x, binomial(witness_x, r) - f)
    return tuple(failures)
