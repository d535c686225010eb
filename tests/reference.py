"""Brute-force references that the fast kernels are differentially tested
against: plain loops over the definitions, kept in this one module."""

from itertools import combinations

from pairset.avoidability import (
    KIND_CLIQUE_PLUS,
    KIND_COMPLEMENT,
    CheckedInequality,
    RealizabilityWitness,
)
from pairset.combinatorics import binomial, colex_key, partite_sizes
from pairset.hypergraph import hypergraph


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
