"""Brute-force references that the fast kernels are differentially tested
against: plain loops over the definitions, kept in this one module."""

from itertools import combinations

from pairset.combinatorics import partite_sizes
from pairset.hypergraph import hypergraph


def reference_counts(g, m):
    """Induced edge count of every m-subset, in lexicographic order.

    The plain loop over C(n, m) * C(m, r) r-set lookups: the one reference
    that the induced-count kernel behind spectrum, graph_arrows and the
    sparsity check is tested against.
    """
    return [sum(t in g.edges for t in combinations(s, g.r)) for s in combinations(range(g.n), m)]


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
