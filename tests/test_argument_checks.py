"""Every argument check of the public API that no other test reaches: each row
calls one entry point with one argument out of its domain and expects that
check's own exception and message, not a later failure or a quiet answer."""

import re

import pytest

from pairset.avoidability import near_half_avoidable_pair, positive_density_candidates
from pairset.combinatorics import binomial_decompose, falling_factorial
from pairset.constructions import realize_clique_plus_sparse
from pairset.density import stable_part_threshold
from pairset.hypergraph import Hypergraph, ParseError, graph_arrows, hypergraph, overfull_subsets, parse
from pairset.oracle import pair_arrows

EMPTY4 = hypergraph(3, 4, [])  # edgeless, r = 3, n = 4


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: Hypergraph(1, 3, frozenset()), ValueError, "uniformity must be >= 2, got 1"),
        (lambda: Hypergraph(3, -1, frozenset()), ValueError, "vertex count must be >= 0, got -1"),
        (lambda: overfull_subsets(EMPTY4, -1), ValueError, "subset order must be >= 0, got -1"),
        (lambda: graph_arrows(EMPTY4, 5, 0), ValueError, "subset order must lie in [0, 4], got 5"),
        (lambda: graph_arrows(EMPTY4, 4, 5), ValueError, "size must lie in [0, C(4,3)], got 5"),
        (lambda: parse("1 3\n"), ParseError, "need r >= 2 and n >= 0, got r=1, n=3"),
        (lambda: parse("3 -1\n"), ParseError, "need r >= 2 and n >= 0, got r=3, n=-1"),
        (lambda: pair_arrows(3, 0, 1, 0, 0), ValueError, "need r >= 2 and n >= 0, got (n=3, r=1)"),
        (lambda: pair_arrows(-1, 0, 3, 0, 0), ValueError, "need r >= 2 and n >= 0, got (n=-1, r=3)"),
        (lambda: pair_arrows(4, 5, 3, 3, 0), ValueError, "edge count must lie in [0, C(4,3)]"),
        (lambda: pair_arrows(4, -1, 3, 3, 0), ValueError, "edge count must lie in [0, C(4,3)]"),
        (lambda: realize_clique_plus_sparse(10, 5, 3, 2), ValueError, "need m >= r >= 2, got m=2, r=3"),
        (lambda: realize_clique_plus_sparse(10, -1, 3, 4), ValueError, "edge count must be >= 0, got -1"),
        (lambda: falling_factorial(-1, 2), ValueError, "falling_factorial requires non-negative arguments"),
        (lambda: binomial_decompose(-1, 3), ValueError, "binomial_decompose requires f >= 0"),
        (lambda: near_half_avoidable_pair(2, 3), ValueError, "order must be >= uniformity, got m=2 < r=3"),
        (lambda: positive_density_candidates(3, 3), ValueError, "order must exceed uniformity, got m=3, r=3"),
        (lambda: stable_part_threshold(3, 6), ValueError, "no stable threshold for l=6 below the horizon"),
    ],
)
def test_argument_check_refuses(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
