"""Exact avoidability and density certificates for order-size pairs in
uniform hypergraphs, with an exhaustive brute-force oracle at desk scale."""

from .avoidability import (
    AbsenceProof,
    AvoidabilityCertificate,
    BelowThresholdError,
    CheckedInequality,
    NearHalfResult,
    RealizabilityWitness,
    absolutely_avoidable,
    clique_deficit_gap,
    clique_minus_witness,
    clique_plus_witness,
    clique_surplus_gap,
    near_half_avoidable_pair,
    positive_density_candidates,
)
from .combinatorics import (
    PairQuery,
    Rational,
    binomial,
    binomial_decompose,
    falling_factorial,
    max_parts_below_half,
    partite_sizes,
    turan_count,
    turan_ratio,
)
from .constructions import (
    BASE_SINGLE_EDGE,
    BASE_TIGHT_CYCLE,
    BlowupSpec,
    SparseGenConfig,
    SparseGenLog,
    iterated_blowup,
    random_sparse,
    realize_clique_plus_sparse,
    realize_complement_sparse,
    turan_graph,
)
from .density import (
    BoundRow,
    DensityBound,
    density_bound_table,
    density_upper_bound,
    turan_density_bounds,
)
from .errors import BudgetExceededError
from .hypergraph import (
    Hypergraph,
    ParseError,
    Spectrum,
    complement,
    complete,
    disjoint_union,
    hypergraph,
    induced,
    is_sparse,
    parse,
    serialize,
    spectrum,
)
from .oracle import (
    ArrowVerdict,
    BlowupReport,
    graph_arrows,
    non_arrowing_sizes,
    pair_arrows,
    verify_blowup_claims,
)

__version__ = "0.1.0"
