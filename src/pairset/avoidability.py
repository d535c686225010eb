"""Realizability witnesses, gap detection, absolute-avoidability certificates,
and the positive-density candidate sweep.

Two realization shapes are checked throughout.  A pair (m, f) is

* clique-plus-bounded realizable if some graph with m vertices and f edges
  is the vertex disjoint union of a complete graph on x vertices and a graph
  with at most m edges on the remaining m - x vertices;
* complement-type realizable if some such graph is a complete graph on x
  vertices with at most m edges removed, plus isolated vertices.

Both reduce to exact integer window checks over x in [0, m], including the
vertex-capacity constraint on where the residual edges can live.  The loops
keep each x's exact values; an AbsenceProof renders them as its failures
only when they are first read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .combinatorics import PairQuery, binomial, binomial_decompose
from .errors import charge_steps

KIND_CLIQUE_PLUS = "clique-plus-bounded"
KIND_COMPLEMENT = "complement-type"

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class CheckedInequality:
    """One exact comparison together with the truth value it certifies."""

    label: str
    lhs: int
    op: str
    rhs: int
    expected: bool = True

    def verify(self) -> bool:
        return _OPS[self.op](self.lhs, self.rhs) == self.expected

    def render(self) -> str:
        status = "holds" if self.expected else "fails"
        return f"{self.label}: {self.lhs} {self.op} {self.rhs} [{status}]"


@dataclass(frozen=True)
class RealizabilityWitness:
    kind: str
    x: int
    h: int


@dataclass(frozen=True)
class AbsenceProof:
    """Per-x refutation: for every clique order some constraint fails.

    steps holds each x's exact residual h and capacity C(m - x, r), which is
    None unless 0 <= h <= limit and always None for the complement-type shape;
    failures renders them as CheckedInequality entries on first read."""

    kind: str
    pair: PairQuery
    limit: int
    steps: tuple[tuple[int, int | None], ...]

    @cached_property
    def failures(self) -> tuple[CheckedInequality, ...]:
        r, m, limit = self.pair.r, self.pair.m, self.limit
        plus = self.kind == KIND_CLIQUE_PLUS
        out = []
        for x, (h, room) in enumerate(self.steps):
            if h < 0:
                what = f"residual f - C(x,{r})" if plus else f"removed count C(x,{r}) - f"
                out.append(CheckedInequality(f"x={x}: {what}", h, ">=", 0, expected=False))
            elif h > limit:
                what = "residual edge budget" if plus else "removal budget"
                out.append(CheckedInequality(f"x={x}: {what}", h, "<=", limit, expected=False))
            else:
                what = f"residual capacity on {m - x} vertices"
                out.append(CheckedInequality(f"x={x}: {what}", h, "<=", room, expected=False))
        return tuple(out)


class BelowThresholdError(ValueError):
    """The near-half certificate's inequality chain breaks at this order."""

    def __init__(self, m: int, r: int, failing: CheckedInequality):
        super().__init__(
            f"m={m} is below the effective threshold for r={r}; first failing "
            f"inequality: {failing.label} needs {failing.lhs} {failing.op} {failing.rhs}"
        )
        self.failing = failing


def clique_plus_witness(
    m: int, f: int, r: int, *, strict: bool = False
) -> RealizabilityWitness | AbsenceProof:
    """Witness (largest valid clique order) or a full per-x refutation for
    the clique-plus-bounded shape.

    With strict=True the residual edge budget is m - 1 instead of m,
    matching the open-window variant of the realization condition.
    """
    pair = PairQuery(r, m, f)
    limit = m - 1 if strict else m
    witness_x = None
    steps = []
    for x in range(m + 1):
        h = f - binomial(x, r)
        room = binomial(m - x, r) if 0 <= h <= limit else None
        if room is not None and h <= room:
            witness_x = x
        steps.append((h, room))
    if witness_x is not None:
        return RealizabilityWitness(KIND_CLIQUE_PLUS, witness_x, f - binomial(witness_x, r))
    return AbsenceProof(KIND_CLIQUE_PLUS, pair, limit, tuple(steps))


def clique_minus_witness(
    m: int, f: int, r: int, *, strict: bool = False
) -> RealizabilityWitness | AbsenceProof:
    """Witness or refutation for the complement-type shape: a clique on x
    vertices minus at most m edges, plus isolated vertices."""
    pair = PairQuery(r, m, f)
    limit = m - 1 if strict else m
    witness_x = None
    steps = []
    for x in range(m + 1):
        h = binomial(x, r) - f
        if 0 <= h <= limit:
            witness_x = x
        steps.append((h, None))
    if witness_x is not None:
        return RealizabilityWitness(KIND_COMPLEMENT, witness_x, binomial(witness_x, r) - f)
    return AbsenceProof(KIND_COMPLEMENT, pair, limit, tuple(steps))


def clique_surplus_gap(m: int, f: int, r: int) -> int | None:
    """The unique k with C(k, r) + m < f < C(k+1, r), if one exists.

    Such a gap precludes any clique-plus-bounded realization: the clique
    would have to be larger than k yet smaller than k + 1.
    """
    PairQuery(r, m, f)
    x, rem = binomial_decompose(f, r)
    if rem > m:  # equivalently C(x,r) + m < f, and f < C(x+1,r) by decomposition
        return x
    return None


def clique_deficit_gap(m: int, f: int, r: int) -> int | None:
    """The unique k with C(k-1, r) < f < C(k, r) - m, if one exists.

    Such a gap precludes any complement-type realization with isolated
    vertices."""
    PairQuery(r, m, f)
    x, rem = binomial_decompose(f, r)
    k = x + 1
    if rem > 0 and f < binomial(k, r) - m:
        return k
    return None


@dataclass(frozen=True)
class AvoidabilityCertificate:
    """Proof object: neither (m, f) nor its complement pair admits a
    clique-plus-bounded realization, hence (m, f) is absolutely avoidable
    for all sufficiently large host orders (no explicit threshold is
    computed)."""

    pair: PairQuery
    case: str  # "both" | "gap-at-f" | "gap-at-complement" | "no-gap", or near-half "1" | "1'" | "2"
    k_f: int | None
    k_fbar: int | None
    inequality_trace: tuple[CheckedInequality, ...]
    absence_f: AbsenceProof | None = None
    absence_fbar: AbsenceProof | None = None

    def verify_trace(self) -> bool:
        entries = list(self.inequality_trace)
        for absence in (self.absence_f, self.absence_fbar):
            if absence is not None:
                entries.extend(absence.failures)
        return all(c.verify() for c in entries)


def _gap_checks(m: int, f: int, r: int, k: int, tag: str) -> tuple[CheckedInequality, ...]:
    return (
        CheckedInequality(f"{tag}: C({k},{r}) + m < f", binomial(k, r) + m, "<", f),
        CheckedInequality(f"{tag}: f < C({k + 1},{r})", f, "<", binomial(k + 1, r)),
    )


def absolutely_avoidable(m: int, f: int, r: int) -> AvoidabilityCertificate | None:
    """Certificate that (m, f) is absolutely avoidable, or None.

    Succeeds exactly when both (m, f) and (m, C(m,r) - f) fail the
    clique-plus-bounded realizability check; the certificate stores both
    refutations and, where available, the gap clique orders.
    """
    # two witness loops and two gap searches of m + 1 steps, charged before PairQuery's C(m, r)
    charge_steps(4 * (m + 1), m, r, f"certifying ({m},{f}) over {m + 1} clique orders")
    pair = PairQuery(r, m, f)
    fbar = pair.max_size - f
    wa = clique_plus_witness(m, f, r)
    wb = clique_plus_witness(m, fbar, r)
    if isinstance(wa, RealizabilityWitness) or isinstance(wb, RealizabilityWitness):
        return None
    k_f = clique_surplus_gap(m, f, r)
    k_fbar = clique_surplus_gap(m, fbar, r)
    if k_f is not None and k_fbar is not None:
        case = "both"
    elif k_f is not None:
        case = "gap-at-f"
    elif k_fbar is not None:
        case = "gap-at-complement"
    else:
        case = "no-gap"
    trace: list[CheckedInequality] = []
    if k_f is not None:
        trace.extend(_gap_checks(m, f, r, k_f, "f"))
    if k_fbar is not None:
        trace.extend(_gap_checks(m, fbar, r, k_fbar, "complement"))
    return AvoidabilityCertificate(
        pair, case, k_f, k_fbar, tuple(trace), absence_f=wa, absence_fbar=wb
    )


def near_half_avoidable_pair(m: int, r: int) -> AvoidabilityCertificate:
    """Certify that either (m, floor(C(m,r)/2)) or that size shifted down by
    m + 1 is absolutely avoidable, validating every inequality the case
    analysis relies on with exact arithmetic.  The certificate's case is the
    branch taken, "1", "1'" or "2", and it holds both gap orders k_f, k_fbar.
    Case 1' needs C(m, r) = 2 C(x + 1, r) - 1, and no m <= 20,000 at r = 3 nor
    m < 3,000 at r = 4..8 reaches it; the argument still needs it for every m.

    Raises BelowThresholdError (listing the first failing inequality) when m
    is too small for the argument to go through.
    """
    if r < 3:
        raise ValueError(f"uniformity must be >= 3, got {r}")
    if m < r:
        raise ValueError(f"order must be >= uniformity, got m={m} < r={r}")
    # binomial_decompose(f0, r) stops below x = m, at most m steps
    charge_steps(m, m, r, f"the clique order below half of C({m},{r})")
    total = binomial(m, r)
    f0 = total // 2
    c0 = total - f0  # ceil(total / 2)
    f_minus = f0 - (m + 1)
    f_plus = c0 + (m + 1)
    x, _ = binomial_decompose(f0, r)
    trace = [
        CheckedInequality(f"decomposition: C({x},{r}) <= floor(C(m,{r})/2)", binomial(x, r), "<=", f0),
        CheckedInequality(f"decomposition: floor < C({x + 1},{r})", f0, "<", binomial(x + 1, r)),
    ]

    def require(check: CheckedInequality) -> None:
        if not check.verify():
            raise BelowThresholdError(m, r, check)
        trace.append(check)

    require(
        CheckedInequality(f"headroom: C({x - 1},{r - 1}) > 2m + 2", binomial(x - 1, r - 1), ">", 2 * m + 2)
    )
    if binomial(x, r) + m < f0:
        if c0 < binomial(x + 1, r):
            # case 1: both halves sit in the same clique gap at k = x
            require(CheckedInequality("case 1: C(x,r) + m < floor", binomial(x, r) + m, "<", f0))
            require(CheckedInequality("case 1: ceil < C(x+1,r)", c0, "<", binomial(x + 1, r)))
            f_cert, case, k_f, k_fbar = f0, "1", x, x
        else:
            # case 1': the ceiling lands exactly on C(x+1,r); shift by m + 1
            require(CheckedInequality("case 1': C(x,r) + m < f-", binomial(x, r) + m, "<", f_minus))
            require(CheckedInequality("case 1': f- < C(x+1,r)", f_minus, "<", binomial(x + 1, r)))
            require(
                CheckedInequality("case 1': C(x+1,r) + m < f+", binomial(x + 1, r) + m, "<", f_plus)
            )
            require(CheckedInequality("case 1': f+ < C(x+2,r)", f_plus, "<", binomial(x + 2, r)))
            f_cert, case, k_f, k_fbar = f_minus, "1'", x, x + 1
    else:
        # case 2: the floor sits within m of C(x,r); shift by m + 1
        require(CheckedInequality("case 2: f- >= 0", f_minus, ">=", 0))
        require(CheckedInequality("case 2: C(x-1,r) + m < f-", binomial(x - 1, r) + m, "<", f_minus))
        require(CheckedInequality("case 2: f- < C(x,r)", f_minus, "<", binomial(x, r)))
        require(CheckedInequality("case 2: C(x,r) + m < f+", binomial(x, r) + m, "<", f_plus))
        require(CheckedInequality("case 2: f+ < C(x+1,r)", f_plus, "<", binomial(x + 1, r)))
        f_cert, case, k_f, k_fbar = f_minus, "2", x - 1, x
    return AvoidabilityCertificate(PairQuery(r, m, f_cert), case, k_f, k_fbar, tuple(trace))


def _missing_realization(
    m: int, f: int, r: int, *, strict: bool = False, total: int | None = None
) -> str | None:
    """Which of the four realizability checks (both shapes, for f and for its
    complement, in that order) is the first to find no witness, or None when
    all four find one.  total is C(m, r), computed here when not given."""
    fbar = (binomial(m, r) if total is None else total) - f
    if not isinstance(clique_plus_witness(m, f, r, strict=strict), RealizabilityWitness):
        return "no clique-plus-bounded realization of f"
    if not isinstance(clique_plus_witness(m, fbar, r, strict=strict), RealizabilityWitness):
        return "no clique-plus-bounded realization of the complement size"
    if not isinstance(clique_minus_witness(m, f, r, strict=strict), RealizabilityWitness):
        return "no complement-type realization of f"
    if not isinstance(clique_minus_witness(m, fbar, r, strict=strict), RealizabilityWitness):
        return "no complement-type realization of the complement size"
    return None


def positive_density_candidates(m: int, r: int, *, strict: bool = False) -> set[int]:
    """All sizes 0 < f < C(m, r) that pass all four realizability checks
    and therefore cannot be ruled density-zero by the realizability
    machinery."""
    if m <= r:
        raise ValueError(f"order must exceed uniformity, got m={m}, r={r}")
    total = binomial(m, r)
    # at most four witness loops of m + 1 steps for each of the sizes
    charge_steps(4 * (m + 1) * total, m, r, f"candidate sweep over C({m},{r}) sizes at order {m}")
    return {
        f
        for f in range(1, total)
        if _missing_realization(m, f, r, strict=strict, total=total) is None
    }


def certificate_document(cert: AvoidabilityCertificate) -> dict:
    """Stable dictionary form of a certificate: {pair, checks, conclusion, trace}."""
    checks = [
        _check_doc(absence, target)
        for target, absence in (("f", cert.absence_f), ("complement", cert.absence_fbar))
        if absence is not None
    ]
    return {
        "pair": {"r": cert.pair.r, "m": cert.pair.m, "f": cert.pair.f},
        "checks": checks,
        "conclusion": "absolutely-avoidable",
        "case": cert.case,
        "k_f": cert.k_f,
        "k_fbar": cert.k_fbar,
        "trace": [_check_dict(c) for c in cert.inequality_trace],
    }


def _check_dict(c: CheckedInequality) -> dict:
    return {"label": c.label, "lhs": c.lhs, "op": c.op, "rhs": c.rhs, "expected": c.expected}


def _check_doc(w: RealizabilityWitness | AbsenceProof, target: str) -> dict:
    """One realizability check's document entry: its witness, or every failure."""
    if isinstance(w, RealizabilityWitness):
        return {"kind": w.kind, "target": target, "outcome": "witness", "x": w.x, "h": w.h}
    failures = [_check_dict(c) for c in w.failures]
    return {"kind": w.kind, "target": target, "outcome": "absent", "failures": failures}
