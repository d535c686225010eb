"""Output checks behind the failure count.

Each check re-derives an invariant of one command's output with its own
arithmetic (math.comb, itertools), never with pairset, so a wrong program
cannot vouch for itself.  A check returns None when the output holds, else
a one-line reason.  For the default seed the runner also compares stdout
with the sha256 digests recorded in digests/.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from mixes import Query

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


def check(query: Query, code: int, out: str, err: str) -> str | None:
    if code != query.code:
        return f"exit code {code}, expected {query.code}: {err.strip()[:200]}"
    try:
        return CHECKS[query.kind](query, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _arg(query: Query, flag: str) -> int:
    return int(query.argv[query.argv.index(flag) + 1])


def _fraction(doc: dict) -> Fraction:
    return Fraction(doc["p"], doc["q"])


def parse_graph(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(r, n, edges) from the pairset graph file format."""
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.startswith("#")]
    r, n = map(int, lines[0].split())
    return r, n, [tuple(map(int, ln.split())) for ln in lines[1:]]


def _graph_shape(text: str, r: int, n: int, edges: int) -> str | None:
    got_r, got_n, got = parse_graph(text)
    if (got_r, got_n) != (r, n):
        return f"header is r={got_r} n={got_n}, expected r={r} n={n}"
    if len(got) != edges:
        return f"{len(got)} edges written, expected {edges}"
    if len(set(got)) != len(got) or any(len(e) != r or list(e) != sorted(set(e)) or e[-1] >= n for e in got):
        return "an edge is repeated, out of range or not strictly increasing"
    return None


def _inequalities(entries: list[dict]) -> str | None:
    for c in entries:
        if OPS[c["op"]](c["lhs"], c["rhs"]) != c["expected"]:
            return f"inequality does not hold as recorded: {c}"
    return None


def _certificate(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    if (doc["pair"]["r"], doc["pair"]["m"]) != (_arg(q, "--r"), _arg(q, "--m")):
        return f"certificate is for {doc['pair']}"
    entries = list(doc["trace"])
    for c in doc["checks"]:
        entries.extend(c.get("failures", []))
    return _inequalities(entries)


def _bound(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    if doc["pair"] != {"r": _arg(q, "--r"), "m": _arg(q, "--m"), "f": _arg(q, "--f")}:
        return f"bound is for {doc['pair']}"
    if not 0 <= _fraction(doc["bound"]) <= 1:
        return f"bound {doc['bound']} outside [0, 1]"
    return None


def _table(q: Query, out: str, err: str) -> str | None:
    rows = json.loads(out)["rows"]
    if not rows or not all(0 <= _fraction(row["bound"]) < 1 for row in rows):
        return "bound table is empty or has a bound outside [0, 1)"
    return None


def _bracket(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    if not 0 <= _fraction(doc["lower"]) <= _fraction(doc["upper"]) <= 1:
        return f"bracket {doc['lower']}..{doc['upper']} is not ordered inside [0, 1]"
    return None


def _classify(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    r, m_max = _arg(q, "--r"), _arg(q, "--m-max")
    if [row["m"] for row in doc["rows"]] != list(range(r + 1, m_max + 1)):
        return "rows do not cover every order from r+1 to m-max"
    if doc["survivors"] != [[row["m"], f] for row in doc["rows"] for f in row["candidates"]]:
        return "survivors differ from the rows"
    for row in doc["rows"]:
        total = comb(row["m"], r)
        cands = set(row["candidates"])
        if any(not 0 < f < total or total - f not in cands for f in cands):
            return f"candidates at m={row['m']} leave (0, C(m,r)) or are not complement-closed"
    return None


def _spectrum(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    r, n, m, edges = (q.facts[k] for k in ("r", "n", "m", "edges"))
    counts = {int(k): v for k, v in doc["counts"].items()}
    if (doc["r"], doc["n"], doc["m"]) != (r, n, m):
        return f"spectrum is for r={doc['r']} n={doc['n']} m={doc['m']}"
    if sum(counts.values()) != comb(n, m):
        return f"counts sum to {sum(counts.values())}, not C({n},{m}) = {comb(n, m)}"
    induced = sum(k * c for k, c in counts.items())
    expected = edges * comb(n - r, m - r) if m >= r else 0
    if induced != expected:
        return f"sum of k*count is {induced}, not |E|*C(n-r,m-r) = {expected}"
    return None


def _blowup_verify(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    n = 3 ** _arg(q, "--depth")
    if doc["n"] != n or doc["total_slots"] != comb(n, 3):
        return f"n={doc['n']} slots={doc['total_slots']}, expected n={n} slots={comb(n, 3)}"
    if doc["subsets_examined"] != 2 * comb(n, 6):
        return f"subsets_examined {doc['subsets_examined']} != 2*C({n},6) = {2 * comb(n, 6)}"
    if _fraction(doc["density"]) != Fraction(doc["edge_count"], comb(n, 3)):
        return f"density {doc['density']} != {doc['edge_count']}/C({n},3)"
    return None


def _sparse(q: Query, out: str, err: str) -> str | None:
    log = json.loads(err.strip().split("\n")[-1])
    if log["sampled_edges"] - log["repairs"] != log["final_edges"]:
        return f"log does not add up: {log}"
    return _graph_shape(out, q.facts["r"], q.facts["n"], log["final_edges"])


def _realize(q: Query, out: str, err: str) -> str | None:
    return _graph_shape(out, q.facts["r"], q.facts["n"], q.facts["e"])


def _turan(q: Query, out: str, err: str) -> str | None:
    n, l, r = q.facts["n"], q.facts["l"], q.facts["r"]
    size, rem = divmod(n, l)
    sizes = [size + 1] * rem + [size] * (l - rem)
    # one edge per choice of r distinct parts and one vertex in each
    edges = sum(prod(sizes[p] for p in parts) for parts in combinations(range(l), r))
    return _graph_shape(out, r, n, edges)


# copies per level and transversal copy-triples per level, per base
BLOWUP_BASES = {"single-edge-on-3-vertices": (3, 1), "tight-5-cycle": (5, 5)}


def _blowup_graph(q: Query, out: str, err: str) -> str | None:
    copies, triples = BLOWUP_BASES[q.facts["base"]]
    n, edges = 1, 0
    for _ in range(q.facts["depth"]):
        edges = copies * edges + triples * n**3
        n *= copies
    return _graph_shape(out, 3, n, edges)


def _arrows(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    n, e, r, m, f = (q.facts[k] for k in ("n", "e", "r", "m", "f"))
    if doc["query"] != {"n": n, "e": e, "r": r, "m": m, "f": f}:
        return f"verdict is for {doc['query']}"
    if doc["arrows"]:
        total = comb(comb(n, r), e)
        if doc["graphs_examined"] != total or doc["counterexample"] is not None:
            return f"arrows=true after {doc['graphs_examined']} of {total} graphs"
        return None
    shape = _graph_shape(doc["counterexample"], r, n, e)
    if shape is not None:
        return f"counterexample: {shape}"
    es = set(parse_graph(doc["counterexample"])[2])
    for s in combinations(range(n), m):
        if sum(1 for t in combinations(s, r) if t in es) == f:
            return f"counterexample induces {f} edges on {s}, so it arrows"
    return None


def _sizes(q: Query, out: str, err: str) -> str | None:
    doc = json.loads(out)
    na, ar = doc["non_arrowing"], doc["arrowing"]
    slots = comb(q.facts["n"], q.facts["r"])
    if sorted(na + ar) != list(range(slots + 1)):
        return "arrowing and non-arrowing sizes do not partition 0..C(n,r)"
    return None


def _refusal(q: Query, out: str, err: str) -> str | None:
    if out or not err.startswith("budget refusal:"):
        return f"refusal printed stdout or no refusal message: {err.strip()[:200]}"
    return None


CHECKS = {
    "certificate": _certificate,
    "bound": _bound,
    "table": _table,
    "bracket": _bracket,
    "classify": _classify,
    "spectrum": _spectrum,
    "blowup-verify": _blowup_verify,
    "sparse": _sparse,
    "realize": _realize,
    "turan": _turan,
    "blowup-graph": _blowup_graph,
    "arrows": _arrows,
    "sizes": _sizes,
    "refusal": _refusal,
}
