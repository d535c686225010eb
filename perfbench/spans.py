"""Spans around the calls into pairset's layers, for the traced run.

A layer is one pairset module.  Every public function of a layer is wrapped
in a span (name, start, end, parent span, query id) except generators, which
are not spanned, and ``binomial`` and ``colex_key``, which run millions of
times per sweep and are only counted.  ``cli`` is spanned at ``main`` alone,
so its self time is argument parsing and rendering.  The wrapper replaces the
function in every pairset namespace that holds it (``cli.spectrum``,
``density.clique_plus_witness`` ...), so calls between modules are seen too.

Spans are kept in memory in flat arrays and written out when the run ends.
A few facts are read from arguments and results at the same boundaries
(subsets scanned, repairs, graphs examined ...), so that ratios are measured
where the work happens.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

LAYERS = ("combinatorics", "hypergraph", "constructions", "avoidability", "density", "oracle", "cli")
COUNTED = {"combinatorics.binomial", "combinatorics.colex_key"}
# the scan kernel behind is_sparse and the realize post-check
PRIVATE_SPANNED = {"hypergraph._first_violation"}
SPARSITY_SCANS = ("hypergraph.is_sparse", "hypergraph._first_violation")

NO_PARENT = -1
OK, FAILED, REFUSED = 0, 1, 2

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [(f"{layer}.{kind}", unit, "lower") for layer in LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))] + [
    ("avoidability.witness.calls", "count", "lower"),
    ("avoidability.witness.hit_ratio", "ratio", "higher"),
    ("avoidability.candidates.per_order", "count", "lower"),
    ("density.upper_bound.calls", "count", "lower"),
    ("density.zero_certificate_ratio", "ratio", "higher"),
    ("combinatorics.turan_count.calls", "count", "lower"),
    ("combinatorics.binomial_decompose.calls", "count", "lower"),
    ("combinatorics.binomial.calls", "count", "lower"),
    ("combinatorics.colex_key.calls", "count", "lower"),
    ("hypergraph.spectrum.self_s", "s", "lower"),
    ("hypergraph.spectrum.subsets", "count", "lower"),
    ("hypergraph.spectrum.lookups", "count", "lower"),
    ("hypergraph.spectrum.hit_ratio", "ratio", "higher"),
    ("hypergraph.parse.self_s", "s", "lower"),
    ("hypergraph.parse.bytes", "bytes", "lower"),
    ("hypergraph.is_sparse.self_s", "s", "lower"),
    ("hypergraph.complement.rsets", "count", "lower"),
    ("hypergraph.serialize.bytes", "bytes", "lower"),
    ("constructions.random_sparse.self_s", "s", "lower"),
    ("constructions.random_sparse.repairs", "count", "lower"),
    ("constructions.random_sparse.sampled_edges", "count", "lower"),
    ("constructions.random_sparse.keep_ratio", "ratio", "higher"),
    ("constructions.realize.retries", "count", "lower"),
    ("constructions.turan_graph.rsets", "count", "lower"),
    ("constructions.iterated_blowup.self_s", "s", "lower"),
    ("oracle.pair_arrows.self_s", "s", "lower"),
    ("oracle.pair_arrows.graphs_examined", "count", "lower"),
    ("oracle.pair_arrows.graphs_total", "count", "lower"),
    ("oracle.pair_arrows.examined_ratio", "ratio", "lower"),
    ("oracle.budget.used_ratio", "ratio", "lower"),
    ("oracle.refusals", "count", "lower"),
    ("oracle.verify_blowup.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.queries", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span store plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.status = array("b")
        self.stack: list[int] = []
        self.current_query = -1
        self.facts: Counter = Counter()
        self.originals: dict = {}
        self._patched: list = []

    # --- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.query.append(self.current_query)
        self.status.append(OK)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, status: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.status[i] = status

    def _spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        facts = self.facts

        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i, REFUSED if type(exc).__name__ == "BudgetExceededError" else FAILED)
                raise
            self._close(i, OK)
            if observe is not None:
                observe(self, facts, lambda: _bound(sig, args, kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        facts = self.facts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            facts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every pairset namespace holding it."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"pairset.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                public = attr == "main" if layer == "cli" else not attr.startswith("_")
                if not (public or name in PRIVATE_SPANNED):
                    continue
                self.originals[name] = fn
                make = self._counted if name in COUNTED else self._spanned
                wrappers[id(fn)] = (fn, make(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "pairset" and not modname.startswith("pairset."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # --- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tquery\tstatus\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.query[i]}\t{self.status[i]}\n")


def _bound(sig, args, kwargs) -> dict:
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


# --- facts read at span boundaries -------------------------------------


def _witness(tr, facts, args, result):
    facts["avoidability.witness.hits"] += type(result).__name__ == "RealizabilityWitness"


def _candidates(tr, facts, args, result):
    facts["avoidability.candidates"] += len(result)


def _upper_bound(tr, facts, args, result):
    facts["density.zero_certificates"] += result.case == "zero-certificate"


def _spectrum(tr, facts, args, result):
    a = args()
    g, m = a["g"], a["m"]
    facts["hypergraph.spectrum.subsets"] += comb(g.n, m)
    facts["hypergraph.spectrum.lookups"] += comb(g.n, m) * comb(m, g.r) if m >= g.r else 0
    facts["hypergraph.spectrum.hits"] += sum(k * c for k, c in result.counts.items())


def _parse(tr, facts, args, result):
    facts["hypergraph.parse.bytes"] += len(args()["text"].encode())


def _complement(tr, facts, args, result):
    facts["hypergraph.complement.rsets"] += comb(result.n, result.r)


def _serialize(tr, facts, args, result):
    facts["hypergraph.serialize.bytes"] += len(result.encode())


def _random_sparse(tr, facts, args, result):
    log = result[1]
    facts["constructions.random_sparse.repairs"] += log.repairs
    facts["constructions.random_sparse.sampled_edges"] += log.sampled_edges
    facts["constructions.random_sparse.final_edges"] += log.final_edges


def _turan_graph(tr, facts, args, result):
    facts["constructions.turan_graph.rsets"] += comb(result.n, result.r)


def _pair_arrows(tr, facts, args, result):
    a = args()
    n, e, r, m = a["n"], a["e"], a["r"], a["m"]
    total = comb(comb(n, r), e)
    facts["oracle.pair_arrows.graphs_examined"] += result.graphs_examined
    facts["oracle.pair_arrows.graphs_total"] += total
    # the same charge pair_arrows checks against its budget before it starts
    facts["oracle.budget.charged"] += total * max(1, comb(n, m))
    facts["oracle.budget.allowed"] += tr.originals["oracle.resolve_budget"](a["budget"])


OBSERVERS = {
    "avoidability.clique_plus_witness": _witness,
    "avoidability.clique_minus_witness": _witness,
    "avoidability.positive_density_candidates": _candidates,
    "density.density_upper_bound": _upper_bound,
    "hypergraph.spectrum": _spectrum,
    "hypergraph.parse": _parse,
    "hypergraph.complement": _complement,
    "hypergraph.serialize": _serialize,
    "constructions.random_sparse": _random_sparse,
    "constructions.turan_graph": _turan_graph,
    "oracle.pair_arrows": _pair_arrows,
}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the workload never reaches the layer."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, output_bytes: int, queries: int, untraced_wall: float, wall: float) -> dict:
    """Every PER_LAYER metric as {name: value}."""
    names = [tr.names[k] for k in tr.name]
    selfs = self_times(tr.start, tr.end, tr.parent)
    calls, self_s, errors = Counter(), defaultdict(float), Counter()
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += selfs[i]
        errors[name] += tr.status[i] != OK
    f = tr.facts
    out: dict = {}
    for layer in LAYERS:
        mine = [n for n in calls if n.startswith(layer + ".")]
        counted = sum(v for k, v in f.items() if k.startswith(layer + ".") and k[:-6] in COUNTED)
        out[f"{layer}.calls"] = sum(calls[n] for n in mine) + counted
        out[f"{layer}.self_s"] = sum(self_s[n] for n in mine)
        out[f"{layer}.errors"] = sum(errors[n] for n in mine)
    witness = calls["avoidability.clique_plus_witness"] + calls["avoidability.clique_minus_witness"]
    out["avoidability.witness.calls"] = witness
    out["avoidability.witness.hit_ratio"] = _ratio(f["avoidability.witness.hits"], witness)
    out["avoidability.candidates.per_order"] = _ratio(
        f["avoidability.candidates"], calls["avoidability.positive_density_candidates"])
    out["density.upper_bound.calls"] = calls["density.density_upper_bound"]
    out["density.zero_certificate_ratio"] = _ratio(f["density.zero_certificates"], calls["density.density_upper_bound"])
    for fn in ("turan_count", "binomial_decompose"):
        out[f"combinatorics.{fn}.calls"] = calls[f"combinatorics.{fn}"]
    for fn in ("binomial", "colex_key"):
        out[f"combinatorics.{fn}.calls"] = f[f"combinatorics.{fn}.calls"]
    out["hypergraph.spectrum.self_s"] = self_s["hypergraph.spectrum"]
    for k in ("subsets", "lookups"):
        out[f"hypergraph.spectrum.{k}"] = f[f"hypergraph.spectrum.{k}"]
    out["hypergraph.spectrum.hit_ratio"] = _ratio(f["hypergraph.spectrum.hits"], f["hypergraph.spectrum.lookups"])
    out["hypergraph.parse.self_s"] = self_s["hypergraph.parse"]
    out["hypergraph.parse.bytes"] = f["hypergraph.parse.bytes"]
    out["hypergraph.is_sparse.self_s"] = sum(self_s[n] for n in SPARSITY_SCANS)
    out["hypergraph.complement.rsets"] = f["hypergraph.complement.rsets"]
    out["hypergraph.serialize.bytes"] = f["hypergraph.serialize.bytes"]
    out["constructions.random_sparse.self_s"] = self_s["constructions.random_sparse"]
    for k in ("repairs", "sampled_edges"):
        out[f"constructions.random_sparse.{k}"] = f[f"constructions.random_sparse.{k}"]
    out["constructions.random_sparse.keep_ratio"] = _ratio(
        f["constructions.random_sparse.final_edges"], f["constructions.random_sparse.sampled_edges"])
    out["constructions.realize.retries"] = _realize_retries(tr, names)
    out["constructions.turan_graph.rsets"] = f["constructions.turan_graph.rsets"]
    out["constructions.iterated_blowup.self_s"] = self_s["constructions.iterated_blowup"]
    out["oracle.pair_arrows.self_s"] = self_s["oracle.pair_arrows"]
    for k in ("graphs_examined", "graphs_total"):
        out[f"oracle.pair_arrows.{k}"] = f[f"oracle.pair_arrows.{k}"]
    out["oracle.pair_arrows.examined_ratio"] = _ratio(
        f["oracle.pair_arrows.graphs_examined"], f["oracle.pair_arrows.graphs_total"])
    out["oracle.budget.used_ratio"] = _ratio(f["oracle.budget.charged"], f["oracle.budget.allowed"])
    out["oracle.refusals"] = _refusals(tr, names)
    out["oracle.verify_blowup.self_s"] = self_s["oracle.verify_blowup_claims"]
    out["cli.output_bytes"] = output_bytes
    out["trace.queries"] = queries
    out["trace.spans"] = len(names)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    return out


def _realize_retries(tr: Tracer, names: list[str]) -> int:
    """Density-constant escalations: sparse runs beyond the first per realize."""
    runs = Counter(tr.parent[i] for i, n in enumerate(names) if n == "constructions.random_sparse")
    return sum(max(0, c - 1) for p, c in runs.items()
               if p != NO_PARENT and names[p] == "constructions.realize_clique_plus_sparse")


def _refusals(tr: Tracer, names: list[str]) -> int:
    """Budget refusals leaving the oracle layer (counted once per query)."""
    return sum(1 for i, n in enumerate(names)
               if n.startswith("oracle.") and tr.status[i] == REFUSED
               and (tr.parent[i] == NO_PARENT or not names[tr.parent[i]].startswith("oracle.")))
