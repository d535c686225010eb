"""Command-line entry point.

Exit codes: 0 = computed, 1 = domain or usage error, 2 = budget refusal.
Machine output (--format json) carries rationals as {"p": ..., "q": ...};
floating point appears only in human-readable text.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import avoidability, constructions, density, oracle
from .avoidability import CheckedInequality, RealizabilityWitness, certificate_document
from .combinatorics import binomial
from .errors import BudgetExceededError
from .hypergraph import parse as parse_graph
from .hypergraph import serialize, spectrum


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); budget refusals own that code
        raise CliUsageError(message)


# Each command handler returns the one document that --format json prints;
# its text renderer reads only that document.  The construct handlers write
# a graph file instead and return None.


def _fraction_json(x: Fraction) -> dict:
    return {"p": x.numerator, "q": x.denominator}


def _fraction_text(x: dict) -> str:
    return f"{x['p']}/{x['q']} (≈ {x['p'] / x['q']:.4f})"


def _set_text(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _pair_text(pair: dict) -> str:
    return f"pair: r={pair['r']} m={pair['m']} f={pair['f']}"


def _certificate_text(doc: dict) -> list[str]:
    return [
        f"k_f: {doc['k_f']}  k_fbar: {doc['k_fbar']}",
        "trace:",
        *(f"  {CheckedInequality(**c).render()}" for c in doc["trace"]),
    ]


def _check_doc(w, target: str) -> dict:
    if isinstance(w, RealizabilityWitness):
        return dict(asdict(w), outcome="witness", target=target)
    failures = [asdict(c) for c in w.failures]
    return {"outcome": "absent", "kind": w.kind, "target": target, "failures": failures}


def _avoid(args) -> dict:
    cert = avoidability.absolutely_avoidable(args.m, args.f, args.r)
    if cert is not None:
        return certificate_document(cert)
    fbar = binomial(args.m, args.r) - args.f
    return {
        "pair": {"r": args.r, "m": args.m, "f": args.f},
        "conclusion": "not-absolutely-avoidable",
        "checks": [
            _check_doc(avoidability.clique_plus_witness(args.m, args.f, args.r), "f"),
            _check_doc(avoidability.clique_plus_witness(args.m, fbar, args.r), "complement"),
        ],
        "trace": [],
    }


def _avoid_text(doc: dict) -> list[str]:
    if doc["conclusion"] == "absolutely-avoidable":
        return [
            _pair_text(doc["pair"]),
            "conclusion: absolutely avoidable",
            f"case: {doc['case']}",
            *_certificate_text(doc),
        ]
    lines = [_pair_text(doc["pair"]), "conclusion: not absolutely avoidable"]
    for c in doc["checks"]:
        found = "none"
        if c["outcome"] == "witness":
            found = f"{c['kind']} with clique order {c['x']} and {c['h']} extra edges"
        lines.append(f"realization ({c['target']}): {found}")
    return lines


def _theorem_main(args) -> dict:
    result = avoidability.near_half_avoidable_pair(args.m, args.r)
    doc = certificate_document(result.certificate)
    return dict(doc, case=result.case, certified_f=result.f)


def _theorem_main_text(doc: dict) -> list[str]:
    certified = f"certified: ({doc['pair']['m']},{doc['certified_f']}), case {doc['case']}"
    return [certified, _pair_text(doc["pair"]), *_certificate_text(doc)]


def _classify(args) -> dict:
    rows = []
    for m in range(args.r + 1, args.m_max + 1):
        cands = avoidability.positive_density_candidates(m, args.r, strict=args.strict)
        rows.append({"m": m, "candidates": sorted(cands)})
    survivors = [[row["m"], f] for row in rows for f in row["candidates"]]
    return {"r": args.r, "m_max": args.m_max, "rows": rows, "survivors": survivors}


def _classify_text(doc: dict) -> list[str]:
    return [f"m={row['m']}: {_set_text(row['candidates'])}" for row in doc["rows"]]


def _bounds(args) -> dict:
    if args.bracket:
        lo, hi = density.turan_density_bounds(args.m, args.r)
        return {"m": args.m, "r": args.r, "lower": _fraction_json(lo), "upper": _fraction_json(hi)}
    if args.f is not None:
        b = density.density_upper_bound(args.m, args.f, args.r)
        return {
            "pair": {"r": args.r, "m": args.m, "f": args.f},
            "bound": _fraction_json(b.bound),
            "l": b.l_used,
            "case": b.case,
            "justification": b.justification,
        }
    rows = [
        dict(asdict(row), bound=_fraction_json(row.bound))
        for row in density.density_bound_table(args.r)
    ]
    return {"r": args.r, "rows": rows}


def _bounds_text(doc: dict) -> list[str]:
    if "lower" in doc:
        return [
            f"clique Turan density bracket for m={doc['m']}, r={doc['r']}:",
            f"  lower: {_fraction_text(doc['lower'])}",
            f"  upper: {_fraction_text(doc['upper'])}",
        ]
    if "pair" in doc:
        return [
            _pair_text(doc["pair"]),
            f"bound: {_fraction_text(doc['bound'])}",
            f"case: {doc['case']} (l={doc['l']})",
            f"justification: {doc['justification']}",
        ]
    width = max(len(row["condition"]) for row in doc["rows"])
    return [f"{row['condition']:<{width}}  {_fraction_text(row['bound'])}" for row in doc["rows"]]


def _write_graph(args, g) -> None:
    text = serialize(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _turan(args) -> None:
    _write_graph(args, constructions.turan_graph(args.n, args.l, args.r))


def _blowup(args) -> None:
    spec = constructions.BlowupSpec(args.base, args.depth)
    _write_graph(args, constructions.iterated_blowup(spec))


def _sparse(args) -> None:
    config = constructions.SparseGenConfig(
        args.n, args.r, args.m, args.seed,
        target_f=args.target_f,
        density_constant=Fraction(args.constant) if args.constant else Fraction(1, 4),
    )
    g, log = constructions.random_sparse(config)
    print(json.dumps(asdict(log), sort_keys=True), file=sys.stderr)
    _write_graph(args, g)


def _realize(args) -> None:
    if args.kind == "clique-plus-sparse":
        realize = constructions.realize_clique_plus_sparse
    else:
        realize = constructions.realize_complement_sparse
    _write_graph(args, realize(args.n, args.e, args.r, args.m, seed=args.seed))


def _arrows(args) -> dict:
    verdict = oracle.pair_arrows(args.n, args.e, args.r, args.m, args.f, budget=args.budget)
    cex = verdict.counterexample
    return {
        "query": {"n": args.n, "e": args.e, "r": args.r, "m": args.m, "f": args.f},
        "arrows": verdict.arrows,
        "graphs_examined": verdict.graphs_examined,
        "counterexample": serialize(cex) if cex is not None else None,
    }


def _arrows_text(doc: dict) -> list[str]:
    lines = [
        "query: " + " ".join(f"{k}={v}" for k, v in doc["query"].items()),
        f"arrows: {'true' if doc['arrows'] else 'false'}",
        f"graphs_examined: {doc['graphs_examined']}",
    ]
    if doc["counterexample"] is not None:
        lines += ["counterexample:", *doc["counterexample"].splitlines()]
    return lines


def _sizes(args) -> dict:
    sizes = oracle.non_arrowing_sizes(args.n, args.r, args.m, args.f, budget=args.budget)
    return {
        "n": args.n,
        "r": args.r,
        "m": args.m,
        "f": args.f,
        "non_arrowing": sorted(sizes),
        "arrowing": sorted(set(range(binomial(args.n, args.r) + 1)) - sizes),
    }


def _sizes_text(doc: dict) -> list[str]:
    return [
        f"non-arrowing sizes: {_set_text(doc['non_arrowing'])}",
        f"arrowing sizes: {_set_text(doc['arrowing'])}",
    ]


def _blowup_verify(args) -> dict:
    report = oracle.verify_blowup_claims(args.depth)
    return dict(asdict(report), density=_fraction_json(report.density))


def _interval_text(interval) -> str:
    return "None" if interval is None else f"({interval[0]}, {interval[1]})"


def _blowup_verify_text(doc: dict) -> list[str]:
    low, high = _interval_text(doc["low_interval"]), _interval_text(doc["high_interval"])
    return [
        f"depth: {doc['depth']}  n: {doc['n']}  edges: {doc['edge_count']}",
        f"density: {_fraction_text(doc['density'])}",
        f"max edges in a 6-subset: {doc['max_six_subset_edges']}",
        f"min edges in a complement 6-subset: {doc['complement_min_six']}",
        f"non-arrowing size intervals for (6,10): {low} and {high}",
        f"sizes covered: {doc['covered_sizes']} of {doc['total_slots'] + 1}",
        f"note: {doc['note']}",
    ]


def _spectrum(args) -> dict:
    with open(args.infile, "r", encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    counts = spectrum(g, args.m).counts
    return {"r": g.r, "n": g.n, "m": args.m, "counts": {str(k): counts[k] for k in sorted(counts)}}


def _spectrum_text(doc: dict) -> list[str]:
    head = f"spectrum of m={doc['m']} subsets (r={doc['r']}, n={doc['n']}):"
    return [head, *(f"  {k}: {v}" for k, v in doc["counts"].items())]


def _command(sub, name, func, render, *int_flags, **kwargs):
    """A subcommand with required integer flags, run by func and rendered
    as text by render."""
    p = sub.add_parser(name, **kwargs)
    for flag in int_flags:
        p.add_argument(f"--{flag}", type=int, required=True)
    p.set_defaults(func=func, render=render)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="pairset", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "avoid", _avoid, _avoid_text, "r", "m", "f",
             help="certify a pair absolutely avoidable")
    _command(sub, "theorem-main", _theorem_main, _theorem_main_text, "r", "m",
             help="certify an avoidable pair near half the maximum size")
    p = _command(sub, "classify", _classify, _classify_text, "r", "m-max",
                 help="sweep the positive-density candidate filter")
    p.add_argument("--strict", action="store_true", help="use the open residual window")
    p = _command(sub, "bounds", _bounds, _bounds_text, "r", "m", help="density upper bounds")
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--bracket", action="store_true", help="clique Turan density bracket instead")

    p = sub.add_parser("construct", help="build a graph family member and write it out")
    fam = p.add_subparsers(dest="family", required=True)
    turan = _command(fam, "turan", _turan, None, "n", "l", "r")
    blowup = _command(fam, "blowup", _blowup, None)
    blowup.add_argument(
        "--base",
        choices=(constructions.BASE_SINGLE_EDGE, constructions.BASE_TIGHT_CYCLE),
        default=constructions.BASE_SINGLE_EDGE,
    )
    blowup.add_argument("--depth", type=int, required=True)
    sparse = _command(fam, "sparse", _sparse, None, "n", "r", "m")
    sparse.add_argument("--seed", type=int, default=0)
    sparse.add_argument("--target-f", dest="target_f", type=int, default=None)
    sparse.add_argument("--constant", help="density constant as p/q")
    realize = _command(fam, "realize", _realize, None, "n", "e", "r", "m")
    realize.add_argument("--kind", choices=("clique-plus-sparse", "complement-sparse"),
                         default="clique-plus-sparse")
    realize.add_argument("--seed", type=int, default=0)
    for q in (turan, blowup, sparse, realize):
        q.add_argument("--out")

    p = sub.add_parser("oracle", help="exhaustive arrowing decisions")
    modes = p.add_subparsers(dest="mode", required=True)
    q = _command(modes, "arrows", _arrows, _arrows_text, "n", "e", "r", "m", "f")
    q.add_argument("--budget", type=int, default=None)
    q = _command(modes, "sizes", _sizes, _sizes_text, "n", "r", "m", "f")
    q.add_argument("--budget", type=int, default=None)
    _command(modes, "blowup-verify", _blowup_verify, _blowup_verify_text, "depth")

    p = _command(sub, "spectrum", _spectrum, _spectrum_text,
                 help="induced-size histogram of a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = args.func(args)
        if doc is not None:
            lines = [json.dumps(doc, sort_keys=True)] if args.format == "json" else args.render(doc)
            sys.stdout.write("".join(f"{line}\n" for line in lines))
        return 0
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'pairset --help' for usage", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
