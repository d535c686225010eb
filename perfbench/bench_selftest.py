"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/bench_selftest.py
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import checks
import mixes
import run
import spans
from mixes import Query

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cli():
    return run.import_pairset()


def _files(workdir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


def _argvs(blocks, workdir) -> list[tuple[str, ...]]:
    return [tuple(a.replace(str(workdir), "<dir>") for a in q.argv) for b in blocks for q in b]


@pytest.mark.parametrize("workload", list(mixes.WORKLOADS))
def test_mix_is_a_function_of_the_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    same1 = mixes.build(workload, 7, str(dirs[0]))
    same2 = mixes.build(workload, 7, str(dirs[1]))
    other = mixes.build(workload, 8, str(dirs[2]))
    assert _argvs(same1, dirs[0]) == _argvs(same2, dirs[1])
    assert _files(dirs[0]) == _files(dirs[1])
    assert _argvs(same1, dirs[0]) != _argvs(other, dirs[2])
    # every block issues the same slots, so runs of any length are comparable
    kinds = [sorted((q.kind, q.argv[2], q.argv[3]) for q in block) for block in same1]
    assert all(k == kinds[0] for k in kinds)


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _json_edit(fn):
    def edit(out, err):
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc), err
    return edit


def _drop_last_edge(out, err):
    return out.rstrip("\n").rsplit("\n", 1)[0] + "\n", err


def _bump_first_count(doc):
    k = next(iter(doc["counts"]))
    doc["counts"][k] += 1


def _flip_first_failure(doc):
    entry = doc["checks"][0]["failures"][0]
    entry["expected"] = not entry["expected"]


def _arrowing_counterexample(doc):
    # the colex-first 7 triples on 5 vertices include all four triples of
    # {0,1,2,3}, so this "counterexample" has a 4-set with 4 edges
    triples = ["0 1 2", "0 1 3", "0 2 3", "1 2 3", "0 1 4", "0 2 4", "1 2 4"]
    doc["counterexample"] = "3 5\n" + "\n".join(triples) + "\n"


def _drop_complement_candidate(doc):
    row = next(r for r in doc["rows"] if r["candidates"])
    row["candidates"].pop()
    doc["survivors"] = [[r["m"], f] for r in doc["rows"] for f in r["candidates"]]


def _more_repairs(out, err):
    log = json.loads(err)
    log["repairs"] += 1
    return out, json.dumps(log) + "\n"


def _dict_step(key, delta):
    def fn(doc):
        doc[key] += delta
    return fn


def _drop_size(doc):
    doc["non_arrowing"].pop()


J = mixes.JSON
SMALL_GRAPH = "3 6\n0 1 2\n0 1 3\n1 2 4\n2 4 5\n3 4 5\n"

# (query, corruption) pairs: the true output passes, the corrupted one fails
CORRUPTIONS = [
    (Query(J + ("spectrum", "--in", "{graph}", "--m", "4"), "spectrum", facts={"r": 3, "n": 6, "m": 4, "edges": 5}),
     _json_edit(_bump_first_count)),
    (Query(J + ("oracle", "blowup-verify", "--depth", "2"), "blowup-verify"),
     _json_edit(_dict_step("subsets_examined", 1))),
    (Query(J + ("avoid", "--r", "3", "--m", "12", "--f", "110"), "certificate"), _json_edit(_flip_first_failure)),
    (Query(J + ("theorem-main", "--r", "3", "--m", "12"), "certificate"),
     _json_edit(lambda d: d["trace"][0].update(rhs=d["trace"][0]["lhs"] - 1))),
    (Query(J + ("classify", "--r", "3", "--m-max", "8"), "classify"), _json_edit(_drop_complement_candidate)),
    (Query(J + ("bounds", "--r", "3", "--m", "6", "--f", "10"), "bound"),
     _json_edit(lambda d: d["bound"].update(p=d["bound"]["q"] + 1))),
    (Query(J + ("construct", "sparse", "--n", "14", "--r", "3", "--m", "6", "--constant", "4", "--seed", "1"),
           "sparse", facts={"r": 3, "n": 14}), _more_repairs),
    (Query(J + ("construct", "sparse", "--n", "14", "--r", "3", "--m", "6", "--seed", "1"),
           "sparse", facts={"r": 3, "n": 14}), _drop_last_edge),
    (Query(J + ("construct", "realize", "--n", "24", "--e", "130", "--r", "3", "--m", "6"), "realize",
           facts={"r": 3, "n": 24, "e": 130}), _drop_last_edge),
    (Query(J + ("construct", "turan", "--n", "11", "--l", "4", "--r", "3"), "turan",
           facts={"r": 3, "n": 11, "l": 4}), _drop_last_edge),
    (Query(J + ("construct", "blowup", "--base", "tight-5-cycle", "--depth", "2"), "blowup-graph",
           facts={"base": "tight-5-cycle", "depth": 2}), _drop_last_edge),
    (Query(J + ("oracle", "arrows", "--n", "5", "--e", "7", "--r", "3", "--m", "4", "--f", "4"), "arrows",
           facts={"n": 5, "e": 7, "r": 3, "m": 4, "f": 4}), _json_edit(_arrowing_counterexample)),
    (Query(J + ("oracle", "arrows", "--n", "6", "--e", "4", "--r", "3", "--m", "4", "--f", "0"), "arrows",
           facts={"n": 6, "e": 4, "r": 3, "m": 4, "f": 0}), _json_edit(_dict_step("graphs_examined", -1))),
    (Query(J + ("oracle", "sizes", "--n", "5", "--r", "3", "--m", "4", "--f", "2"), "sizes",
           facts={"n": 5, "r": 3, "m": 4, "f": 2}), _json_edit(_drop_size)),
]


@pytest.mark.parametrize("query,corrupt", CORRUPTIONS, ids=lambda v: getattr(v, "kind", ""))
def test_check_accepts_true_output_and_rejects_corrupted(cli, tmp_path, query, corrupt):
    graph = tmp_path / "g.hg"
    graph.write_text(SMALL_GRAPH)
    query = Query(tuple(a.replace("{graph}", str(graph)) for a in query.argv), query.kind, query.code, query.facts)
    code, out, err = _run(cli, query.argv)
    assert checks.check(query, code, out, err) is None
    bad_out, bad_err = corrupt(out, err)
    assert checks.check(query, code, bad_out, bad_err) is not None


def test_refusal_check_wants_exit_2(cli):
    query = Query(J + ("oracle", "arrows", "--n", "9", "--e", "20", "--r", "3", "--m", "5", "--f", "3"),
                  "refusal", code=2)
    code, out, err = _run(cli, query.argv)
    assert code == 2 and checks.check(query, code, out, err) is None
    assert checks.check(query, 0, out, err) is not None
    assert checks.check(query, 2, '{"arrows": true}', err) is not None


def test_self_time_on_synthetic_nested_trace():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 9]
    #   4 [20, 30] with children 5 [21, 25] and 6 [24, 27] overlapping
    start = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 24.0]
    end = [10.0, 4.0, 3.0, 9.0, 30.0, 25.0, 27.0]
    parent = [-1, 0, 1, 0, -1, 4, 4]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0, 4.0, 4.0, 3.0]


def _traced(cli, argvs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outs = []
        for i, argv in enumerate(argvs):
            tracer.current_query = i
            outs.append(_run(cli, argv))
    finally:
        tracer.uninstall()
    return tracer, outs


def test_tracer_sees_calls_between_modules_and_unpatches(cli):
    tracer, [(code, out, _)] = _traced(cli, [J + ("bounds", "--r", "3", "--m", "6", "--f", "10")])
    assert code == 0
    names = {tracer.names[k] for k in tracer.name}
    # density imported the witnesses by name; the patched copies must be hit
    assert {"cli.main", "density.density_upper_bound", "avoidability.clique_plus_witness"} <= names
    assert tracer.facts["combinatorics.binomial.calls"] > 0
    import pairset.density
    assert not hasattr(pairset.density.clique_plus_witness, "__wrapped__")


def test_baseline_counts_on_the_blowup_and_sparse_kernels(cli, tmp_path):
    blowup = tmp_path / "g3.hg"
    _run(cli, ("construct", "blowup", "--depth", "3", "--out", str(blowup)))
    tracer, outs = _traced(cli, [
        J + ("spectrum", "--in", str(blowup), "--m", "6"),
        J + ("oracle", "blowup-verify", "--depth", "3"),
        J + ("construct", "sparse", "--n", "30", "--r", "3", "--m", "6", "--seed", "0"),
    ])
    assert all(code == 0 for code, _, _ in outs)
    m = spans.layer_metrics(tracer, 0, 3, 0.0, 0.0)
    assert json.loads(outs[1][1])["subsets_examined"] == 592_020
    assert m["hypergraph.spectrum.subsets"] == 296_010 + 592_020
    assert m["constructions.random_sparse.repairs"] == 0


def test_default_certify_mix_matches_recorded_counts(cli, tmp_path):
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]["certify"]["per_layer"]
    blocks = mixes.build("certify", run.DEFAULT_SEED, str(tmp_path))
    tracer, _ = _traced(cli, [q.argv for b in blocks[: mixes.WORKLOADS["certify"][2]] for q in b])
    m = spans.layer_metrics(tracer, 0, 0, 0.0, 0.0)
    counts = [name for name, unit, _ in spans.PER_LAYER if unit == "count" and not name.startswith("trace.")]
    assert {k: m[k] for k in counts} == {k: baseline[k] for k in counts}
    assert m["avoidability.witness.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(mixes.WORKLOADS)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]) for m in spec["per_layer"])


def test_refuses_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.BenchError):
        run.import_pairset()
