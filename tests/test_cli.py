import doctest
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from pairset import cli
from pairset.cli import main
from pairset.hypergraph import complete, parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_lines(capsys):
    code, out, _ = run(capsys, "classify", "--r", "3", "--m-max", "15")
    assert code == 0
    lines = out.strip().split("\n")
    assert "m=6: {10}" in lines
    assert "m=7: {}" in lines
    assert lines[-1] == "m=15: {}"


def test_theorem_main_text(capsys):
    code, out, _ = run(capsys, "theorem-main", "--r", "3", "--m", "12")
    assert code == 0
    assert out.startswith("certified: (12,110), case 1\n")


def test_theorem_main_below_threshold(capsys):
    code, _, err = run(capsys, "theorem-main", "--r", "3", "--m", "5")
    assert code == 1
    assert "below the effective threshold" in err


def test_avoid_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "avoid", "--r", "3", "--m", "12", "--f", "110")
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "absolutely-avoidable"
    assert doc["pair"] == {"r": 3, "m": 12, "f": 110}
    assert doc["k_f"] == 9
    assert {c["kind"] for c in doc["checks"]} == {"clique-plus-bounded"}


def test_avoid_negative(capsys):
    code, out, _ = run(capsys, "avoid", "--r", "3", "--m", "6", "--f", "10")
    assert code == 0
    assert "not absolutely avoidable" in out


def test_bounds_modes(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "3", "--m", "6", "--f", "10")
    assert code == 0
    assert "5/9" in out
    code, out, _ = run(capsys, "bounds", "--r", "3", "--m", "6")
    assert code == 0
    assert "7/9" in out and "13/25" in out
    code, out, _ = run(capsys, "--format", "json", "bounds", "--r", "3", "--m", "4", "--bracket")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == {"p": 5, "q": 9}
    assert doc["upper"] == {"p": 2, "q": 3}


def test_oracle_sizes(capsys):
    code, out, _ = run(capsys, "oracle", "sizes", "--n", "5", "--r", "3", "--m", "4", "--f", "4")
    assert code == 0
    assert "non-arrowing sizes: {0, 1, 2, 3, 4, 5, 6, 7}" in out
    assert "arrowing sizes: {8, 9, 10}" in out


def test_oracle_arrows_with_counterexample(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "oracle", "arrows",
        "--n", "5", "--e", "7", "--r", "3", "--m", "4", "--f", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["arrows"] is False
    cex = parse(doc["counterexample"])
    assert (cex.n, cex.edge_count) == (5, 7)


def test_oracle_arrows_deep_e(capsys):
    # all 1,140 triples, and the 1,140 graphs one triple short of them: the
    # walk keeps its 1,138 fixed ranks on a list, not on the call stack
    for e, examined in ((1140, 1), (1139, 1140)):
        code, out, _ = run(
            capsys, "--format", "json", "oracle", "arrows",
            "--n", "20", "--e", str(e), "--r", "3", "--m", "0", "--f", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["arrows"], doc["graphs_examined"]) == (True, examined)


def test_oracle_arrows_wide_rsets(capsys):
    # C(1000, 999) = 1,000 r-sets of 999 vertices each; enumerating them
    # takes no recursion depth
    code, out, _ = run(
        capsys, "oracle", "arrows", "--n", "1000", "--e", "1", "--r", "999", "--m", "1000", "--f", "0",
    )
    assert code == 0
    assert "arrows: false\ngraphs_examined: 1\n" in out


def test_oracle_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "oracle", "arrows",
        "--n", "9", "--e", "3", "--r", "3", "--m", "6", "--f", "2", "--budget", "10",
    )
    assert code == 2
    assert "budget refusal" in err


def test_small_oracle_refusals_state_the_exact_cost(capsys):
    # C(C(6, 3), 10) C(6, 3) = 184,756 x 20 is below 2^1024, so the refusal
    # states it in full, not its lower bound 2^13, and names the budget to ask for
    code, out, err = run(
        capsys, "oracle", "arrows",
        "--n", "6", "--e", "10", "--r", "3", "--m", "3", "--f", "1", "--budget", "1000",
    )
    assert (code, out) == (2, "")
    assert err == ("budget refusal: pair_arrows (raise the budget with --budget) "
                   "needs 3695120 units of work, above the budget of 1000\n")
    # 2^C(5, 3) C(5, 4) = 1024 x 5 for the sweep over all sizes
    code, out, err = run(capsys, "oracle", "sizes", "--n", "5", "--r", "3", "--m", "4", "--f", "4", "--budget", "100")
    assert (code, out) == (2, "")
    assert err == ("budget refusal: sweeping all sizes (raise the budget with --budget) "
                   "needs 5120 units of work, above the budget of 100\n")


def test_construct_turan_refuses_at_once(tmp_path, capsys):
    # without --out the graph would go to stdout; the sparse case passes its
    # sampling and check charges, and its repair pass over 2,176 sampled
    # edges times C(42, 3) m-sets each is what refuses.  The rest cost more
    # than 4,300 digits, or take longer to compute than to refuse (2^C(n, 3)
    # for n = 100000; C(C(2000, 3), 3 million); C(10^6, 5 * 10^5), seconds of
    # math.comb), and are stated as powers of two.  The last two would need
    # C(300000, 150000) for the size check and the sweep's cost; the sweep's
    # exponent is stated as 2^(2^k), as its decimal digits are too many to print.
    # An e = 2^3001 lies below the lower bound 2^binomial_bits(10^1000, 3000) on
    # C(10^1000, 3000), whose computation takes seconds; turan_graph's edges are
    # charged on C(p, r) * (n // p)^r, p = min(l, n), before turan_count loops
    # r times over its p parts;
    # the certify loops are charged on their steps, m + 1 per clique order, before
    # PairQuery computes C(m, r) to check f (seconds at m = 10^1000, r = 3000);
    # oracle sizes states a lower bound with too many bits for 1 << bits capped;
    # a blow-up charges its last level's 2^(3 (depth - 1) floor(log2 copies))
    # edges before its closed form computes copies^(2 depth); a certify step
    # costs (1 + b // 64)^2 units for b = binomial_bits(m, r), so a large r
    # refuses on its binomials' size; and the kernel charges n / 16 units for
    # the n-entry table each (m - 1)-prefix copies, so the C(1500, 1498) copies
    # of m = 1499 refuse, as does m = n = 40000, whose tables would fill 13 GB;
    # it also charges the (m - 1) n entries of the level-1 tables it holds at
    # once, so m = n = 4000 (about 130 MB of tables) refuses.  Any lower bound
    # over the cap refuses, so turan_count never runs over 10^6 or 10^7 parts
    big, wide = str(10**1000), str(2**3001)
    empty = tmp_path / "empty.hg"
    empty.write_text("3 20000\n")
    huge = tmp_path / "huge.hg"
    huge.write_text("3 1000000\n")
    near = tmp_path / "near.hg"
    near.write_text("3 1500\n")
    full = tmp_path / "full.hg"
    full.write_text("3 40000\n")
    held = tmp_path / "held.hg"
    held.write_text("3 4000\n")
    for argv in (
        ("construct", "turan", "--n", "100000", "--l", "3", "--r", "3"),
        ("construct", "sparse", "--n", "45", "--r", "3", "--m", "6", "--constant", "4"),
        ("oracle", "arrows", "--n", "200", "--e", "5000", "--r", "3", "--m", "4", "--f", "0"),
        ("oracle", "sizes", "--n", "2000", "--r", "3", "--m", "4", "--f", "0"),
        ("spectrum", "--in", str(empty), "--m", "10000"),
        ("oracle", "sizes", "--n", "100000", "--r", "3", "--m", "4", "--f", "0"),
        ("oracle", "arrows", "--n", "2000", "--e", "3000000", "--r", "3", "--m", "4", "--f", "0"),
        ("spectrum", "--in", str(huge), "--m", "500000"),
        ("construct", "sparse", "--n", "1000000", "--r", "500000", "--m", "500001"),
        ("oracle", "arrows", "--n", "300000", "--e", "1", "--r", "150000", "--m", "4", "--f", "0"),
        ("oracle", "arrows", "--n", "300000", "--e", "1", "--r", "150000", "--m", "300000", "--f", "0"),
        ("oracle", "sizes", "--n", "300000", "--r", "150000", "--m", "300000", "--f", "0"),
        ("oracle", "arrows", "--n", big, "--e", wide, "--r", "3000", "--m", "3000", "--f", "0"),
        ("construct", "turan", "--n", "100000", "--l", "100000", "--r", "3000"),
        ("construct", "turan", "--n", "200000", "--l", "200000", "--r", "100000"),
        ("avoid", "--r", "3", "--m", str(10**8), "--f", "5"),
        ("theorem-main", "--r", "3", "--m", str(10**8)),
        ("bounds", "--r", "3", "--m", str(10**8), "--f", "5"),
        ("oracle", "sizes", "--n", str(10**30), "--r", str(5 * 10**29), "--m", "4", "--f", "0"),
        ("construct", "blowup", "--depth", "3000000"),
        ("construct", "blowup", "--base", "tight-5-cycle", "--depth", "1000000"),
        ("avoid", "--r", "3000", "--m", big, "--f", "5"),
        ("bounds", "--r", "3000", "--m", big, "--f", "5"),
        ("avoid", "--r", "3000", "--m", "6000", "--f", "5"),
        ("theorem-main", "--r", "5000", "--m", "10000"),
        ("avoid", "--r", "100000", "--m", "200000", "--f", "5"),
        ("theorem-main", "--r", "100000", "--m", "200000"),
        ("spectrum", "--in", str(near), "--m", "1499"),
        ("spectrum", "--in", str(full), "--m", "40000"),
        ("spectrum", "--in", str(held), "--m", "4000"),
        ("construct", "turan", "--n", str(10**7), "--l", str(10**7), "--r", "3"),
        ("construct", "turan", "--n", str(10**6), "--l", str(10**6), "--r", "3"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("budget refusal:")


def test_construct_turan_with_fewer_parts_than_r_writes_the_empty_graph(capsys):
    # two parts hold no 2000-set, so there is nothing to charge or refuse
    code, out, _ = run(capsys, "construct", "turan", "--n", "10", "--l", "2", "--r", "2000")
    assert (code, parse(out).edge_count) == (0, 0)


def test_construct_turan_with_more_parts_than_vertices_writes_the_complete_graph(capsys):
    # ten million parts of ten vertices: ten parts of one vertex, and no loop
    # over the empty ones
    started = time.perf_counter()
    code, out, _ = run(capsys, "construct", "turan", "--n", "10", "--l", str(10**7), "--r", "3")
    assert time.perf_counter() - started < 1.0
    assert (code, parse(out)) == (0, complete(10, 3))
    started = time.perf_counter()
    code, out, err = run(capsys, "construct", "turan", "--n", "10", "--l", "0", "--r", "3")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    assert "l >= 1" in err


def test_oracle_blowup_verify(capsys):
    code, out, _ = run(capsys, "--format", "json", "oracle", "blowup-verify", "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_six_subset_edges"] == 8
    assert doc["density"] == {"p": 5, "q": 14}
    assert doc["low_interval"] == [0, 30]


def test_construct_and_spectrum(tmp_path, capsys):
    path = tmp_path / "g.hg"
    code, out, err = run(
        capsys, "construct", "blowup", "--depth", "2", "--out", str(path)
    )
    assert code == 0
    g = parse(path.read_text())
    assert (g.n, g.edge_count) == (9, 30)
    code, out, _ = run(capsys, "--format", "json", "spectrum", "--in", str(path), "--m", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["8"] > 0
    assert max(int(k) for k in doc["counts"]) == 8


def test_construct_sparse_logs_to_stderr(tmp_path, capsys):
    path = tmp_path / "s.hg"
    code, _, err = run(
        capsys, "construct", "sparse",
        "--n", "20", "--r", "3", "--m", "6", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    log = json.loads(err)
    assert log["final_edges"] == parse(path.read_text()).edge_count
    # graph file itself carries no log lines
    assert path.read_text().startswith("3 20\n")


def test_construct_realize(tmp_path, capsys):
    path = tmp_path / "r.hg"
    code, _, _ = run(
        capsys, "construct", "realize",
        "--n", "12", "--e", "35", "--r", "3", "--m", "6", "--out", str(path),
    )
    assert code == 0
    g = parse(path.read_text())
    assert (g.n, g.edge_count) == (12, 35)


def test_realize_wide_rsets_answers_at_once(tmp_path, capsys):
    # 2e < 2^min(r, n - r) <= C(n, r) places e below half without computing
    # C(300000, 150000), which takes seconds of math.comb
    path = tmp_path / "w.hg"
    argv = ("construct", "realize", "--n", "300000", "--e", "1", "--r", "150000",
            "--m", "150000", "--out", str(path))
    started = time.perf_counter()
    code, _, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    header, edge = path.read_text().splitlines()
    assert header == "150000 300000"
    assert edge.split() == [str(v) for v in range(150000)]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv, "--kind", "complement-sparse")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    assert "is below (1 - 1/2) * C(300000,150000)" in err
    # 2e < 2^binomial_bits(10^1000, 3000) <= C(10^1000, 3000) also without
    # computing C(n, r); the sparse part's sampling charge then refuses
    argv = ("construct", "realize", "--n", str(10**1000), "--e", str(2**3001), "--r", "3000",
            "--m", "3000", "--out", str(path))
    for kind, code, message in (("clique-plus-sparse", 2, "budget refusal: sampling C("),
                                ("complement-sparse", 1, "is below (1 - 1/2) * C(")):
        started = time.perf_counter()
        got, out, err = run(capsys, *argv, "--kind", kind)
        assert time.perf_counter() - started < 1.0
        assert (got, out) == (code, "")
        assert message in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "avoid", "--r", "3", "--m", "6")[0] == 1
    assert run(capsys, "bounds", "--r", "3", "--m", "6", "--f", "10", "--bracket")[0] == 1
    code, _, err = run(capsys, "construct", "sparse", "--n", "12", "--r", "3", "--m", "5", "--constant", "1/0")
    assert code == 1
    assert err.startswith("usage error:")
    code, _, err = run(capsys, "avoid", "--r", "3", "--m", "2", "--f", "0")
    assert code == 1
    assert "error" in err
    # oracle sizes checks its arguments before it charges or builds anything
    sizes = {
        ("--n", "20", "--r", "3", "--m", "25", "--f", "0"): "subset order must lie in [0, 20], got 25",
        ("--n", "12", "--r", "3", "--m", "13", "--f", "0"): "subset order must lie in [0, 12], got 13",
        ("--n", "5", "--r", "3", "--m", "-1", "--f", "0"): "subset order must lie in [0, 5], got -1",
        ("--n", "6", "--r", "4", "--m", "5", "--f", "99"): "size must lie in [0, C(5,4)], got 99",
    }
    for argv, message in sizes.items():
        assert run(capsys, "oracle", "sizes", *argv) == (1, "", f"error: {message}\n")
    # a negative budget is a usage error, not a refusal
    query = ("--n", "5", "--e", "3", "--r", "3", "--m", "4", "--f", "1")
    for argv in (("arrows", *query), ("sizes", *query[:2], *query[4:])):
        assert run(capsys, "oracle", *argv, "--budget", "-5") == (1, "", "error: budget must be >= 0, got -5\n")


def test_parser_reused_after_usage_errors(capsys):
    # main builds its parser once per process; a usage error must leave
    # nothing behind that changes the next call
    calls = [
        ("nonsense",),
        ("--format", "json", "bounds", "--r", "3", "--m", "6", "--f", "10"),
        ("oracle", "arrows", "--n", "5", "--e", "7", "--r", "3", "--m", "4"),
        ("oracle", "arrows", "--n", "5", "--e", "7", "--r", "3", "--m", "4", "--f", "4"),
        ("construct", "realize", "--kind", "bogus", "--n", "9", "--e", "0", "--r", "3", "--m", "5"),
        ("classify", "--r", "three", "--m-max", "8"),
        ("classify", "--r", "3", "--m-max", "8", "--strict"),
        ("--format", "json", "avoid", "--r", "3", "--m", "12", "--f", "110"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [1, 0, 1, 0, 1, 1, 0, 0]
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert cli._parser() is cli._parser()


def test_byte_identical_reruns(capsys):
    first = run(capsys, "--format", "json", "classify", "--r", "3", "--m-max", "10")
    second = run(capsys, "--format", "json", "classify", "--r", "3", "--m-max", "10")
    assert first == second
    a = run(capsys, "--format", "json", "construct", "sparse",
            "--n", "18", "--r", "3", "--m", "5", "--seed", "9")
    b = run(capsys, "--format", "json", "construct", "sparse",
            "--n", "18", "--r", "3", "--m", "5", "--seed", "9")
    assert a == b


def test_jobs_flag_validated(capsys):
    # --jobs and --dedup are gone; both are rejected as usage errors
    code, out, err = run(capsys, "--jobs", "2", "classify", "--r", "3", "--m-max", "6")
    assert (code, out) == (1, "")
    assert err.startswith("usage error")
    code, out, err = run(
        capsys, "oracle", "arrows",
        "--n", "5", "--e", "4", "--r", "3", "--m", "4", "--f", "2", "--dedup",
    )
    assert (code, out) == (1, "")
    assert err.startswith("usage error")


PINNED_TEXT = {
    "avoid": (
        ("avoid", "--r", "3", "--m", "12", "--f", "110"),
        "pair: r=3 m=12 f=110\n"
        "conclusion: absolutely avoidable\n"
        "case: both\n"
        "k_f: 9  k_fbar: 9\n"
        "trace:\n"
        "  f: C(9,3) + m < f: 96 < 110 [holds]\n"
        "  f: f < C(10,3): 110 < 120 [holds]\n"
        "  complement: C(9,3) + m < f: 96 < 110 [holds]\n"
        "  complement: f < C(10,3): 110 < 120 [holds]\n",
    ),
    "bounds": (
        ("bounds", "--r", "3", "--m", "6", "--f", "10"),
        "pair: r=3 m=6 f=10\n"
        "bound: 5/9 (≈ 0.5556)\n"
        "case: two-sided (l=3)\n"
        "justification: t(6,3) = 8 < both 10 and 10\n",
    ),
    "oracle-arrows": (
        ("oracle", "arrows", "--n", "5", "--e", "7", "--r", "3", "--m", "4", "--f", "4"),
        "query: n=5 e=7 r=3 m=4 f=4\n"
        "arrows: false\n"
        "graphs_examined: 8\n"
        "counterexample:\n"
        "3 5\n0 1 3\n0 1 4\n0 2 3\n0 2 4\n0 3 4\n1 2 3\n1 2 4\n",
    ),
    "oracle-blowup-verify": (
        ("oracle", "blowup-verify", "--depth", "2"),
        "depth: 2  n: 9  edges: 30\n"
        "density: 5/14 (≈ 0.3571)\n"
        "max edges in a 6-subset: 8\n"
        "min edges in a complement 6-subset: 12\n"
        "non-arrowing size intervals for (6,10): (0, 30) and (54, 84)\n"
        "sizes covered: 62 of 85\n"
        "note: subgraphs keep 6-set maxima, supergraphs of the complement keep 6-set minima\n",
    ),
    "spectrum": (
        ("spectrum", "--in", "{blowup2}", "--m", "6"),
        "spectrum of m=6 subsets (r=3, n=9):\n"
        "  2: 3\n"
        "  7: 54\n"
        "  8: 27\n",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TEXT))
def test_text_output_pinned(name, tmp_path, capsys):
    argv, expected = PINNED_TEXT[name]
    path = tmp_path / "blowup2.hg"
    assert run(capsys, "construct", "blowup", "--depth", "2", "--out", str(path))[0] == 0
    argv = [a.format(blowup2=path) for a in argv]
    assert run(capsys, *argv) == (0, expected, "")


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # in order, since spectrum reads the file that construct blowup writes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("pairset ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_python_block_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    assert doctest.DocTestRunner().run(test) == (0, 5)  # (failed, attempted)
