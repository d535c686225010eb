import json

import pytest

from pairset.cli import main
from pairset.hypergraph import parse


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


def test_oracle_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "oracle", "arrows",
        "--n", "9", "--e", "3", "--r", "3", "--m", "6", "--f", "2", "--budget", "10",
    )
    assert code == 2
    assert "budget refusal" in err


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


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "avoid", "--r", "3", "--m", "6")[0] == 1
    code, _, err = run(capsys, "avoid", "--r", "3", "--m", "2", "--f", "0")
    assert code == 1
    assert "error" in err


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
