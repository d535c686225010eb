"""pairset benchmark: whole CLI queries in a closed loop with one client.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One process calls ``pairset.cli.main(argv)`` in process, stdout and stderr
captured, and issues the next query only when the previous one has finished.
The mix comes from mixes.py and depends only on --workload and --seed.

--trace 0 runs whole blocks of the mix until --seconds have passed and
reports the end-to-end metrics.  --trace 1 runs the first few blocks (set
per workload in mixes.WORKLOADS) once untraced and once traced, and reports the per-layer metrics of
the traced pass; its counts repeat exactly for a seed.  Either way every
output is checked (checks.py), and for the default seed stdout must match
the digests recorded in digests/.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Results and spans are
also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

import checks
import mixes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests"
# leading hex digits of each stdout sha256 kept in digests/
DIGEST_HEX = 16

DEFAULT_SEED = 0
# Set-up is timed this many times and the median reported.  A fixed count,
# so that the memory each re-import leaves behind is the same in every run.
SETUP_REPEATS = 9

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_pairset():
    """Import pairset.cli afresh from this checkout's src, refusing any other
    copy (an installed one, or one named on PYTHONPATH)."""
    if not (SRC / "pairset" / "__init__.py").is_file():
        raise BenchError(f"no pairset sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pairset" or n.startswith("pairset.")]:
        del sys.modules[name]
    cli = importlib.import_module("pairset.cli")
    found = Path(sys.modules["pairset"].__file__).resolve()
    if found.parent != (SRC / "pairset").resolve():
        raise BenchError(f"pairset resolved to {found}, not to this checkout's {SRC / 'pairset'}")
    return cli


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload: str, seed: int, workdir: Path):
    """Import pairset and build the mix with its input files, timed."""
    t0 = perf_counter()
    cli = import_pairset()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    blocks = mixes.build(workload, seed, str(workdir))
    return perf_counter() - t0, cli, blocks


def load_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    path = DIGESTS / f"{workload}.txt"
    if not path.is_file():
        raise BenchError(f"missing stdout digests {path}; run perfbench/record_digests.py")
    return path.read_text().split()


class Loop:
    """Closed loop, one client: issue a query, wait for it, check it, repeat."""

    def __init__(self, cli, blocks, digests, tracer=None):
        self.cli, self.blocks, self.digests, self.tracer = cli, blocks, digests, tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.output_bytes = 0
        self.check_s = 0.0
        self.block_walls: list[float] = []
        self.verdicts: dict = {}
        self.outcomes: Counter = Counter()

    def run(self, *, seconds: float | None = None, n_blocks: int | None = None) -> None:
        """Whole blocks, in order, until the time or the block count is reached."""
        per_block = len(self.blocks[0])
        t0 = perf_counter()
        b = 0
        while True:
            tb, check_before = perf_counter(), self.check_s
            for pos, query in enumerate(self.blocks[b % len(self.blocks)]):
                self._one(query, (b % len(self.blocks)) * per_block + pos)
            # the benchmark's own output checks are not the program's time
            self.block_walls.append(perf_counter() - tb - (self.check_s - check_before))
            b += 1
            done = b >= n_blocks if n_blocks is not None else perf_counter() - t0 >= seconds
            if done:
                break

    def _one(self, query, index: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.current_query = len(self.latencies)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(query.argv))  # looked up per call, so a traced main is seen
        except Exception as exc:  # a crash is a failed query, not a benchmark failure
            code = None
            err.write(f"uncaught {exc!r}")
        self.latencies.append(perf_counter() - t0)
        t1 = perf_counter()
        stdout = out.getvalue()
        self.output_bytes += len(stdout.encode())
        problem = self._check(query, index, code, stdout, err.getvalue())
        if problem is not None:
            self.failures.append(f"{' '.join(query.argv)}: {problem}")
        self.check_s += perf_counter() - t1

    def _check(self, query, index, code, stdout, stderr) -> str | None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()[:DIGEST_HEX]
        key = (index, code, digest, stderr)
        if key not in self.verdicts:
            problem = checks.check(query, code, stdout, stderr)
            if problem is None and self.digests is not None and digest != self.digests[index]:
                problem = f"stdout sha256 {digest}... differs from the recorded digest"
            self.verdicts[key] = problem
            if problem is None:
                self.outcomes[outcome(query, stdout, stderr)] += 1
        return self.verdicts[key]


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, blocks = setup(workload, seed, workdir)
        setups.append(elapsed)
    digests = load_digests(workload, seed)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "pairset_file": sys.modules["pairset"].__file__,
        "git_commit": git_commit(),
        "properties": mix_properties(workload, blocks),
    }
    if not trace:
        loop = Loop(cli, blocks, digests)
        loop.run(seconds=seconds)
        metrics = {
            "setup_s": statistics.median(setups),
            "queries_per_s": len(loop.latencies) / sum(loop.block_walls),
            "latency_p50_ms": statistics.median(loop.latencies) * 1000,
            "latency_p90_ms": percentile_ms(loop.latencies, 90),
            "ok_frac": 1 - len(loop.failures) / len(loop.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        info["block_walls_s"] = loop.block_walls
    else:
        trace_blocks = mixes.WORKLOADS[workload][2]
        plain = Loop(cli, blocks, digests)
        plain.run(n_blocks=trace_blocks)
        tracer = spans.Tracer()
        loop = Loop(cli, blocks, digests, tracer)
        tracer.install()
        try:
            loop.run(n_blocks=trace_blocks)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer, loop.output_bytes, len(loop.latencies),
                                      sum(plain.block_walls), sum(loop.block_walls))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{workload}-seed{seed}.tsv.gz"))
        loop.latencies += plain.latencies
        loop.failures += plain.failures
    result = {
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info["failures"] = loop.failures[:20]
    info["outcomes"] = dict(loop.outcomes)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(info, result=result), fh, indent=1, sort_keys=True)
    for line in loop.failures[:5]:
        print(f"# FAILED {line}")
    print(f"# pairset {info['pairset_file']} commit {info['git_commit']}")
    print(f"# properties {json.dumps(info['properties'], sort_keys=True)}")
    return result


def mix_properties(workload: str, blocks) -> dict:
    """Input properties of the whole mix that the program's behaviour
    depends on; those that need outputs are tallied as outcomes by Loop."""
    argvs = [q.argv for b in blocks for q in b]
    props = {"queries_per_block": len(blocks[0]), "repeat_share": 1 - len(set(argvs)) / len(argvs)}
    if workload == "scan":
        subsets = lookups = 0
        for q in blocks[0]:
            if q.kind == "spectrum":
                n, m, r = q.facts["n"], q.facts["m"], q.facts["r"]
                subsets += comb(n, m)
                lookups += comb(n, m) * comb(m, r)
            else:  # blowup-verify scans the blow-up and its complement
                n = 3 ** int(q.argv[-1])
                subsets += 2 * comb(n, 6)
                lookups += 2 * comb(n, 6) * comb(6, 3)
        props["subsets_per_block"] = subsets
        props["lookups_per_block"] = lookups
    return props


def outcome(query, stdout: str, stderr: str) -> str:
    """What a query did, for the measured input properties: an arrows verdict
    (false means an early exit), a refusal, or whether sparse repaired."""
    if query.kind == "arrows":
        return f"arrows:{str(json.loads(stdout)['arrows']).lower()}"
    if query.kind == "sparse":
        return "sparse:repaired" if json.loads(stderr.strip().split("\n")[-1])["repairs"] else "sparse:unrepaired"
    return query.kind


def run_all(args) -> int:
    """Every workload in its own process, one table of end-to-end metrics."""
    failed = attempted = 0
    merged = {}
    for w in mixes.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().split("\n")[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            print(f"{w:<10} {name:<44} {m['value']:>14.6g} {m['unit']}")
            merged[f"{w}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*mixes.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
