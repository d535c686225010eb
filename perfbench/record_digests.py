"""Record the sha256 of every query's stdout for the default seed.

    python3 perfbench/record_digests.py [workload ...]

Runs every query of the default-seed mix once, refuses to record if any
output fails its check, and writes perfbench/digests/<workload>.txt, one
digest per query in mix order.  Re-record only when an output is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import checks
import mixes
from run import DEFAULT_SEED, DIGEST_HEX, DIGESTS, OUT, import_pairset


def record(workload: str) -> None:
    cli = import_pairset()
    workdir = OUT / f"digests-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        lines = []
        for block in mixes.build(workload, DEFAULT_SEED, str(workdir)):
            for q in block:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(q.argv))
                problem = checks.check(q, code, out.getvalue(), err.getvalue())
                if problem is not None:
                    raise SystemExit(f"{' '.join(q.argv)}: {problem}")
                lines.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:DIGEST_HEX])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.mkdir(exist_ok=True)
    (DIGESTS / f"{workload}.txt").write_text("\n".join(lines) + "\n")
    print(f"{workload}: {len(lines)} digests")


if __name__ == "__main__":
    for w in sys.argv[1:] or mixes.WORKLOADS:
        record(w)
