"""Seeded query mixes for the four workloads.

A mix is a list of blocks.  Every block of a workload holds the same slots
(one command at one size class each), with the parameters of each slot drawn
afresh from the seed and the slots shuffled within the block.  A run that
stops at a block boundary therefore always issues the same composition of
work, whatever the seed, which keeps medians and tail percentiles comparable
between seeds.  Only argv lists and the graph files written here reach the
program; nothing in this module imports pairset.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

JSON = ("--format", "json")

# Chance that a certify pair is taken again from the pairs already drawn.
CERTIFY_REPEAT_P = 0.3

# Smallest order at which theorem-main certifies, per uniformity.
THEOREM_MIN_M = {3: 12, 4: 10, 5: 9}


@dataclass(frozen=True)
class Query:
    """One CLI call: its argv, the output check to apply, and the facts that
    check needs (expected exit code, the generated file's edge count ...)."""

    argv: tuple[str, ...]
    kind: str
    code: int = 0
    facts: dict = field(default_factory=dict, compare=False, hash=False)


def build(workload: str, seed: int, workdir: str) -> list[list[Query]]:
    """All blocks of one workload's mix; graph files go into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    builder, n_blocks, _ = WORKLOADS[workload]
    state: dict = {}
    blocks = []
    for b in range(n_blocks):
        block = builder(rng, state, workdir, b)
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# --- certify -------------------------------------------------------------

# (r, m-max) per classify slot.  Classify rows are the tail of the mix; a
# sweep's cost is set by (r, m-max) alone, so these are fixed and the seed
# draws only --strict.  The three of similar cost, (3,15) (4,14) (5,13), hold
# the 90th percentile of the block, so it sits inside one cost class.
CLASSIFY_SLOTS = ((3, 22), (3, 19), (3, 17), (3, 15), (4, 14), (5, 13), (4, 11))


def _pair(rng: random.Random) -> tuple[int, int, int]:
    """A fresh (r, m, f) with f in a clique gap, at a realizable size, or
    near half of C(m, r), in equal shares."""
    r = rng.choice((3, 4, 5))
    m = rng.randint(r + 2, 60)
    total = comb(m, r)
    case = rng.randrange(3)
    if case == 0:
        gaps = [k for k in range(r, m) if comb(k, r) + m + 1 < comb(k + 1, r)]
        if gaps:
            k = rng.choice(gaps)
            return r, m, rng.randint(comb(k, r) + m + 1, comb(k + 1, r) - 1)
    if case == 1:
        x = rng.randint(r, m)
        h = rng.randint(0, min(m, comb(m - x, r)))
        return r, m, comb(x, r) + h
    half = total // 2
    return r, m, max(0, min(total, half + rng.randint(-(m + 3), m + 3)))


def _draw_pair(rng: random.Random, state: dict) -> tuple[int, int, int]:
    seen = state.setdefault("pairs", [])
    if seen and rng.random() < CERTIFY_REPEAT_P:
        return rng.choice(seen)
    pair = _pair(rng)
    seen.append(pair)
    return pair


def _certify_block(rng, state, workdir, b) -> list[Query]:
    block = []
    for r, m_max in CLASSIFY_SLOTS:
        strict = ("--strict",) if rng.random() < 0.5 else ()
        block.append(Query(JSON + ("classify", "--r", str(r), "--m-max", str(m_max)) + strict, "classify"))
    for _ in range(10):
        r, m, f = _draw_pair(rng, state)
        block.append(Query(JSON + ("avoid", "--r", str(r), "--m", str(m), "--f", str(f)), "certificate"))
    for _ in range(10):
        r, m, f = _draw_pair(rng, state)
        block.append(Query(JSON + ("bounds", "--r", str(r), "--m", str(m), "--f", str(f)), "bound"))
    for _ in range(8):
        r = rng.choice((3, 4, 5))
        m = rng.randint(THEOREM_MIN_M[r], 60)
        block.append(Query(JSON + ("theorem-main", "--r", str(r), "--m", str(m)), "certificate"))
    for r in (3, 4):
        block.append(Query(JSON + ("bounds", "--r", str(r), "--m", str(rng.randint(r + 1, 30))), "table"))
    for _ in range(4):
        r = rng.choice((3, 4, 5))
        m = rng.randint(r + 1, 60)
        block.append(Query(JSON + ("bounds", "--r", str(r), "--m", str(m), "--bracket"), "bracket"))
    return block


# --- scan ----------------------------------------------------------------

# (r, n, m) per spectrum slot.  The work of a scan is C(n,m)*C(m,r) lookups
# whatever the density, so the seed moves the hit ratio, not the work.
SPECTRUM_SLOTS = (
    (3, 14, 6), (3, 16, 6), (3, 18, 6), (3, 19, 6), (3, 20, 6), (3, 20, 5), (3, 22, 5),
    (3, 24, 4), (3, 26, 4), (3, 30, 4),
    (4, 14, 6), (4, 16, 6), (4, 18, 6), (4, 20, 5), (4, 24, 5), (4, 26, 5), (4, 30, 4), (4, 15, 8),
    # small scans, a few milliseconds each
    (3, 12, 5), (3, 13, 6), (3, 14, 4), (3, 15, 5), (3, 16, 3),
    (4, 12, 6), (4, 13, 7), (4, 14, 5), (4, 16, 4), (4, 18, 4),
)


def random_graph_text(rng: random.Random, r: int, n: int, density: float) -> tuple[str, int]:
    """A seeded random r-graph in the pairset file format, with its edge count."""
    edges = [t for t in combinations(range(n), r) if rng.random() < density]
    lines = [f"{r} {n}"] + [" ".join(map(str, e)) for e in edges]
    return "\n".join(lines) + "\n", len(edges)


def _scan_block(rng, state, workdir, b) -> list[Query]:
    block = []
    for i, (r, n, m) in enumerate(SPECTRUM_SLOTS):
        density = rng.uniform(0.02, 0.5)
        text, edges = random_graph_text(rng, r, n, density)
        path = os.path.join(workdir, f"g{b:02d}_{i:02d}.hg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        facts = {"r": r, "n": n, "m": m, "edges": edges}
        block.append(Query(JSON + ("spectrum", "--in", path, "--m", str(m)), "spectrum", facts=facts))
    block.append(Query(JSON + ("oracle", "blowup-verify", "--depth", "3"), "blowup-verify"))
    for _ in range(6):
        block.append(Query(JSON + ("oracle", "blowup-verify", "--depth", "2"), "blowup-verify"))
    return block


# --- construct -----------------------------------------------------------

# (r, n, density constant); m = 6 throughout.  The constant 1/4 samples few
# enough edges that no repair happens; 4 forces hundreds.  The seed draws the
# generator seed, so repairs vary around the same mean in every block.
SPARSE_SLOTS = (
    (3, 14, "1/4"), (3, 16, "1"), (3, 16, "4"), (3, 18, "1/2"),
    (4, 14, "1/4"), (4, 16, "2"), (4, 14, "4"), (4, 16, "1/2"),
)


def _realize_query(rng: random.Random, kind: str) -> Query:
    """A realize call that is always feasible: the clique takes about half
    the vertices and at most ten edges are left for the sparse part."""
    n = rng.randint(26, 28)
    k = rng.randint(n // 2 - 3, n // 2)
    e = comb(k, 3) + rng.randint(1, 10)
    if kind == "complement-sparse":
        e = comb(n, 3) - e
    argv = ("construct", "realize", "--n", str(n), "--e", str(e), "--r", "3", "--m", "6",
            "--kind", kind, "--seed", str(rng.randrange(1000)))
    return Query(JSON + argv, "realize", facts={"r": 3, "n": n, "e": e})


def _construct_block(rng, state, workdir, b) -> list[Query]:
    block = []
    for r, n, constant in SPARSE_SLOTS:
        argv = ("construct", "sparse", "--n", str(n), "--r", str(r), "--m", "6",
                "--constant", constant, "--seed", str(rng.randrange(1000)))
        block.append(Query(JSON + argv, "sparse", facts={"r": r, "n": n}))
    for kind in ("clique-plus-sparse", "complement-sparse"):
        for _ in range(3):
            block.append(_realize_query(rng, kind))
    for r, n_lo, n_hi in ((3, 40, 44), (3, 54, 58), (4, 22, 24), (4, 28, 30)):
        n = rng.randint(n_lo, n_hi)
        l = rng.randint(r, 6)
        argv = ("construct", "turan", "--n", str(n), "--l", str(l), "--r", str(r))
        block.append(Query(JSON + argv, "turan", facts={"r": r, "n": n, "l": l}))
    for base, depth in (("single-edge-on-3-vertices", 3), ("single-edge-on-3-vertices", 4), ("tight-5-cycle", 2)):
        argv = ("construct", "blowup", "--base", base, "--depth", str(depth))
        block.append(Query(JSON + argv, "blowup-graph", facts={"base": base, "depth": depth}))
    return block


# --- oracle --------------------------------------------------------------

# Arrows queries that enumerate every graph: with f = 0 and e*C(n-3,m-3) <
# C(n,m) every graph has an edgeless m-set, so the verdict is true and all
# C(C(n,3),e) graphs are examined.  (n, e, m choices) per slot: four heavy
# slots (27,720 graphs), a sixth of the block, so that the 90th percentile
# falls inside them rather than on the edge of a cost class; two light ones.
ENUMERATE_SLOTS = ((8, 3, (4, 5)),) * 4 + ((7, 3, (4, 5)), (9, 2, (4, 5)))

# (n, r, e range, m choices) per arrows slot whose verdict the seed decides;
# most find a counterexample early.
ARROWS_SLOTS = (
    (5, 3, (2, 8), (3, 4)), (5, 3, (2, 8), (3, 4)), (5, 3, (2, 8), (4,)), (5, 3, (3, 7), (4,)),
    (6, 3, (2, 4), (4, 5)), (6, 3, (3, 4), (4, 5)), (6, 3, (4, 5), (5,)),
    (7, 3, (2, 3), (4, 5, 6)),
    (6, 4, (3, 5), (5,)), (6, 4, (4, 6), (5,)),
)


def _arrows_query(n: int, e: int, r: int, m: int, f: int, *extra: str, code: int = 0) -> Query:
    argv = ("oracle", "arrows", "--n", str(n), "--e", str(e), "--r", str(r), "--m", str(m), "--f", str(f))
    return Query(JSON + argv + extra, "refusal" if code == 2 else "arrows", code,
                 facts={"n": n, "e": e, "r": r, "m": m, "f": f})


def _oracle_block(rng, state, workdir, b) -> list[Query]:
    block = []
    for n, e, ms in ENUMERATE_SLOTS:
        block.append(_arrows_query(n, e, 3, rng.choice(ms), 0))
    for n, r, (e_lo, e_hi), ms in ARROWS_SLOTS:
        m = rng.choice(ms)
        block.append(_arrows_query(n, rng.randint(e_lo, e_hi), r, m, rng.randint(0, comb(m, r))))
    for n, r in ((5, 3), (6, 4), (5, 4)):
        m = rng.randint(r + 1, n)
        f = rng.randint(0, comb(m, r))
        argv = ("oracle", "sizes", "--n", str(n), "--r", str(r), "--m", str(m), "--f", str(f))
        block.append(Query(JSON + argv, "sizes", facts={"n": n, "r": r, "m": m, "f": f}))
    # refusals: far over the default budget, and just over an explicit one
    for _ in range(3):
        n = rng.randint(9, 12)
        e = rng.randint(10, comb(n, 3) // 2)
        m = rng.randint(4, 6)
        block.append(_arrows_query(n, e, 3, m, rng.randint(0, comb(m, 3)), code=2))
    for _ in range(2):
        n, e, m = 6, rng.randint(3, 6), 4
        cost = comb(comb(n, 3), e) * comb(n, m)
        block.append(_arrows_query(n, e, 3, m, rng.randint(0, 4), "--budget", str(cost - 1), code=2))
    return block


# name: (block builder, blocks in the mix, blocks in the traced run).  At
# the parent commit a whole mix takes longer than one measured run, so an
# untraced run does not re-issue a block; the traced run takes a few seconds.
WORKLOADS = {
    "certify": (_certify_block, 20, 3),
    "scan": (_scan_block, 8, 1),
    "construct": (_construct_block, 28, 3),
    "oracle": (_oracle_block, 160, 12),
}
