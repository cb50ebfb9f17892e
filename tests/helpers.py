"""Shared generators and oracles for the test suite.

Everything is seeded through an explicit random.Random so failures replay.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import plc
from plc import (
    MCM,
    Atom,
    ClassifierFn,
    Dec,
    PointedMCM,
    QuasiMDM,
    Signature,
    Top,
    all_states,
    mcm_to_mdm,
    validate_mdm,
)
from plc.syntax import And, BoxF, BoxI, Not

VALS = ("0", "1")
ATOM_POOL = ("p", "q", "r")


CHILD_MEMORY = 512 * 2**20  # bytes of address space for a capped CLI child


def doubled(f0, n):
    """f_{k+1} = f_k & ~~f_k: a formula DAG of 3n + |f0| nodes whose tree has
    2^n copies of f0."""
    f = f0
    for _ in range(n):
        f = And(f, Not(Not(f)))
    return f


def run_cli_capped(*argv: str, timeout: float = 60.0) -> tuple[subprocess.CompletedProcess, float]:
    """Run `python -m plc.cli` in a child whose address space is capped at
    CHILD_MEMORY, so a table that is not checked before it is allocated ends
    in a MemoryError there rather than in this process.  Returns the
    finished process and the child's CPU seconds."""

    def cap() -> None:  # runs in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    src = str(Path(plc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "-m", "plc.cli", *argv],
        env=env,
        preexec_fn=cap,
        timeout=timeout,
        capture_output=True,
        text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return done, cpu


def random_signature(rng: random.Random, max_atoms: int = 3) -> Signature:
    return Signature(ATOM_POOL[: rng.randint(1, max_atoms)], VALS)


def random_mcm(
    rng: random.Random,
    sig: Signature | None = None,
    max_states: int | None = None,
    max_functions: int = 4,
) -> MCM:
    sig = sig or random_signature(rng)
    cube = all_states(sig)
    ns = rng.randint(1, max_states or len(cube))
    states = rng.sample(cube, min(ns, len(cube)))
    seen: set[tuple] = set()
    fns: list[ClassifierFn] = []
    want = rng.randint(1, max_functions)
    for _ in range(40):
        if len(fns) >= want:
            break
        row = tuple(rng.choice(sig.values) for _ in states)
        if row in seen:
            continue
        seen.add(row)
        fns.append(ClassifierFn(f"f{len(fns)}", dict(zip(states, row))))
    return MCM(sig, states, fns)


def random_pointed(rng: random.Random, m: MCM) -> PointedMCM:
    return PointedMCM(m, rng.choice(m.states), rng.choice(m.functions))


def random_redundant_mdm(rng: random.Random, max_dups: int = 2) -> QuasiMDM:
    """A valid decision model with duplicated worlds, rows, or columns, so the
    collapse back to a classifier model has real work to do."""
    m = random_mcm(rng, max_functions=3)
    base = mcm_to_mdm(m)
    worlds = list(base.worlds)
    val = dict(base.valuation)
    rel_i = [set(b) for b in base.rel_i]
    rel_f = [set(b) for b in base.rel_f]
    counter = itertools.count()

    def block_index(blocks, w):
        for i, b in enumerate(blocks):
            if w in b:
                return i
        raise AssertionError

    for _ in range(rng.randint(0, max_dups)):
        kind = rng.choice(("cell", "row", "column"))
        if kind == "cell":
            w = rng.choice(worlds)
            nw = ("dup", next(counter))
            worlds.append(nw)
            val[nw] = val[w]
            rel_i[block_index(rel_i, w)].add(nw)
            rel_f[block_index(rel_f, w)].add(nw)
        elif kind == "row":
            bi = rng.randrange(len(rel_i))
            clones = {}
            for w in sorted(rel_i[bi], key=repr):
                nw = ("dup", next(counter))
                clones[w] = nw
                worlds.append(nw)
                val[nw] = val[w]
                rel_f[block_index(rel_f, w)].add(nw)
            rel_i.append(set(clones.values()))
        else:
            bi = rng.randrange(len(rel_f))
            clones = {}
            for w in sorted(rel_f[bi], key=repr):
                nw = ("dup", next(counter))
                clones[w] = nw
                worlds.append(nw)
                val[nw] = val[w]
                rel_i[block_index(rel_i, w)].add(nw)
            rel_f.append(set(clones.values()))
    order = list(worlds)
    rng.shuffle(order)
    return QuasiMDM(base.sig, order, val, rel_i, rel_f)


def random_quasi_grid(
    rng: random.Random,
    sig: Signature | None = None,
    max_rows: int = 3,
    max_cols: int = 3,
    defect_prob: float = 0.4,
) -> QuasiMDM:
    """A quasi decision model: an instance/classifier grid whose columns may
    repeat valuations, possibly with multi-world cells (defects)."""
    sig = sig or Signature(ATOM_POOL[: rng.randint(1, 2)], VALS)
    cube = all_states(sig)
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    col_vals = [rng.choice(cube) for _ in range(n)]
    worlds = []
    val = {}
    rel_i = [set() for _ in range(m)]
    rel_f = [set() for _ in range(n)]
    for i in range(m):
        for j in range(n):
            w = f"w{i}_{j}"
            worlds.append(w)
            val[w] = (col_vals[j], rng.choice(sig.values))
            rel_i[i].add(w)
            rel_f[j].add(w)
    if rng.random() < defect_prob:
        i = rng.randrange(m)
        j = rng.randrange(n)
        w = f"x{i}_{j}"
        worlds.append(w)
        val[w] = (col_vals[j], rng.choice(sig.values))
        rel_i[i].add(w)
        rel_f[j].add(w)
    return QuasiMDM(sig, worlds, val, rel_i, rel_f)


def tiny_quasi_models(sig, max_worlds):
    """Every quasi decision model with up to max_worlds worlds, defects included."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    cube = all_states(sig)
    for n in range(1, max_worlds + 1):
        worlds = list(range(n))
        for atoms in itertools.product(cube, repeat=n):
            for decs in itertools.product(sig.values, repeat=n):
                val = {w: (atoms[w], decs[w]) for w in worlds}
                for part_i in partitions(worlds):
                    for part_f in partitions(worlds):
                        Q = QuasiMDM(sig, worlds, val, part_i, part_f)
                        if validate_mdm(Q).ok_quasi:
                            yield Q


def exhaustive_formulas(sig: Signature, max_size: int):
    """Every static formula over the primitive connectives, up to a node count."""
    leaves = [Atom(a) for a in sig.atoms] + [Dec(v) for v in sig.values] + [Top()]
    by_size: dict[int, list] = {1: leaves}
    for n in range(2, max_size + 1):
        bucket = []
        for f in by_size[n - 1]:
            bucket.append(Not(f))
            bucket.append(BoxI(f))
            bucket.append(BoxF(f))
        for i in range(1, n - 1):
            j = n - 1 - i
            for l in by_size[i]:
                for r in by_size[j]:
                    bucket.append(And(l, r))
        by_size[n] = bucket
    for n in range(1, max_size + 1):
        yield from by_size[n]
