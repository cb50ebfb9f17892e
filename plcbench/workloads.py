"""The four workloads: seeded inputs, one query each, and the checks.

Each workload builds its inputs in `setup`, lists one round of queries with
`round(r)`, answers one query with `run` (the timed part), and judges an
answer with `check` after the timed phase.  `plant` returns a deliberately
wrong copy of a correct answer, which `check` must flag.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import plc.axioms as axioms
import plc.explain as explain
import plc.models as models
import plc.modelio as modelio
import plc.rewrite as rewrite
import plc.semantics as semantics
import plc.solver as solver
from plc.parser import parse_formula, render_formula
from plc.syntax import (
    CP, And, Atom, BoxF, BoxI, Dec, DiaF, DiaI, Dyn, Iff, Implies, Not, Or,
    Signature, Top, big_and, big_or,
)

from check import (
    Model, axps, holds, parse_term_line, read_model, satisfiable_at,
    subjective_axps, term_key,
)

VALUES = ("0", "1")


@dataclass
class Query:
    qid: int
    data: dict
    known_fault: bool = False  # a wrong answer here is a fault the program has today
    label: str = ""
    sample: bool = False  # check every value of this answer, not only the verdicts


def all_states(atoms) -> list[frozenset]:
    return [frozenset(a for i, a in enumerate(atoms) if m >> i & 1) for m in range(1 << len(atoms))]


def classifier_tables(rng, atoms, counts, first_rule=None) -> list[dict]:
    """Distinct classifiers over all states of `atoms`: counts[0] threshold
    units, counts[1] decision lists and counts[2] uniform random tables.

    Given `first_rule` (atom, polarity, value), every decision list starts
    with it, defaults to the other value and is not constant; then the
    rule's literal is an AXp under every one of them."""
    states = all_states(atoms)
    out, seen = [], set()
    for kind, count in zip(("threshold", "dlist", "random"), counts):
        made = 0
        while made < count:
            if kind == "threshold":
                w = {a: rng.choice((-2, -1, 1, 2, 3)) for a in atoms}
                t = rng.randint(-1, len(atoms))
                table = {s: "1" if sum(w[a] for a in s) >= t else "0" for s in states}
            elif kind == "dlist":
                rules = [(rng.choice(atoms), rng.random() < 0.5, rng.choice(VALUES)) for _ in range(3)]
                default = rng.choice(VALUES)
                if first_rule is not None:
                    rules[0] = first_rule
                    default = next(v for v in VALUES if v != first_rule[2])
                table = {s: next((v for a, pos, v in rules if (a in s) == pos), default) for s in states}
                if first_rule is not None and len(set(table.values())) == 1:
                    continue
            else:
                table = {s: rng.choice(VALUES) for s in states}
            key = tuple(table[s] for s in states)
            if key not in seen:
                seen.add(key)
                out.append(table)
                made += 1
    return out


def mix(n) -> tuple[int, int, int]:
    """Two fifths threshold units, two fifths decision lists, the rest random."""
    return (2 * n // 5, 2 * n // 5, n - 4 * n // 5)


def build(sig, tables, prefix="c"):
    fns = [models.ClassifierFn(f"{prefix}{i}", t) for i, t in enumerate(tables)]
    return models.build_mcm(sig, "all", functions=fns)


def random_formula(rng, atoms, depth, *, cp=False, dyn=False):
    """A random formula over `atoms` and VALUES, at most `depth` deep."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.55:
            return Atom(rng.choice(atoms))
        return Dec(rng.choice(VALUES)) if r < 0.95 else Top()
    ops = ["not", "and", "or", "imp", "boxI", "boxF", "diaI", "diaF"]
    ops += ["cp"] * cp + ["dyn"] * dyn
    op = rng.choice(ops)

    def sub():
        return random_formula(rng, atoms, depth - 1, cp=cp, dyn=dyn)

    if op in ("and", "or", "imp"):
        return {"and": And, "or": Or, "imp": Implies}[op](sub(), sub())
    if op == "cp":
        return CP(tuple(rng.sample(atoms, rng.randint(1, 2))), sub())
    if op == "dyn":
        return Dyn(random_formula(rng, atoms, 1), sub())
    return {"not": Not, "boxI": BoxI, "boxF": BoxF, "diaI": DiaI, "diaF": DiaF}[op](sub())


def observation(state, atoms, value):
    """`term(state) -> =value`: the classifier outputs `value` at `state`."""
    lits = [Atom(a) if a in state else Not(Atom(a)) for a in atoms]
    return Implies(big_and(lits), Dec(value))


def counterexample():
    """A formula that `valid_finite` wrongly calls unsatisfiable: every
    classifier is one-hot on some full term, some classifier outputs 1 at
    every instance, and all four instances over (p, q) exist."""
    terms = [
        And(Atom("p") if pp else Not(Atom("p")), Atom("q") if qq else Not(Atom("q")))
        for pp in (0, 1) for qq in (0, 1)
    ]
    return big_and([
        BoxF(big_or(BoxI(Iff(Dec("1"), t)) for t in terms)),
        BoxI(DiaF(Dec("1"))),
        big_and(DiaI(t) for t in terms),
    ])


def has_dyn(phi) -> bool:
    stack = [phi]
    while stack:
        f = stack.pop()
        if type(f).__name__ == "Dyn":
            return True
        stack.extend(getattr(f, k) for k in ("sub", "left", "right", "announced") if hasattr(f, k))
    return False


class Validity:
    """Schema instances decided by `valid_finite` and by `sat_open` on the
    negation.  The two-atom instances come from the seed; the three-atom
    draw and the counterexample do not, since some of them fail every time."""

    name = "validity"
    rounds_for_trace = 1

    DRAWS = 3  # rounds with their own two-atom draw; later rounds repeat them
    # every run covers all three draws: the 90th percentile lies among the
    # costliest two-atom instances, which change with the draw, and it moves
    # about twice as much as the throughput with the host's load
    min_rounds = DRAWS

    def setup(self, seed, work):
        sig2 = Signature(("p", "q"), VALUES)
        sig3 = Signature(("p", "q", "r"), VALUES)
        fixed = [(n, phi, sig3) for n, phi in axioms.axiom_instances(sig3, seed=0, count=1)]
        fixed.append(("counterexample", Not(counterexample()), sig2))
        self.rounds = []
        for d in range(self.DRAWS):
            drawn = axioms.axiom_instances(sig2, seed=seed * self.DRAWS + d, count=60)
            qs = [(n, phi, sig2) for n, phi in drawn] + fixed
            self.rounds.append([
                Query(d * len(qs) + i, {"schema": n, "phi": phi, "sig": sig},
                      known_fault=n == "counterexample", label=f"{n}/{len(sig.atoms)}")
                for i, (n, phi, sig) in enumerate(qs)
            ])

    def round(self, r):
        return self.rounds[r % self.DRAWS]

    def run(self, q):
        phi, sig = q.data["phi"], q.data["sig"]
        finite = solver.valid_finite(phi, sig)
        if q.data["schema"] == "counterexample":
            # sat_open on the counterexample exhausts its budget after ~10 s
            return finite, None
        return finite, solver.sat_open(Not(phi), sig.values)

    def check(self, q, answer):
        finite, witness = answer
        schema, phi = q.data["schema"], q.data["phi"]
        if schema == "counterexample":
            m = Model(all_states(("p", "q")), [
                {s: "1" if s == t else "0" for s in all_states(("p", "q"))}
                for t in all_states(("p", "q"))
            ])
            if not satisfiable_at(m, counterexample()):
                return "the counterexample model does not satisfy the counterexample"
            return "valid_finite calls a refutable formula valid" if finite else None
        if not finite:
            return f"{schema} instance judged invalid in finite mode"
        if schema != "Funct":
            return f"{schema} instance refuted in open mode" if witness is not None else None
        if witness is None:
            return "Funct instance not refuted in open mode"
        m = Model.of(witness.model)
        si = m.states.index(witness.state)
        fi = list(witness.model.functions).index(witness.function)
        if not holds(m, Not(phi), si, fi):
            return "open-mode witness does not refute the Funct instance"
        return None

    def plant(self, q, answer):
        if q.data["schema"] in ("Funct", "counterexample"):
            return None
        return (not answer[0], answer[1]), "flipped finite-mode verdict"


class Explain:
    """Objective and subjective AXps at classified instances of seeded
    seven-atom multi-classifier models."""

    name = "explain"
    rounds_for_trace = 1
    ATOMS = tuple("abcdefg")

    def setup(self, seed, work):
        self.seed = seed
        rng = random.Random(f"{seed}/explain")
        sig = Signature(self.ATOMS, VALUES)
        # decision lists sharing a first rule often share subjective AXps;
        # the mixed models add threshold units and random tables
        shared = (rng.choice(self.ATOMS), rng.random() < 0.5, rng.choice(VALUES))
        self.models = [build(sig, classifier_tables(rng, self.ATOMS, (0, 8, 0), shared))]
        self.models += [build(sig, classifier_tables(rng, self.ATOMS, (3, 3, 2))) for _ in range(2)]

    def round(self, r):
        """Each candidate of each model is the actual classifier at two
        instances drawn for this round."""
        rng = random.Random(f"{self.seed}/explain/{r}")
        points = [mcm.point(rng.choice(mcm.states), fn)
                  for mcm in self.models for fn in mcm.functions for _ in range(2)]
        return [Query(r * len(points) + i, {"point": pt}) for i, pt in enumerate(points)]

    def run(self, q):
        pt = q.data["point"]
        return explain.enumerate_axps(pt), explain.enumerate_subjective(pt)

    def check(self, q, answer):
        pt = q.data["point"]
        states = list(pt.model.states)
        value = pt.function(pt.state)
        want_obj = axps(states, {s: pt.function(s) for s in states}, pt.state, value, self.ATOMS)
        tables = [{s: f(s) for s in states} for f in pt.model.functions]
        want_subj = subjective_axps(states, tables, pt.state, value, self.ATOMS)
        for got, want, what in zip(answer, (want_obj, want_subj), ("AXps", "subjective AXps")):
            keys = [term_key(t) for t in got]
            if len(set(keys)) != len(keys) or set(keys) != want:
                return f"{what} differ from brute force: {len(keys)} returned, {len(want)} expected"
        return None

    def plant(self, q, answer):
        objective, subjective = answer
        if not objective:
            return None
        return (objective[1:], subjective), "dropped one AXp"


class Update:
    """Knowledge-acquisition sessions: each query announces three
    observations of the actual classifier, one at a time, and after each
    evaluates a fixed battery of static and update formulas at every point,
    the update formulas both directly and after reduce_dynamic."""

    name = "update"
    rounds_for_trace = 4
    ATOMS = tuple("abcde")
    STEPS = 3
    POOL = 12
    STATIC = ("boxF =1", "diaF =1 & diaF =0", "boxI (a -> diaF =1)", "[a,b] =1",
              "boxI boxF (=1 -> c | d)")

    def setup(self, seed, work):
        self.seed = seed
        self.sig = Signature(self.ATOMS, VALUES)
        rng = random.Random(f"{seed}/update")
        # sizes evenly spaced over 64..128, the same for every seed: a query
        # costs more than linearly in the candidates, so drawn sizes made the
        # seeds differ by 20 % in speed
        sizes = [64 + 64 * i // (self.POOL - 1) for i in range(self.POOL)]
        self.pool = [build(self.sig, classifier_tables(rng, self.ATOMS, mix(n))) for n in sizes]
        self.static = [parse_formula(t, self.sig) for t in self.STATIC]
        self.scopes = [parse_formula(t, self.sig) for t in ("boxF =1", "diaF =0 -> [a] diaF =1")]

    def round(self, r):
        out = []
        for i, start in enumerate(self.pool):
            rng = random.Random(f"{self.seed}/update/{r}/{i}")
            actual = rng.choice(start.functions)
            order = rng.sample(list(start.states), self.STEPS + 2)
            obs = [observation(s, self.ATOMS, actual(s)) for s in order[: self.STEPS + 1]]
            # a hypothetical observation contradicting the actual classifier
            other = order[-1]
            hypo = observation(other, self.ATOMS, "0" if actual(other) == "1" else "1")
            steps = []
            for k in range(self.STEPS):
                nxt = obs[k + 1]
                dyn = [Dyn(nxt, self.scopes[0]), Dyn(nxt, self.scopes[1]),
                       Dyn(nxt, Dyn(hypo, self.scopes[0]))]
                steps.append((obs[k], dyn))
            out.append(Query(r * self.POOL + i, {"start": start, "steps": steps},
                             sample=r == 0 and i == 0))
        return out

    def run(self, q):
        m = q.data["start"]
        record = []
        for ob, dyn in q.data["steps"]:
            m = models.update_mcm(m, ob)
            static = [semantics.extension_mask(m, f) for f in self.static]
            pairs = [
                (semantics.extension_mask(m, d), semantics.extension_mask(m, rewrite.reduce_dynamic(d)))
                for d in dyn
            ]
            record.append((tuple(f.name for f in m.functions), static, pairs))
        return record

    def check(self, q, answer):
        start = q.data["start"]
        by_name = {f.name: {s: f(s) for s in start.states} for f in start.functions}
        names = [f.name for f in start.functions]
        cur = Model(start.states, [by_name[n] for n in names])
        for k, ((ob, dyn), (got, static, pairs)) in enumerate(zip(q.data["steps"], answer)):
            keep = [n for i, n in enumerate(names)
                    if all(holds(cur, ob, si, i) for si in range(len(cur.states)))]
            if sorted(got) != sorted(keep):
                return f"step {k}: update kept {len(got)} classifiers, {len(keep)} expected"
            for d, (direct, reduced) in zip(dyn, pairs):
                if direct != reduced:
                    return f"step {k}: [! phi] psi and its reduction disagree"
            names = list(got)
            cur = Model(start.states, [by_name[n] for n in names])
            if q.sample:
                formulas = list(zip(self.static, static)) + [(d, e) for d, (e, _) in zip(dyn, pairs)]
                nf = len(names)
                for f, mask in formulas:
                    for si in range(len(cur.states)):
                        for fi in range(nf):
                            if bool(mask >> (si * nf + fi) & 1) != holds(cur, f, si, fi):
                                return f"step {k}: {render_formula(f)} has a wrong truth value"
        return None

    def plant(self, q, answer):
        got, static, pairs = answer[0]
        if len(got) < 2:
            return None
        return [(got[1:], static, pairs)] + answer[1:], "dropped one surviving classifier"


class Cli:
    """One `python -m plc.cli` process per query, cycling through every
    subcommand on model files written during set-up."""

    name = "cli"
    rounds_for_trace = 2
    # process start dominates each query and moves with the host's load far
    # more than in-process work, so a run averages over 150 queries; the
    # untimed round compiles the modules only the CLI imports (plc.cli) in a
    # fresh checkout, which would otherwise land in the first timed query
    min_rounds = 15
    warmup_queries = 10
    ATOMS = tuple("abcd")
    BIG_ATOMS = tuple("abcde")

    def __init__(self, root):
        self.root = root
        self.launcher = None  # a script that traces the CLI, when tracing
        self.child_traces: list[dict] = []

    def setup(self, seed, work):
        self.seed, self.work = seed, work
        rng = random.Random(f"{seed}/cli")
        sig = Signature(self.ATOMS, VALUES)
        self.tables = classifier_tables(rng, self.ATOMS, (2, 2, 2))
        mcm = build(sig, self.tables)
        self.names = [f.name for f in mcm.functions]
        self.states = list(mcm.states)
        self.model = Model(self.states, [{s: f(s) for s in self.states} for f in mcm.functions])
        self.point = (rng.choice(self.states), rng.randrange(len(self.names)))
        pt = mcm.point(self.point[0], self.names[self.point[1]])
        self._write("model.plc", modelio.dumps_mcm(mcm, pt))
        big_sig = Signature(self.BIG_ATOMS, VALUES)
        big = build(big_sig, classifier_tables(rng, self.BIG_ATOMS, (3, 3, 2)), prefix="d")
        self.big_tables = {frozenset(f.table.items()) for f in big.functions}
        self.big_states = set(big.states)
        mdm = models.mcm_to_mdm(big)
        self._write("mdm.plc", modelio.dumps_mdm(mdm, mdm.worlds[0]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def _write(self, name, text):
        with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _sat_formula(self, rng):
        """A static formula over (p, q) true at a point of a small model,
        hence satisfiable with at most two classifiers."""
        atoms = ("p", "q")
        states = rng.sample(all_states(atoms), rng.randint(1, 4))
        m = Model(states, [{s: rng.choice(VALUES) for s in states} for _ in range(rng.randint(1, 2))])
        psi = random_formula(rng, atoms, 2)
        return psi if holds(m, psi, 0, 0) else Not(psi)

    def round(self, r):
        rng = random.Random(f"{self.seed}/cli/{r}")
        atoms = ",".join(self.ATOMS)
        model = os.path.join(self.work, "model.plc")
        out = lambda name: os.path.join(self.work, name)  # noqa: E731
        phi_check = random_formula(rng, self.ATOMS, 3, cp=True, dyn=True)
        phi_valid = random_formula(rng, self.ATOMS, 3, cp=True, dyn=True)
        sat_f, sat_o = self._sat_formula(rng), self._sat_formula(rng)
        state = rng.choice(self.states)
        obs = observation(state, self.ATOMS, self.model.tables[self.point[1]][state])
        red = Dyn(random_formula(rng, self.ATOMS, 1), random_formula(rng, self.ATOMS, 2, cp=True))
        cmds = [
            ("check", ["check", "-m", model, "-f", render_formula(phi_check)], phi_check),
            ("valid", ["valid", "-m", model, "-f", render_formula(phi_valid)], phi_valid),
            ("sat", ["sat", "--mode", "finite", "--atoms", "p,q", "--vals", "0,1",
                     "-f", render_formula(sat_f), "-o", out("witness.plc")], sat_f),
            ("sat", ["sat", "--mode", "open", "--atoms", "p,q", "--vals", "0,1",
                     "-f", render_formula(sat_o), "-o", out("witness_open.plc")], sat_o),
            ("explain", ["explain", "-m", model], None),
            ("subjective", ["explain", "-m", model, "--subjective"], None),
            ("update", ["update", "-m", model, "-f", render_formula(obs), "-o", out("updated.plc")], obs),
            ("reduce", ["reduce", "--atoms", atoms, "--vals", "0,1", "-f", render_formula(red)], red),
            ("normalize", ["normalize", "-m", out("mdm.plc"), "-o", out("normal.plc")], None),
            ("axioms", ["axioms", "--atoms", "p,q", "--vals", "0,1", "--seed", str(r), "--count", "1"], None),
        ]
        return [Query(r * len(cmds) + i, {"cmd": c, "argv": a, "phi": f})
                for i, (c, a, f) in enumerate(cmds)]

    def run(self, q):
        if self.launcher:
            env = dict(self.env, PLCBENCH_TRACE_OUT=os.path.join(self.work, "trace.json"),
                       PLCBENCH_T0=repr(time.perf_counter()))
            prog = [self.launcher]
        else:
            env, prog = self.env, ["-m", "plc.cli"]
        proc = subprocess.run([sys.executable, *prog, *q.data["argv"]], env=env,
                              cwd=self.root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def collect(self, q, stdout):
        """The answer: stdout plus the file the command wrote, read after timing."""
        if self.launcher:
            with open(os.path.join(self.work, "trace.json"), encoding="utf-8") as fh:
                self.child_traces.append(json.load(fh))
        argv = q.data["argv"]
        if "-o" in argv and (q.data["cmd"] != "sat" or stdout.startswith("SAT")):
            with open(argv[argv.index("-o") + 1], encoding="utf-8") as fh:
                return stdout, fh.read()
        return stdout, None

    def check(self, q, answer):
        stdout, written = answer
        cmd, phi = q.data["cmd"], q.data["phi"]
        lines = stdout.splitlines()
        m = self.model
        points = [(si, fi) for si in range(len(m.states)) for fi in range(len(m.tables))]
        if cmd == "check":
            si = m.states.index(self.point[0])
            want = holds(m, phi, si, self.point[1])
            return None if lines == ["TRUE" if want else "FALSE"] else f"check printed {lines}"
        if cmd == "valid":
            want = all(holds(m, phi, si, fi) for si, fi in points)
            return None if lines == ["TRUE" if want else "FALSE"] else f"valid printed {lines}"
        if cmd == "sat":
            if not lines or not lines[0].startswith("SAT"):
                return f"a satisfiable formula was answered {lines}"
            _, states, tables, point = read_model(written)
            names = list(tables)
            w = Model(states, [tables[n] for n in names])
            ok = holds(w, phi, w.states.index(point[0]), names.index(point[1]))
            return None if ok else "the SAT witness does not satisfy the formula"
        if cmd in ("explain", "subjective"):
            si = m.states.index(self.point[0])
            value = m.tables[self.point[1]][self.point[0]]
            if cmd == "explain":
                want = axps(m.states, m.tables[self.point[1]], self.point[0], value, self.ATOMS)
            else:
                want = subjective_axps(m.states, m.tables, self.point[0], value, self.ATOMS)
            got = [parse_term_line(line) for line in lines]
            if any(v != value for _, v in got) or {t for t, _ in got} != want or len(got) != len(want):
                return f"{cmd} printed {len(got)} terms, {len(want)} expected"
            return None
        if cmd == "update":
            _, _, tables, _ = read_model(written)
            want = {self.names[fi] for fi in range(len(m.tables))
                    if all(holds(m, phi, si, fi) for si in range(len(m.states)))}
            return None if set(tables) == want else "update kept the wrong classifiers"
        if cmd == "reduce":
            reduced = parse_formula(lines[0], Signature(self.ATOMS, VALUES))
            if has_dyn(reduced):
                return "reduce left an update operator"
            if any(holds(m, phi, si, fi) != holds(m, reduced, si, fi) for si, fi in points):
                return "reduce changed the truth value somewhere"
            return None
        if cmd == "normalize":
            _, states, tables, _ = read_model(written)
            got = {frozenset(t.items()) for t in tables.values()}
            ok = set(states) == self.big_states and got == self.big_tables
            return None if ok else "normalize did not give back the source model"
        if cmd == "axioms":
            bad = [line for line in lines if not line.endswith("\t1/1\tPASS")]
            return None if len(lines) == len(axioms.SCHEMA_NAMES) and not bad else f"axioms printed {bad}"
        return f"unknown command {cmd}"

    def plant(self, q, answer):
        stdout, written = answer
        if q.data["cmd"] not in ("check", "valid"):
            return None
        flipped = "FALSE\n" if stdout == "TRUE\n" else "TRUE\n"
        return (flipped, written), f"flipped the {q.data['cmd']} line"


WORKLOADS = {
    "validity": lambda root: Validity(),
    "explain": lambda root: Explain(),
    "update": lambda root: Update(),
    "cli": Cli,
}
