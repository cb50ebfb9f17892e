"""Checkers that share no code with the program under test.

`Model` and `holds` evaluate the satisfaction clauses by direct recursion
at one point at a time, ceteris paribus and update included.  `axps` finds
abductive explanations by brute force over the subsets of the instance's
literals, reading implicance straight off the classifier table.  `read_model`
parses the model files the CLI writes.  The formula objects are the
program's own AST nodes; only their fields are read here.
"""

from __future__ import annotations

import re


class Model:
    """A multi-classifier model as plain data: states (sets of true atoms)
    and candidate classifiers (dicts from state to value)."""

    def __init__(self, states, tables):
        self.states = [frozenset(s) for s in states]
        self.tables = [dict(t) for t in tables]
        self.memo: dict = {}
        self.updates: dict = {}

    @classmethod
    def of(cls, mcm) -> "Model":
        """Read a program model, keeping its state and classifier order."""
        return cls(mcm.states, [{s: f(s) for s in mcm.states} for f in mcm.functions])

    def updated(self, ann) -> tuple["Model", dict]:
        """The model without the classifiers that fail `ann` somewhere, and
        the map from old classifier positions to new ones."""
        hit = self.updates.get(id(ann))
        if hit is None:
            keep = [
                fi
                for fi in range(len(self.tables))
                if all(holds(self, ann, si, fi) for si in range(len(self.states)))
            ]
            sub_model = Model(self.states, [self.tables[fi] for fi in keep])
            # `ann` is stored so that its id stays unique while it is a key
            hit = self.updates[id(ann)] = (sub_model, {fi: k for k, fi in enumerate(keep)}, ann)
        return hit[0], hit[1]


def holds(m: Model, phi, si: int, fi: int) -> bool:
    """Truth of `phi` at the point (states[si], tables[fi]) of `m`.

    Modal nodes are memoized per point, which keeps nested boxes polynomial;
    the Boolean nodes between them are cheaper to recompute than to look up.
    """
    kind = type(phi).__name__
    if kind == "Atom":
        return phi.name in m.states[si]
    if kind == "Dec":
        return m.tables[fi][m.states[si]] == phi.value
    if kind == "Top":
        return True
    if kind == "Not":
        return not holds(m, phi.sub, si, fi)
    if kind == "And":
        return holds(m, phi.left, si, fi) and holds(m, phi.right, si, fi)
    key = (id(phi), si, fi)
    got = m.memo.get(key)
    if got is not None:
        return got[0]
    s = m.states[si]
    if kind == "BoxI":
        out = all(holds(m, phi.sub, sj, fi) for sj in range(len(m.states)))
    elif kind == "BoxF":
        out = all(holds(m, phi.sub, si, fj) for fj in range(len(m.tables)))
    elif kind == "CP":
        xs = frozenset(phi.atoms)
        out = all(
            holds(m, phi.sub, sj, fi)
            for sj, s2 in enumerate(m.states)
            if s2 & xs == s & xs
        )
    elif kind == "Dyn":
        # the update keeps the classifiers satisfying the announcement at
        # every state; at a discarded classifier the formula holds vacuously
        if not all(holds(m, phi.announced, sj, fi) for sj in range(len(m.states))):
            out = True
        else:
            sub_model, pos = m.updated(phi.announced)
            out = holds(sub_model, phi.sub, si, pos[fi])
    else:
        raise TypeError(f"not a formula node: {kind}")
    m.memo[key] = (out, phi)  # keep `phi` alive while its id is a key
    return out


def satisfiable_at(m: Model, phi) -> bool:
    return any(
        holds(m, phi, si, fi) for si in range(len(m.states)) for fi in range(len(m.tables))
    )


def axps(states, table, inst, value, atoms) -> set[tuple[frozenset, frozenset]]:
    """Every abductive explanation of `value` at instance `inst` under
    `table`, as (positive atoms, negative atoms).

    A set L of the instance's literals is an implicant when every state
    agreeing with the instance on L is classified `value`; an AXp is an
    implicant none of whose one-literal weakenings is one.
    """
    bit = {a: 1 << i for i, a in enumerate(atoms)}

    def mask(s) -> int:
        return sum(bit[a] for a in s)

    inst_mask = mask(inst)
    bad = [mask(s) ^ inst_mask for s in states if table[s] != value]
    n = len(atoms)
    imp = [all(d & lits for d in bad) for lits in range(1 << n)]
    out = set()
    for lits in range(1 << n):
        if not imp[lits]:
            continue
        if any(lits >> i & 1 and imp[lits & ~(1 << i)] for i in range(n)):
            continue
        fixed = {a for a in atoms if lits & bit[a]}
        out.add((frozenset(fixed & inst), frozenset(fixed - inst)))
    return out


def subjective_axps(states, tables, inst, value, atoms) -> set:
    """Terms that are AXps of `value` under every candidate classifier."""
    out = None
    for table in tables:
        mine = axps(states, table, inst, value, atoms)
        out = mine if out is None else out & mine
        if not out:
            break
    return out or set()


def term_key(term) -> tuple[frozenset, frozenset]:
    return (frozenset(term.pos), frozenset(term.neg))


def parse_term_line(line: str) -> tuple[tuple[frozenset, frozenset], str]:
    """One `explain` output line, `a & ~b\\t=1`, as ((pos, neg), value)."""
    text, value = line.split("\t")
    pos, neg = set(), set()
    if text != "true":
        for lit in text.split("&"):
            lit = lit.strip()
            (neg if lit.startswith("~") else pos).add(lit.lstrip("~"))
    return (frozenset(pos), frozenset(neg)), value.lstrip("=")


_SET = re.compile(r"\{([^{}]*)\}")


def _set(text: str) -> frozenset:
    inner = _SET.fullmatch(text.strip()).group(1)
    return frozenset(a.strip() for a in inner.split(",") if a.strip())


def read_model(text: str):
    """Parse a classifier-model file: (atoms, states, {name: table}, point),
    where point is (state, name) or None."""
    atoms: list[str] = []
    states: list[frozenset] = []
    tables: dict[str, dict] = {}
    point = None
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("val:"):
            continue
        if line.startswith("atoms:"):
            atoms = line[6:].split()
        elif line.startswith("states:"):
            section = "states"
            if line[7:].strip() == "all":
                states = [
                    frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
                    for m in range(1 << len(atoms))
                ]
        elif line == "functions:":
            section = "functions"
        elif line.startswith("point:"):
            m = re.fullmatch(r"point:\s*state=(\{[^{}]*\})\s+function=(\S+)", line)
            point = (_set(m.group(1)), m.group(2))
        elif section == "states":
            states.append(_set(line))
        elif section == "functions":
            name, body = line.split(":", 1)
            table = {}
            for cell in body.split(";"):
                if cell.strip():
                    sset, value = cell.rsplit("=", 1)
                    table[_set(sset)] = value.strip()
            tables[name.strip()] = table
        else:
            raise ValueError(f"unexpected model-file line {line!r}")
    return atoms, states, tables, point
