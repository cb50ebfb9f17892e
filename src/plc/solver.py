"""Satisfiability and validity engines.

Finite mode fixes the atom stock and searches pointed multi-classifier
models directly.  Open mode treats the atom stock as unbounded: a
type-system saturation search decides satisfiability (worlds are quotiented
by the formulas they satisfy, mirroring filtration), a concrete grid witness
is read off the coherent family of types it finds, and a per-instance fresh
atom then upgrades that quasi decision model to a genuine multi-classifier
model.

Resource exhaustion raises BudgetExceeded; it is never reported as UNSAT.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ._vecsem import grid_truth
from .config import BudgetExceeded, BudgetMeter, search_budget
from .models import (
    MCM,
    ClassifierFn,
    PointedMCM,
    QuasiMDM,
    generated_submodel,
    mask_state,
    validate_mdm,
)
from .parser import render_formula
from .rewrite import cp_free, simplify
from .semantics import EvalError, check_mcm, check_mdm, mdm_extension_mask
from .syntax import (
    CP,
    And,
    Atom,
    BoxF,
    BoxI,
    Dec,
    Formula,
    Not,
    Signature,
    Top,
    atoms_of,
    dec_values_of,
    is_static,
    size,
    subformulas,
    validate_formula,
)

_CHUNK = 4096


class Witness:
    """A satisfying pointed model; re-checked on construction."""

    def __init__(
        self,
        mode: str,
        model: MCM,
        state: frozenset,
        function: ClassifierFn,
        formula: Formula,
        quasi: QuasiMDM | None = None,
        quasi_world=None,
    ):
        self.mode = mode
        self.model = model
        self.state = frozenset(state)
        self.function = function
        self.formula = formula
        self.quasi = quasi
        self.quasi_world = quasi_world
        if not check_mcm(self.point, formula):
            raise RuntimeError("internal error: witness failed its re-check")
        if quasi is not None and not check_mdm(quasi, quasi_world, cp_free(formula)):
            raise RuntimeError("internal error: quasi witness failed its re-check")

    @property
    def point(self) -> PointedMCM:
        return PointedMCM(self.model, self.state, self.function)

    def __repr__(self) -> str:
        return f"Witness(mode={self.mode!r}, {self.model!r}, state={set(self.state) or '{}'}, function={self.function.name})"


def _require_static(phi: Formula) -> None:
    if not is_static(phi):
        raise EvalError("reduce update operators before satisfiability checking")


def _distinct_nodes(phi: Formula, kind) -> list[Formula]:
    nodes = [f for f in subformulas(phi) if isinstance(f, kind)]
    nodes.sort(key=lambda f: (size(f), render_formula(f)))
    return nodes


def _all_tables(nvals: int, nstates: int, meter: BudgetMeter) -> np.ndarray:
    """All value assignments over `nstates` states, lexicographic, (nt, nstates).

    Raises BudgetExceeded, spending nothing, when the table has more cells
    than the meter has units left.
    """
    import numpy as np

    nt = nvals**nstates
    if nt * nstates > meter.cap - meter.used:
        raise BudgetExceeded(
            f"{meter.what} cannot fit the {nt} tables over {nstates} states in its node budget"
        )
    digits = nvals ** np.arange(nstates - 1, -1, -1)
    return (np.arange(nt)[:, None] // digits % nvals).astype(np.int8)


def _grid_witness(
    mode: str,
    phi: Formula,
    sig: Signature,
    states: list,
    table: Sequence[Sequence[int]],
    point: tuple[int, int],
    quasi: QuasiMDM | None = None,
) -> Witness:
    """The witness at `point` = (i, j): classifier f{i} at states[j], in the
    model whose classifier f{i} outputs sig.values[table[i][j]] at states[j].
    A quasi model's worlds are the same (i, j) pairs."""
    fns = [
        ClassifierFn(f"f{i}", {s: sig.values[x] for s, x in zip(states, row)})
        for i, row in enumerate(table)
    ]
    model = MCM(sig, states, fns)
    i, j = point
    fn = model.function_named(f"f{i}")
    return Witness(mode, model, states[j], fn, phi, quasi, None if quasi is None else point)


def sat_finite(
    phi: Formula,
    sig: Signature,
    *,
    max_functions: int | None = None,
    budget: int | None = None,
) -> Witness | None:
    """First satisfying pointed model over the fixed signature, or None.

    Candidate state sets run over the nonempty subsets of the full cube in
    ascending subset-mask order; candidate classifier families are
    duplicate-free table combinations of size at most 1 + the number of
    distinct classifier-box subformulas (a bound validated against the
    brute-force oracle, overridable via max_functions).  The returned witness
    is the least in that enumeration order.
    """
    import numpy as np

    _require_static(phi)
    validate_formula(phi, sig)
    phi_s = simplify(phi)
    k = max_functions if max_functions is not None else 1 + len(_distinct_nodes(phi_s, BoxF))
    meter = BudgetMeter(search_budget(budget))
    nvals = len(sig.values)
    universe = 1 << len(sig.atoms)
    tables_by_size: dict[int, np.ndarray] = {}
    for smask in range(1, 1 << universe):
        cols = [u for u in range(universe) if smask >> u & 1]
        ns = len(cols)
        tables = tables_by_size.get(ns)
        if tables is None:
            tables = tables_by_size[ns] = _all_tables(nvals, ns, meter)
        nt = len(tables)
        for fam_size in range(1, min(k, nt) + 1):
            combos = itertools.combinations(range(nt), fam_size)
            while True:
                idx = list(itertools.islice(combos, _CHUNK))
                if not idx:
                    break
                batch = tables[np.asarray(idx)]  # (nc, fam_size, ns)
                meter.spend(batch.shape[0] * ns * fam_size)
                truth = grid_truth(phi_s, sig.atoms, sig.values, cols, batch)
                hits = np.argwhere(truth)
                if hits.size:
                    b, j, i = (int(x) for x in hits[0])
                    states = [mask_state(sig, m) for m in cols]
                    return _grid_witness("finite", phi, sig, states, batch[b].tolist(), (i, j))
    return None


def valid_finite(
    phi: Formula,
    sig: Signature,
    *,
    max_functions: int | None = None,
    budget: int | None = None,
) -> bool:
    """Validity over every model of the fixed signature."""
    return sat_finite(Not(phi), sig, max_functions=max_functions, budget=budget) is None


def brute_force_sat(
    phi: Formula,
    sig: Signature,
    *,
    max_states: int | None = None,
    max_functions: int = 3,
) -> Witness | None:
    """Exhaustive oracle over tiny models; evaluation is an independent
    direct recursion over the satisfaction clauses (no shared engine).

    UNSAT here means "no model within the bounds".  Hard caps keep it an
    oracle: at most 2 atoms, 4 states, 8 functions.
    """
    _require_static(phi)
    validate_formula(phi, sig)
    universe = 1 << len(sig.atoms)
    if len(sig.atoms) > 2:
        raise ValueError("oracle bound exceeded: at most 2 atoms")
    cap_states = universe if max_states is None else max_states
    if cap_states > 4 or max_functions > 8:
        raise ValueError("oracle bounds too large")
    nvals = len(sig.values)
    apos = {a: i for i, a in enumerate(sig.atoms)}

    for smask in range(1, 1 << universe):
        cols = [u for u in range(universe) if smask >> u & 1]
        if len(cols) > cap_states:
            continue
        all_rows = list(itertools.product(range(nvals), repeat=len(cols)))
        for fam_size in range(1, min(max_functions, len(all_rows)) + 1):
            for family in itertools.combinations(all_rows, fam_size):
                hit = _oracle_search_points(phi, apos, sig.values, cols, family)
                if hit is not None:
                    j, i = hit
                    states = [mask_state(sig, m) for m in cols]
                    return _grid_witness("finite", phi, sig, states, family, (i, j))
    return None


def _oracle_search_points(phi, apos, values, cols, rows) -> tuple[int, int] | None:
    memo: dict[tuple, bool] = {}

    def ev(f: Formula, j: int, i: int) -> bool:
        key = (id(f), j, i)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, Atom):
            out = bool(cols[j] >> apos[f.name] & 1)
        elif isinstance(f, Dec):
            out = values[rows[i][j]] == f.value
        elif isinstance(f, Top):
            out = True
        elif isinstance(f, Not):
            out = not ev(f.sub, j, i)
        elif isinstance(f, And):
            out = ev(f.left, j, i) and ev(f.right, j, i)
        elif isinstance(f, BoxI):
            out = all(ev(f.sub, j2, i) for j2 in range(len(cols)))
        elif isinstance(f, BoxF):
            out = all(ev(f.sub, j, i2) for i2 in range(len(rows)))
        elif isinstance(f, CP):
            xbits = 0
            for a in f.atoms:
                if a in apos:
                    xbits |= 1 << apos[a]
            out = all(
                ev(f.sub, j2, i)
                for j2 in range(len(cols))
                if cols[j2] & xbits == cols[j] & xbits
            )
        else:
            raise EvalError("oracle cannot evaluate update operators")
        memo[key] = out
        return out

    for j in range(len(cols)):
        for i in range(len(rows)):
            if ev(phi, j, i):
                return (j, i)
    return None


# Open mode: a type-system decision whose solution is read off as a grid witness.


def _subsets(bits: list[int]) -> list[int]:
    """Every union of the given bits, by size, then in combination order."""
    return [sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)]


def _system_satisfiable(
    phi: Formula, atoms: tuple[str, ...], values: tuple[str, ...], meter: BudgetMeter
) -> tuple[list[int], list[list[list[tuple[int, bool]]]]] | None:
    """Decide satisfiability over unboundedly many atoms by searching for a
    coherent system of classifier-row types and instance-column types.

    A row type fixes the instance-box subformulas true along a classifier; a
    column type fixes an atom valuation plus the classifier-box subformulas
    true along an instance.  Every subformula's truth at a cell is determined
    by (row type, column type, cell value); the search looks for a mutually
    compatible family fulfilling every diamond obligation, seeded with a cell
    satisfying the target formula.  UNSAT is definitive: the types realized
    by any satisfying model form such a family.

    Returns the family found as (masks, cells): masks[c] is the atom
    valuation of column type c, and cells[r][c] lists the admissible
    (value index, truth of phi) pairs of row type r and column type c in
    value order.  None means UNSAT.
    """
    sf = sorted(subformulas(phi), key=lambda f: (size(f), render_formula(f)))
    pos = {f: p for p, f in enumerate(sf)}
    # A cell's truths are a bitmask over positions in sf.  The types fix the
    # boxes, the column the atoms and the value the decision atoms; children
    # sort before their parents, so one pass over `ops` settles the rest.
    atom_bits = [0] * len(atoms)
    value_bits = [0] * len(values)
    top_bits = 0
    ops: list[tuple[int, int, int]] = []  # (position, child, right child or -1 for a negation)
    boxi: list[int] = []
    boxf: list[int] = []
    arg: dict[int, int] = {}  # box position -> bit of its argument
    for p, f in enumerate(sf):
        if isinstance(f, Atom):
            atom_bits[atoms.index(f.name)] |= 1 << p
        elif isinstance(f, Dec):
            value_bits[values.index(f.value)] |= 1 << p
        elif isinstance(f, Top):
            top_bits |= 1 << p
        elif isinstance(f, Not):
            ops.append((p, pos[f.sub], -1))
        elif isinstance(f, And):
            ops.append((p, pos[f.left], pos[f.right]))
        elif isinstance(f, (BoxI, BoxF)):
            (boxi if isinstance(f, BoxI) else boxf).append(p)
            arg[p] = 1 << pos[f.sub]
        else:
            raise AssertionError("type search needs an expanded static formula")
    rows = _subsets([1 << b for b in boxi])
    cols = [
        (mask, fbits)
        for mask in range(1 << len(atoms))
        for fbits in _subsets([1 << b for b in boxf])
    ]
    nvals = len(values)
    meter.spend(len(rows) * len(cols) * nvals * len(sf))

    def required(bits: int) -> int:
        """The arguments of the boxes in `bits`, which a cell must make true;
        the boxes are all of one kind, so their arguments are distinct."""
        return sum(a for b, a in arg.items() if bits >> b & 1)

    row_req = [required(r) for r in rows]
    col_req = [required(fbits) for _, fbits in cols]
    col_fixed = [
        fbits | top_bits | sum(ab for a, ab in enumerate(atom_bits) if cmask >> a & 1)
        for cmask, fbits in cols
    ]

    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ri, rbits in enumerate(rows):
        for ci in range(len(cols)):
            req = row_req[ri] | col_req[ci]
            valid = []
            for xi in range(nvals):
                t = rbits | col_fixed[ci] | value_bits[xi]
                for p, a, b in ops:
                    if (t >> a & t >> b & 1) if b >= 0 else not t >> a & 1:
                        t |= 1 << p
                if t & req == req:
                    valid.append((xi, t))
            if valid:
                cells[(ri, ci)] = valid

    def refutes(ri: int, ci: int, target: int) -> bool:
        return any(not t & target for _, t in cells.get((ri, ci), []))

    failed: set[tuple[frozenset, frozenset]] = set()

    def solve(rset: frozenset, cset: frozenset) -> tuple[frozenset, frozenset] | None:
        meter.spend(1)
        obligation = None
        for ri in sorted(rset):
            for b in boxi:
                if rows[ri] >> b & 1:
                    continue
                if not any(refutes(ri, ci, arg[b]) for ci in sorted(cset)):
                    obligation = ("row", ri, b)
                    break
            if obligation:
                break
        if obligation is None:
            for ci in sorted(cset):
                for b in boxf:
                    if cols[ci][1] >> b & 1:
                        continue
                    if not any(refutes(ri, ci, arg[b]) for ri in sorted(rset)):
                        obligation = ("col", ci, b)
                        break
                if obligation:
                    break
        if obligation is None:
            return rset, cset
        if (rset, cset) in failed:
            return None
        kind, who, b = obligation
        if kind == "row":
            for ci in range(len(cols)):
                if ci in cset:
                    continue
                if not refutes(who, ci, arg[b]):
                    continue
                if all((ri, ci) in cells for ri in rset):
                    got = solve(rset, cset | {ci})
                    if got:
                        return got
        else:
            for ri in range(len(rows)):
                if ri in rset:
                    continue
                if not refutes(ri, who, arg[b]):
                    continue
                if all((ri, ci) in cells for ci in cset):
                    got = solve(rset | {ri}, cset)
                    if got:
                        return got
        failed.add((rset, cset))
        return None

    phi_bit = 1 << pos[phi]
    try:
        for ri in range(len(rows)):
            for ci in range(len(cols)):
                # solve does not depend on the value, so one seed per pair
                if any(t & phi_bit for _, t in cells.get((ri, ci), [])):
                    got = solve(frozenset([ri]), frozenset([ci]))
                    if got:
                        rs, cs = sorted(got[0]), sorted(got[1])
                        return [cols[c][0] for c in cs], [
                            [[(xi, bool(t & phi_bit)) for xi, t in cells[(r, c)]] for c in cs] for r in rs
                        ]
        return None
    finally:
        del solve, refutes  # free the self-referencing closures and the cells now


def _fresh_names(taken: set[str], count: int) -> list[str]:
    out = []
    for j in range(count):
        name = f"_w{j}"
        while name in taken:
            name += "x"
        taken.add(name)
        out.append(name)
    return out


def sat_open(
    phi: Formula,
    values: Sequence[str],
    *,
    budget: int | None = None,
) -> Witness | None:
    """Satisfiability when the atom stock is unbounded beyond the formula.

    Returns a witness over the formula's atoms plus one fresh atom per
    instance column (the fresh atoms restore functionality, turning the
    quasi model read off the type search into a genuine multi-classifier
    model), or None for UNSAT.
    """
    _require_static(phi)
    values = tuple(values)
    missing = dec_values_of(phi) - set(values)
    if missing:
        raise EvalError(f"formula mentions undeclared values {sorted(missing)}")
    phi_sys = simplify(cp_free(simplify(phi)))
    atoms = tuple(sorted(atoms_of(phi_sys)))
    solved = _system_satisfiable(phi_sys, atoms, values, BudgetMeter(search_budget(budget)))
    if solved is None:
        return None
    masks, cells = solved
    # k copies of every row and column type; copy (a, b) of cell (r, c) takes
    # the admissible value at (a + b) mod |V(r, c)|.  Each row copy then meets
    # every admissible value of each of its cells, and so does each column
    # copy: a box false at a type keeps a refuting cell, and a box true at a
    # type holds at every admissible value.  Merging identical rows changes
    # no truth value.
    k = max(len(vs) for row in cells for vs in row)
    rows: dict[tuple[int, ...], list[bool]] = {}  # value indexes -> truth of phi per column
    for row in cells:
        for a in range(k):
            picks = [vs[(a + b) % len(vs)] for vs in row for b in range(k)]
            rows.setdefault(tuple(x for x, _ in picks), [t for _, t in picks])
    point = next((i, j) for i, truth in enumerate(rows.values()) for j, t in enumerate(truth) if t)
    return _open_witness(phi, atoms, values, [m for m in masks for _ in range(k)], list(rows), point)


def _open_witness(
    phi: Formula,
    atoms: tuple[str, ...],
    values: tuple[str, ...],
    masks: Sequence[int],
    table: list[tuple[int, ...]],
    point: tuple[int, int],
) -> Witness:
    m, n = len(table), len(masks)
    base_atoms = tuple(sorted(atoms_of(phi)))
    grid_sig = Signature(atoms, values)
    col_atoms = [mask_state(grid_sig, mask) for mask in masks]
    worlds = [(i, j) for i in range(m) for j in range(n)]
    valuation = {(i, j): (col_atoms[j], values[table[i][j]]) for (i, j) in worlds}
    rel_i = [frozenset((i, j) for j in range(n)) for i in range(m)]
    rel_f = [frozenset((i, j) for i in range(m)) for j in range(n)]
    quasi = QuasiMDM(Signature(base_atoms, values), worlds, valuation, rel_i, rel_f)

    fresh = _fresh_names(set(base_atoms), n)
    states = [col_atoms[j] | {fresh[j]} for j in range(n)]
    sig = Signature(base_atoms + tuple(fresh), values)
    return _grid_witness("open", phi, sig, states, table, point, quasi)


def filtrate(M: QuasiMDM, phi: Formula, w0) -> tuple[QuasiMDM, dict]:
    """Quotient the generated submodel of w0 by agreement on phi's
    subformulas (decision atoms included), preserving phi at the image of w0
    and bounding the world count by 2^|subformulas + decision atoms|.
    """
    _require_static(phi)
    report = validate_mdm(M)
    bad = [nm for nm in ("C1", "C3", "C4", "C5") if not report.passed(nm)]
    if bad:
        raise EvalError(f"filtration needs a valid quasi model; failing: {', '.join(bad)}")
    sub = generated_submodel(M, w0)
    sf = sorted(
        subformulas(phi, plus=True, sig=M.sig),
        key=lambda f: (size(f), render_formula(f)),
    )
    truth = {f: mdm_extension_mask(sub, f) for f in sf}
    pos = {w: i for i, w in enumerate(sub.worlds)}

    def theta(w) -> frozenset:
        return frozenset(f for f in sf if truth[f] >> pos[w] & 1)

    classes: dict[frozenset, list] = {}
    for w in sub.worlds:
        classes.setdefault(theta(w), []).append(w)
    reps = [members[0] for members in classes.values()]
    mapping = {}
    for members in classes.values():
        for w in members:
            mapping[w] = members[0]

    boxi = [f for f in sf if isinstance(f, BoxI)]
    boxf = [f for f in sf if isinstance(f, BoxF) ]
    atom_nodes = [f for f in sf if isinstance(f, Atom)]

    def profile(rep, nodes) -> tuple:
        return tuple(bool(truth[f] >> pos[rep] & 1) for f in nodes)

    blocks_i: dict[tuple, list] = {}
    blocks_f: dict[tuple, list] = {}
    val2 = {}
    for rep in reps:
        blocks_i.setdefault(profile(rep, boxi), []).append(rep)
        blocks_f.setdefault(profile(rep, boxf) + profile(rep, atom_nodes), []).append(rep)
        val2[rep] = (
            sub.atoms_val(rep) & frozenset(a.name for a in atom_nodes),
            sub.dec_val(rep),
        )
    out = QuasiMDM(M.sig, reps, val2, blocks_i.values(), blocks_f.values())
    if len(out.worlds) > (1 << len(sf)):
        raise RuntimeError("internal error: filtration exceeded its size bound")
    if check_mdm(out, mapping[w0], phi) != check_mdm(M, w0, phi):
        raise RuntimeError("internal error: filtration failed to preserve the formula")
    return out, mapping
