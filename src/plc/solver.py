"""Satisfiability and validity engines.

Both modes are decided by one type-system search, `_system_satisfiable`:
worlds are quotiented by the formulas they satisfy, mirroring filtration,
and the search looks for a coherent family of classifier-row and
instance-column types.  Finite mode fixes the atom stock, so a column is one
state and the witness takes the columns as states.  Open mode treats the
atom stock as unbounded: a concrete grid witness is read off the family, and
a per-instance fresh atom then upgrades that quasi decision model to a
genuine multi-classifier model.

Resource exhaustion raises BudgetExceeded; it is never reported as UNSAT.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from .config import BudgetExceeded, BudgetMeter, magnitude, search_budget
from .models import (
    MCM,
    ClassifierFn,
    PointedMCM,
    QuasiMDM,
    generated_submodel,
    mask_state,
    validate_mdm,
)
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
    require_declared,
    subformulas,
    symbols,
)


class Witness:
    """A satisfying pointed model; re-checked on construction.

    An open-mode witness also gives `quasi`, the quasi decision model read
    off the type search before fresh atoms were added, built anew on each
    access by the function passed as `quasi`, and `quasi_world`, its world
    where the formula holds.  A witness keeps neither that model nor the
    masks of its re-check.
    """

    def __init__(
        self,
        mode: str,
        model: MCM,
        state: frozenset,
        function: ClassifierFn,
        formula: Formula,
        quasi: Callable[[], QuasiMDM] | None = None,
        quasi_world=None,
    ):
        self.mode = mode
        self.model = model
        self.state = frozenset(state)
        self.function = function
        self.formula = formula
        self._quasi = quasi
        self.quasi_world = quasi_world
        if not check_mcm(self.point, formula):
            raise RuntimeError("internal error: witness failed its re-check")
        if quasi is not None and not check_mdm(quasi(), quasi_world, cp_free(formula)):
            raise RuntimeError("internal error: quasi witness failed its re-check")
        model._ext_cache.clear()

    @property
    def quasi(self) -> QuasiMDM | None:
        return None if self._quasi is None else self._quasi()

    @property
    def point(self) -> PointedMCM:
        return PointedMCM(self.model, self.state, self.function)

    def __repr__(self) -> str:
        return f"Witness(mode={self.mode!r}, {self.model!r}, state={set(self.state) or '{}'}, function={self.function.name})"


def _static_symbols(phi: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """The input atoms (ceteris-paribus index sets included) and decision
    values of phi.  Raises EvalError on an update operator, which the engines
    here cannot evaluate."""
    atoms, values, static = symbols(phi)
    if not static:
        raise EvalError("reduce update operators before satisfiability checking")
    return atoms, values


def _expanded(phi: Formula) -> Formula:
    """The ceteris-paribus-free cleanup of phi that the type search reads.
    simplify's output has nothing left to simplify, so the second pass runs
    only where an expansion changed something."""
    simple = simplify(phi)
    free = cp_free(simple)
    return simple if free is simple else simplify(free)


def _grid_witness(
    mode: str,
    phi: Formula,
    sig: Signature,
    states: list,
    table: Sequence[Sequence[int]],
    point: tuple[int, int],
    quasi: Callable[[], QuasiMDM] | None = None,
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
    budget: int | None = None,
) -> Witness | None:
    """A satisfying pointed model over the fixed signature, or None.

    Decided by the type search of `_system_satisfiable`, in which at most
    2^(number of signature atoms the formula does not use) states share a
    valuation of the formula's atoms.  A state is that valuation plus its
    copy index spelled over the unused atoms.  The witness is the search's
    first, which is deterministic.
    """
    require_declared(*_static_symbols(phi), sig)
    phi_sys = _expanded(phi)
    meter = BudgetMeter(search_budget(budget))
    solved = _system_satisfiable(phi_sys, sig.atoms, sig.values, meter, copies=1)
    if solved is None:
        return None
    atoms, masks, table, point = solved
    spare = tuple(a for a in sig.atoms if a not in atoms)
    spread, states, seen = Signature(atoms + spare, sig.values), [], {}
    for m in masks:
        seen[m] = seen.get(m, -1) + 1
        states.append(mask_state(spread, m | seen[m] << len(atoms)))
    return _grid_witness("finite", phi, sig, states, table, point)


def valid_finite(phi: Formula, sig: Signature, *, budget: int | None = None) -> bool:
    """Validity over every model of the fixed signature."""
    return sat_finite(Not(phi), sig, budget=budget) is None


def brute_force_sat(
    phi: Formula,
    sig: Signature,
    *,
    max_functions: int = 3,
) -> Witness | None:
    """Exhaustive oracle over tiny models; evaluation is an independent
    direct recursion over the satisfaction clauses (no shared engine).

    UNSAT here means "no model within the bounds".  Hard caps keep it an
    oracle: at most 2 atoms, 4 states, 8 functions.
    """
    require_declared(*_static_symbols(phi), sig)
    universe = 1 << len(sig.atoms)
    if len(sig.atoms) > 2:
        raise ValueError("oracle bound exceeded: at most 2 atoms")
    if max_functions > 8:
        raise ValueError("oracle bounds too large")
    nvals = len(sig.values)
    nodes = _oracle_nodes(phi, {a: i for i, a in enumerate(sig.atoms)})

    for smask in range(1, 1 << universe):
        cols = [u for u in range(universe) if smask >> u & 1]
        all_rows = list(itertools.product(range(nvals), repeat=len(cols)))
        for fam_size in range(1, min(max_functions, len(all_rows)) + 1):
            for family in itertools.combinations(all_rows, fam_size):
                hit = _oracle_search_points(nodes, sig.values, cols, family)
                if hit is not None:
                    j, i = hit
                    states = [mask_state(sig, m) for m in cols]
                    return _grid_witness("finite", phi, sig, states, family, (i, j))
    return None


def _oracle_nodes(phi: Formula, apos: dict[str, int]) -> list[tuple]:
    """The oracle's own table of phi's distinct subformulas, children first
    and phi last: (class, x, y) with the children's indexes, an atom's bit,
    a decision atom's value, or a ceteris-paribus modality's index-set bits
    (atoms outside `apos` have none)."""
    index: dict[Formula, int] = {}
    nodes: list[tuple] = []

    def number(f: Formula) -> int:
        n = index.get(f)
        if n is None:
            if isinstance(f, Atom):
                node = (Atom, 1 << apos[f.name], 0)
            elif isinstance(f, Dec):
                node = (Dec, f.value, 0)
            elif isinstance(f, Top):
                node = (Top, 0, 0)
            elif isinstance(f, And):
                node = (And, number(f.left), number(f.right))
            elif isinstance(f, CP):
                node = (CP, number(f.sub), sum(1 << apos[a] for a in f.atoms if a in apos))
            elif isinstance(f, (Not, BoxI, BoxF)):
                node = (type(f), number(f.sub), 0)
            else:
                raise EvalError("oracle cannot evaluate update operators")
            n = index[f] = len(nodes)
            nodes.append(node)
        return n

    try:
        number(phi)
        return nodes
    finally:
        del number  # free the self-referencing closure and the index now


def _oracle_search_points(nodes, values, cols, rows) -> tuple[int, int] | None:
    """The first point (column j, row i) of the grid where the last node
    holds, by a direct recursion over the satisfaction clauses."""
    nc, nr = len(cols), len(rows)
    memo: list[bool | None] = [None] * (len(nodes) * nc * nr)

    def ev(n: int, j: int, i: int) -> bool:
        key = (n * nc + j) * nr + i
        got = memo[key]
        if got is not None:
            return got
        kind, x, y = nodes[n]
        if kind is Atom:
            out = bool(cols[j] & x)
        elif kind is Dec:
            out = values[rows[i][j]] == x
        elif kind is Top:
            out = True
        elif kind is Not:
            out = not ev(x, j, i)
        elif kind is And:
            out = ev(x, j, i) and ev(y, j, i)
        elif kind is BoxI:
            out = all(ev(x, j2, i) for j2 in range(nc))
        elif kind is BoxF:
            out = all(ev(x, j, i2) for i2 in range(nr))
        else:  # CP
            out = all(ev(x, j2, i) for j2 in range(nc) if cols[j2] & y == cols[j] & y)
        memo[key] = out
        return out

    top = len(nodes) - 1
    try:
        for j in range(nc):
            for i in range(nr):
                if ev(top, j, i):
                    return (j, i)
        return None
    finally:
        del ev  # free the self-referencing closure and the memo now


# The type search that decides both modes.


def _subsets(bits: list[int]) -> list[int]:
    """Every union of the given bits, by size, then in combination order."""
    return [sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)]


def _system_satisfiable(
    phi: Formula,
    order: Sequence[str],
    values: tuple[str, ...],
    meter: BudgetMeter,
    copies: int | None = None,
) -> tuple[tuple[str, ...], list[int], list[tuple[int, ...]], tuple[int, int]] | None:
    """Decide satisfiability by searching for a coherent family of
    classifier-row types and instance-column types.

    The atoms are those phi uses, in the order of `order`, which must hold
    them all.  A row type fixes the instance-box subformulas true along a
    classifier; a column type fixes a valuation of the atoms plus the
    classifier-box subformulas true along an instance.  Every subformula's
    truth at a cell is determined by (row type, column type, cell value); a
    value is admissible where it makes the arguments of the cell's true
    boxes true.  In a family every cell admits a value, every row type is
    realized, phi holds at a realized cell, and each false box of a column
    fails there at a realized row.  `copies` is None in open mode and, in
    finite mode, the number of states that may share a valuation of all of
    `order`; it doubles for each atom of `order` that phi does not use, as
    those atoms tell such states apart.  The mode enters at three points.
    Columns: open mode adds each column type once, and fresh atoms give it
    copies; in finite mode a column is one state, at most `copies` share a
    valuation, and a new one takes the least free copy index, as they are
    interchangeable.  Realizing a row type: in open mode
    each false instance box fails at some value of some column, since copies
    of the row meet every value; in finite mode one value per column refutes
    them all, found by a reach-set pass over the columns on the bits of
    refuted arguments, pinned where phi must hold or a box must fail.  The
    witness: k copies of every type in open mode (see below); in finite mode
    the columns are the states, and the classifiers are one realization
    where phi holds plus one per false box per column.

    The depth-first search seeds each cell where phi can hold and adds one
    type toward the first unmet obligation: for a row type, a column
    refuting a box no column refutes yet or, if the values clash, one of its
    false boxes; for phi (finite mode only: in open mode the seed cell stays
    in the family and the copies of its realized row meet each of its
    values), a column refuting a false box of a row where phi can hold; for
    a column's false box, a new row type refuting it there or a column
    refuting a false box of a row type that already does.
    Completeness: the types of any model of phi form such a family within
    the copy bound.  While the search's family and phi's cell lie inside it,
    the model's classifier meeting an unmet obligation has a candidate type,
    or a type in the family whose values at other states refute a box that
    the family's columns leave unrefuted.  So a family that fails has no
    model around it, whichever seed reached it.  Soundness: by induction
    every cell's truths equal its types', as a true box holds at every
    admissible value and a false one fails at a realization; so two rows
    with one table carry one type, and finite-mode states stay distinct.

    phi's distinct subformulas are numbered children first in one walk of
    its DAG, which also collects the atoms, and a cell's truths are a
    bitmask over those numbers.  The whole cell table is charged to the
    meter before the search starts, but a cell is built only when the search
    first reads it.

    Returns the atoms and the witness grid (atoms, masks, table, point):
    each column's valuation of the atoms, the rows as tuples of value
    indexes, and the (row, column) where phi holds; None means UNSAT.
    Raises BudgetExceeded, spending nothing, when the cell table alone
    exceeds the meter's remaining budget.
    """
    # The types fix the boxes, the column the atoms and the value the
    # decision atoms; children are numbered before their parents, so one
    # pass over `ops` settles the rest.
    pos: dict[Formula, int] = {}
    atom_bit: dict[str, int] = {}
    value_bits = [0] * len(values)
    top_bits = 0
    ops: list[tuple[int, int, int]] = []  # (bit, operand bits, their value making the bit true)
    boxi: list[int] = []
    boxf: list[int] = []
    arg: dict[int, int] = {}  # box position -> bit of its argument
    stack: list[tuple[Formula, bool]] = [(phi, False)]
    while stack:
        f, children_done = stack.pop()
        if f in pos:
            continue
        if not children_done and (kids := f.children()):
            stack.append((f, True))
            stack += [(c, False) for c in reversed(kids)]
            continue
        p = pos[f] = len(pos)
        if isinstance(f, Atom):
            atom_bit[f.name] = 1 << p
        elif isinstance(f, Dec):
            value_bits[values.index(f.value)] |= 1 << p
        elif isinstance(f, Top):
            top_bits |= 1 << p
        elif isinstance(f, Not):
            ops.append((1 << p, 1 << pos[f.sub], 0))
        elif isinstance(f, And):
            both = 1 << pos[f.left] | 1 << pos[f.right]
            ops.append((1 << p, both, both))
        elif isinstance(f, (BoxI, BoxF)):
            (boxi if isinstance(f, BoxI) else boxf).append(p)
            arg[p] = 1 << pos[f.sub]
        else:
            raise AssertionError("type search needs an expanded static formula")
    atoms = tuple(a for a in order if a in atom_bit)
    atom_bits = [atom_bit[a] for a in atoms]
    if copies is not None:
        copies <<= len(order) - len(atoms)
    nvals = len(values)
    cost = len(pos) * nvals << len(boxi) + len(atoms) + len(boxf)
    if cost > meter.cap - meter.used:
        raise BudgetExceeded(f"{meter.what} cannot fit the {magnitude(cost)} cell truths of its types in its node budget")
    meter.spend(cost)
    rows = _subsets([1 << b for b in boxi])
    cols = [
        (mask, fbits)
        for mask in range(1 << len(atoms))
        for fbits in _subsets([1 << b for b in boxf])
    ]
    ncols = len(cols)
    box_args = [(1 << b, a) for b, a in arg.items()]

    def required(bits: int) -> int:
        """The arguments of the boxes in `bits`, which a cell must make true;
        the boxes are all of one kind, so their arguments are distinct."""
        return sum(a for b, a in box_args if bits & b)

    row_req = [required(r) for r in rows]
    col_req = [required(fbits) for _, fbits in cols]
    row_need = [required(sum(1 << b for b in boxi)) & ~req for req in row_req]  # false boxes' arguments
    col_false = [[arg[b] for b in boxf if not fbits >> b & 1] for _, fbits in cols]
    col_fixed = [
        fbits | top_bits | sum(ab for a, ab in enumerate(atom_bits) if cmask >> a & 1)
        for cmask, fbits in cols
    ]
    phi_bit = 1 << pos[phi]
    cells: dict[int, list[tuple[int, int]]] = {}  # ri * ncols + ci -> admissible (value, truths)

    def cell(ri: int, ci: int) -> list[tuple[int, int]]:
        """The admissible values of cell (ri, ci) with the truths they give,
        built on first use; empty where no value is admissible."""
        got = cells.get(ri * ncols + ci)
        if got is None:
            got = cells[ri * ncols + ci] = []
            req = row_req[ri] | col_req[ci]
            fixed = rows[ri] | col_fixed[ci]
            for xi, vbits in enumerate(value_bits):
                t = fixed | vbits
                for bit, operands, want in ops:
                    if t & operands == want:
                        t |= bit
                if t & req == req:
                    got.append((xi, t))
        return got

    def has(ri: int, ci: int, bit: int, want: int) -> bool:
        return any(t & bit == want for _, t in cell(ri, ci))

    def realize(ri: int, cs: tuple[int, ...], pin_j: int = -1, pin: int = 0, want: int = 0) -> tuple:
        """(values, covered): one value index per column of cs with which a
        classifier of row type ri refutes all its false boxes, taking a t
        with t & pin == want at column pin_j (None if there is none), and the
        arguments that some value refutes.  In open mode the row's copies
        meet every value of each cell, so `values` is only () or None."""
        need = row_need[ri]
        covered = 0
        if copies is None:
            for j, ci in enumerate(cs):
                vals = cell(ri, ci)
                if j == pin_j and not any(t & pin == want for _, t in vals):
                    return None, covered
                for _, t in vals:
                    covered |= ~t & need
            meter.spend(len(cs))
            return (() if covered == need else None), covered
        reach: dict[int, tuple[int, ...]] = {0: ()}  # refuted arguments -> values reaching them
        work = 0
        for j, ci in enumerate(cs):
            vals = cell(ri, ci)
            if j == pin_j:
                vals = [v for v in vals if v[1] & pin == want]
                if not vals:
                    return None, covered
            opts: dict[int, int] = {}  # refuted arguments -> first value refuting them
            for xi, t in vals:
                opts.setdefault(~t & need, xi)
                covered |= ~t & need
            work += len(reach) * len(opts)
            reach = {b | o: p + (xi,) for b, p in reach.items() for o, xi in opts.items()}
        meter.spend(work)
        return reach.get(need), covered

    def first(rs: list[int], cs: tuple[int, ...], j: int, bit: int, want: int) -> tuple[int, ...] | None:
        """The first row type's realization taking a t with t & bit == want at column j."""
        return next((f for ri in rs if (f := realize(ri, cs, j, bit, want)[0]) is not None), None)

    def grow(rs: frozenset, cs: tuple[int, ...], wants: list[tuple[int, int]]) -> list:
        """The families with one more column that refutes, for some
        (row type, arguments) in `wants`, one of those arguments there."""
        return [
            (rs, tuple(sorted(cs + (ci,))))
            for ci in range(ncols)
            if any(~t & target for ri, target in wants for _, t in cell(ri, ci))
            and (ci not in cs if copies is None else sum(cols[c][0] == cols[ci][0] for c in cs) < copies)
            and all(cell(ri, ci) for ri in rs)
        ]

    def moves(rs: frozenset, cs: tuple[int, ...]) -> list | None:
        """The families adding one type toward the first unmet obligation of
        (rs, cs); None when every obligation is met."""
        rl = sorted(rs)
        for ri in rl:
            found, covered = realize(ri, cs)
            if found is None:
                missing = row_need[ri] & ~covered
                return grow(rs, cs, [(ri, missing & -missing or row_need[ri])])
        if copies is not None and all(first(rl, cs, j, phi_bit, phi_bit) is None for j in range(len(cs))):
            return grow(rs, cs, [(ri, row_need[ri]) for ri in rl if any(has(ri, c, phi_bit, phi_bit) for c in cs)])
        for j, cj in enumerate(cs):
            for a in col_false[cj]:
                if first(rl, cs, j, a, 0) is None:
                    helpers = [ri for ri in rl if has(ri, cj, a, 0)]
                    return [
                        (rs | {ri}, cs)
                        for ri in range(len(rows))
                        if ri not in rs and has(ri, cj, a, 0) and all(cell(ri, c) for c in cs)
                    ] + grow(rs, cs, [(ri, row_need[ri]) for ri in helpers])
        return None

    failed: set[tuple[frozenset, tuple[int, ...]]] = set()

    def solve(rs: frozenset, cs: tuple[int, ...]) -> tuple[frozenset, tuple[int, ...]] | None:
        meter.spend(1)
        if (rs, cs) in failed:
            return None
        options = moves(rs, cs)
        if options is None:
            return rs, cs
        for family in options:
            got = solve(*family)
            if got:
                return got
        failed.add((rs, cs))
        return None

    def read_off(rs: list[int], cs: tuple[int, ...]):
        if copies is not None:  # one classifier where phi holds, one per false box per column
            seed, j0 = next((f, j) for j in range(len(cs)) if (f := first(rs, cs, j, phi_bit, phi_bit)))
            table = [seed] + [first(rs, cs, j, a, 0) for j, ci in enumerate(cs) for a in col_false[ci]]
            return atoms, [cols[ci][0] for ci in cs], list(dict.fromkeys(table)), (0, j0)
        # k copies of every row and column type; copy (a, b) of cell (r, c)
        # takes the admissible value at (a + b) mod |V(r, c)|.  Each row copy
        # then meets every admissible value of each of its cells, and so does
        # each column copy: a box false at a type keeps a refuting cell, and a
        # box true at a type holds at every admissible value.  Merging
        # identical rows changes no truth value.
        grid = [[cell(ri, ci) for ci in cs] for ri in rs]
        k = max(len(vs) for row in grid for vs in row)
        rows_out: dict[tuple[int, ...], list[int]] = {}  # value indexes -> truth of phi per column
        for row in grid:
            for a in range(k):
                picks = [vs[(a + b) % len(vs)] for vs in row for b in range(k)]
                rows_out.setdefault(tuple(x for x, _ in picks), [t & phi_bit for _, t in picks])
        point = next((i, j) for i, truth in enumerate(rows_out.values()) for j, t in enumerate(truth) if t)
        return atoms, [cols[ci][0] for ci in cs for _ in range(k)], list(rows_out), point

    try:
        for ri in range(len(rows)):
            for ci in range(ncols):
                if has(ri, ci, phi_bit, phi_bit):
                    got = solve(frozenset([ri]), (ci,))
                    if got:
                        return read_off(sorted(got[0]), got[1])
        return None
    finally:
        del solve  # free the self-referencing closure and the cells now


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
    model), or None for UNSAT.  A value set that the formula's atoms and
    values cannot form a signature with raises SignatureError before the
    search, whatever its verdict.
    """
    base_atoms, used_values = _static_symbols(phi)
    values = tuple(values)
    missing = used_values.difference(values)
    if missing:
        raise EvalError(f"formula mentions undeclared values {sorted(missing)}")
    base_sig = Signature(sorted(base_atoms), values)
    phi_sys = _expanded(phi)
    solved = _system_satisfiable(phi_sys, base_sig.atoms, values, BudgetMeter(search_budget(budget)))
    if solved is None:
        return None
    return _open_witness(phi, base_sig, *solved)


def _open_witness(
    phi: Formula,
    base_sig: Signature,
    atoms: tuple[str, ...],
    masks: Sequence[int],
    table: list[tuple[int, ...]],
    point: tuple[int, int],
) -> Witness:
    n = len(masks)
    grid_sig = Signature(atoms, base_sig.values)
    fresh = _fresh_names(set(base_sig.atoms) | set(base_sig.values), n)
    states = [mask_state(grid_sig, masks[j]) | {fresh[j]} for j in range(n)]
    sig = Signature(base_sig.atoms + tuple(fresh), base_sig.values)
    quasi = functools.partial(_quasi_model, base_sig, atoms, masks, table)
    return _grid_witness("open", phi, sig, states, table, point, quasi)


def _quasi_model(
    base_sig: Signature,
    atoms: tuple[str, ...],
    masks: Sequence[int],
    table: list[tuple[int, ...]],
) -> QuasiMDM:
    """The grid as a quasi decision model over `base_sig`: world (i, j) is
    row i at column j, whose valuation of `atoms` is masks[j]."""
    m, n = len(table), len(masks)
    values = base_sig.values
    grid_sig = Signature(atoms, values)
    col_atoms = [mask_state(grid_sig, mask) for mask in masks]
    worlds = [(i, j) for i in range(m) for j in range(n)]
    valuation = {(i, j): (col_atoms[j], values[table[i][j]]) for (i, j) in worlds}
    rel_i = [frozenset((i, j) for j in range(n)) for i in range(m)]
    rel_f = [frozenset((i, j) for i in range(m)) for j in range(n)]
    return QuasiMDM(base_sig, worlds, valuation, rel_i, rel_f)


def filtrate(M: QuasiMDM, phi: Formula, w0) -> tuple[QuasiMDM, dict]:
    """Quotient the generated submodel of w0 by agreement on phi's
    subformulas (decision atoms included), preserving phi at the image of w0
    and bounding the world count by 2^|subformulas + decision atoms|.
    """
    _static_symbols(phi)  # raises EvalError on an update operator
    report = validate_mdm(M)
    bad = [nm for nm in ("C1", "C3", "C4", "C5") if not report.passed(nm)]
    if bad:
        raise EvalError(f"filtration needs a valid quasi model; failing: {', '.join(bad)}")
    sub = generated_submodel(M, w0)
    sf = subformulas(phi, plus=True, sig=M.sig)
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
