"""Satisfiability and validity engines.

Finite mode fixes the atom stock and searches pointed multi-classifier
models directly.  Open mode treats the atom stock as unbounded: a
type-system saturation search decides satisfiability (worlds are quotiented
by the formulas they satisfy, mirroring filtration), and a grid search over
quasi decision models produces a concrete witness, which a per-instance
fresh atom then upgrades to a genuine multi-classifier model.

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


_TABLE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _all_tables(nvals: int, nstates: int) -> np.ndarray:
    """All value assignments over `nstates` states, lexicographic, (nt, nstates)."""
    import numpy as np

    key = (nvals, nstates)
    hit = _TABLE_CACHE.get(key)
    if hit is None:
        hit = np.asarray(
            list(itertools.product(range(nvals), repeat=nstates)), dtype=np.int8
        ).reshape(nvals**nstates, nstates)
        _TABLE_CACHE[key] = hit
    return hit


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
    for smask in range(1, 1 << universe):
        cols = [u for u in range(universe) if smask >> u & 1]
        ns = len(cols)
        tables = _all_tables(nvals, ns)
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
                    fns = [
                        ClassifierFn(
                            f"f{r}",
                            {s: sig.values[batch[b, r, jj]] for jj, s in enumerate(states)},
                        )
                        for r in range(fam_size)
                    ]
                    model = MCM(sig, states, fns)
                    return Witness(
                        "finite",
                        model,
                        states[j],
                        model.function_named(f"f{i}"),
                        phi,
                    )
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
                    fns = [
                        ClassifierFn(
                            f"f{r}",
                            {s: sig.values[family[r][jj]] for jj, s in enumerate(states)},
                        )
                        for r in range(fam_size)
                    ]
                    model = MCM(sig, states, fns)
                    return Witness(
                        "finite",
                        model,
                        states[j],
                        model.function_named(f"f{i}"),
                        phi,
                    )
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


# Open mode: type-system decision plus grid witness search.


def _subsets(items: list) -> list[frozenset]:
    out = []
    for r in range(len(items) + 1):
        for combo in itertools.combinations(range(len(items)), r):
            out.append(frozenset(items[c] for c in combo))
    return out


def _system_satisfiable(phi: Formula, atoms: tuple[str, ...], values: tuple[str, ...], meter: BudgetMeter) -> bool:
    """Decide satisfiability over unboundedly many atoms by searching for a
    coherent system of classifier-row types and instance-column types.

    A row type fixes the instance-box subformulas true along a classifier; a
    column type fixes an atom valuation plus the classifier-box subformulas
    true along an instance.  Every subformula's truth at a cell is determined
    by (row type, column type, cell value); the search looks for a mutually
    compatible family fulfilling every diamond obligation, seeded with a cell
    satisfying the target formula.  UNSAT is definitive: the types realized
    by any satisfying model form such a family.
    """
    sf = sorted(subformulas(phi), key=lambda f: (size(f), render_formula(f)))
    boxi = [f for f in sf if isinstance(f, BoxI)]
    boxf = [f for f in sf if isinstance(f, BoxF)]
    apos = {a: i for i, a in enumerate(atoms)}
    rows = _subsets(boxi)
    cols = [
        (mask, fset)
        for mask in range(1 << len(atoms))
        for fset in _subsets(boxf)
    ]
    nvals = len(values)
    meter.spend(len(rows) * len(cols) * nvals * len(sf))

    def cell_truths(r: frozenset, cmask: int, cf: frozenset, xi: int):
        t: dict[Formula, bool] = {}
        for f in sf:
            if isinstance(f, Atom):
                t[f] = bool(cmask >> apos[f.name] & 1)
            elif isinstance(f, Dec):
                t[f] = values[xi] == f.value
            elif isinstance(f, Top):
                t[f] = True
            elif isinstance(f, Not):
                t[f] = not t[f.sub]
            elif isinstance(f, And):
                t[f] = t[f.left] and t[f.right]
            elif isinstance(f, BoxI):
                t[f] = f in r
            elif isinstance(f, BoxF):
                t[f] = f in cf
            else:
                raise AssertionError("type search needs an expanded static formula")
        for b in r:
            if not t[b.sub]:
                return None
        for b in cf:
            if not t[b.sub]:
                return None
        return t

    cells: dict[tuple[int, int], list[tuple[int, dict]]] = {}
    for ri, r in enumerate(rows):
        for ci, (cmask, cf) in enumerate(cols):
            valid = []
            for xi in range(nvals):
                t = cell_truths(r, cmask, cf, xi)
                if t is not None:
                    valid.append((xi, t))
            if valid:
                cells[(ri, ci)] = valid

    def refutes(ri: int, ci: int, target: Formula) -> bool:
        return any(not t[target] for _, t in cells.get((ri, ci), []))

    failed: set[tuple[frozenset, frozenset]] = set()

    def solve(rset: frozenset, cset: frozenset) -> bool:
        meter.spend(1)
        obligation = None
        for ri in sorted(rset):
            for b in boxi:
                if b in rows[ri]:
                    continue
                if not any(refutes(ri, ci, b.sub) for ci in sorted(cset)):
                    obligation = ("row", ri, b)
                    break
            if obligation:
                break
        if obligation is None:
            for ci in sorted(cset):
                for b in boxf:
                    if b in cols[ci][1]:
                        continue
                    if not any(refutes(ri, ci, b.sub) for ri in sorted(rset)):
                        obligation = ("col", ci, b)
                        break
                if obligation:
                    break
        if obligation is None:
            return True
        if (rset, cset) in failed:
            return False
        kind, who, b = obligation
        if kind == "row":
            for ci in range(len(cols)):
                if ci in cset:
                    continue
                if not refutes(who, ci, b.sub):
                    continue
                if all((ri, ci) in cells for ri in rset):
                    if solve(rset, cset | {ci}):
                        return True
        else:
            for ri in range(len(rows)):
                if ri in rset:
                    continue
                if not refutes(ri, who, b.sub):
                    continue
                if all((ri, ci) in cells for ci in cset):
                    if solve(rset | {ri}, cset):
                        return True
        failed.add((rset, cset))
        return False

    for ri in range(len(rows)):
        for ci in range(len(cols)):
            for xi, t in cells.get((ri, ci), []):
                if t[phi]:
                    if solve(frozenset([ri]), frozenset([ci])):
                        return True
                    break  # other cell values at this pair satisfy phi or not; pair failed
    return False


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
    max_worlds: int | None = None,
) -> Witness | None:
    """Satisfiability when the atom stock is unbounded beyond the formula.

    Returns a witness over the formula's atoms plus one fresh atom per
    instance column (the fresh atoms restore functionality, turning the found
    quasi model into a genuine multi-classifier model), or None for UNSAT.
    """
    import numpy as np

    _require_static(phi)
    values = tuple(values)
    missing = dec_values_of(phi) - set(values)
    if missing:
        raise EvalError(f"formula mentions undeclared values {sorted(missing)}")
    phi_s = simplify(phi)
    atoms = tuple(sorted(atoms_of(phi_s)))
    meter = BudgetMeter(search_budget(budget))
    phi_sys = simplify(cp_free(phi_s))
    if not _system_satisfiable(phi_sys, tuple(sorted(atoms_of(phi_sys))), values, meter):
        return None

    sf = subformulas(phi_s)
    sf_plus = len(sf) + sum(1 for v in values if Dec(v) not in sf)
    t_cap = max_worlds if max_worlds is not None else 1 << min(sf_plus, 30)
    nvals = len(values)
    nmask = 1 << len(atoms)
    for total in range(1, t_cap + 1):
        for m in range(1, total + 1):
            if total % m:
                continue
            n = total // m
            row_pow = (nvals ** np.arange(n - 1, -1, -1)).reshape(1, 1, n)
            col_pow = (nvals ** np.arange(m - 1, -1, -1)).reshape(1, m, 1)
            for masks in itertools.combinations_with_replacement(range(nmask), n):
                gen = itertools.product(range(nvals), repeat=m * n)
                while True:
                    chunk = list(itertools.islice(gen, _CHUNK))
                    if not chunk:
                        break
                    batch = np.asarray(chunk, dtype=np.int8).reshape(-1, m, n)
                    meter.spend(batch.shape[0] * m * n)
                    keep = np.ones(batch.shape[0], bool)
                    if m > 1:
                        row_codes = (batch * row_pow).sum(axis=2)
                        keep &= (np.diff(row_codes, axis=1) > 0).all(axis=1)
                    col_codes = None
                    for j in range(n - 1):
                        if masks[j] == masks[j + 1]:
                            if col_codes is None:
                                col_codes = (batch * col_pow).sum(axis=1)
                            keep &= col_codes[:, j] < col_codes[:, j + 1]
                    if not keep.any():
                        continue
                    batch = batch[keep]
                    truth = grid_truth(phi_s, atoms, values, masks, batch)
                    hits = np.argwhere(truth)
                    if hits.size:
                        b, j0, i0 = (int(x) for x in hits[0])
                        return _open_witness(
                            phi, atoms, values, masks, batch[b], (i0, j0)
                        )
    raise BudgetExceeded(
        "witness search exhausted its world cap although the type analysis "
        "found the formula satisfiable"
    )


def _open_witness(
    phi: Formula,
    atoms: tuple[str, ...],
    values: tuple[str, ...],
    masks: Sequence[int],
    table: np.ndarray,
    point: tuple[int, int],
) -> Witness:
    m, n = table.shape
    base_atoms = tuple(sorted(atoms_of(phi)))
    qsig = Signature(base_atoms, values)
    grid_sig = Signature(atoms, values)

    def mask_atoms(mask: int) -> frozenset:
        return frozenset(mask_state(grid_sig, mask))

    worlds = [(i, j) for i in range(m) for j in range(n)]
    valuation = {
        (i, j): (mask_atoms(masks[j]), values[int(table[i, j])]) for (i, j) in worlds
    }
    rel_i = [frozenset((i, j) for j in range(n)) for i in range(m)]
    rel_f = [frozenset((i, j) for i in range(m)) for j in range(n)]
    quasi = QuasiMDM(qsig, worlds, valuation, rel_i, rel_f)

    fresh = _fresh_names(set(base_atoms), n)
    sig2 = Signature(base_atoms + tuple(fresh), values)
    states = [mask_atoms(masks[j]) | {fresh[j]} for j in range(n)]
    fns = [
        ClassifierFn(f"f{i}", {states[j]: values[int(table[i, j])] for j in range(n)})
        for i in range(m)
    ]
    model = MCM(sig2, states, fns)
    i0, j0 = point
    return Witness(
        "open",
        model,
        states[j0],
        model.function_named(f"f{i0}"),
        phi,
        quasi=quasi,
        quasi_world=(i0, j0),
    )


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
