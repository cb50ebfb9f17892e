"""Multi-classifier models, two-relation decision models, and the
transformations between them: building, updating, validating, and reading a
decision model off as a classifier model.  That read-off accepts a model
only when the map it defines preserves truth, which every connected (for
instance, generated) valid decision model satisfies.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Iterable, Mapping, Sequence

from .config import magnitude
from .semantics import _mcm_extension, grid_extension
from .syntax import (
    BoxI,
    Formula,
    Frozen,
    Signature,
    Term,
    big_and,
    require_declared,
    symbols,
)

State = frozenset  # a state is the set of atoms it makes true

_CONSTRAINT_TABLE_CAP = 2_097_152  # candidate functions enumerated per build
_CANDIDATE_GRID = 65536  # most candidate functions evaluated in one grid


class ModelError(ValueError):
    """Ill-formed model or an operation unsupported on the given model."""


def state_mask(sig: Signature, s: State) -> int:
    mask = 0
    for a in s:
        mask |= 1 << sig.atom_index(a)
    return mask


def mask_state(sig: Signature, mask: int) -> State:
    return frozenset(a for i, a in enumerate(sig.atoms) if mask >> i & 1)


def all_states(sig: Signature) -> list[State]:
    return [mask_state(sig, m) for m in range(1 << len(sig.atoms))]


def _sorted_states(sig: Signature, states: Iterable[State]) -> tuple[list[State], list[int]]:
    """The states and their atom bitmasks, sorted by bitmask, after checking
    that the set is nonempty, duplicate-free and over declared atoms."""
    sts = [frozenset(s) for s in states]
    if not sts:
        raise ModelError("state set must be nonempty")
    masks = {s: state_mask(sig, s) for s in sts}
    if len(masks) != len(sts):
        raise ModelError("duplicate states")
    sts.sort(key=masks.__getitem__)
    return sts, [masks[s] for s in sts]


class ClassifierFn:
    """A total map from the model's states to output values.

    Equality and hashing are by table only; the name is a label.
    """

    __slots__ = ("name", "_table", "_hash")

    def __init__(self, name: str, table: Mapping[State, str]):
        self.name = name
        self._table = {frozenset(s): v for s, v in table.items()}
        self._hash = hash(frozenset(self._table.items()))

    def __call__(self, state: State) -> str:
        try:
            return self._table[state]
        except KeyError:
            raise ModelError(f"state {set(state) or '{}'} outside the domain of {self.name}") from None

    def items(self) -> tuple[tuple[State, str], ...]:
        """The cells, ordered by each state's sorted atom names."""
        return tuple(sorted(self._table.items(), key=lambda kv: sorted(kv[0])))

    @property
    def table(self) -> dict[State, str]:
        return dict(self._table)

    def renamed(self, name: str) -> "ClassifierFn":
        return ClassifierFn(name, self._table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClassifierFn)
            and self._hash == other._hash
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ClassifierFn({self.name!r}, {len(self._table)} states)"


class MCM:
    """A set of input instances together with a set of candidate classifiers.

    States are sorted by their atom bitmask (kept in `state_masks`) and
    functions by their distinct names; models are immutable after
    construction.  An empty function set is legal only with the
    `inconsistent` marker, which knowledge updates produce when every
    classifier is discarded; checking against such a model is an error.
    """

    def __init__(
        self,
        sig: Signature,
        states: Iterable[State],
        functions: Iterable[ClassifierFn],
        inconsistent: bool = False,
    ):
        self.sig = sig
        sts, masks = _sorted_states(sig, states)
        self.states: tuple[State, ...] = tuple(sts)
        self.state_masks: tuple[int, ...] = tuple(masks)
        fns = list(functions)
        if not fns and not inconsistent:
            raise ModelError("classifier set must be nonempty")
        if fns and inconsistent:
            raise ModelError("inconsistent marker requires an empty classifier set")
        sset = set(self.states)
        values = frozenset(sig.values)
        for f in fns:
            if f._table.keys() != sset:
                raise ModelError(f"function {f.name} is not total on the state set")
            if not values.issuperset(f._table.values()):
                for _, v in f.items():
                    sig.require_value(v)
        if len(set(fns)) != len(fns):
            raise ModelError("duplicate function tables")
        names = [f.name for f in fns]
        if len(set(names)) != len(names):
            raise ModelError("duplicate function names")
        self.functions: tuple[ClassifierFn, ...] = tuple(sorted(fns, key=lambda f: f.name))
        self.inconsistent = inconsistent
        self._ext_cache: dict[Formula | int, int] = {}  # masks by formula and by value
        self._term_cache: dict[tuple[int, int], Term] = {}  # explain's terms by (pos, neg) mask
        self._key_cache: tuple | None = None

    def key(self) -> tuple:
        """Canonical structural key (equality and hashing)."""
        if self._key_cache is None:
            self._key_cache = (
                self.sig.atoms,
                self.sig.values,
                self.state_masks,
                tuple((f.name, f.items()) for f in self.functions),
                self.inconsistent,
            )
        return self._key_cache

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MCM) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def function_named(self, name: str) -> ClassifierFn:
        for f in self.functions:
            if f.name == name:
                return f
        raise ModelError(f"no function named {name!r}")

    def points(self) -> list[tuple[State, ClassifierFn]]:
        return [(s, f) for s in self.states for f in self.functions]

    def point(self, state: State, function: ClassifierFn | str) -> "PointedMCM":
        fn = self.function_named(function) if isinstance(function, str) else function
        return PointedMCM(self, frozenset(state), fn)

    def __repr__(self) -> str:
        return f"MCM({len(self.states)} states, {len(self.functions)} functions)"


class PointedMCM:
    """A model with a designated actual state and actual classifier."""

    def __init__(self, model: MCM, state: State, function: ClassifierFn):
        if model.inconsistent:
            raise ModelError("cannot point a model whose classifier set is empty")
        if state not in set(model.states):
            raise ModelError("designated state is not in the model")
        if function not in set(model.functions):
            raise ModelError("designated function is not in the model")
        self.model = model
        self.state = state
        self.function = function

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointedMCM)
            and self.model == other.model
            and self.state == other.state
            and self.function == other.function
        )

    def __hash__(self) -> int:
        return hash((self.model, self.state, self.function))

    def __repr__(self) -> str:
        return f"PointedMCM(state={set(self.state) or '{}'}, function={self.function.name})"


def build_mcm(
    sig: Signature,
    states: str | Iterable[State] = "all",
    functions: Iterable[ClassifierFn] | None = None,
    constraints: Sequence[Formula | str] | None = None,
) -> MCM:
    """Construct a model from explicit tables or from constraint formulas.

    In constraint mode a candidate function is kept iff its singleton model
    satisfies every constraint at every state.  Candidates are enumerated by
    brute force over all value assignments, so the state set must stay small:
    with the leading states' values fixed, the assignments to the last k
    states (at most 65,536) are the columns of one grid, each column a model
    of its own, and the grid evaluator reads off at once the columns where
    `boxI` of the constraints holds.  Kept functions are named f0, f1, ... in
    the lexicographic order of their value tuples (states sorted by atom
    bitmask, values in declared order).
    """
    if (functions is None) == (constraints is None):
        raise ValueError("give exactly one of functions= or constraints=")
    sts = all_states(sig) if states == "all" else [frozenset(s) for s in states]
    if functions is not None:
        return MCM(sig, sts, functions)

    from .parser import parse_formula

    phis: list[Formula] = []
    for c in constraints or []:
        phi = parse_formula(c, sig) if isinstance(c, str) else c
        atoms, values, static = symbols(phi)
        if not static:
            raise ModelError("constraints must not contain update operators")
        require_declared(atoms, values, sig)
        phis.append(phi)
    sts, masks = _sorted_states(sig, sts)
    if states != "all" and set(sts) != set(all_states(sig)):
        warnings.warn(
            "constraint mode over a partial state set: ceteris-paribus "
            "constraints that walk intermediate states may not mean what you want",
            stacklevel=2,
        )
    everywhere = BoxI(big_and(phis))
    n = len(sts)
    nv = len(sig.values)
    total = nv**n
    if total > _CONSTRAINT_TABLE_CAP:
        raise ModelError(f"constraint mode would enumerate {magnitude(total)} candidate functions")
    k = 0
    while k < n and nv ** (k + 1) <= _CANDIDATE_GRID:
        k += 1
    nf = nv**k
    row = (1 << nf) - 1
    # value masks of the last k rows: in row n-k+j, candidate c outputs digit
    # j of c in base nv, a pattern of period nv^(k-j) laid out by doubling
    tail_masks = [0] * nv
    for j in range(k):
        run = nv ** (k - 1 - j)
        for v in range(nv):
            pattern, width = ((1 << run) - 1) << (v * run), nv * run
            while width < nf:
                pattern |= pattern << width
                width *= 2
            tail_masks[v] |= (pattern & row) << ((n - k + j) * nf)
    tails = list(itertools.product(sig.values, repeat=k))
    kept: list[ClassifierFn] = []
    for lead in itertools.product(range(nv), repeat=n - k):
        dec = tail_masks.copy()
        for si, v in enumerate(lead):
            dec[v] |= row << (si * nf)
        by_value = dict(zip(sig.values, dec))
        ok = row & grid_extension(
            everywhere, sig, masks, nf, by_value.__getitem__, singleton=True, cache={}
        )
        head = tuple(sig.values[v] for v in lead)
        bits = format(ok, "b")[::-1]
        c = bits.find("1")
        while c >= 0:
            kept.append(ClassifierFn(f"f{len(kept)}", dict(zip(sts, head + tails[c]))))
            c = bits.find("1", c + 1)
    if not kept:
        raise ModelError("no candidate function satisfies the constraints")
    return MCM(sig, sts, kept)


def update_mcm(mcm: MCM, phi: Formula) -> MCM:
    """Discard every classifier that does not globally satisfy phi.

    The constraint is evaluated in the original model; the state set is
    unchanged.  If nothing survives, the result carries the
    inconsistent-knowledge marker instead of being rejected.  Model checking
    does not call this: it evaluates `[! phi] psi` inside the original grid.
    """
    if mcm.inconsistent:
        raise ModelError("cannot update a model whose classifier set is empty")
    ext = _mcm_extension(mcm, phi, dict(mcm._ext_cache))  # adds nothing to the cache
    nf = len(mcm.functions)
    col = ((1 << (len(mcm.states) * nf)) - 1) // ((1 << nf) - 1)  # classifier 0's points
    survivors = [f for fi, f in enumerate(mcm.functions) if ext >> fi & col == col]
    return MCM(mcm.sig, mcm.states, survivors, inconsistent=not survivors)


class QuasiMDM:
    """Kripke model over two equivalence relations with one decision per world.

    Constraints checked here are purely structural (partitions cover the
    worlds, valuations are declared); the semantic constraints are the
    validator's business.
    """

    def __init__(
        self,
        sig: Signature,
        worlds: Iterable,
        valuation: Mapping,
        rel_i: Iterable[Iterable],
        rel_f: Iterable[Iterable],
    ):
        self.sig = sig
        self.worlds = tuple(worlds)
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world ids")
        if not self.worlds:
            raise ModelError("world set must be nonempty")
        val = {}
        for w in self.worlds:
            if w not in valuation:
                raise ModelError(f"world {w!r} has no valuation")
            atoms, dec = valuation[w]
            atoms = frozenset(atoms)
            for a in atoms:
                sig.atom_index(a)
            sig.require_value(dec)
            val[w] = (atoms, dec)
        self.valuation = val
        self.rel_i = self._partition(rel_i, "relI")
        self.rel_f = self._partition(rel_f, "relF")
        self._i_index = {w: bi for bi, block in enumerate(self.rel_i) for w in block}
        self._f_index = {w: bi for bi, block in enumerate(self.rel_f) for w in block}
        self._ext_cache: dict[Formula, int] = {}

    def _partition(self, blocks: Iterable[Iterable], label: str) -> tuple[frozenset, ...]:
        out = tuple(frozenset(b) for b in blocks)
        seen: set = set()
        for b in out:
            if not b:
                raise ModelError(f"{label} has an empty block")
            if seen & b:
                raise ModelError(f"{label} blocks overlap")
            seen |= b
        if seen != set(self.worlds):
            raise ModelError(f"{label} does not cover the world set exactly")
        return out

    def atoms_val(self, w) -> frozenset:
        return self.valuation[w][0]

    def dec_val(self, w) -> str:
        return self.valuation[w][1]

    def i_class(self, w) -> frozenset:
        return self.rel_i[self._i_index[w]]

    def f_class(self, w) -> frozenset:
        return self.rel_f[self._f_index[w]]

    def i_index(self, w) -> int:
        return self._i_index[w]

    def f_index(self, w) -> int:
        return self._f_index[w]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.worlds)} worlds)"


class ConstraintCheck(Frozen):
    __slots__ = _fields = ("name", "passed", "witness")
    name: str
    passed: bool
    witness: tuple | None

    def __init__(self, name: str, passed: bool, witness: tuple | None = None) -> None:
        super().__init__(name, passed, witness)


class MdmReport(Frozen):
    __slots__ = _fields = ("checks",)
    checks: tuple[ConstraintCheck, ...]

    def check(self, name: str) -> ConstraintCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def passed(self, name: str) -> bool:
        return self.check(name).passed

    @property
    def ok_quasi(self) -> bool:
        return all(self.passed(n) for n in ("C1", "C3", "C4", "C5"))

    @property
    def ok_mdm(self) -> bool:
        return self.ok_quasi and self.passed("C2")

    @property
    def ok_c6(self) -> bool:
        return self.passed("C6")


def validate_mdm(M: QuasiMDM) -> MdmReport:
    """Per-constraint report: commutation, functionality, instance agreement,
    decision uniqueness/existence, and the trivial-intersection property."""
    checks: list[ConstraintCheck] = []

    # C1: the two relations commute: a world's I-class reaches, through F,
    # the same worlds as its F-class reaches through I.  Equal unions share
    # an id, so each world compares two ints.
    via_if = [frozenset().union(*(M.f_class(u) for u in block)) for block in M.rel_i]
    via_fi = [frozenset().union(*(M.i_class(u) for u in block)) for block in M.rel_f]
    ids: dict[frozenset, int] = {}
    if_ids = [ids.setdefault(u, len(ids)) for u in via_if]
    fi_ids = [ids.setdefault(u, len(ids)) for u in via_fi]
    c1_witness = None
    for w in M.worlds:
        i, f = M.i_index(w), M.f_index(w)
        if if_ids[i] != fi_ids[f]:
            c1_witness = (w, min(via_if[i] ^ via_fi[f], key=repr))
            break
    checks.append(ConstraintCheck("C1", c1_witness is None, c1_witness))

    # C2: same instance valuation within a classifier forces the same decision.
    c2_witness = None
    groups: dict[tuple, tuple] = {}
    for w in M.worlds:
        k = (M.i_index(w), M.atoms_val(w))
        if k in groups:
            v = groups[k]
            if M.dec_val(v) != M.dec_val(w):
                c2_witness = (v, w)
                break
        else:
            groups[k] = w
    checks.append(ConstraintCheck("C2", c2_witness is None, c2_witness))

    # C3: worlds for the same instance agree on the input atoms.
    c3_witness = None
    for block in M.rel_f:
        ws = sorted(block, key=repr)
        for u in ws[1:]:
            if M.atoms_val(u) != M.atoms_val(ws[0]):
                c3_witness = (ws[0], u)
                break
        if c3_witness:
            break
    checks.append(ConstraintCheck("C3", c3_witness is None, c3_witness))

    # C4/C5 hold structurally: exactly one decision value is stored per world.
    checks.append(ConstraintCheck("C4", True, None))
    checks.append(ConstraintCheck("C5", True, None))

    # C6: the relations intersect in the identity.
    c6_witness = None
    cells: dict[tuple[int, int], tuple] = {}
    for w in M.worlds:
        k = (M.i_index(w), M.f_index(w))
        if k in cells:
            c6_witness = (cells[k], w)
            break
        cells[k] = w
    checks.append(ConstraintCheck("C6", c6_witness is None, c6_witness))

    return MdmReport(tuple(checks))


def mcm_to_mdm(mcm: MCM) -> QuasiMDM:
    """The grid image: one world per (state, function) pair, rows related by
    shared function, columns by shared state."""
    if mcm.inconsistent:
        raise ModelError("cannot convert a model whose classifier set is empty")
    worlds = [(si, fi) for si in range(len(mcm.states)) for fi in range(len(mcm.functions))]
    rel_i = [
        frozenset((si, fi) for si in range(len(mcm.states)))
        for fi in range(len(mcm.functions))
    ]
    rel_f = [
        frozenset((si, fi) for fi in range(len(mcm.functions)))
        for si in range(len(mcm.states))
    ]
    valuation = {
        (si, fi): (mcm.states[si], mcm.functions[fi](mcm.states[si]))
        for (si, fi) in worlds
    }
    return QuasiMDM(mcm.sig, worlds, valuation, rel_i, rel_f)


def world_point(mcm: MCM, world: tuple[int, int]) -> PointedMCM:
    """The point a grid-image world stands for."""
    si, fi = world
    return PointedMCM(mcm, mcm.states[si], mcm.functions[fi])


def generated_submodel(M: QuasiMDM, w0) -> QuasiMDM:
    """Restriction to the worlds reachable from w0 through either relation."""
    if w0 not in set(M.worlds):
        raise ModelError(f"world {w0!r} is not in the model")
    reached = {w0}
    frontier = [w0]
    while frontier:
        w = frontier.pop()
        for u in M.i_class(w) | M.f_class(w):
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    worlds = [w for w in M.worlds if w in reached]
    rel_i = [b & reached for b in M.rel_i if b & reached]
    rel_f = [b & reached for b in M.rel_f if b & reached]
    val = {w: M.valuation[w] for w in worlds}
    return type(M)(M.sig, worlds, val, rel_i, rel_f)


_DISCONNECTED = (
    "incomplete grid (disconnected model); take the generated "
    "submodel of a designated world first"
)


def mdm_to_mcm(M: QuasiMDM) -> tuple[MCM, dict]:
    """Read a valid decision model off as a multi-classifier model.

    Each classifier block of `relI` stands for the function sending its
    worlds' input valuations to their decisions (well defined by C2); the
    states are the distinct input valuations, equal functions merge and are
    named g0, g1, ... in the order of their value tuples (states ordered by
    their sorted atom names, values compared as strings).  A world maps to
    its valuation under its block's function.  Returns the model and that
    world-to-point map.

    The model is accepted only when the map is a bounded morphism, so that
    every world agrees with its image on every static formula: every block's
    function must be defined at every state, and every instance block of
    `relF` must meet a block of every function.  Under C1 a connected model
    passes both checks, so the generated submodel of any world does.  Raises
    ModelError if C1-C5 fail or the checks do.
    """
    report = validate_mdm(M)
    bad = [n for n in ("C1", "C2", "C3", "C4", "C5") if not report.passed(n)]
    if bad:
        details = "; ".join(
            f"{n} fails at {report.check(n).witness}" for n in bad
        )
        raise ModelError(f"not a valid decision model: {details}")

    tables = [{M.atoms_val(w): M.dec_val(w) for w in block} for block in M.rel_i]
    states = sorted({s for table in tables for s in table}, key=sorted)
    if any(len(table) != len(states) for table in tables):
        raise ModelError(_DISCONNECTED)
    # every table covers the same states, so comparing value tuples in one
    # state order compares the tables
    keys = [tuple(table[s] for s in states) for table in tables]
    ordered = sorted(set(keys))
    rank = {k: r for r, k in enumerate(ordered)}
    block_rank = [rank[k] for k in keys]
    for block in M.rel_f:
        if len({block_rank[M.i_index(w)] for w in block}) != len(ordered):
            raise ModelError(_DISCONNECTED)
    fns = [ClassifierFn(f"g{r}", dict(zip(states, k))) for r, k in enumerate(ordered)]
    mcm = MCM(M.sig, states, fns)
    mapping = {w: (M.atoms_val(w), fns[block_rank[M.i_index(w)]]) for w in M.worlds}
    return mcm, mapping
