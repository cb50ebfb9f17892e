"""Formula ASTs, signatures, terms, and the structural operations on them.

The primitive connectives are atoms, decision atoms, truth, negation,
conjunction, the two boxes, the ceteris-paribus modality, and the knowledge
update operator.  Everything else (or, implication, iff, diamonds, falsity)
is desugared into primitives at construction time; the printer re-sugars.

Each node class says here, and only here, which of its fields hold
subformulas: `children()` gives them in field order, and `map(fn)` rebuilds
the node over fn of each, or returns it as it is when every child comes back
unchanged.  Walks that need only the shape (`size`, `subformulas`, the
rewrite passes' recursions, the type search's numbering) go through those
two; code that gives a connective its meaning dispatches on the class.
`symbols` reads a formula's atoms, decision values and update operators off
one scan of its subformulas.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

ATOM_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")
VALUE_RE = re.compile(r"[a-z0-9_][A-Za-z0-9_]*\Z")
KEYWORDS = frozenset({"boxI", "boxF", "diaI", "diaF", "true", "false"})
FRESH_PREFIX = "_"


class SignatureError(ValueError):
    """Ill-formed signature (bad names, duplicates, atom/value clash)."""


class Frozen:
    """Immutable value with structural equality over the fields in `_fields`.

    The hash is computed once, from the class name and the fields, when the
    value is built (atoms and decision atoms compute theirs when asked, see
    `_Leaf`).  Pickling and copying rebuild the value through its
    constructor, so the receiving process recomputes the hash.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(self._fields)} arguments, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self).__name__, *values)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if self._hash != other._hash:  # type: ignore[attr-defined]
            return False
        for f in self._fields:
            if getattr(self, f) != getattr(other, f):
                return False
        return True

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Signature(Frozen):
    """The declared finite atom set and output-value set of a session."""

    _fields = ("atoms", "values")
    __slots__ = _fields + ("_atom_pos",)
    atoms: tuple[str, ...]
    values: tuple[str, ...]

    def __init__(self, atoms: Iterable[str], values: Iterable[str]) -> None:
        atoms = tuple(atoms)
        values = tuple(values)
        if not values:
            raise SignatureError("value set must be nonempty")
        for a in atoms:
            if not ATOM_RE.match(a) or a in KEYWORDS:
                raise SignatureError(f"bad atom name {a!r}")
        for v in values:
            if not VALUE_RE.match(v) or v in KEYWORDS:
                raise SignatureError(f"bad value name {v!r}")
        if len(set(atoms)) != len(atoms):
            raise SignatureError("duplicate atom names")
        if len(set(values)) != len(values):
            raise SignatureError("duplicate value names")
        if set(atoms) & set(values):
            raise SignatureError("atom and value names must be disjoint")
        super().__init__(atoms, values)
        object.__setattr__(self, "_atom_pos", {a: i for i, a in enumerate(atoms)})

    def atom_index(self, name: str) -> int:
        try:
            return self._atom_pos[name]
        except KeyError:
            raise SignatureError(f"unknown atom {name!r}") from None

    def require_value(self, value: str) -> None:
        if value not in self.values:
            raise SignatureError(f"unknown value {value!r}")


class Formula(Frozen):
    """Base class; all nodes are immutable values with structural equality.

    The base class is a leaf: no children, and `map` returns the node.
    """

    __slots__ = ()

    def children(self) -> tuple[Formula, ...]:
        """The immediate subformulas, in field order."""
        return ()

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        """This node over fn of each child, called in field order; the node
        itself when every child comes back as it is."""
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(repr(getattr(self, f)) for f in self._fields)})"

    def __str__(self) -> str:
        from .parser import render_formula

        return render_formula(self)


class _Leaf(Formula):
    """A node whose one field is a string, which stores no hash.

    Its hash is computed when asked, from its class name and the string,
    which caches its own.  Atoms and decision atoms are the most numerous
    nodes, so a formula kept alive holds one int less for each.
    """

    __slots__ = ()

    def __init__(self, text: str) -> None:
        object.__setattr__(self, self._fields[0], text)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return getattr(self, self._fields[0]) == getattr(other, self._fields[0])


class Atom(_Leaf):
    __slots__ = _fields = ("name",)
    name: str

    def __hash__(self) -> int:
        return hash(("Atom", self.name))


class Dec(_Leaf):
    """Decision atom: the current classifier outputs this value here."""

    __slots__ = _fields = ("value",)
    value: str

    def __hash__(self) -> int:
        return hash(("Dec", self.value))


class Top(Formula):
    __slots__ = ()


class _Unary(Formula):
    """A connective whose one field is its subformula."""

    __slots__ = _fields = ("sub",)
    sub: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        s = fn(self.sub)
        return self if s is self.sub else type(self)(s)


class Not(_Unary):
    __slots__ = ()


class And(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        l, r = fn(self.left), fn(self.right)
        return self if l is self.left and r is self.right else And(l, r)


class BoxI(_Unary):
    """Necessity over input instances (classifier held fixed)."""

    __slots__ = ()


class BoxF(_Unary):
    """Necessity over classifiers (input instance held fixed)."""

    __slots__ = ()


class CP(Formula):
    """Ceteris-paribus modality: sub holds at all instances agreeing on `atoms`."""

    __slots__ = _fields = ("atoms", "sub")
    atoms: tuple[str, ...]
    sub: Formula

    def __init__(self, atoms: Iterable[str], sub: Formula) -> None:
        super().__init__(tuple(sorted(set(atoms))), sub)

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        s = fn(self.sub)
        return self if s is self.sub else CP(self.atoms, s)


class Dyn(Formula):
    """Knowledge update: sub holds after discarding classifiers that do not
    globally satisfy the announced constraint."""

    __slots__ = _fields = ("announced", "sub")
    announced: Formula
    sub: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.announced, self.sub)

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        a, s = fn(self.announced), fn(self.sub)
        return self if a is self.announced and s is self.sub else Dyn(a, s)


# Derived connectives, stored desugared.

def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def DiaI(sub: Formula) -> Formula:
    return Not(BoxI(Not(sub)))


def DiaF(sub: Formula) -> Formula:
    return Not(BoxF(Not(sub)))


def CPDia(atoms: Iterable[str], sub: Formula) -> Formula:
    return Not(CP(tuple(atoms), Not(sub)))


def Bottom() -> Formula:
    return Not(Top())


def big_and(parts: Iterable[Formula]) -> Formula:
    """Left-nested conjunction; the empty conjunction is truth."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return Top() if out is None else out


def big_or(parts: Iterable[Formula]) -> Formula:
    """Left-nested disjunction; the empty disjunction is falsity."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return Bottom() if out is None else out


def size(phi: Formula) -> int:
    """Number of AST nodes."""
    n = 0
    stack = [phi]
    while stack:
        n += 1
        stack += stack.pop().children()
    return n


def subformulas(phi: Formula, plus: bool = False, sig: Signature | None = None) -> frozenset[Formula]:
    """All subformulas of phi (phi included); with `plus`, also every decision
    atom of the signature."""
    out: set[Formula] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f not in out:
            out.add(f)
            stack += f.children()
    if plus:
        if sig is None:
            raise ValueError("plus=True needs a signature for the decision atoms")
        out.update(Dec(v) for v in sig.values)
    return frozenset(out)


def symbols(phi: Formula) -> tuple[frozenset[str], frozenset[str], bool]:
    """The input atoms of phi (ceteris-paribus index sets included), its
    decision values, and whether it is static (has no update operator), from
    one scan of its subformulas."""
    atoms: set[str] = set()
    values: set[str] = set()
    static = True
    for f in subformulas(phi):
        if type(f) is Atom:
            atoms.add(f.name)
        elif type(f) is Dec:
            values.add(f.value)
        elif type(f) is CP:
            atoms.update(f.atoms)
        elif type(f) is Dyn:
            static = False
    return frozenset(atoms), frozenset(values), static


def atoms_of(phi: Formula) -> frozenset[str]:
    """Input atoms occurring in phi, including ceteris-paribus index sets."""
    return symbols(phi)[0]


def is_static(phi: Formula) -> bool:
    """True when phi contains no knowledge-update operator."""
    return symbols(phi)[2]


def require_declared(atoms: Iterable[str], values: Iterable[str], sig: Signature) -> None:
    """Raise SignatureError naming the least undeclared atom or, when every
    atom is declared, the least undeclared value."""
    for name in sorted(set(atoms).difference(sig.atoms)):
        sig.atom_index(name)
    for name in sorted(set(values).difference(sig.values)):
        sig.require_value(name)


def validate_formula(phi: Formula, sig: Signature) -> None:
    """Raise SignatureError unless every atom and value of phi is declared."""
    atoms, values, _ = symbols(phi)
    require_declared(atoms, values, sig)


def conj_term(positive: Iterable[str], over: Iterable[str], sig: Signature) -> Formula:
    """Conjunction asserting each atom of `positive` and denying the rest of
    `over`, in signature order; empty `over` yields truth."""
    pos = frozenset(positive)
    ov = frozenset(over)
    if not pos <= ov:
        raise ValueError("positive atoms must be a subset of the atoms described")
    for a in ov:
        sig.atom_index(a)
    lits: list[Formula] = []
    for a in sig.atoms:
        if a in ov:
            lits.append(Atom(a) if a in pos else Not(Atom(a)))
    return big_and(lits)


def _expand_cp_ordered(xs: tuple[str, ...], phi: Formula) -> Formula:
    """Expansion of the ceteris-paribus modality over an ordered index set."""
    clauses: list[Formula] = []
    for ymask in range((1 << len(xs)) - 1, -1, -1):
        lits: list[Formula] = []
        for i, a in enumerate(xs):
            lits.append(Atom(a) if ymask >> i & 1 else Not(Atom(a)))
        guard = big_and(lits)
        clauses.append(Implies(guard, BoxI(Implies(guard, phi))))
    return big_and(clauses)


def expand_cp(xatoms: Iterable[str], phi: Formula, sig: Signature) -> Formula:
    """Rewrite [X]phi into its boxed case split over the valuations of X.

    The result mentions only negation, conjunction, and the instance box at
    the expanded position; it is exponential in |X|.
    """
    xset = frozenset(xatoms)
    for a in xset:
        sig.atom_index(a)
    xs = tuple(a for a in sig.atoms if a in xset)
    return _expand_cp_ordered(xs, phi)


class Term(Frozen):
    """A consistent conjunction of literals, the currency of explanations."""

    __slots__ = _fields = ("pos", "neg")
    pos: frozenset[str]
    neg: frozenset[str]

    def __init__(self, pos: Iterable[str], neg: Iterable[str]) -> None:
        pos = frozenset(pos)
        neg = frozenset(neg)
        if pos & neg:
            raise ValueError("a term cannot both assert and deny an atom")
        super().__init__(pos, neg)

    @property
    def atoms(self) -> frozenset[str]:
        return self.pos | self.neg

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)

    def is_empty(self) -> bool:
        return not self.pos and not self.neg

    def __le__(self, other: "Term") -> bool:
        return self.pos <= other.pos and self.neg <= other.neg

    def __lt__(self, other: "Term") -> bool:
        return self <= other and self != other

    def drop(self, atom: str) -> "Term":
        return Term(self.pos - {atom}, self.neg - {atom})

    def satisfied_by(self, state: frozenset[str]) -> bool:
        return self.pos <= state and not (self.neg & state)

    def as_formula(self, sig: Signature) -> Formula:
        lits: list[Formula] = []
        for a in sig.atoms:
            if a in self.pos:
                lits.append(Atom(a))
            elif a in self.neg:
                lits.append(Not(Atom(a)))
        return big_and(lits)

    def sort_key(self, sig: Signature) -> tuple:
        lits = tuple(
            (sig.atom_index(a), 0 if a in self.pos else 1)
            for a in sig.atoms
            if a in self.atoms
        )
        return (len(self), lits)

    @classmethod
    def from_formula(cls, phi: Formula) -> "Term":
        """Read a conjunction of literals back into a term; truth is empty."""
        pos: set[str] = set()
        neg: set[str] = set()

        def walk(f: Formula) -> None:
            if isinstance(f, Top):
                return
            if isinstance(f, Atom):
                pos.add(f.name)
            elif isinstance(f, Not) and isinstance(f.sub, Atom):
                neg.add(f.sub.name)
            elif isinstance(f, And):
                walk(f.left)
                walk(f.right)
            else:
                raise ValueError(f"not a conjunction of literals: {f!r}")

        walk(phi)
        return cls(frozenset(pos), frozenset(neg))


def all_terms(sig: Signature) -> Iterator[Term]:
    """Every term over the signature, ordered by size then literal order."""
    import itertools

    terms = []
    for choice in itertools.product((0, 1, 2), repeat=len(sig.atoms)):
        pos = frozenset(a for a, c in zip(sig.atoms, choice) if c == 1)
        neg = frozenset(a for a, c in zip(sig.atoms, choice) if c == 2)
        terms.append(Term(pos, neg))
    terms.sort(key=lambda t: t.sort_key(sig))
    return iter(terms)
