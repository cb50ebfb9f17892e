"""Objective and subjective classifier explanations: implicants, prime
implicants, abductive explanations, their knowledge-prefixed variants, and
their enumeration.

Every check and enumeration runs on one bitmask core.  A state is the mask of
its true atoms (bit j for `sig.atoms[j]`) and a term is a pair (pos, neg) of
masks; the term covers state s iff `s & (pos | neg) == pos`.  A term is an
implicant of a classifier for a value iff it covers none of the states the
classifier sends elsewhere.  Adding literals keeps a term an implicant, so a
term covering some state is prime iff it is an implicant and no one-literal
weakening is; a term covering no state is prime vacuously.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .config import BudgetMeter, search_budget
from .models import MCM, ClassifierFn, PointedMCM, state_mask
from .syntax import (
    BoxF,
    BoxI,
    CPDia,
    Dec,
    DiaI,
    Formula,
    Implies,
    Not,
    Signature,
    Term,
    big_and,
    And,
)


def pimp_formula(term: Term, value: str, sig: Signature) -> Formula:
    """The modal statement that `term` is a prime implicant for `value`:
    it forces the value everywhere, and dropping any literal leaves an
    instance (agreeing on the remaining atoms) classified differently."""
    sig.require_value(value)
    for a in term.atoms:
        sig.atom_index(a)
    target = Dec(value)
    minimality = []
    for p in sig.atoms:
        if p not in term.atoms:
            continue
        rest = sorted(term.atoms - {p})
        # holding nothing fixed is the plain instance diamond
        minimality.append(CPDia(rest, Not(target)) if rest else DiaI(Not(target)))
    return BoxI(Implies(term.as_formula(sig), big_and([target] + minimality)))


def axp_formula(term: Term, value: str, sig: Signature) -> Formula:
    """Abductive explanation: a prime implicant the actual instance satisfies."""
    return And(term.as_formula(sig), pimp_formula(term, value, sig))


def subpimp_formula(term: Term, value: str, sig: Signature) -> Formula:
    return BoxF(pimp_formula(term, value, sig))


def subaxp_formula(term: Term, value: str, sig: Signature) -> Formula:
    return BoxF(axp_formula(term, value, sig))


def _off_masks(mcm: MCM, fn: ClassifierFn, value: str) -> list[int]:
    """Masks of the states that fn does not classify as value."""
    return [m for s, m in zip(mcm.states, mcm.state_masks) if fn(s) != value]


def _covers_none(pos: int, neg: int, masks: Sequence[int]) -> bool:
    care = pos | neg
    return all(m & care != pos for m in masks)


def _is_prime(pos: int, neg: int, off: list[int]) -> bool:
    """Prime test of a term that covers some state: an implicant none of whose
    one-literal weakenings is one.  Literals are dropped in atom order."""
    if not _covers_none(pos, neg, off):
        return False
    care = pos | neg
    while care:
        bit = care & -care
        if _covers_none(pos & ~bit, neg & ~bit, off):
            return False
        care ^= bit
    return True


def _term_masks(sig: Signature, term: Term) -> tuple[int, int]:
    pos = neg = 0
    for a in term.pos:
        pos |= 1 << sig.atom_index(a)
    for a in term.neg:
        neg |= 1 << sig.atom_index(a)
    return pos, neg


def _term(mcm: MCM, pos: int, neg: int) -> Term:
    """The term with these masks, built once per model."""
    got = mcm._term_cache.get((pos, neg))
    if got is None:
        atoms = mcm.sig.atoms
        got = Term(
            frozenset(a for j, a in enumerate(atoms) if pos >> j & 1),
            frozenset(a for j, a in enumerate(atoms) if neg >> j & 1),
        )
        mcm._term_cache[(pos, neg)] = got
    return got


def is_implicant(mcm: MCM, fn: ClassifierFn, term: Term, value: str) -> bool:
    """Every state satisfying the term is classified as `value`."""
    mcm.sig.require_value(value)
    pos, neg = _term_masks(mcm.sig, term)
    return _covers_none(pos, neg, _off_masks(mcm, fn, value))


def check_pimp(mcm: MCM, fn: ClassifierFn, term: Term, value: str) -> bool:
    """Prime implicant check, agreeing with model checking of pimp_formula.

    When no state satisfies the term the boxed implication is vacuous and the
    check is true; otherwise the term must be an implicant whose every
    one-literal weakening, taken in atom order, loses the implicant property.
    """
    mcm.sig.require_value(value)
    pos, neg = _term_masks(mcm.sig, term)
    if _covers_none(pos, neg, mcm.state_masks):
        return True
    return _is_prime(pos, neg, _off_masks(mcm, fn, value))


def check_axp(point: PointedMCM, term: Term, value: str) -> bool:
    return term.satisfied_by(point.state) and check_pimp(
        point.model, point.function, term, value
    )


def check_subjective(point: PointedMCM, kind: str, term: Term, value: str) -> bool:
    """The knowledge-prefixed check: true iff it holds under every classifier
    the agent considers possible, at the actual instance."""
    if kind not in ("axp", "pimp"):
        raise ValueError("kind must be 'axp' or 'pimp'")
    mcm = point.model
    if kind == "axp" and not term.satisfied_by(point.state):
        return False
    return all(check_pimp(mcm, f, term, value) for f in mcm.functions)


def _terms_of_size(n: int, k: int) -> Iterator[tuple[int, int]]:
    """(pos, neg) of every k-literal term over n atoms in `Term.sort_key`
    order: literals compared pairwise as (atom index, positive first)."""
    if k == 0:
        yield 0, 0
        return
    for j in range(n - k + 1):
        bit, shift = 1 << j, j + 1
        rest = list(_terms_of_size(n - shift, k - 1))
        for pos, neg in rest:
            yield bit | pos << shift, neg << shift
        for pos, neg in rest:
            yield pos << shift, bit | neg << shift


def _prime_masks(mcm: MCM, off: list[int], meter: BudgetMeter) -> list[tuple[int, int]]:
    """All prime implicants as mask pairs, smallest first, in `Term.sort_key`
    order.  A term covering some state is prime iff it is an implicant
    containing no smaller covering prime; a term covering none is vacuously
    prime."""
    n = len(mcm.sig.atoms)
    primes: list[tuple[int, int]] = []
    out: list[tuple[int, int]] = []
    for k in range(n + 1):
        meter.spend(math.comb(n, k) << k)
        for pos, neg in _terms_of_size(n, k):
            if _covers_none(pos, neg, mcm.state_masks):
                out.append((pos, neg))
            elif any(p & pos == p and q & neg == q for p, q in primes):
                continue
            elif _covers_none(pos, neg, off):
                primes.append((pos, neg))
                out.append((pos, neg))
    return out


def _axp_masks(
    mcm: MCM, state: frozenset, off: list[int], meter: BudgetMeter
) -> list[tuple[int, int]]:
    """The abductive explanations at `state` as mask pairs, smallest first.

    Only the 2^n subsets T of the instance's literals can hold there, and T
    (a set of atoms, each keeping its instance polarity) covers state s iff
    `(s ^ inst) & T == 0`.  The polarities being fixed, the
    `itertools.combinations` order of the atoms is `Term.sort_key` order.
    """
    inst = state_mask(mcm.sig, state)
    diffs = [s ^ inst for s in off]
    if 0 in diffs:  # the instance itself is classified otherwise
        return []
    n = len(mcm.sig.atoms)
    bits = [1 << j for j in range(n)]
    primes: list[int] = []
    for k in range(n + 1):
        meter.spend(math.comb(n, k))
        open_sets = 0
        for combo in itertools.combinations(bits, k):
            t = sum(combo)
            if any(t & p == p for p in primes):
                continue
            open_sets += 1
            if all(d & t for d in diffs):
                primes.append(t)
        if not open_sets:  # every larger subset contains a prime too
            break
    return [(t & inst, t & ~inst) for t in primes]


def enumerate_pimps(point: PointedMCM) -> list[Term]:
    """All prime implicants of the actual classification, smallest first."""
    mcm, fn = point.model, point.function
    off = _off_masks(mcm, fn, fn(point.state))
    meter = BudgetMeter(search_budget())
    return [_term(mcm, pos, neg) for pos, neg in _prime_masks(mcm, off, meter)]


def enumerate_axps(point: PointedMCM) -> list[Term]:
    """All abductive explanations of the actual classification, ordered by
    size then literal order; never empty over a finite state set."""
    mcm, fn = point.model, point.function
    off = _off_masks(mcm, fn, fn(point.state))
    meter = BudgetMeter(search_budget())
    return [_term(mcm, pos, neg) for pos, neg in _axp_masks(mcm, point.state, off, meter)]


def enumerate_subjective(point: PointedMCM, kind: str = "axp") -> list[Term]:
    """All subjective explanations of the actual classification; may be empty
    (knowing several classifiers can leave no common minimal reason).

    A term is one iff it is an explanation under every classifier, so the
    actual classifier's explanations are filtered by each other classifier
    in turn, stopping once none is left.
    """
    if kind not in ("axp", "pimp"):
        raise ValueError("kind must be 'axp' or 'pimp'")
    mcm, actual = point.model, point.function
    value = actual(point.state)
    meter = BudgetMeter(search_budget())
    off = _off_masks(mcm, actual, value)
    if kind == "axp":
        common = _axp_masks(mcm, point.state, off, meter)
        vacuous = set()
    else:
        common = _prime_masks(mcm, off, meter)
        vacuous = {t for t in common if _covers_none(*t, mcm.state_masks)}
    for fn in mcm.functions:
        if not common:
            break
        if fn == actual:
            continue
        meter.spend(len(common))
        off = _off_masks(mcm, fn, value)
        common = [t for t in common if t in vacuous or _is_prime(*t, off)]
    return [_term(mcm, pos, neg) for pos, neg in common]
