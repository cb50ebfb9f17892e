"""Pointed model checking over multi-classifier models and decision models.

A model is read as a set of points with two partitions: `boxI` ranges over
an I-block (the points of one classifier) and `boxF` over an F-block (the
points of one instance).  One bottom-up recursion computes the extension of
a formula, the bitmask of the points where it holds.  On a grid (bit
si*nf + fi for state row si and classifier column fi) `boxI` is the AND of
the rows, computed by shifts; a multi-classifier model is such a grid, and
so is constraint mode's batch of candidate classifiers, each column a model
of its own.  An update `[! a] s` is evaluated inside the grid: `s` is
evaluated with only the classifier columns where `a` holds globally left
live, so no updated model is built.  Each model caches what
`extension_mask` is asked and its leaf masks (atoms and decision atoms,
the latter all read off the classifier tables in one pass), and keeps one
int per distinct mask; `update_mcm` adds nothing to the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .syntax import CP, And, Atom, BoxF, BoxI, Dec, Dyn, Formula, Not, Top, validate_formula

if TYPE_CHECKING:
    from .models import MCM, PointedMCM, QuasiMDM
    from .syntax import Signature


class EvalError(ValueError):
    """A formula cannot be evaluated against the given model."""


def _box(e: int, blocks: Iterable[int]) -> int:
    """The union of the blocks wholly inside e."""
    out = 0
    for b in blocks:
        if e & b == b:
            out |= b
    return out


def _extension(
    phi: Formula,
    full: int,
    box_i: Callable[[int], int],
    box_f: Callable[[int], int],
    leaf: Callable[[Formula], int],
    cp_groups: Callable[[tuple[str, ...]], Iterable[int]] | None,
    cache: dict[Formula, int],
) -> int:
    """Bitmask of the points satisfying phi.

    `box_i` and `box_f` map a mask to the union of the I-blocks (F-blocks)
    wholly inside it.  `leaf` computes the mask of an atom or decision atom
    (raising SignatureError for an undeclared name) and `cache` keeps it.
    `cp_groups` maps a ceteris-paribus index set to the unions of F-blocks
    agreeing on it; without it, ceteris-paribus and update operators raise
    EvalError.  Bits outside the live mask are never read.
    """
    memo: dict[tuple[Formula, int], int] = {}

    def rec(f: Formula, live: int) -> int:
        key = (f, live)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, (Atom, Dec)):
            out = cache.get(f)
            if out is None:
                out = cache[f] = leaf(f)
        elif isinstance(f, Top):
            out = full
        elif isinstance(f, Not):
            out = full ^ rec(f.sub, live)
        elif isinstance(f, And):
            out = rec(f.left, live) & rec(f.right, live)
        elif isinstance(f, (CP, Dyn)) and cp_groups is None:
            raise EvalError(
                "ceteris-paribus and update operators have no decision-model "
                "semantics; expand or reduce them first"
            )
        elif isinstance(f, BoxI):
            out = box_i(rec(f.sub, live) | (full ^ live))
        elif isinstance(f, BoxF):
            out = box_f(rec(f.sub, live) | (full ^ live))
        elif isinstance(f, CP):
            e = rec(f.sub, live) | (full ^ live)
            out = 0
            for g in cp_groups(f.atoms):
                # the I-blocks cut down to g: points outside g do not count
                out |= g & box_i(e | (full ^ g))
        elif isinstance(f, Dyn):
            guard = box_i(rec(f.announced, live) | (full ^ live)) & live
            # the scope is evaluated even when no classifier survives, so an
            # undeclared name in it is still reported
            out = (full ^ guard) | (rec(f.sub, guard) & guard)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = out
        return out

    try:
        return rec(phi, full)
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the memo and the model the leaf closes over now, not at the next
        # run of the cyclic garbage collector
        del rec


def grid_extension(
    phi: Formula,
    sig: Signature,
    state_masks: Sequence[int],
    nf: int,
    dec: Callable[[str], int],
    singleton: bool,
    cache: dict[Formula, int],
) -> int:
    """Bitmask of the points of a grid satisfying phi (bit = si*nf + fi).

    Row si holds the states with atom bitmask `state_masks[si]`, column fi
    one classifier, and `dec(v)` is the mask of the points whose classifier
    outputs v.  With `singleton` set, each column is a model of its own (a
    batch of candidate classifiers), so `boxF` looks at one point only.
    """
    ns = len(state_masks)
    row = (1 << nf) - 1
    full = (1 << (ns * nf)) - 1
    rows = [row << (si * nf) for si in range(ns)]

    def box_i(e: int) -> int:
        # AND the ns rows into row 0 by halving, then copy row 0 back into
        # every row by doubling: shifts only, no per-column loop
        m = ns
        while m > 1:
            h = m // 2
            e &= e >> (h * nf)
            m -= h
        e &= row
        k = 1
        while k < ns:
            e |= e << (k * nf)
            k *= 2
        return e & full

    def leaf(f: Formula) -> int:
        if isinstance(f, Atom):
            i = sig.atom_index(f.name)
            return sum(r for r, m in zip(rows, state_masks) if m >> i & 1)
        sig.require_value(f.value)
        return dec(f.value)

    def cp_groups(atoms: tuple[str, ...]) -> Iterable[int]:
        xbits = sum(1 << sig.atom_index(a) for a in atoms)
        groups: dict[int, int] = {}
        for r, m in zip(rows, state_masks):
            groups[m & xbits] = groups.get(m & xbits, 0) | r
        return groups.values()

    box_f = (lambda e: e) if singleton else (lambda e: _box(e, rows))
    return _extension(phi, full, box_i, box_f, leaf, cp_groups, cache)


def extension_mask(mcm: MCM, phi: Formula) -> int:
    """Bitmask of the points satisfying phi, state-major (bit = si*nf + fi).

    The result and the leaf masks are cached in the model.  The cache also
    maps each mask to itself, so that equivalent formulas (an update and its
    reduction, say) share one int.
    """
    cache = mcm._ext_cache
    hit = cache.get(phi)
    if hit is None:
        mask = _mcm_extension(mcm, phi, cache)
        hit = cache[phi] = cache.setdefault(mask, mask)
    return hit


def _mcm_extension(mcm: MCM, phi: Formula, leaves: dict[Formula, int]) -> int:
    """`extension_mask` without its cache: the leaf masks are read from and
    written to `leaves`, and phi's mask is returned, not stored."""
    if mcm.inconsistent:
        raise EvalError(
            "the model carries the inconsistent-knowledge marker (no classifiers)"
        )
    states, functions = mcm.states, mcm.functions

    def dec(value: str) -> int:
        # every value's mask from one read of the cells, most significant
        # bit (last state, last classifier) first
        cells = [fn._table[s] for s in reversed(states) for fn in reversed(functions)]
        for v in mcm.sig.values:
            leaves[Dec(v)] = int("".join(["1" if c == v else "0" for c in cells]), 2)
        return leaves[Dec(value)]

    return grid_extension(
        phi, mcm.sig, mcm.state_masks, len(functions), dec, singleton=False, cache=leaves
    )


def check_mcm(point: PointedMCM, phi: Formula) -> bool:
    """Truth of phi at a pointed multi-classifier model."""
    mcm = point.model
    si = mcm.states.index(point.state)
    fi = mcm.functions.index(point.function)
    return bool(extension_mask(mcm, phi) >> (si * len(mcm.functions) + fi) & 1)


def valid_in_mcm(mcm: MCM, phi: Formula) -> bool:
    """Truth of phi at every point of the model."""
    ns, nf = len(mcm.states), len(mcm.functions)
    return extension_mask(mcm, phi) == (1 << (ns * nf)) - 1


def mdm_extension_mask(M: QuasiMDM, phi: Formula) -> int:
    """Bitmask over world positions (in M.worlds order) where phi holds.

    Ceteris-paribus and update operators are rejected: their semantics lives
    at the multi-classifier level; expand or reduce them first.
    """
    hit = M._ext_cache.get(phi)
    if hit is not None:
        return hit
    sig = M.sig
    pos = {w: i for i, w in enumerate(M.worlds)}

    def leaf(f: Formula) -> int:
        if isinstance(f, Atom):
            sig.atom_index(f.name)
            return sum(1 << i for i, w in enumerate(M.worlds) if f.name in M.atoms_val(w))
        sig.require_value(f.value)
        return sum(1 << i for i, w in enumerate(M.worlds) if M.dec_val(w) == f.value)

    i_blocks = [sum(1 << pos[w] for w in b) for b in M.rel_i]
    f_blocks = [sum(1 << pos[w] for w in b) for b in M.rel_f]
    try:
        result = _extension(
            phi,
            (1 << len(M.worlds)) - 1,
            lambda e: _box(e, i_blocks),
            lambda e: _box(e, f_blocks),
            leaf,
            None,
            M._ext_cache,
        )
    except EvalError:
        validate_formula(phi, sig)  # an undeclared name outranks the rejection
        raise
    M._ext_cache[phi] = result
    return result


def check_mdm(M: QuasiMDM, w, phi: Formula) -> bool:
    """Truth of phi at a world of a (quasi) decision model."""
    try:
        i = M.worlds.index(w)
    except ValueError:
        raise EvalError(f"world {w!r} is not in the model") from None
    return bool(mdm_extension_mask(M, phi) >> i & 1)
