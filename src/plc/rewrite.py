"""Equivalence-preserving rewrites: update-operator elimination, the
ceteris-paribus expansion pass, and a small cleanup simplifier.
"""

from __future__ import annotations

from .config import DEFAULT_REWRITE_NODES, BudgetMeter
from .syntax import (
    CP,
    And,
    Atom,
    BoxF,
    BoxI,
    Dec,
    Dyn,
    Formula,
    Implies,
    Not,
    Top,
    _expand_cp_ordered,
    is_static,
    size,
)


def simplify(phi: Formula) -> Formula:
    """Cleanup: double negation, truth/falsity absorption, boxed constants.

    The output is equivalent to the input on every pointed model.  Results
    are memoized per call, keyed by the formulas, and a subtree whose
    children come back unchanged is returned as it is.
    """
    memo: dict[Formula, Formula | bool] = {}  # False: returned as it is
    top = Top()
    bot = Not(top)

    def constant(f: Formula) -> bool:
        return type(f) is Top or type(f) is Not and type(f.sub) is Top

    def rec(f: Formula) -> Formula:
        if isinstance(f, (Atom, Dec, Top)):
            return f
        got = memo.get(f)
        if got is not None:  # f itself, not the equal subtree memoized first
            return f if got is False else got
        if isinstance(f, Not):
            s = rec(f.sub)
            if isinstance(s, Not):
                out = s.sub
            else:
                out = f if s is f.sub else Not(s)
        elif isinstance(f, And):
            l, r = rec(f.left), rec(f.right)
            if type(l) is Top:
                out = r
            elif type(r) is Top:
                out = l
            elif constant(l) or constant(r):
                out = bot
            else:
                out = f if l is f.left and r is f.right else And(l, r)
        elif isinstance(f, (BoxI, BoxF)):
            s = rec(f.sub)
            out = s if constant(s) else f if s is f.sub else type(f)(s)
        elif isinstance(f, CP):
            s = rec(f.sub)
            out = s if constant(s) else f if s is f.sub else CP(f.atoms, s)
        elif isinstance(f, Dyn):
            a = rec(f.announced)
            s = rec(f.sub)
            if type(s) is Top:
                out = top
            else:
                out = f if a is f.announced and s is f.sub else Dyn(a, s)
        else:
            out = f
        memo[f] = False if out is f else out
        return out

    try:
        return rec(phi)
    finally:
        del rec  # free the self-referencing closure and its memo now


def cp_free(phi: Formula, *, max_nodes: int | None = None) -> Formula:
    """Expand every ceteris-paribus modality into its boxed case split.

    Exponential in the index-set sizes; guarded by a node budget, charged
    the size of each expansion.  Results are memoized per call, keyed by the
    formulas, and a subtree without a ceteris-paribus modality is returned
    as it is.  A repeated subtree spends again the units its first
    computation spent, so the budget is charged as if nothing were
    memoized.
    """
    meter = BudgetMeter(max_nodes or DEFAULT_REWRITE_NODES, "ceteris-paribus expansion")
    memo: dict[Formula, tuple[Formula | None, int]] = {}  # None: returned as it is

    def rec(f: Formula) -> Formula:
        if isinstance(f, (Atom, Dec, Top)):
            return f
        hit = memo.get(f)
        if hit is not None:  # f itself, not the equal subtree memoized first
            meter.spend(hit[1])
            return f if hit[0] is None else hit[0]
        start = meter.used
        if isinstance(f, CP):
            out = _expand_cp_ordered(f.atoms, rec(f.sub))
            meter.spend(size(out))
        else:
            out = f.map(rec)
        memo[f] = (None if out is f else out), meter.used - start
        return out

    try:
        return rec(phi)
    finally:
        del rec  # free the self-referencing closure, the memo and the meter now


def reduce_dynamic(phi: Formula, *, max_nodes: int | None = None) -> Formula:
    """Eliminate every update operator through its six reduction laws.

    Updates are pushed innermost-first through negation, conjunction, both
    boxes, atoms and decision atoms; a ceteris-paribus modality in the scope
    is expanded before the push.  Each law application strictly shrinks the
    scope measure (checked); the result contains no update node.

    Sizes and pushes are memoized per call, keyed by the formulas, so the
    work is linear in the distinct (announcement, scope) pairs, and an
    update-free subtree is returned as it is.  The budget is charged as if
    nothing were memoized: a repeated push spends again the units its first
    computation spent, so whether the budget is exceeded does not depend on
    the memo.
    """
    meter = BudgetMeter(max_nodes or DEFAULT_REWRITE_NODES, "update reduction")
    sizes: dict[Formula, int] = {}
    pushed: dict[tuple[Formula, Formula], tuple[Formula, int]] = {}

    def size_of(f: Formula) -> int:
        n = sizes.get(f)
        if n is None:
            n = sizes[f] = 1 + sum(map(size_of, f.children()))
        return n

    def push(ann: Formula, scope: Formula) -> Formula:
        # `ann` and `scope` are already update-free
        hit = pushed.get((ann, scope))
        if hit is not None:
            meter.spend(hit[1])
            return hit[0]
        start = meter.used
        if isinstance(scope, CP):
            expanded = _expand_cp_ordered(scope.atoms, scope.sub)
            meter.spend(size_of(expanded))
            out = push(ann, expanded)
        else:
            guard = BoxI(ann)
            before = size_of(scope)
            if isinstance(scope, (Atom, Dec, Top)):
                out = Implies(guard, scope)
                residual = 0
            elif isinstance(scope, Not):
                out = Implies(guard, Not(push(ann, scope.sub)))
                residual = size_of(scope.sub)
            elif isinstance(scope, And):
                out = And(push(ann, scope.left), push(ann, scope.right))
                residual = size_of(scope.left) + size_of(scope.right)
            elif isinstance(scope, BoxI):
                out = Implies(guard, BoxI(push(ann, scope.sub)))
                residual = size_of(scope.sub)
            elif isinstance(scope, BoxF):
                out = Implies(guard, BoxF(push(ann, scope.sub)))
                residual = size_of(scope.sub)
            else:
                raise RuntimeError(f"internal error: update operator in a reduced scope: {scope!r}")
            if residual >= before:
                raise RuntimeError(
                    "internal error: reduction law failed to shrink the scope measure"
                )
            meter.spend(size_of(out) if residual == 0 else before)
        pushed[ann, scope] = out, meter.used - start
        return out

    def rec(f: Formula) -> Formula:
        if isinstance(f, Dyn):
            a = rec(f.announced)
            size_of(a)  # sized here, where the stack is shallower than in the push
            return push(a, rec(f.sub))
        return f.map(rec)

    try:
        out = rec(phi)
    finally:
        del size_of, push, rec  # free the self-referencing closures and the memos now
    if not is_static(out):
        raise RuntimeError("internal error: update operator left after reduction")
    return out
