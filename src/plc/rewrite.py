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
    _IMPLIES_NODES,
    _cp_expansion_nodes,
    _expand_cp_ordered,
    is_static,
)


def simplify(phi: Formula) -> Formula:
    """Cleanup: double negation, truth/falsity absorption, boxed constants.

    The output is equivalent to the input on every pointed model.  Results
    are memoized per call, keyed by the formulas, and a subtree whose
    children come back unchanged is returned as it is.
    """
    memo: dict[Formula, Formula] = {}
    top = Top()
    bot = Not(top)

    def constant(f: Formula) -> bool:
        return type(f) is Top or type(f) is Not and type(f.sub) is Top

    def rec(f: Formula) -> Formula:
        if isinstance(f, (Atom, Dec, Top)):
            return f
        if f in memo:
            return memo[f]
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
        memo[f] = out
        return out

    try:
        return rec(phi)
    finally:
        del rec  # free the self-referencing closure and its memo now


def cp_free(phi: Formula, *, max_nodes: int | None = None) -> Formula:
    """Expand every ceteris-paribus modality into its boxed case split.

    Exponential in the index-set sizes; guarded by a budget on the nodes
    built (`max_nodes`, default `DEFAULT_REWRITE_NODES`).  Results are
    memoized per call, keyed by the formulas, so each distinct subformula is
    rewritten and charged once, and a subtree without a ceteris-paribus
    modality is returned as it is.  An expansion over n atoms is charged
    `_cp_expansion_nodes(n)` before it is built, a rebuilt node one.
    """
    meter = BudgetMeter(
        DEFAULT_REWRITE_NODES if max_nodes is None else max_nodes, "ceteris-paribus expansion"
    )
    memo: dict[Formula, Formula] = {}

    def rec(f: Formula) -> Formula:
        if isinstance(f, (Atom, Dec, Top)):
            return f
        if f in memo:
            return memo[f]
        if isinstance(f, CP):
            meter.spend(_cp_expansion_nodes(len(f.atoms)))
            out = _expand_cp_ordered(f.atoms, rec(f.sub))
        else:
            out = f.map(rec)
            if out is not f:
                meter.spend(1)
        memo[f] = out
        return out

    try:
        return rec(phi)
    finally:
        del rec  # free the self-referencing closure, the memo and the meter now


def reduce_dynamic(phi: Formula, *, max_nodes: int | None = None) -> Formula:
    """Eliminate every update operator through its six reduction laws.

    Updates are pushed innermost-first through negation, conjunction, both
    boxes, atoms and decision atoms; a ceteris-paribus modality in the scope
    is expanded before the push.  Each law recurses only into the scope's
    immediate subformulas, so the push ends; the result contains no update
    node (checked).

    Rewrites and pushes are memoized per call, keyed by the formulas, so the
    work is linear in the distinct subformulas and (announcement, scope)
    pairs, and an update-free subtree is returned as it is.  The budget
    (`max_nodes`, default `DEFAULT_REWRITE_NODES`) counts the nodes built,
    once per distinct subformula or pair, each charged before it is built;
    an expansion over n atoms is charged `_cp_expansion_nodes(n)`.
    """
    meter = BudgetMeter(
        DEFAULT_REWRITE_NODES if max_nodes is None else max_nodes, "update reduction"
    )
    memo: dict[Formula, Formula] = {}
    pushed: dict[tuple[Formula, Formula], Formula] = {}

    def push(ann: Formula, scope: Formula) -> Formula:
        # `ann` and `scope` are already update-free
        out = pushed.get((ann, scope))
        if out is not None:
            return out
        if isinstance(scope, CP):
            meter.spend(_cp_expansion_nodes(len(scope.atoms)))
            out = push(ann, _expand_cp_ordered(scope.atoms, scope.sub))
        elif isinstance(scope, And):
            meter.spend(1)
            out = And(push(ann, scope.left), push(ann, scope.right))
        elif isinstance(scope, (Atom, Dec, Top)):
            meter.spend(1 + _IMPLIES_NODES)  # the guard BoxI(ann) and the implication
            out = Implies(BoxI(ann), scope)
        elif isinstance(scope, (Not, BoxI, BoxF)):
            meter.spend(2 + _IMPLIES_NODES)  # the same and the rebuilt connective
            out = Implies(BoxI(ann), type(scope)(push(ann, scope.sub)))
        else:
            raise RuntimeError(f"internal error: update operator in a reduced scope: {scope!r}")
        pushed[ann, scope] = out
        return out

    def rec(f: Formula) -> Formula:
        if isinstance(f, (Atom, Dec, Top)):
            return f
        if f in memo:
            return memo[f]
        if isinstance(f, Dyn):
            out = push(rec(f.announced), rec(f.sub))
        else:
            out = f.map(rec)
            if out is not f:
                meter.spend(1)
        memo[f] = out
        return out

    try:
        out = rec(phi)
    finally:
        del push, rec  # free the self-referencing closures and the memos now
    if not is_static(out):
        raise RuntimeError("internal error: update operator left after reduction")
    return out
