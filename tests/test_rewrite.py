import random

import pytest

from plc import (
    And,
    Atom,
    BoxF,
    BoxI,
    BudgetExceeded,
    CP,
    Dec,
    Dyn,
    Formula,
    Implies,
    Not,
    Signature,
    Top,
    check_mcm,
    cp_free,
    is_static,
    random_formula,
    reduce_dynamic,
    simplify,
    subformulas,
)
from plc.models import PointedMCM
from plc.syntax import _cp_expansion_nodes, _expand_cp_ordered

import helpers

SIG = Signature(("p", "q"), ("0", "1"))


def test_reduction_axiom_shapes():
    p = Atom("p")
    chi = Atom("q")
    assert reduce_dynamic(Dyn(Top(), p)) == Implies(BoxI(Top()), p)
    assert simplify(reduce_dynamic(Dyn(Top(), p))) == p
    assert reduce_dynamic(Dyn(chi, Dec("1"))) == Implies(BoxI(chi), Dec("1"))
    got = reduce_dynamic(Dyn(chi, BoxF(p)))
    assert got == Implies(BoxI(chi), BoxF(Implies(BoxI(chi), p)))
    got_not = reduce_dynamic(Dyn(chi, Not(p)))
    assert got_not == Implies(BoxI(chi), Not(Implies(BoxI(chi), p)))
    got_and = reduce_dynamic(Dyn(chi, And(p, Dec("0"))))
    assert got_and == And(Implies(BoxI(chi), p), Implies(BoxI(chi), Dec("0")))
    got_boxi = reduce_dynamic(Dyn(chi, BoxI(p)))
    assert got_boxi == Implies(BoxI(chi), BoxI(Implies(BoxI(chi), p)))


def test_reduction_output_is_static():
    rng = random.Random(1)
    for _ in range(200):
        phi = random_formula(rng, SIG, 3, allow_cp=True, allow_dyn=True)
        out = reduce_dynamic(phi)
        assert is_static(out)
        assert not any(isinstance(f, Dyn) for f in subformulas(out))


def test_reduction_preserves_truth():
    rng = random.Random(2)
    for _ in range(150):
        phi = random_formula(rng, SIG, 3, allow_cp=True, allow_dyn=True)
        out = reduce_dynamic(phi)
        for _ in range(3):
            m = helpers.random_mcm(rng, sig=SIG, max_functions=3)
            for s in m.states:
                for f in m.functions:
                    pt = PointedMCM(m, s, f)
                    assert check_mcm(pt, phi) == check_mcm(pt, out)


def test_nested_announcements_reduce_deterministically():
    p = Atom("p")
    phi = Dyn(Atom("q"), Dyn(p, Dec("1")))
    out1 = reduce_dynamic(phi)
    out2 = reduce_dynamic(phi)
    assert out1 == out2 and is_static(out1)


def test_cp_under_announcement_is_expanded():
    phi = Dyn(Atom("q"), CP(("p",), Dec("1")))
    out = reduce_dynamic(phi)
    assert is_static(out)
    assert not any(isinstance(f, CP) for f in subformulas(out))


def test_cp_outside_announcement_is_kept():
    phi = CP(("p",), Dyn(Atom("q"), Dec("1")))
    out = reduce_dynamic(phi)
    assert is_static(out)
    assert any(isinstance(f, CP) for f in subformulas(out))


def test_reduction_budget_guard():
    # a large index set under an announcement blows the expansion up
    sig = Signature(("p", "q", "r"), ("0", "1"))
    phi = Dyn(Atom("p"), CP(("p", "q", "r"), Dec("1")))
    with pytest.raises(BudgetExceeded):
        reduce_dynamic(phi, max_nodes=10)


def _reference_reduce(phi):
    """The six reduction laws as a plain recursion, without memos or budget;
    a ceteris-paribus scope is expanded before the push."""

    def push(ann, scope):
        guard = BoxI(ann)
        if isinstance(scope, (Atom, Dec, Top)):
            return Implies(guard, scope)
        if isinstance(scope, CP):
            return push(ann, _expand_cp_ordered(scope.atoms, scope.sub))
        if isinstance(scope, And):
            return And(push(ann, scope.left), push(ann, scope.right))
        wrap = type(scope) if isinstance(scope, (BoxI, BoxF)) else Not
        return Implies(guard, wrap(push(ann, scope.sub)))

    def rec(f):
        if isinstance(f, (Not, BoxI, BoxF)):
            return type(f)(rec(f.sub))
        if isinstance(f, And):
            return And(rec(f.left), rec(f.right))
        if isinstance(f, CP):
            return CP(f.atoms, rec(f.sub))
        if isinstance(f, Dyn):
            return push(rec(f.announced), rec(f.sub))
        return f

    return rec(phi)


def _dag(phi):
    """The formula's distinct subformulas, numbered in post-order, each as
    its class name and fields with children replaced by their numbers."""
    number: dict = {}
    nodes: list[tuple] = []
    stack = [(phi, False)]
    while stack:
        f, ready = stack.pop()
        if f in number:
            continue
        fields = [getattr(f, name) for name in f._fields]
        if not ready:
            stack.append((f, True))
            stack.extend((x, False) for x in fields if isinstance(x, Formula))
            continue
        number[f] = len(nodes)
        nodes.append(
            (type(f).__name__, *(number[x] if isinstance(x, Formula) else x for x in fields))
        )
    return nodes


def _random_dynamic(rng, depth):
    """A formula with updates nested in scopes and announcements, and
    ceteris-paribus modalities anywhere."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        return Atom(rng.choice("pqr")) if r < 0.6 else Dec(rng.choice("01")) if r < 0.9 else Top()
    op = rng.choice(("not", "and", "and", "boxI", "boxF", "cp", "dyn", "dyn"))
    if op == "and":
        return And(_random_dynamic(rng, depth - 1), _random_dynamic(rng, depth - 1))
    if op == "cp":
        return CP(rng.sample("pqr", rng.randint(1, 2)), _random_dynamic(rng, depth - 1))
    if op == "dyn":
        return Dyn(_random_dynamic(rng, depth - 2), _random_dynamic(rng, depth - 1))
    return {"not": Not, "boxI": BoxI, "boxF": BoxF}[op](_random_dynamic(rng, depth - 1))


def _unshared(f):
    """A copy of f in which no two nodes are the same object."""
    if not f.children():
        return type(f)(*(getattr(f, name) for name in f._fields))
    return f.map(_unshared)


def _shared(f, seen=None):
    """A copy of f in which equal subtrees are one object."""
    seen = {} if seen is None else seen
    return seen.setdefault(f, f.map(lambda x: _shared(x, seen)))


def test_reduction_matches_the_plain_recursion_and_its_budget():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(1000):
        phi = _random_dynamic(rng, rng.randint(3, 6))
        want = tuple(_dag(_reference_reduce(phi)))
        got = []
        for cap in (50, 500, 5000, None):
            # how the formula's equal subtrees are shared does not change the
            # charge, which counts each distinct subformula and pair once
            seen = set()
            for f in (phi, _unshared(phi), _shared(phi)):
                try:
                    seen.add(tuple(_dag(reduce_dynamic(f, max_nodes=cap))))
                except BudgetExceeded:
                    seen.add(None)
            assert len(seen) == 1, (phi, cap)
            (out,) = seen
            assert out is None or out == want, (phi, cap)
            got.append(out is not None)
        assert got == sorted(got), phi  # success is monotone in the cap
        assert got[-1], phi
        outcomes.update(got)
    assert outcomes == {False, True}  # both outcomes occur


def test_simplify_examples():
    p = Atom("p")
    assert simplify(Not(Not(p))) == p
    assert simplify(And(Top(), p)) == p
    assert simplify(And(p, Top())) == p
    assert simplify(BoxI(Top())) == Top()
    assert simplify(BoxF(Not(Top()))) == Not(Top())
    assert simplify(Dyn(p, Top())) == Top()


def test_simplify_preserves_truth():
    rng = random.Random(3)
    for _ in range(150):
        phi = random_formula(rng, SIG, 3, allow_cp=True, allow_dyn=True)
        out = simplify(phi)
        m = helpers.random_mcm(rng, sig=SIG, max_functions=3)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert check_mcm(pt, phi) == check_mcm(pt, out)


def test_cp_free_output_and_equivalence():
    rng = random.Random(4)
    for _ in range(60):
        phi = random_formula(rng, SIG, 3, allow_cp=True)
        out = cp_free(phi)
        assert not any(isinstance(f, CP) for f in subformulas(out))
        m = helpers.random_mcm(rng, sig=SIG, max_functions=3)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert check_mcm(pt, phi) == check_mcm(pt, out)


def test_simplify_and_cp_free_return_unchanged_input_as_it_is():
    rng = random.Random(12)
    for _ in range(300):
        phi = simplify(random_formula(rng, SIG, 4, allow_dyn=True))
        assert simplify(phi) is phi
        assert cp_free(phi) is phi
    # a changed subtree is rebuilt, its unchanged sibling is kept
    p = BoxI(Atom("p"))
    out = simplify(And(p, Not(Not(Atom("q")))))
    assert out == And(p, Atom("q")) and out.left is p


def test_cp_free_charges_a_repeated_subtree_once():
    # equal subtrees built apart cost what shared ones cost: each distinct
    # expansion is charged once, and so is each distinct rebuilt node
    def inner():
        return CP(("p",), Atom("q"))

    def outer(i=None, j=None):
        return CP(("q",), And(i or inner(), j or inner()))

    apart = And(outer(), Not(outer()))
    i = inner()
    o = outer(i, i)
    shared = And(o, Not(o))
    # two expansions over one atom; the conjunction under [q], the root and
    # its negation rebuilt
    charge = 2 * _cp_expansion_nodes(1) + 3
    want = And(cp_free(outer()), Not(cp_free(outer())))
    for phi in (apart, shared):
        assert cp_free(phi, max_nodes=charge) == want
        with pytest.raises(BudgetExceeded):
            cp_free(phi, max_nodes=charge - 1)


def test_a_zero_cap_allows_no_node():
    p, q = Atom("p"), Atom("q")
    static = And(BoxI(p), Not(CP(("q",), Dec("1"))))
    for rewrite, builds, nothing in (
        (cp_free, CP(("p",), p), And(BoxI(p), Not(q))),
        (cp_free, Not(CP(("p",), p)), static.left),
        (reduce_dynamic, Dyn(q, p), static),
        (reduce_dynamic, Not(Dyn(q, p)), q),
    ):
        with pytest.raises(BudgetExceeded):
            rewrite(builds, max_nodes=0)
        assert rewrite(nothing, max_nodes=0) is nothing


def test_cp_expansion_nodes_bounds_the_nodes_built():
    for n in range(7):
        xs = tuple("abcdefg"[:n])
        phi = Atom("z")
        built, stack = set(), [_expand_cp_ordered(xs, phi)]
        while stack:
            f = stack.pop()
            if f is not phi and id(f) not in built:
                built.add(id(f))
                stack += f.children()
        assert len(built) <= _cp_expansion_nodes(n)


def test_rewrites_of_a_doubled_formula_do_its_dag_work():
    import time

    # f40 is a DAG of 122 nodes whose tree has 2^40 copies of boxI p
    p, q = Atom("p"), Atom("q")
    f40 = helpers.doubled(BoxI(p), 40)
    for rewrite, phi in (
        (cp_free, CP(("p",), f40)),
        (reduce_dynamic, Dyn(q, CP(("p",), f40))),
        (reduce_dynamic, Dyn(f40, q)),
    ):
        start = time.process_time()
        out = rewrite(phi)
        assert time.process_time() - start < 0.1
        assert not any(isinstance(f, (CP, Dyn)) for f in subformulas(out))


def test_memo_lookups_on_equal_subtrees_built_apart_are_identity_tests():
    import time

    # two copies of f40 built apart are one object, so a memo lookup on the
    # second does not walk the 2^40 copies of boxI p in its tree
    a, b = (helpers.doubled(BoxI(Atom("p")), 40) for _ in range(2))
    for rewrite, phi in ((cp_free, And(CP(("p",), a), CP(("p",), b))), (simplify, And(a, b))):
        start = time.process_time()
        rewrite(phi)
        assert time.process_time() - start < 0.1


def test_an_expansion_is_refused_before_it_is_built():
    import tracemalloc

    xs = tuple(f"a{i}" for i in range(14))
    big = CP(xs, Atom("a0"))
    charge = _cp_expansion_nodes(len(xs))
    for rewrite, phi in ((cp_free, big), (reduce_dynamic, Dyn(Atom("a1"), big))):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                rewrite(phi, max_nodes=charge - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
