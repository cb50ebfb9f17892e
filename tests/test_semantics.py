import random

import pytest

from plc import (
    CP,
    Atom,
    BoxF,
    BoxI,
    Dec,
    Dyn,
    EvalError,
    Iff,
    Implies,
    Not,
    QuasiMDM,
    Signature,
    check_mcm,
    check_mdm,
    expand_cp,
    mcm_to_mdm,
    parse_formula,
    random_formula,
    valid_in_mcm,
)
from plc.models import PointedMCM, world_point
from plc.syntax import big_or

import helpers


def test_satisfaction_clauses_basics():
    rng = random.Random(1)
    m = helpers.random_mcm(rng)
    for s in m.states:
        for f in m.functions:
            pt = PointedMCM(m, s, f)
            for a in m.sig.atoms:
                assert check_mcm(pt, Atom(a)) == (a in s)
            assert check_mcm(pt, Dec(f(s)))
            # exactly one decision atom holds per point
            assert sum(check_mcm(pt, Dec(v)) for v in m.sig.values) == 1


def test_every_point_satisfies_some_decision_atom():
    rng = random.Random(2)
    for _ in range(20):
        m = helpers.random_mcm(rng)
        at_least = big_or(Dec(v) for v in m.sig.values)
        assert valid_in_mcm(m, at_least)


def test_example_constraint_is_model_valid(ex_model):
    assert valid_in_mcm(ex_model, parse_formula("~an -> =0", ex_model.sig))


def test_independence_axioms_hold_everywhere():
    rng = random.Random(3)
    for _ in range(20):
        m = helpers.random_mcm(rng)
        for a in m.sig.atoms:
            assert valid_in_mcm(m, Implies(Atom(a), BoxF(Atom(a))))
            assert valid_in_mcm(m, Implies(Not(Atom(a)), BoxF(Not(Atom(a)))))


def test_box_commutation_holds_everywhere():
    rng = random.Random(4)
    for _ in range(20):
        m = helpers.random_mcm(rng)
        phi = random_formula(rng, m.sig, 2)
        assert valid_in_mcm(m, Iff(BoxI(BoxF(phi)), BoxF(BoxI(phi))))


def test_s5_laws_for_both_boxes():
    rng = random.Random(5)
    for _ in range(20):
        m = helpers.random_mcm(rng)
        phi = random_formula(rng, m.sig, 2)
        for box in (BoxI, BoxF):
            assert valid_in_mcm(m, Implies(box(phi), phi))
            assert valid_in_mcm(m, Implies(box(phi), box(box(phi))))
            assert valid_in_mcm(m, Implies(Not(box(phi)), box(Not(box(phi)))))


def test_cp_clause_matches_its_expansion():
    rng = random.Random(6)
    for _ in range(40):
        m = helpers.random_mcm(rng, max_functions=3)
        phi = random_formula(rng, m.sig, 2)
        xs = tuple(a for a in m.sig.atoms if rng.random() < 0.5)
        direct = CP(xs, phi)
        expanded = expand_cp(xs, phi, m.sig)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert check_mcm(pt, direct) == check_mcm(pt, expanded)


def test_cp_direct_clause_quantifier():
    sig = Signature(("p", "q"), ("0", "1"))
    from plc import ClassifierFn, build_mcm

    f = ClassifierFn("f", {s: ("1" if "p" in s else "0") for s in helpers.all_states(sig)})
    m = build_mcm(sig, "all", functions=[f])
    # [p](=1) at {p,q}: all states agreeing on p are classified 1
    pt = m.point(frozenset({"p", "q"}), "f")
    assert check_mcm(pt, CP(("p",), Dec("1")))
    assert not check_mcm(pt, CP(("q",), Dec("1")))


def test_checking_inconsistent_model_is_an_error():
    from plc import ClassifierFn, MCM, update_mcm

    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = MCM(sig, helpers.all_states(sig), [f])
    empty = update_mcm(m, parse_formula("=0 & =1", sig))
    from plc.semantics import extension_mask

    with pytest.raises(EvalError):
        extension_mask(empty, Atom("p"))


def test_mdm_singleton_reflexive():
    sig = Signature(("p",), ("0", "1"))
    M = QuasiMDM(sig, ["w"], {"w": (frozenset({"p"}), "1")}, [["w"]], [["w"]])
    assert check_mdm(M, "w", parse_formula("boxI p & boxF p", sig))


def test_mdm_rejects_cp_and_dyn():
    sig = Signature(("p",), ("0", "1"))
    M = QuasiMDM(sig, ["w"], {"w": (frozenset({"p"}), "1")}, [["w"]], [["w"]])
    with pytest.raises(EvalError):
        check_mdm(M, "w", CP(("p",), Atom("p")))
    with pytest.raises(EvalError):
        check_mdm(M, "w", Dyn(Atom("p"), Atom("p")))


def test_checkers_agree_on_grid_images():
    rng = random.Random(7)
    for _ in range(30):
        m = helpers.random_mcm(rng)
        M = mcm_to_mdm(m)
        phi = random_formula(rng, m.sig, 3)
        for psi in _some_subformulas(phi):
            for w in M.worlds:
                assert check_mdm(M, w, psi) == check_mcm(world_point(m, w), psi)


def _some_subformulas(phi):
    from plc import subformulas

    return sorted(subformulas(phi), key=repr)[:6]


def test_quasi_model_can_break_functionality():
    # two worlds, same valuation, same classifier row, different decisions:
    # a functionality instance fails, which no true decision model allows
    sig = Signature(("p",), ("0", "1"))
    Q = QuasiMDM(
        sig,
        ["u", "v"],
        {"u": (frozenset({"p"}), "1"), "v": (frozenset({"p"}), "0")},
        [["u", "v"]],
        [["u"], ["v"]],
    )
    from plc import validate_mdm

    rep = validate_mdm(Q)
    assert rep.ok_quasi and not rep.passed("C2")
    funct = parse_formula("(p & =1) -> boxI (p -> =1)", sig)
    assert not check_mdm(Q, "u", funct)


def test_dynamic_clause_on_mcm():
    rng = random.Random(8)
    for _ in range(20):
        m = helpers.random_mcm(rng, max_functions=3)
        ann = random_formula(rng, m.sig, 2)
        body = random_formula(rng, m.sig, 2)
        phi = Dyn(ann, body)
        from plc import update_mcm

        updated = update_mcm(m, ann)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                guard = check_mcm(pt, BoxI(ann))
                want = True
                if guard:
                    want = check_mcm(PointedMCM(updated, s, f), body)
                assert check_mcm(pt, phi) == want


def test_undeclared_atom_is_reported_wherever_it_occurs():
    from plc import ClassifierFn, MCM, SignatureError

    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = MCM(sig, helpers.all_states(sig), [f])
    pt = m.point(frozenset(), "f")
    # the scope of an update that no classifier survives
    with pytest.raises(SignatureError):
        check_mcm(pt, Dyn(parse_formula("=0 & =1", sig), Atom("zz")))
    # only in a ceteris-paribus index set
    with pytest.raises(SignatureError):
        check_mcm(pt, CP(("zz",), Atom("p")))
    # inside a ceteris-paribus formula, which a decision model rejects
    M = mcm_to_mdm(m)
    with pytest.raises(SignatureError):
        check_mdm(M, M.worlds[0], CP(("p",), Atom("zz")))



def _check_updated(m, s, f, phi):
    """Truth of a static phi at (s, f) in a model f may have left."""
    return f not in set(m.functions) or check_mcm(PointedMCM(m, s, f), phi)


def test_nested_updates_agree_with_updated_models():
    from plc import MCM, update_mcm

    rng = random.Random(9)
    for _ in range(40):
        m = helpers.random_mcm(rng, max_states=6, max_functions=6)
        # announcements shaped like observations, so that some classifiers
        # survive and some do not
        a, b = (Implies(random_formula(rng, m.sig, 1), Dec(rng.choice(m.sig.values))) for _ in "ab")
        phi = random_formula(rng, m.sig, 3)
        m_a = update_mcm(m, a)
        # an empty classifier set stays empty under a further update
        m_ab = m_a if m_a.inconsistent else update_mcm(m_a, b)
        # where [! a] b holds globally: the classifiers a drops, and those b keeps after it
        kept = [g for g in m.functions if g not in set(m_a.functions) or g in set(m_ab.functions)]
        m_dyn = MCM(m.sig, m.states, kept, inconsistent=not kept)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert check_mcm(pt, Dyn(a, Dyn(b, phi))) == (
                    f not in set(m_a.functions) or _check_updated(m_ab, s, f, phi)
                )
                assert check_mcm(pt, BoxF(Dyn(a, phi))) == all(
                    _check_updated(m_a, s, g, phi) for g in m.functions
                )
                assert check_mcm(pt, Dyn(Dyn(a, b), phi)) == _check_updated(m_dyn, s, f, phi)


def test_update_evaluation_leaves_no_cyclic_garbage():
    import gc

    from plc import MCM
    from plc.rewrite import reduce_dynamic
    from plc.semantics import extension_mask

    rng = random.Random(3)
    m = helpers.random_mcm(rng, max_states=6, max_functions=6)
    a = Implies(random_formula(rng, m.sig, 1), Dec(m.sig.values[0]))
    phi = Dyn(a, BoxF(Dyn(a, random_formula(rng, m.sig, 2))))
    gc.collect()
    gc.disable()
    try:
        # a fresh model each time, so nothing is answered from its cache
        fresh = MCM(m.sig, m.states, m.functions)
        extension_mask(fresh, phi)
        extension_mask(fresh, reduce_dynamic(phi))
        # the evaluator's memo and the model are freed by reference counting
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_validity_path_leaves_no_cyclic_garbage():
    import gc

    from plc import axiom_instances, brute_force_sat, sat_open, valid_finite

    sig = Signature(("p", "q"), ("0", "1"))
    instances = [phi for _, phi in axiom_instances(sig, seed=1, count=2)]
    gc.collect()
    gc.disable()
    try:
        for phi in instances:
            valid_finite(phi, sig)
            sat_open(Not(phi), sig.values)
            brute_force_sat(Not(phi), sig, max_functions=2)
        # the rewrites, the type search and the oracle free their closures
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("ns, nf", [(6, 5), (1, 3), (5, 1), (1, 1)])
def test_decision_masks_match_the_classifiers_at_every_point(ns, nf):
    from plc import MCM, ClassifierFn
    from plc.semantics import extension_mask

    sig = Signature(("p", "q", "r"), ("lo", "mid", "hi"))
    rng = random.Random(ns * 10 + nf)
    states = rng.sample(helpers.all_states(sig), ns)
    tables = set()
    while len(tables) < nf:
        tables.add(tuple(rng.choice(sig.values) for _ in states))
    fns = [ClassifierFn(f"f{i}", dict(zip(states, t))) for i, t in enumerate(tables)]
    m = MCM(sig, states, fns)
    for v in sig.values:
        want = sum(
            1 << (si * nf + fi)
            for si, s in enumerate(m.states)
            for fi, f in enumerate(m.functions)
            if f(s) == v
        )
        assert extension_mask(m, Dec(v)) == want
    # every point outputs exactly one value
    masks = [extension_mask(m, Dec(v)) for v in sig.values]
    assert sum(masks) == (1 << (ns * nf)) - 1
    assert all(a & b == 0 for i, a in enumerate(masks) for b in masks[i + 1 :])


def test_update_adds_nothing_to_the_source_models_cache():
    from plc import update_mcm
    from plc.rewrite import reduce_dynamic
    from plc.semantics import extension_mask

    rng = random.Random(12)
    for fresh in (True, False):
        m = helpers.random_mcm(rng, max_states=6, max_functions=6)
        if not fresh:
            extension_mask(m, parse_formula("boxF =1 & p", m.sig))
        before = dict(m._ext_cache)
        ann = Implies(Atom(m.sig.atoms[0]), Dec("1"))
        updated = update_mcm(m, ann)
        assert m._ext_cache == before
        # the update keeps the classifiers where the announcement holds globally
        glob = extension_mask(m, BoxI(ann))
        assert updated.functions == tuple(f for fi, f in enumerate(m.functions) if glob >> fi & 1)
        # an update and its reduction share one cached mask
        phi = Dyn(ann, BoxF(Dec("1")))
        assert extension_mask(m, reduce_dynamic(phi)) is extension_mask(m, phi)
