import random

import pytest

from plc import (
    BudgetExceeded,
    ClassifierFn,
    MCM,
    Signature,
    Term,
    all_states,
    all_terms,
    axp_formula,
    check_axp,
    check_mcm,
    check_pimp,
    check_subjective,
    enumerate_axps,
    enumerate_pimps,
    enumerate_subjective,
    is_implicant,
    pimp_formula,
    subaxp_formula,
    subpimp_formula,
)
from plc.models import PointedMCM
from plc.semantics import extension_mask

import plc.explain
import helpers


def T(pos=(), neg=()):
    return Term(frozenset(pos), frozenset(neg))


OR_AN = T(("or", "an"))
CL_AN = T(("cl", "an"))
SI_AN = T(("si", "an"))
SI_OR_AN = T(("si", "or", "an"))
NOT_AN = T((), ("an",))


def test_implicant_facts(ex_model, ex_f1):
    assert is_implicant(ex_model, ex_f1, OR_AN, "1")
    assert is_implicant(ex_model, ex_f1, CL_AN, "1")
    assert not is_implicant(ex_model, ex_f1, SI_AN, "1")
    # the empty term is an implicant only for constant classifiers
    assert not is_implicant(ex_model, ex_f1, T(), "1")


def test_prime_implicant_facts(ex_model, ex_f1, ex_f2):
    assert check_pimp(ex_model, ex_f1, OR_AN, "1")
    assert check_pimp(ex_model, ex_f1, CL_AN, "1")
    # the three-literal strengthening fails minimality for both classifiers
    assert not check_pimp(ex_model, ex_f1, SI_OR_AN, "1")
    assert not check_pimp(ex_model, ex_f2, SI_OR_AN, "1")
    # one classifier's prime implicant is not the other's implicant
    assert not is_implicant(ex_model, ex_f2, OR_AN, "1")
    assert not is_implicant(ex_model, ex_f1, SI_AN, "1")
    assert check_pimp(ex_model, ex_f2, SI_AN, "1")


def test_abductive_facts(ex_model, ex_f1, ex_f2, s1, s2):
    p1 = PointedMCM(ex_model, s1, ex_f1)
    assert check_axp(p1, OR_AN, "1")
    assert not check_axp(p1, CL_AN, "1")  # s1 lacks cl
    assert check_axp(PointedMCM(ex_model, s2, ex_f1), CL_AN, "1")
    assert check_axp(PointedMCM(ex_model, s1, ex_f2), SI_AN, "1")


def test_constant_classifier_empty_term():
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("c1", {s: "1" for s in all_states(sig)})
    m = MCM(sig, all_states(sig), [f])
    assert is_implicant(m, f, T(), "1")
    assert check_pimp(m, f, T(), "1")
    pt = m.point(frozenset(), "c1")
    assert enumerate_axps(pt) == [T()]
    assert enumerate_subjective(pt) == [T()]


def test_vacuous_term_matches_formula_semantics():
    # a term satisfied nowhere makes the boxed implication vacuously true
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "1"})
    m = MCM(sig, [frozenset()], [f])
    term = T(("p",))
    assert check_pimp(m, f, term, "1")
    pt = m.point(frozenset(), "f")
    assert check_mcm(pt, pimp_formula(term, "1", sig))


def test_definitional_coherence_with_model_checking():
    rng = random.Random(12)
    for _ in range(25):
        m = helpers.random_mcm(rng, max_functions=3)
        for term in all_terms(m.sig):
            for value in m.sig.values:
                for s in m.states:
                    for f in m.functions:
                        pt = PointedMCM(m, s, f)
                        assert check_axp(pt, term, value) == check_mcm(
                            pt, axp_formula(term, value, m.sig)
                        )
                        assert check_pimp(m, f, term, value) == check_mcm(
                            pt, pimp_formula(term, value, m.sig)
                        )


def test_subjective_coherence_with_model_checking():
    rng = random.Random(13)
    for _ in range(10):
        m = helpers.random_mcm(rng, max_functions=3)
        for term in all_terms(m.sig):
            for value in m.sig.values:
                for s in m.states:
                    f = m.functions[0]
                    pt = PointedMCM(m, s, f)
                    assert check_subjective(pt, "axp", term, value) == check_mcm(
                        pt, subaxp_formula(term, value, m.sig)
                    )
                    assert check_subjective(pt, "pimp", term, value) == check_mcm(
                        pt, subpimp_formula(term, value, m.sig)
                    )


def test_no_subjective_explanation_of_acceptance(ex_model, ex_f1, s1):
    pt = PointedMCM(ex_model, s1, ex_f1)
    assert enumerate_subjective(pt, "axp") == []
    for term in all_terms(ex_model.sig):
        assert not check_subjective(pt, "axp", term, "1")


def test_rejection_has_a_known_prime_implicant(ex_model, ex_f1, s1):
    pt = PointedMCM(ex_model, s1, ex_f1)
    # every admissible classifier has "not anonymous" as a prime implicant
    # for rejection, so it is subjectively known...
    assert check_subjective(pt, "pimp", NOT_AN, "0")
    # ...but as an abductive explanation it needs an instance that violates
    # anonymity; at s1 (anonymous) the local form is false,
    assert not check_subjective(pt, "axp", NOT_AN, "0")
    # and at every anonymity-violating instance it is true, under every
    # classifier.
    for s in ex_model.states:
        if "an" in s:
            continue
        for f in ex_model.functions:
            assert check_subjective(PointedMCM(ex_model, s, f), "axp", NOT_AN, "0")
            assert NOT_AN in enumerate_subjective(PointedMCM(ex_model, s, f), "axp")


def test_enumerate_axps_contents(ex_model, ex_f1, s1):
    pt = PointedMCM(ex_model, s1, ex_f1)
    got = enumerate_axps(pt)
    assert OR_AN in got
    assert SI_AN not in got
    assert SI_OR_AN not in got
    # ordering: by size, then by literal order
    sizes = [len(t) for t in got]
    assert sizes == sorted(sizes)


def test_enumerate_pimps_is_state_free(ex_model, ex_f1, s1, s2):
    got1 = enumerate_pimps(PointedMCM(ex_model, s1, ex_f1))
    got2 = enumerate_pimps(PointedMCM(ex_model, s2, ex_f1))
    assert got1 == got2
    assert OR_AN in got1 and CL_AN in got1


def test_singleton_model_subjective_equals_objective():
    rng = random.Random(14)
    for _ in range(15):
        m = helpers.random_mcm(rng, max_functions=1)
        pt = PointedMCM(m, rng.choice(m.states), m.functions[0])
        assert enumerate_subjective(pt, "axp") == enumerate_axps(pt)


def test_subjective_implies_objective():
    rng = random.Random(15)
    for _ in range(25):
        m = helpers.random_mcm(rng)
        pt = helpers.random_pointed(rng, m)
        value = pt.function(pt.state)
        for term in all_terms(m.sig):
            if check_subjective(pt, "axp", term, value):
                assert check_axp(pt, term, value)
            if check_subjective(pt, "pimp", term, value):
                assert check_pimp(m, pt.function, term, value)


def test_axp_minimality():
    rng = random.Random(16)
    for _ in range(25):
        m = helpers.random_mcm(rng)
        pt = helpers.random_pointed(rng, m)
        value = pt.function(pt.state)
        for term in enumerate_axps(pt):
            for smaller in all_terms(m.sig):
                if smaller < term:
                    assert not is_implicant(m, pt.function, smaller, value)


def test_axp_existence_and_mutual_exclusion():
    rng = random.Random(17)
    for _ in range(40):
        m = helpers.random_mcm(rng)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert enumerate_axps(pt)
                for term in all_terms(m.sig):
                    hits = [v for v in m.sig.values if check_axp(pt, term, v)]
                    assert len(hits) <= 1


# (atoms, values, full state set, classifiers) of the enumeration oracle models
ENUMERATION_CASES = [
    (("p", "q", "r"), ("0", "1"), True, 1),
    (("p", "q", "r"), ("0", "1", "2"), False, 5),
    (("p", "q", "r", "s"), ("0", "1"), False, 3),
    (("p", "q", "r", "s"), ("0", "1", "2"), True, 2),
    (("p", "q", "r", "s", "t"), ("0", "1"), True, 4),
    (("p", "q", "r", "s", "t"), ("0", "1", "2"), False, 1),
]


@pytest.mark.parametrize("atoms,values,full,nfns", ENUMERATION_CASES)
def test_enumerations_equal_the_formula_filters(atoms, values, full, nfns):
    """Each enumeration lists exactly the terms whose defining formula holds
    at the point, in all_terms order, at every point of the model."""
    rng = random.Random(f"{atoms}/{values}/{full}/{nfns}")
    sig = Signature(atoms, values)
    states = all_states(sig)
    if not full:
        states = rng.sample(states, rng.randint(2, len(states) - 1))
    tables = set()
    while len(tables) < nfns:
        tables.add(tuple(rng.choice(values) for _ in states))
    fns = [ClassifierFn(f"f{i}", dict(zip(states, row))) for i, row in enumerate(sorted(tables))]
    m = MCM(sig, states, fns)
    terms = list(all_terms(sig))
    # extension_mask holds the truth at point (si, fi) in bit si * nf + fi
    ext = {
        (formula, v): [extension_mask(m, formula(t, v, sig)) for t in terms]
        for formula in (axp_formula, pimp_formula, subaxp_formula, subpimp_formula)
        for v in values
    }
    nf = len(m.functions)
    for si, s in enumerate(m.states):
        for fi, f in enumerate(m.functions):
            pt = PointedMCM(m, s, f)

            def holding(formula):
                masks = ext[formula, f(s)]
                return [t for t, mask in zip(terms, masks) if mask >> (si * nf + fi) & 1]

            assert enumerate_axps(pt) == holding(axp_formula)
            assert enumerate_pimps(pt) == holding(pimp_formula)
            assert enumerate_subjective(pt, "axp") == holding(subaxp_formula)
            assert enumerate_subjective(pt, "pimp") == holding(subpimp_formula)


def test_check_pimp_drops_literals_in_atom_order(monkeypatch):
    # both one-literal weakenings of q & p are implicants of a constant
    # classifier; the first one tried, and the last check made, drops the
    # first atom of the signature
    sig = Signature(("q", "p"), ("0", "1"))
    f = ClassifierFn("c", {s: "1" for s in all_states(sig)})
    m = MCM(sig, all_states(sig), [f])
    tried = []
    core = plc.explain._covers_none

    def recording(pos, neg, masks):
        tried.append((pos, neg))
        return core(pos, neg, masks)

    monkeypatch.setattr(plc.explain, "_covers_none", recording)
    assert not check_pimp(m, f, T(("q", "p")), "1")
    assert tried[-2:] == [(0b11, 0), (0b10, 0)]


def test_enumerations_draw_on_the_search_budget(monkeypatch, ex_model, ex_f1, s1):
    monkeypatch.setenv("PLC_NODE_BUDGET", "10")
    pt = PointedMCM(ex_model, s1, ex_f1)
    for enumerate_ in (enumerate_pimps, enumerate_axps, lambda p: enumerate_subjective(p, "pimp")):
        with pytest.raises(BudgetExceeded):
            enumerate_(pt)
