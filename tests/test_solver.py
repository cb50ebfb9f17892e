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
    EvalError,
    Not,
    SCHEMA_NAMES,
    Signature,
    SignatureError,
    Top,
    atoms_of,
    axiom_instances,
    brute_force_sat,
    check_mdm,
    filtrate,
    parse_formula,
    random_formula,
    render_formula,
    sat_finite,
    sat_open,
    subformulas,
    valid_finite,
    validate_mdm,
)

import helpers

SIG1 = Signature(("p",), ("0", "1"))
SIG2 = Signature(("p", "q"), ("0", "1"))


def F1(text):
    return parse_formula(text, SIG1)


def F2(text):
    return parse_formula(text, SIG2)


def test_sat_finite_examples():
    assert sat_finite(F1("=0 & =1"), SIG1) is None
    assert sat_finite(F1("p & boxF ~p"), SIG1) is None
    w = sat_finite(F1("diaF =0 & diaF =1"), SIG1)
    assert w is not None and len(w.model.functions) >= 2
    # no single-classifier model can satisfy it (oracle sweep)
    assert brute_force_sat(F1("diaF =0 & diaF =1"), SIG1, max_functions=1) is None


def test_sat_finite_rejects_dynamic():
    with pytest.raises(EvalError):
        sat_finite(Dyn(Atom("p"), Atom("p")), SIG1)


def test_valid_finite_examples():
    assert valid_finite(F2("(p & =1) -> boxI (p -> =1)"), SIG2) is False
    # over the full atom description the functionality schema is valid
    assert valid_finite(F2("(p & q & =1) -> boxI ((p & q) -> =1)"), SIG2)
    assert valid_finite(F2("(p & ~q & =1) -> boxI ((p & ~q) -> =1)"), SIG2)
    assert valid_finite(F2("p"), SIG2) is False
    assert valid_finite(F2("p -> boxF p"), SIG2)


def test_witnesses_recheck_and_are_deterministic():
    rng = random.Random(1)
    for _ in range(100):
        phi = random_formula(rng, SIG2, 3)
        w1 = sat_finite(phi, SIG2)
        w2 = sat_finite(phi, SIG2)
        if w1 is None:
            assert w2 is None
        else:
            assert w1.model == w2.model
            assert w1.state == w2.state and w1.function.name == w2.function.name


def test_budget_is_a_distinct_answer():
    with pytest.raises(BudgetExceeded):
        sat_finite(F2("p & boxF ~p"), SIG2, budget=10)


def test_type_search_checks_its_table_before_allocation():
    from plc.config import BudgetMeter
    from plc.solver import _system_satisfiable

    phi = F1("boxI " * 40 + "p")  # 2^40 row types
    for copies in (None, 1):  # open mode, finite mode
        meter = BudgetMeter(10**9)
        with pytest.raises(BudgetExceeded):
            _system_satisfiable(phi, ("p",), SIG1.values, meter, copies)
        assert meter.used == 0


ONE_HOT = (
    # every classifier is one-hot on some full term, some classifier outputs 1
    # at every instance, and all four instances exist: the smallest model has
    # four states and four classifiers
    "boxF (boxI (=1 <-> ~p & ~q) | boxI (=1 <-> ~p & q)"
    " | boxI (=1 <-> p & ~q) | boxI (=1 <-> p & q))"
    " & boxI diaF =1 & diaI (~p & ~q) & diaI (~p & q) & diaI (p & ~q) & diaI (p & q)"
)


def test_sat_finite_finds_the_one_hot_counterexample():
    for sig in (SIG2, Signature(("p", "q", "r"), ("0", "1"))):
        phi = parse_formula(ONE_HOT, sig)
        w = sat_finite(phi, sig)
        assert w is not None
        assert len(w.model.states) == 4 and len(w.model.functions) == 4
        assert valid_finite(Not(phi), sig) is False


def test_sat_finite_bounds_the_states_sharing_a_valuation():
    # two states with p need a second atom to tell them apart
    phi = "diaI (p & =0) & diaI (p & =1)"
    assert sat_finite(F1(phi), SIG1) is None
    assert sat_finite(F2(phi), SIG2) is not None


def test_three_atom_classifier_box_schemas_are_valid():
    sig3 = Signature(("p", "q", "r"), ("0", "1"))
    wanted = {"K_boxF", "4_boxF", "5_boxF", "Comm"}
    instances = [(n, phi) for n, phi in axiom_instances(sig3, seed=0, count=1) if n in wanted]
    assert {n for n, _ in instances} == wanted
    for name, phi in instances:
        assert valid_finite(phi, sig3), name


def test_oracle_agrees_with_solver_at_the_selection_bound():
    # keeping the actual classifier and one refuting classifier per (state,
    # false classifier box) preserves truth, so 1 + 4 * k_F classifiers suffice
    # over two atoms; k_F is counted here, not by the solver under test
    rng = random.Random(3)
    checked = 0
    while checked < 300:
        phi = random_formula(rng, SIG2, 3, allow_cp=True)
        k_f = sum(isinstance(f, BoxF) for f in subformulas(phi))
        if k_f > 1:
            continue
        checked += 1
        mine = sat_finite(phi, SIG2) is not None
        oracle = brute_force_sat(phi, SIG2, max_functions=1 + 4 * k_f) is not None
        assert mine == oracle, phi


def test_oracle_agrees_with_solver_on_small_corpus():
    # the acceptance suite runs the exhaustive corpus; a random spot check here
    rng = random.Random(2)
    for _ in range(150):
        phi = random_formula(rng, SIG1, 3, allow_cp=True)
        mine = sat_finite(phi, SIG1) is not None
        oracle = brute_force_sat(phi, SIG1, max_functions=4) is not None
        assert mine == oracle


def test_oracle_trivial_cases():
    from plc import Top, Bottom

    w = brute_force_sat(Top(), SIG1)
    assert w is not None
    assert len(w.model.states) == 1 and len(w.model.functions) == 1
    assert brute_force_sat(Bottom(), SIG1) is None


def test_open_mode_without_atoms():
    from plc import Top

    w = sat_open(Top(), ("0", "1"))
    assert w is not None
    assert sat_open(parse_formula("=0 & diaF =1 & boxI =0", SIG1), ("0", "1")) is not None


def test_oracle_bounds_are_hard():
    sig3 = Signature(("p", "q", "r"), ("0", "1"))
    with pytest.raises(ValueError):
        brute_force_sat(parse_formula("p", sig3), sig3)
    with pytest.raises(ValueError):
        brute_force_sat(F1("p"), SIG1, max_functions=9)


def test_sat_open_rejects_a_malformed_value_set_before_searching():
    bottom = Not(Top())
    for phi, values in [
        (bottom, ("Bad!",)),
        (bottom, ("0", "0")),
        (Top(), ()),
        (And(Atom("p"), bottom), ("0", "p")),
        (Top(), ("Bad!",)),
    ]:
        with pytest.raises(SignatureError):
            sat_open(phi, values)
    with pytest.raises(EvalError, match="undeclared values"):
        sat_open(Dec("2"), ("Bad!",))
    # the fresh atoms of a witness avoid the value names
    w = sat_open(Dec("_w0"), ("_w0",))
    assert w is not None and "_w0" not in w.model.sig.atoms


def test_sat_open_examples():
    assert sat_open(F1("p & boxF ~p"), ("0", "1")) is None
    assert sat_open(F1("boxI p & diaI ~p"), ("0", "1")) is None
    assert sat_open(F1("=0 & =1"), ("0", "1")) is None
    w = sat_open(F1("p & =1 & diaI (p & ~=1)"), ("0", "1"))
    assert w is not None
    # the pre-freshening witness is quasi but not functional
    rep = validate_mdm(w.quasi)
    assert rep.ok_quasi and not rep.passed("C2")
    # the freshened model is a genuine classifier model refuting the instance
    assert len(w.model.sig.atoms) > 1
    from plc import check_mcm, valid_in_mcm

    funct = parse_formula("(p & =1) -> boxI (p -> =1)", SIG1)
    assert not valid_in_mcm(w.model, funct)


def test_sat_open_finds_the_one_hot_counterexample():
    w = sat_open(F2(ONE_HOT), SIG2.values)
    assert w is not None
    assert len(w.model.states) >= 4 and len(w.model.functions) >= 4


def test_funct_instances_split_the_two_modes():
    # finite-mode valid, open-mode refutable: the signature-closure schema
    sig = SIG2
    seen_refuted = 0
    for name, phi in axiom_instances(sig, depth=2, seed=5, count=6):
        if name != "Funct":
            continue
        assert valid_finite(phi, sig)
        w = sat_open(Not(phi), sig.values)
        assert w is not None
        assert validate_mdm(w.quasi).ok_quasi
        seen_refuted += 1
    assert seen_refuted >= 4


def test_all_schemas_finite_valid_and_non_funct_open_valid():
    sig = SIG2
    for name, phi in axiom_instances(sig, depth=2, seed=7, count=3):
        assert valid_finite(phi, sig), name
        if name != "Funct":
            assert sat_open(Not(phi), sig.values) is None, name


def test_open_sat_implied_by_finite_sat():
    rng = random.Random(8)
    for _ in range(60):
        phi = random_formula(rng, SIG1, 3)
        if sat_finite(phi, SIG1) is not None:
            assert sat_open(phi, SIG1.values) is not None


def test_second_opinions_from_the_logic_beyond_two_atoms():
    # finite SAT over (p, q) implies finite SAT over (p, q, r), which implies
    # open SAT; an open witness of n states implies finite SAT over the
    # formula's atoms and ceil(log2 n) fresh ones, enough to tell them apart
    sig = Signature(("p", "q"), ("0", "1", "2"))
    wide = Signature(("p", "q", "r"), sig.values)
    rng = random.Random(19)
    corpus = [Not(phi) for _, phi in axiom_instances(sig, seed=7, count=4)]
    corpus += [
        And(random_formula(rng, sig, 3, allow_cp=True), random_formula(rng, sig, 3, allow_cp=True))
        for _ in range(100)
    ]
    satisfied = 0
    for phi in corpus:
        narrow = sat_finite(phi, sig) is not None
        finite = sat_finite(phi, wide) is not None
        witness = sat_open(phi, sig.values)
        assert narrow <= finite <= (witness is not None), render_formula(phi)
        if witness is not None:
            fresh = [f"x{i}" for i in range((len(witness.model.states) - 1).bit_length())]
            spread = Signature(sorted(atoms_of(phi)) + fresh, sig.values)
            assert sat_finite(phi, spread) is not None, render_formula(phi)
        satisfied += narrow
    assert 0 < satisfied < len(corpus)


def _balanced_and(parts):
    while len(parts) > 1:
        parts = [And(*parts[i : i + 2]) if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def test_refusals_state_sizes_too_long_to_print_as_powers_of_two():
    # over 15,000 atoms the sizes have more than 4,300 digits, which Python
    # refuses to print: each refusal is still its own error, and short
    from plc import ModelError, build_mcm
    from plc.rewrite import cp_free

    names = tuple(f"a{i}" for i in range(15_000))
    sig = Signature(names, ("0", "1"))
    phi = _balanced_and([Atom(a) for a in names])
    refusals = [
        (BudgetExceeded, lambda: sat_finite(phi, sig)),
        (BudgetExceeded, lambda: sat_open(phi, sig.values)),
        (BudgetExceeded, lambda: cp_free(CP(names, Atom("a0")))),
        (ModelError, lambda: build_mcm(Signature(names[:14], sig.values), "all", constraints=["a0 | ~a0"])),
    ]
    for error, call in refusals:
        with pytest.raises(error) as info:
            call()
        assert len(str(info.value)) < 200 and "2^" in str(info.value), str(info.value)


def test_open_grid_search_matches_quasi_enumeration():
    # tiny cross-check of the grid restriction against arbitrary quasi models
    rng = random.Random(9)
    for _ in range(60):
        phi = random_formula(rng, SIG1, 2)
        open_sat = sat_open(phi, SIG1.values) is not None
        quasi_sat = _quasi_brute_sat(phi)
        assert open_sat == quasi_sat, phi


def _quasi_brute_sat(phi):
    """Enumerate tiny quasi models (defects included) for a one-atom formula."""
    import itertools

    from plc import QuasiMDM

    sig = SIG1
    for n_worlds in (1, 2, 3):
        worlds = list(range(n_worlds))
        for atoms in itertools.product((frozenset(), frozenset({"p"})), repeat=n_worlds):
            for decs in itertools.product(("0", "1"), repeat=n_worlds):
                for part_i in _partitions(worlds):
                    for part_f in _partitions(worlds):
                        val = {w: (atoms[w], decs[w]) for w in worlds}
                        try:
                            Q = QuasiMDM(sig, worlds, val, part_i, part_f)
                        except ValueError:
                            continue
                        rep = validate_mdm(Q)
                        if not rep.ok_quasi:
                            continue
                        for w in worlds:
                            if check_mdm(Q, w, phi):
                                return True
    return False


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def test_filtrate_minimal_model_is_isomorphic():
    sig = SIG1
    from plc import QuasiMDM

    Q = QuasiMDM(
        sig,
        ["a", "b"],
        {"a": (frozenset({"p"}), "1"), "b": (frozenset(), "0")},
        [["a", "b"]],
        [["a"], ["b"]],
    )
    phi = F1("p & =1 & diaI ~p")
    out, mapping = filtrate(Q, phi, "a")
    assert len(out.worlds) == 2
    assert check_mdm(out, mapping["a"], phi)


def test_filtrate_bound_and_preservation():
    rng = random.Random(10)
    for _ in range(60):
        Q = helpers.random_quasi_grid(rng)
        phi = random_formula(rng, Q.sig, 2)
        w0 = rng.choice(Q.worlds)
        out, mapping = filtrate(Q, phi, w0)
        bound = 1 << len(subformulas(phi, plus=True, sig=Q.sig))
        assert len(out.worlds) <= bound
        assert validate_mdm(out).ok_quasi
        assert check_mdm(out, mapping[w0], phi) == check_mdm(Q, w0, phi)


def test_filtrate_collapses_duplicate_structure():
    rng = random.Random(11)
    # a generated submodel that is already minimal maps one-to-one
    sig = SIG1
    from plc import QuasiMDM

    Q = QuasiMDM(
        sig,
        ["a", "b", "c", "d"],
        {
            "a": (frozenset({"p"}), "1"),
            "b": (frozenset({"p"}), "1"),
            "c": (frozenset(), "0"),
            "d": (frozenset(), "0"),
        },
        [["a", "b", "c", "d"]],
        [["a", "b"], ["c", "d"]],
    )
    phi = F1("diaI =0")
    out, _ = filtrate(Q, phi, "a")
    assert len(out.worlds) == 2  # the duplicated worlds share their type


def test_axiom_instances_deterministic_and_shaped():
    a1 = axiom_instances(SIG2, depth=2, seed=0, count=4)
    a2 = axiom_instances(SIG2, depth=2, seed=0, count=4)
    assert [(n, f) for n, f in a1] == [(n, f) for n, f in a2]
    a3 = axiom_instances(SIG2, depth=2, seed=1, count=4)
    assert a1 != a3
    names = {n for n, _ in a1}
    assert names == set(SCHEMA_NAMES)
    by_name = {}
    for n, f in a1:
        by_name.setdefault(n, []).append(f)
    from plc import big_or

    assert by_name["AtLeast"][0] == big_or(Dec(v) for v in SIG2.values)
    k = by_name["K_boxI"][0]
    from plc.syntax import Implies, And

    # (boxI a & boxI (a -> b)) -> boxI b
    assert isinstance(k, Not)  # an implication, desugared


def test_funct_instances_cycle_all_subsets():
    instances = [f for n, f in axiom_instances(SIG2, depth=1, seed=0, count=8) if n == "Funct"]
    assert len(set(instances)) >= 4  # all four atom subsets appear


def test_queries_cost_the_formula_dag_not_its_tree():
    import time

    p = Atom("p")
    for f0, want in ((BoxI(p), True), (BoxI(CP(("p",), p)), True)):
        small = helpers.doubled(f0, 3)
        assert (sat_finite(small, SIG2) is not None) == want
        assert (sat_open(small, SIG2.values) is not None) == want
        assert valid_finite(small, SIG2) is False
    # a tree of 2^40 copies of f0, with or without ceteris-paribus: the
    # rewrites and the search do the formula DAG's work, and decide it
    for f0 in (BoxI(p), BoxI(CP(("p",), p))):
        big = helpers.doubled(f0, 40)
        for query in (
            lambda: sat_finite(big, SIG2) is not None,
            lambda: sat_open(big, SIG2.values) is not None,
            lambda: not valid_finite(big, SIG2),
        ):
            start = time.process_time()
            assert query()
            assert time.process_time() - start < 1.0


def _random_one_classifier(rng, depth):
    """A boxF-free formula over atoms 0-2 and values 0/1, as nested tuples."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        return ("atom", rng.randrange(3)) if r < 0.55 else ("dec", rng.choice("01")) if r < 0.9 else ("top",)
    op = rng.choice(("not", "not", "and", "and", "boxI", "cp"))
    if op == "and":
        return (op, _random_one_classifier(rng, depth - 1), _random_one_classifier(rng, depth - 1))
    if op == "cp":
        return (op, rng.randrange(1, 8), _random_one_classifier(rng, depth - 1))
    return (op, _random_one_classifier(rng, depth - 1))


def _one_classifier_satisfiable(phi):
    """Whether some (S, f, s) satisfies phi: S a nonempty set of the 8
    valuations of 3 atoms (valuation s has atom i iff bit i of s is set),
    f: S -> {0, 1} and s in S.  Sets of valuations are 8-bit masks, and a
    formula evaluates to the mask of the states of S where it holds."""
    agree = [[sum(1 << t for t in range(8) if not (t ^ s) & xs) for s in range(8)] for xs in range(8)]
    has = [sum(1 << s for s in range(8) if s >> i & 1) for i in range(3)]

    def ev(f, S, ones):
        op = f[0]
        if op == "atom":
            return has[f[1]] & S
        if op == "dec":
            return ones if f[1] == "1" else S & ~ones
        if op == "top":
            return S
        if op == "not":
            return S & ~ev(f[1], S, ones)
        if op == "and":
            return ev(f[1], S, ones) & ev(f[2], S, ones)
        if op == "boxI":
            return S if ev(f[1], S, ones) == S else 0
        sub = ev(f[2], S, ones)  # cp: every state of S agreeing on the index set
        return sum(1 << s for s in range(8) if S >> s & 1 and agree[f[1]][s] & S & ~sub == 0)

    for S in range(1, 256):
        ones = S
        while True:  # every f: S -> {0, 1}, as the set of states it sends to 1
            if ev(phi, S, ones):
                return True
            if ones == 0:
                break
            ones = (ones - 1) & S
    return False


def _to_formula(f):
    names = ("p", "q", "r")
    op = f[0]
    if op == "atom":
        return Atom(names[f[1]])
    if op == "dec":
        return Dec(f[1])
    if op == "top":
        return Top()
    if op == "not":
        return Not(_to_formula(f[1]))
    if op == "and":
        return And(_to_formula(f[1]), _to_formula(f[2]))
    if op == "boxI":
        return BoxI(_to_formula(f[1]))
    return CP([names[i] for i in range(3) if f[1] >> i & 1], _to_formula(f[2]))


def test_sat_finite_agrees_with_a_one_classifier_oracle_at_three_atoms():
    # a boxF-free formula sees only the current classifier, so it is
    # satisfiable iff a model with one classifier satisfies it: 6,560 (S, f)
    # pairs at 3 atoms and 2 values, searched here without the solver
    sig = Signature(("p", "q", "r"), ("0", "1"))
    rng = random.Random(77)
    answers = []
    for _ in range(200):
        phi = _random_one_classifier(rng, 4)
        want = _one_classifier_satisfiable(phi)
        try:
            got = sat_finite(_to_formula(phi), sig) is not None
        except BudgetExceeded:  # a third answer, never a disagreement
            continue
        assert got == want, phi
        answers.append(want)
    # the type table of a formula with several expanded [X] can outgrow the
    # budget (2 of these 200); both answers occur among the rest
    assert len(answers) >= 190 and any(answers) and not all(answers)
