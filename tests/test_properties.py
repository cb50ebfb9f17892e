"""Cross-cutting property tests that tie several modules together."""

import random
import subprocess
import sys

from plc import (
    And,
    Atom,
    BoxF,
    BoxI,
    ClassifierFn,
    Dec,
    Dyn,
    Iff,
    Implies,
    MCM,
    Not,
    Signature,
    all_states,
    check_mcm,
    check_mdm,
    check_pimp,
    enumerate_axps,
    enumerate_subjective,
    parse_formula,
    random_formula,
    sat_finite,
    sat_open,
    valid_in_mcm,
)

import helpers


def test_reduction_laws_are_valid_equivalences():
    """Each update law, stated as a biconditional, holds at every point."""
    rng = random.Random(31)
    sig = Signature(("p", "q"), ("0", "1"))
    for _ in range(25):
        chi = random_formula(rng, sig, 2)
        psi = random_formula(rng, sig, 2)
        guard = BoxI(chi)
        laws = [
            Iff(Dyn(chi, Atom("p")), Implies(guard, Atom("p"))),
            Iff(Dyn(chi, Dec("1")), Implies(guard, Dec("1"))),
            Iff(Dyn(chi, Not(psi)), Implies(guard, Not(Dyn(chi, psi)))),
            Iff(
                Dyn(chi, And(psi, Dec("0"))),
                And(Dyn(chi, psi), Dyn(chi, Dec("0"))),
            ),
            Iff(Dyn(chi, BoxI(psi)), Implies(guard, BoxI(Dyn(chi, psi)))),
            Iff(Dyn(chi, BoxF(psi)), Implies(guard, BoxF(Dyn(chi, psi)))),
        ]
        for _ in range(4):
            m = helpers.random_mcm(rng, sig=sig, max_functions=3)
            for law in laws:
                assert valid_in_mcm(m, law)


def test_open_mode_matches_quasi_enumeration_two_atoms():
    """The open-mode verdict equals brute-force quasi-model search, on a
    corpus over two atoms (the grid restriction loses nothing)."""
    rng = random.Random(32)
    sig = Signature(("p", "q"), ("0", "1"))
    models = list(helpers.tiny_quasi_models(sig, 2))
    assert len(models) > 50
    for _ in range(40):
        phi = random_formula(rng, sig, 2)
        brute = any(
            check_mdm(Q, w, phi) for Q in models for w in Q.worlds
        )
        mine = sat_open(phi, sig.values) is not None
        if brute:
            assert mine, phi
        # a brute miss at two worlds does not prove UNSAT, but an UNSAT
        # verdict must imply a brute miss
        if not mine:
            assert not brute, phi


def test_open_witnesses_are_deterministic():
    rng = random.Random(33)
    sig = Signature(("p",), ("0", "1"))
    for _ in range(30):
        phi = random_formula(rng, sig, 3)
        w1 = sat_open(phi, sig.values)
        w2 = sat_open(phi, sig.values)
        if w1 is None:
            assert w2 is None
        else:
            assert w1.model == w2.model
            assert w1.state == w2.state
            assert w1.function.name == w2.function.name


def test_three_valued_signatures_work_end_to_end():
    sig = Signature(("p", "q"), ("lo", "mid", "hi"))
    states = all_states(sig)
    rng = random.Random(34)
    fns = [
        ClassifierFn("f0", {s: ("hi" if {"p", "q"} <= s else "lo") for s in states}),
        ClassifierFn("f1", {s: ("mid" if "p" in s else "lo") for s in states}),
    ]
    m = MCM(sig, states, fns)
    from plc.syntax import big_or

    assert valid_in_mcm(m, big_or(Dec(v) for v in sig.values))
    pt = m.point(frozenset({"p", "q"}), "f0")
    assert check_mcm(pt, parse_formula("=hi & diaF =mid", sig))
    axps = enumerate_axps(pt)
    assert axps and all(check_pimp(m, fns[0], t, "hi") for t in axps)
    # solver handles three values too
    w = sat_finite(parse_formula("diaF =lo & diaF =mid & diaF =hi", sig), sig)
    assert w is not None and len(w.model.functions) >= 3
    assert sat_open(parse_formula("=lo & =mid", sig), sig.values) is None


def test_subjective_enumeration_can_be_empty_objective_never():
    rng = random.Random(35)
    seen_empty_subjective = False
    for _ in range(60):
        m = helpers.random_mcm(rng)
        pt = helpers.random_pointed(rng, m)
        assert enumerate_axps(pt)
        if not enumerate_subjective(pt):
            seen_empty_subjective = True
    assert seen_empty_subjective


def test_cli_is_byte_identical_across_processes(tmp_path, ex_model, ex_f1, s1):
    from plc import dumps_mcm

    path = tmp_path / "ex.plc"
    path.write_text(dumps_mcm(ex_model, ex_model.point(s1, ex_f1)))
    cmd = [sys.executable, "-m", "plc.cli", "explain", "-m", str(path), "--kind", "pimp"]
    runs = {subprocess.run(cmd, capture_output=True, text=True).stdout for _ in range(2)}
    assert len(runs) == 1
    assert "or & an\t=1" in next(iter(runs))
