"""Acceptance suite: the executable exit criteria for this package.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run pytest with -s to
see them) and enforces its stated time budget.  All randomness is seeded.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from plc import (
    BoxF,
    Dyn,
    Not,
    Signature,
    Term,
    axiom_instances,
    axp_formula,
    brute_force_sat,
    check_axp,
    check_mcm,
    check_mdm,
    check_pimp,
    check_subjective,
    cp_free,
    enumerate_axps,
    enumerate_subjective,
    filtrate,
    mcm_to_mdm,
    mdm_to_mcm,
    parse_formula,
    pimp_formula,
    random_formula,
    reduce_dynamic,
    sat_finite,
    sat_open,
    subaxp_formula,
    subformulas,
    valid_finite,
    validate_mdm,
)
from plc.models import PointedMCM, world_point
from plc.rewrite import simplify
from plc.syntax import big_or, size

import helpers


@contextmanager
def criterion(num: int, label: str, limit: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {label}")
        raise
    dt = time.time() - t0
    if limit is not None and dt >= limit:
        print(f"ACCEPTANCE {num}: FAIL  {label}  (over budget: {dt:.2f}s >= {limit}s)")
        raise AssertionError(f"time budget exceeded: {dt:.2f}s >= {limit}s")
    print(f"ACCEPTANCE {num}: PASS  {label}  ({dt:.2f}s)")


def T(pos=(), neg=()):
    return Term(frozenset(pos), frozenset(neg))


def test_criterion_1_local_and_global_explanations(ex_model, ex_f1, s1, s2):
    with criterion(1, "worked-example explanation checks", limit=1.0):
        p1 = PointedMCM(ex_model, s1, ex_f1)
        or_an, cl_an = T(("or", "an")), T(("cl", "an"))
        assert check_axp(p1, or_an, "1")
        assert check_pimp(ex_model, ex_f1, or_an, "1")
        assert check_pimp(ex_model, ex_f1, cl_an, "1")
        assert not check_axp(p1, cl_an, "1")
        assert check_axp(PointedMCM(ex_model, s2, ex_f1), cl_an, "1")
        # the same five facts through direct model checking of the encodings
        sig = ex_model.sig
        assert check_mcm(p1, axp_formula(or_an, "1", sig))
        assert check_mcm(p1, pimp_formula(or_an, "1", sig))
        assert check_mcm(p1, pimp_formula(cl_an, "1", sig))
        assert not check_mcm(p1, axp_formula(cl_an, "1", sig))
        assert check_mcm(PointedMCM(ex_model, s2, ex_f1), axp_formula(cl_an, "1", sig))


def test_criterion_2_subjective_explanations(ex_model, ex_f1, ex_f2, s1):
    with criterion(2, "subjective-explanation checks", limit=5.0):
        p1 = PointedMCM(ex_model, s1, ex_f1)
        assert enumerate_subjective(p1, "axp") == []
        # "not anonymous" is a subjectively known prime implicant for
        # rejection; as an abductive explanation it holds at (and only at)
        # the anonymity-violating instances, under every classifier
        not_an = T((), ("an",))
        assert check_subjective(p1, "pimp", not_an, "0")
        assert check_mcm(p1, BoxF(pimp_formula(not_an, "0", ex_model.sig)))
        an_free = [s for s in ex_model.states if "an" not in s]
        assert an_free
        for s in an_free:
            for f in ex_model.functions:
                pt = PointedMCM(ex_model, s, f)
                assert check_subjective(pt, "axp", not_an, "0")
                assert check_mcm(pt, subaxp_formula(not_an, "0", ex_model.sig))
        assert check_axp(PointedMCM(ex_model, s1, ex_f2), T(("si", "an")), "1")


def test_criterion_3_announcement_example(ex_model, ex_f1, s1):
    with criterion(3, "knowledge-update example, both evaluation paths"):
        sig = ex_model.sig
        guard = parse_formula("(or & an) -> =1", sig)
        parts = [T(), T(("or",)), T(("an",)), T(("or", "an"))]
        phi = Dyn(guard, BoxF(big_or(axp_formula(t, "1", sig) for t in parts)))
        pt = PointedMCM(ex_model, s1, ex_f1)
        direct = check_mcm(pt, phi)
        reduced = reduce_dynamic(phi)
        via_reduction = check_mcm(pt, reduced)
        assert direct is True
        assert via_reduction is True


def test_criterion_4_schema_validity_sweep():
    with criterion(4, "schema instances: finite-mode valid, functionality openly refutable"):
        sig = Signature(("p", "q"), ("0", "1"))
        instances = axiom_instances(sig, depth=2, seed=0, count=100)
        assert len(instances) == 1400
        verdicts: dict = {}
        failures = []
        for name, phi in instances:
            if phi not in verdicts:
                verdicts[phi] = valid_finite(phi, sig)
            if not verdicts[phi]:
                failures.append((name, phi))
        assert not failures
        refuted: dict = {}
        for name, phi in instances:
            if name != "Funct" or phi in refuted:
                continue
            w = sat_open(Not(phi), sig.values)
            assert w is not None, phi
            rep = validate_mdm(w.quasi)
            assert rep.ok_quasi
            assert check_mdm(w.quasi, w.quasi_world, cp_free(Not(phi)))
            refuted[phi] = True
        assert refuted


def test_criterion_5_oracle_equivalence():
    with criterion(5, "solver agrees with the brute-force oracle", limit=600.0):
        sig1 = Signature(("p",), ("0", "1"))
        disagreements = []
        for phi in helpers.exhaustive_formulas(sig1, 7):
            mine = sat_finite(phi, sig1) is not None
            oracle = brute_force_sat(phi, sig1, max_functions=4) is not None
            if mine != oracle:
                disagreements.append(phi)
        assert not disagreements

        sig2 = Signature(("p", "q"), ("0", "1"))
        rng = random.Random(505)
        corpus = []
        while len(corpus) < 1000:
            phi = random_formula(rng, sig2, 3, allow_cp=True)
            if rng.random() < 0.3:
                phi = Not(phi)
            if size(phi) <= 12:
                corpus.append(phi)
        for phi in corpus:
            # the classifier boxes counted here, not by the solver under test
            k = 1 + sum(isinstance(f, BoxF) for f in subformulas(simplify(phi)))
            mine = sat_finite(phi, sig2) is not None
            oracle = (
                brute_force_sat(phi, sig2, max_functions=min(k + 1, 8)) is not None
            )
            if mine != oracle:
                disagreements.append(phi)
        assert not disagreements


def test_criterion_6_grid_image_equivalence():
    with criterion(6, "classifier/decision model translations preserve truth"):
        rng = random.Random(606)
        for _ in range(200):
            m = helpers.random_mcm(rng, max_functions=4)
            M = mcm_to_mdm(m)
            back, mapping = mdm_to_mcm(M)
            # isomorphism of the round trip
            assert set(back.states) == set(m.states)
            assert {f.items() for f in back.functions} == {
                f.items() for f in m.functions
            }
            for w in M.worlds:
                s, f = mapping[w]
                src = world_point(m, w)
                assert s == src.state and f.items() == src.function.items()
            for _ in range(50):
                phi = random_formula(rng, m.sig, 3)
                for w in M.worlds:
                    truth = check_mdm(M, w, phi)
                    assert truth == check_mcm(world_point(m, w), phi)
                    s, f = mapping[w]
                    assert truth == check_mcm(PointedMCM(back, s, f), phi)


def test_criterion_7_reduction_soundness():
    with criterion(7, "update elimination preserves truth everywhere"):
        rng = random.Random(707)
        sig = Signature(("p", "q"), ("0", "1"))
        count = 0
        while count < 500:
            phi = random_formula(rng, sig, 3, allow_cp=True, allow_dyn=True)
            if _dyn_depth(phi) > 2 or size(phi) > 30:
                continue
            count += 1
            reduced = reduce_dynamic(phi)
            for _ in range(20):
                m = helpers.random_mcm(rng, sig=sig, max_functions=3)
                for s in m.states:
                    for f in m.functions:
                        pt = PointedMCM(m, s, f)
                        assert check_mcm(pt, phi) == check_mcm(pt, reduced)


def _dyn_depth(phi) -> int:
    from plc.syntax import And, BoxI, CP, Not as NotN

    if isinstance(phi, Dyn):
        return max(_dyn_depth(phi.announced), 1 + _dyn_depth(phi.sub))
    if isinstance(phi, NotN):
        return _dyn_depth(phi.sub)
    if isinstance(phi, And):
        return max(_dyn_depth(phi.left), _dyn_depth(phi.right))
    if isinstance(phi, (BoxI, BoxF, CP)):
        return _dyn_depth(phi.sub)
    return 0


def test_criterion_8_filtration():
    with criterion(8, "filtration preserves the target and respects its bound"):
        rng = random.Random(808)
        for _ in range(100):
            Q = helpers.random_quasi_grid(rng)
            phi = random_formula(rng, Q.sig, 2)
            w0 = rng.choice(Q.worlds)
            out, mapping = filtrate(Q, phi, w0)
            assert validate_mdm(out).ok_quasi
            bound = 1 << len(subformulas(phi, plus=True, sig=Q.sig))
            assert len(out.worlds) <= bound
            assert check_mdm(out, mapping[w0], phi) == check_mdm(Q, w0, phi)


def test_criterion_9_explanation_existence():
    with criterion(9, "abductive explanations always exist over finite instances"):
        rng = random.Random(909)
        for _ in range(200):
            m = helpers.random_mcm(rng)
            for s in m.states:
                for f in m.functions:
                    assert enumerate_axps(PointedMCM(m, s, f))
