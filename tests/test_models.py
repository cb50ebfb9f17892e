import random
import re
import warnings

import pytest

from plc import (
    MCM,
    ClassifierFn,
    ModelError,
    QuasiMDM,
    Signature,
    Top,
    all_states,
    build_mcm,
    check_mcm,
    check_mdm,
    generated_submodel,
    mcm_to_mdm,
    mdm_to_mcm,
    parse_formula,
    update_mcm,
    validate_mdm,
)
from plc.models import PointedMCM, world_point

import helpers
from conftest import admissible_tables


def test_build_explicit_singleton():
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = build_mcm(sig, "all", functions=[f])
    assert len(m.states) == 2 and len(m.functions) == 1


def test_build_rejects_duplicates_and_partial_tables():
    sig = Signature(("p",), ("0", "1"))
    t = {frozenset(): "0", frozenset({"p"}): "1"}
    with pytest.raises(ModelError):
        build_mcm(sig, "all", functions=[ClassifierFn("a", t), ClassifierFn("b", t)])
    with pytest.raises(ModelError):
        build_mcm(sig, "all", functions=[ClassifierFn("a", {frozenset(): "0"})])
    with pytest.raises(ModelError):
        build_mcm(sig, "all", constraints=["=0 & =1"])


def test_admissible_classifier_count_and_agreement(ex_model, ex_sig):
    # independent dominance-predicate oracle agrees with the constraint build
    oracle = admissible_tables(ex_sig)
    assert len(oracle) == 19  # frozen regression value
    assert len(ex_model.functions) == 19
    oracle_set = {ClassifierFn("x", t) for t in oracle}
    assert set(ex_model.functions) == oracle_set


def test_example_functions_are_admissible(ex_model, ex_f1, ex_f2):
    assert ex_f1 in set(ex_model.functions)
    assert ex_f2 in set(ex_model.functions)


def test_constraint_membership_is_definitional(ex_model, ex_sig):
    # f is kept iff the singleton model over f validates every constraint
    import random

    from plc import parse_formula, valid_in_mcm
    from conftest import EX_CONSTRAINTS

    phis = [parse_formula(c, ex_sig) for c in EX_CONSTRAINTS]
    rng = random.Random(42)
    members = set(ex_model.functions)
    candidates = list(members)[:5]
    for _ in range(20):
        table = {s: rng.choice(("0", "1")) for s in ex_model.states}
        candidates.append(ClassifierFn("r", table))
    for f in candidates:
        singleton = MCM(ex_sig, ex_model.states, [f.renamed("only")])
        definitional = all(valid_in_mcm(singleton, phi) for phi in phis)
        assert definitional == (f in members)


def test_constraint_mode_warns_off_the_full_cube():
    sig = Signature(("p",), ("0", "1"))
    with pytest.warns(UserWarning):
        build_mcm(sig, [frozenset()], constraints=["=0 | =1"])


def test_constraint_mode_checks_the_state_set_first():
    # a duplicate or empty state set is reported as such, before any
    # candidate is enumerated
    sig = Signature(("p",), ("0", "1"))
    s = frozenset({"p"})
    with pytest.raises(ModelError, match="duplicate states"):
        build_mcm(sig, [s, s], constraints=["=0 & =1"])
    with pytest.raises(ModelError, match="state set must be nonempty"):
        build_mcm(sig, [], constraints=["=0 | =1"])


def _oracle_kept(sig, states, phi):
    """The value tuples, in lexicographic order, whose singleton model
    satisfies phi everywhere, by the solver's point-wise oracle evaluator."""
    import itertools

    from plc.models import state_mask
    from plc.solver import _oracle_nodes, _oracle_search_points
    from plc.syntax import Not

    nodes = _oracle_nodes(Not(phi), {a: i for i, a in enumerate(sig.atoms)})
    cols = [state_mask(sig, s) for s in states]
    return [
        tuple(sig.values[v] for v in row)
        for row in itertools.product(range(len(sig.values)), repeat=len(states))
        if _oracle_search_points(nodes, sig.values, cols, [row]) is None
    ]


def test_constraint_mode_matches_the_oracle_on_random_sets():
    from plc import random_formula
    from plc.models import state_mask
    from plc.syntax import Implies, big_and

    rng = random.Random(8)
    for _ in range(200):
        sig = Signature(("p", "q"), ("0", "1", "2")[: rng.randint(2, 3)])
        cube = all_states(sig)
        states = cube if rng.random() < 0.5 else rng.sample(cube, rng.randint(1, 4))
        # implications, so that many sets keep some candidates but not all
        phis = [
            Implies(
                random_formula(rng, sig, rng.randint(0, 2), allow_cp=True),
                random_formula(rng, sig, rng.randint(1, 4), allow_cp=True),
            )
            for _ in range(rng.randint(1, 2))
        ]
        ordered = sorted(states, key=lambda s: state_mask(sig, s))
        want = _oracle_kept(sig, ordered, big_and(phis))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if not want:
                with pytest.raises(ModelError, match="no candidate"):
                    build_mcm(sig, states, constraints=phis)
                continue
            m = build_mcm(sig, states, constraints=phis)
        assert m.states == tuple(ordered)
        got = {f.name: tuple(f(s) for s in ordered) for f in m.functions}
        assert got == {f"f{i}": row for i, row in enumerate(want)}


def test_constraint_mode_spans_several_grids():
    # 5^8 = 390,625 candidates: the first two states' values pick one of 25
    # grids of 5^6 candidates each
    import itertools

    sig = Signature(("p", "q", "r"), ("0", "1", "2", "3", "4"))
    states = all_states(sig)  # sorted by atom bitmask
    m = build_mcm(
        sig,
        "all",
        constraints=[
            "=0 | =1 | (p & =2)",
            "=2 -> [q](r | =0 | =2)",
            "boxF (=1 -> diaI =0)",
        ],
    )

    def admissible(t):
        return (
            all(v in "01" or ("p" in s and v == "2") for s, v in t.items())
            and all(
                "r" in s2 or t[s2] in "02"
                for s, v in t.items()
                if v == "2"
                for s2 in states
                if ("q" in s2) == ("q" in s)
            )
            and ("1" not in t.values() or "0" in t.values())
        )

    want = [
        row
        for row in itertools.product(sig.values, repeat=len(states))
        if admissible(dict(zip(states, row)))
    ]
    assert len({row[:2] for row in want}) > 1  # survivors in several grids
    assert m.states == tuple(states)
    got = {f.name: tuple(f(s) for s in states) for f in m.functions}
    assert got == {f"f{i}": row for i, row in enumerate(want)}


def test_update_with_truth_is_identity(ex_model):
    updated = update_mcm(ex_model, Top())
    assert updated == ex_model


def test_update_removes_exactly_the_violators(ex_model, ex_f2):
    phi = parse_formula("(or & an) -> =1", ex_model.sig)
    updated = update_mcm(ex_model, phi)
    # recompute the survivor set by brute force over the definition
    survivors = set()
    for f in ex_model.functions:
        if all(
            check_mcm(PointedMCM(ex_model, s, f), phi) for s in ex_model.states
        ):
            survivors.add(f)
    assert set(updated.functions) == survivors
    assert ex_f2 not in survivors  # rejects {or,an} (no si), so it is discarded
    assert updated.states == ex_model.states


def test_update_is_idempotent(ex_model):
    phi = parse_formula("(or & an) -> =1", ex_model.sig)
    once = update_mcm(ex_model, phi)
    assert update_mcm(once, phi) == once


def test_update_survivors_still_satisfy_globally():
    rng = random.Random(21)
    from plc import random_formula, valid_in_mcm

    for _ in range(30):
        m = helpers.random_mcm(rng)
        phi = random_formula(rng, m.sig, 2)
        updated = update_mcm(m, phi)
        assert set(updated.functions) <= set(m.functions)
        if not updated.inconsistent:
            assert valid_in_mcm(updated, phi)


def test_update_to_empty_is_marked():
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = build_mcm(sig, "all", functions=[f])
    updated = update_mcm(m, parse_formula("=0 & =1", sig))
    assert updated.inconsistent
    from plc import EvalError

    with pytest.raises((EvalError, ModelError)):
        updated.point(frozenset(), "f")


def test_validate_mdm_trivial_and_violations():
    sig = Signature(("p",), ("0", "1"))
    one = QuasiMDM(sig, ["w"], {"w": (frozenset({"p"}), "1")}, [["w"]], [["w"]])
    rep = validate_mdm(one)
    assert rep.ok_mdm and rep.ok_c6
    # two instance-related worlds with different input valuations: C3 fails
    bad = QuasiMDM(
        sig,
        ["w", "v"],
        {"w": (frozenset({"p"}), "1"), "v": (frozenset(), "1")},
        [["w"], ["v"]],
        [["w", "v"]],
    )
    rep = validate_mdm(bad)
    assert not rep.passed("C3")
    assert set(rep.check("C3").witness) == {"w", "v"}


def test_c1_witness_is_pinned():
    sig = Signature(("p",), ("0", "1"))
    worlds = ["w3", "w2", "w1", "w0"]
    M = QuasiMDM(
        sig,
        worlds,
        {w: (frozenset(), "0") for w in worlds},
        [["w0", "w1", "w2"], ["w3"]],
        [["w2", "w3"], ["w0"], ["w1"]],
    )
    # w3 is the first world that fails; its two relations' compositions
    # differ in w0 and w1, and w0 is the smaller by repr
    rep = validate_mdm(M)
    assert not rep.passed("C1") and rep.passed("C2") and rep.passed("C3")
    assert rep.check("C1").witness == ("w3", "w0")
    with pytest.raises(ModelError, match=r"^not a valid decision model: C1 fails at \('w3', 'w0'\)$"):
        mdm_to_mcm(M)


def test_grid_images_validate(ex_model):
    rng = random.Random(4)
    for _ in range(25):
        m = helpers.random_mcm(rng)
        rep = validate_mdm(mcm_to_mdm(m))
        assert rep.ok_mdm and rep.ok_c6
    rep = validate_mdm(mcm_to_mdm(ex_model))
    assert rep.ok_mdm and rep.ok_c6


def test_grid_image_shape():
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = build_mcm(sig, "all", functions=[f])
    M = mcm_to_mdm(m)
    assert len(M.worlds) == len(m.states) * len(m.functions)
    single = MCM(sig, [frozenset()], [ClassifierFn("g", {frozenset(): "0"})])
    Ms = mcm_to_mdm(single)
    assert len(Ms.worlds) == 1
    assert validate_mdm(Ms).ok_c6


def test_round_trip_is_isomorphism():
    rng = random.Random(9)
    for _ in range(40):
        m = helpers.random_mcm(rng)
        back, mapping = mdm_to_mcm(mcm_to_mdm(m))
        assert set(back.states) == set(m.states)
        assert {f.items() for f in back.functions} == {f.items() for f in m.functions}
        # the map commutes with the tables
        for w in mcm_to_mdm(m).worlds:
            s, f = mapping[w]
            src = world_point(m, w)
            assert s == src.state and f.items() == src.function.items()


def test_redundant_models_collapse():
    rng = random.Random(17)
    from plc import random_formula, check_mdm

    for _ in range(30):
        M = helpers.random_redundant_mdm(rng)
        assert validate_mdm(M).ok_mdm
        mcm, mapping = mdm_to_mcm(M)
        phi = random_formula(rng, M.sig, 2)
        for w in M.worlds:
            s, f = mapping[w]
            assert check_mdm(M, w, phi) == check_mcm(PointedMCM(mcm, s, f), phi)


def test_heavily_redundant_models_still_collapse():
    rng = random.Random(23)
    from plc import check_mdm, random_formula

    for _ in range(15):
        M = helpers.random_redundant_mdm(rng, max_dups=5)
        assert validate_mdm(M).ok_mdm
        mcm, mapping = mdm_to_mcm(M)
        phi = random_formula(rng, M.sig, 3)
        for w in M.worlds:
            s, f = mapping[w]
            assert check_mdm(M, w, phi) == check_mcm(PointedMCM(mcm, s, f), phi)


def test_cell_duplicate_shrinks_state_count():
    sig = Signature(("p",), ("0", "1"))
    f = ClassifierFn("f", {frozenset(): "0", frozenset({"p"}): "1"})
    m = build_mcm(sig, "all", functions=[f])
    M = mcm_to_mdm(m)
    # duplicate the world at state {p}: same row, same column, same valuation
    w = next(w for w in M.worlds if M.atoms_val(w) == {"p"})
    worlds = list(M.worlds) + ["dup"]
    val = dict(M.valuation)
    val["dup"] = M.valuation[w]
    rel_i = [set(b) | ({"dup"} if w in b else set()) for b in M.rel_i]
    rel_f = [set(b) | ({"dup"} if w in b else set()) for b in M.rel_f]
    M2 = QuasiMDM(sig, worlds, val, rel_i, rel_f)
    assert len(M2.worlds) == 3
    back, _ = mdm_to_mcm(M2)
    assert len(back.states) == 2  # naive reading would give 3 instances
    assert len(back.functions) == 1


def test_duplicate_classifier_rows_merge():
    sig = Signature(("p",), ("0", "1"))
    table = {frozenset(): "0", frozenset({"p"}): "1"}
    m = build_mcm(sig, "all", functions=[ClassifierFn("f", table)])
    M = mcm_to_mdm(m)
    rng = random.Random(0)
    # clone the single classifier row wholesale
    worlds = list(M.worlds)
    val = dict(M.valuation)
    new_row = set()
    for w in list(M.worlds):
        nw = ("c", w)
        worlds.append(nw)
        val[nw] = val[w]
        new_row.add(nw)
    rel_i = [set(b) for b in M.rel_i] + [new_row]
    rel_f = []
    for b in M.rel_f:
        grown = set(b)
        for w in b:
            grown.add(("c", w))
        rel_f.append(grown)
    M2 = QuasiMDM(sig, worlds, val, rel_i, rel_f)
    assert validate_mdm(M2).ok_mdm
    back, _ = mdm_to_mcm(M2)
    assert len(back.functions) == 1  # the two identical rows collapse


def test_disconnected_incompatible_model_is_rejected():
    sig = Signature(("p",), ("0", "1"))
    M = QuasiMDM(
        sig,
        ["a", "b"],
        {"a": (frozenset({"p"}), "1"), "b": (frozenset({"p"}), "0")},
        [["a"], ["b"]],
        [["a"], ["b"]],
    )
    assert validate_mdm(M).ok_mdm  # each constraint holds, but no grid exists
    with pytest.raises(ModelError):
        mdm_to_mcm(M)


def test_read_off_that_would_change_truth_is_rejected(capsys, tmp_path):
    # worlds 1 and 2 share an instance but not a classifier; world 0 is
    # alone, so its instance meets only the function that outputs 0
    sig = Signature(("p",), ("0", "1"))
    M = QuasiMDM(
        sig,
        [0, 1, 2],
        {0: (frozenset(), "0"), 1: (frozenset(), "0"), 2: (frozenset(), "1")},
        [[0], [1], [2]],
        [[0], [1, 2]],
    )
    rep = validate_mdm(M)
    assert rep.ok_mdm and rep.ok_c6
    message = (
        "incomplete grid (disconnected model); take the generated submodel "
        "of a designated world first"
    )
    # two functions would leave world 0's image with a neighbour =1 that
    # world 0 lacks, turning boxF =0 false
    with pytest.raises(ModelError, match=re.escape(message)):
        mdm_to_mcm(M)
    sub = generated_submodel(M, 0)
    mcm, mapping = mdm_to_mcm(sub)
    assert len(mcm.states) == 1 and len(mcm.functions) == 1
    phi = parse_formula("boxF =0", sig)
    s, f = mapping[0]
    assert check_mdm(M, 0, phi) and check_mcm(PointedMCM(mcm, s, f), phi)

    from plc.cli import main
    from plc.modelio import dumps_mdm, load_model

    path, out_path = tmp_path / "m.plc", tmp_path / "out.plc"
    path.write_text(dumps_mdm(M))
    code = main(["normalize", "-m", str(path), "-o", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()
    # a file that names its point is normalized through that point's
    # generated submodel, as the error advises
    path.write_text(dumps_mdm(M, point=0))
    assert main(["normalize", "-m", str(path), "-o", str(out_path)]) == 0
    out, out_point = load_model(str(out_path))
    assert len(out.states) == 1 and len(out.functions) == 1
    assert check_mcm(out_point, phi)


def test_read_off_preserves_truth_on_every_tiny_decision_model():
    """Every valid decision model with up to three worlds: an accepted
    model's worlds agree with their images on every formula of up to four
    nodes, and the generated submodel of any world is accepted."""
    sig = Signature(("p",), ("0", "1"))
    formulas = list(helpers.exhaustive_formulas(sig, 4))
    assert len(formulas) == 320
    models = [Q for Q in helpers.tiny_quasi_models(sig, 3) if validate_mdm(Q).passed("C2")]
    assert len(models) == 504
    accepted = 0
    for M in models:
        for w in M.worlds:
            mdm_to_mcm(generated_submodel(M, w))
        try:
            mcm, mapping = mdm_to_mcm(M)
        except ModelError:
            continue
        accepted += 1
        for w in M.worlds:
            point = PointedMCM(mcm, *mapping[w])
            for phi in formulas:
                assert check_mdm(M, w, phi) == check_mcm(point, phi), (M.valuation, w, phi)
    assert accepted == 180  # of the 504; the other 324 are disconnected


def test_generated_submodel_restricts_to_component():
    sig = Signature(("p",), ("0", "1"))
    M = QuasiMDM(
        sig,
        ["a", "b", "c"],
        {
            "a": (frozenset({"p"}), "1"),
            "b": (frozenset({"p"}), "0"),
            "c": (frozenset(), "0"),
        },
        [["a", "b"], ["c"]],
        [["a"], ["b"], ["c"]],
    )
    sub = generated_submodel(M, "a")
    assert set(sub.worlds) == {"a", "b"}


def test_classifier_tables_compare_by_content_in_a_pinned_order():
    e, p, pq, q = frozenset(), frozenset({"p"}), frozenset({"p", "q"}), frozenset({"q"})
    f = ClassifierFn("f", {pq: "1", e: "0", q: "1", p: "0"})
    g = ClassifierFn("g", {p: "0", q: "1", e: "0", pq: "1"})
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != ClassifierFn("f", {pq: "0", e: "0", q: "1", p: "0"})
    # by each state's sorted atom names, whatever the insertion order
    assert f.items() == g.items() == ((e, "0"), (p, "0"), (pq, "1"), (q, "1"))


def test_dump_of_the_paper_example_is_pinned(ex_model, s1):
    import hashlib

    from plc.modelio import dumps_mcm

    text = dumps_mcm(ex_model, ex_model.point(s1, "f3"))
    assert text.startswith(
        "val: 0 1\natoms: si or cl an\nstates: all\nfunctions:\n"
        "f0: {}=0; {si}=0; {or}=0; {si,or}=0; {cl}=0; {si,cl}=0; {or,cl}=0; {si,or,cl}=0; "
        "{an}=0; {si,an}=0; {or,an}=0; {si,or,an}=0; {cl,an}=0; {si,cl,an}=0; {or,cl,an}=0; "
        "{si,or,cl,an}=1\n"
    )
    assert text.endswith("point: state={si,or,an} function=f3\n")
    digest = "16b5f293a86f1eb0b117498a6719e1d6debcce99e9bc4dbab40e6637eeaeabc3"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
