import random

import pytest

from plc import (
    CP,
    And,
    Atom,
    Bottom,
    BoxF,
    BoxI,
    Dec,
    DiaI,
    Dyn,
    Implies,
    Not,
    Or,
    Signature,
    SignatureError,
    Term,
    Top,
    all_terms,
    atoms_of,
    big_and,
    conj_term,
    expand_cp,
    is_static,
    random_formula,
    subformulas,
)
from plc.syntax import size, validate_formula

import helpers


def test_signature_validation():
    Signature(("p", "q"), ("0", "1"))
    Signature((), ("yes",))
    with pytest.raises(SignatureError):
        Signature(("p", "p"), ("0",))
    with pytest.raises(SignatureError):
        Signature(("p",), ())
    with pytest.raises(SignatureError):
        Signature(("p",), ("p",))
    with pytest.raises(SignatureError):
        Signature(("boxI",), ("0",))
    with pytest.raises(SignatureError):
        Signature(("P",), ("0",))


def test_derived_connectives_desugar():
    p, q = Atom("p"), Atom("q")
    assert Or(p, q) == Not(And(Not(p), Not(q)))
    assert Implies(p, q) == Not(And(p, Not(q)))
    assert DiaI(p) == Not(BoxI(Not(p)))
    assert Bottom() == Not(Top())


def test_cp_index_set_is_normalized():
    assert CP(("q", "p", "q"), Atom("p")) == CP(("p", "q"), Atom("p"))


def test_subformulas_examples():
    sig = Signature(("p",), ("0", "1"))
    p = Atom("p")
    assert subformulas(p) == {p}
    phi = BoxI(And(p, Dec("1")))
    assert subformulas(phi) == {phi, And(p, Dec("1")), p, Dec("1")}
    assert subformulas(p, plus=True, sig=sig) == {p, Dec("0"), Dec("1")}


def test_subformulas_closed_under_subterms():
    rng = random.Random(3)
    sig = Signature(("p", "q"), ("0", "1"))
    for _ in range(50):
        phi = random_formula(rng, sig, 3, allow_cp=True, allow_dyn=True)
        sf = subformulas(phi)
        for psi in sf:
            for child in _children(psi):
                assert child in sf


SUBFORMULA_FIELDS = ("left", "right", "announced", "sub")


def _children(f):
    """The subformulas of f, read off its fields by name, in field order."""
    return [getattr(f, k) for k in SUBFORMULA_FIELDS if hasattr(f, k)]


def test_each_node_class_declares_its_children():
    p, q = Atom("p"), Atom("q")
    nodes = [p, Dec("1"), Top(), Not(p), And(p, q), BoxI(p), BoxF(q), CP(("q", "r"), p), Dyn(p, q)]
    assert {type(f) for f in nodes} == {Atom, Dec, Top, Not, And, BoxI, BoxF, CP, Dyn}
    swap = {p: q, q: Not(p)}
    for f in nodes:
        assert f.children() == tuple(_children(f))
        assert f.map(lambda g: g) is f
        calls = []
        mapped = f.map(lambda g: calls.append(g) or swap[g])
        assert calls == list(f.children())
        if not calls:  # a leaf
            assert mapped is f
            continue
        rebuilt = type(f)(*(swap[getattr(f, k)] if k in SUBFORMULA_FIELDS else getattr(f, k)
                            for k in f._fields))
        assert mapped == rebuilt and mapped is not f
    assert CP(("q", "r"), p).map(swap.get).atoms == ("q", "r")
    # a child built anew is the live equal node, so nothing is rebuilt
    node = Not(p)
    assert node.map(lambda g: Atom("p")) is node


def test_structural_walks_agree_with_a_field_walker():
    sigs = [Signature(("p", "q"), ("0", "1")), Signature(("p", "q", "r"), ("0", "1", "2"))]
    narrow = Signature(("p",), ("0",))
    rng = random.Random(11)
    for i in range(1000):
        phi = random_formula(rng, sigs[i % 2], 4, allow_cp=True, allow_dyn=True)
        nodes, seen, stack = 0, set(), [phi]
        atoms, values, static = set(), set(), True
        while stack:
            f = stack.pop()
            nodes += 1
            seen.add(f)
            stack += _children(f)
            if isinstance(f, Atom):
                atoms.add(f.name)
            elif isinstance(f, Dec):
                values.add(f.value)
            elif isinstance(f, CP):
                atoms.update(f.atoms)
            elif isinstance(f, Dyn):
                static = False
        assert size(phi) == nodes
        assert subformulas(phi) == seen
        assert atoms_of(phi) == atoms
        assert is_static(phi) == static
        validate_formula(phi, sigs[i % 2])
        bad_atoms, bad_values = sorted(atoms - {"p"}), sorted(values - {"0"})
        if bad_atoms or bad_values:
            want = f"unknown atom {bad_atoms[0]!r}" if bad_atoms else f"unknown value {bad_values[0]!r}"
            with pytest.raises(SignatureError, match=f"^{want}$"):
                validate_formula(phi, narrow)
        else:
            validate_formula(phi, narrow)


def test_undeclared_name_errors_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    code = (
        "from plc import And, Atom, Signature, SignatureError, build_mcm\n"
        "from plc.syntax import validate_formula\n"
        "sig = Signature(('p',), ('0', '1'))\n"
        "phi = And(Atom('x'), And(Atom('y'), Atom('z')))\n"
        "for check in (lambda: validate_formula(phi, sig), lambda: build_mcm(sig, constraints=[phi])):\n"
        "    try:\n"
        "        check()\n"
        "    except SignatureError as e:\n"
        "        print(e)\n"
    )
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["unknown atom 'x'"] * 2


def test_index_set_errors_name_the_least_undeclared_atom():
    sig = Signature(("p",), ("0", "1"))
    unknown = tuple("zyxwvutsrqonmlkjihgfedcba")
    for build in (lambda: expand_cp(unknown, Atom("p"), sig), lambda: conj_term((), unknown, sig)):
        with pytest.raises(SignatureError, match="^unknown atom 'a'$"):
            build()


def test_atoms_of():
    p, q = Atom("p"), Atom("q")
    assert atoms_of(And(p, Dec("1"))) == {"p"}
    assert atoms_of(CP(("q",), p)) == {"p", "q"}
    assert atoms_of(Dec("1")) == frozenset()


def test_conj_term_examples():
    sig = Signature(("si", "or", "cl", "an"), ("0", "1"))
    assert conj_term((), (), sig) == Top()
    sig2 = Signature(("p", "q"), ("0", "1"))
    assert conj_term({"p"}, {"p", "q"}, sig2) == And(Atom("p"), Not(Atom("q")))
    got = conj_term({"si", "or", "an"}, {"si", "or", "cl", "an"}, sig)
    want = big_and([Atom("si"), Atom("or"), Not(Atom("cl")), Atom("an")])
    assert got == want
    with pytest.raises(ValueError):
        conj_term({"p"}, set(), sig2)


def test_conj_term_round_trips_through_term():
    sig = Signature(("p", "q", "r"), ("0", "1"))
    rng = random.Random(5)
    for _ in range(30):
        over = frozenset(a for a in sig.atoms if rng.random() < 0.6)
        pos = frozenset(a for a in over if rng.random() < 0.5)
        phi = conj_term(pos, over, sig)
        t = Term.from_formula(phi)
        assert t.pos == pos and t.neg == over - pos
        assert t.as_formula(sig) == phi


def test_expand_cp_shapes():
    sig = Signature(("p", "q"), ("0", "1"))
    phi = Dec("1")
    got = expand_cp((), phi, sig)
    assert got == Implies(Top(), BoxI(Implies(Top(), phi)))
    got_p = expand_cp(("p",), phi, sig)
    p = Atom("p")
    want = And(
        Implies(p, BoxI(Implies(p, phi))),
        Implies(Not(p), BoxI(Implies(Not(p), phi))),
    )
    assert got_p == want
    # only negation, conjunction, and the instance box appear
    for f in subformulas(got_p):
        assert not isinstance(f, (CP, BoxF, Dyn))


def test_expand_cp_full_index_set_is_identity_like():
    # over the full atom set, [X]phi holds exactly where phi does, on every model
    from plc import check_mcm, expand_cp
    from plc.models import PointedMCM

    rng = random.Random(11)
    sig = Signature(("p", "q"), ("0", "1"))
    from plc import random_formula

    for _ in range(40):
        m = helpers.random_mcm(rng, sig=sig)
        phi = random_formula(rng, sig, 2)
        full = CP(sig.atoms, phi)
        for s in m.states:
            for f in m.functions:
                pt = PointedMCM(m, s, f)
                assert check_mcm(pt, full) == check_mcm(pt, phi)


def test_term_basics():
    t = Term(frozenset({"p"}), frozenset({"q"}))
    assert t.atoms == {"p", "q"}
    assert t.satisfied_by(frozenset({"p"}))
    assert not t.satisfied_by(frozenset({"p", "q"}))
    assert t.drop("q") == Term(frozenset({"p"}), frozenset())
    assert Term(frozenset(), frozenset()) <= t
    with pytest.raises(ValueError):
        Term(frozenset({"p"}), frozenset({"p"}))


def test_all_terms_count_and_order():
    sig = Signature(("p", "q"), ("0", "1"))
    terms = list(all_terms(sig))
    assert len(terms) == 9
    sizes = [len(t) for t in terms]
    assert sizes == sorted(sizes)
    assert terms[0].is_empty()


def test_size():
    assert size(Atom("p")) == 1
    assert size(And(Atom("p"), Not(Atom("q")))) == 4


def test_size_counts_the_tree_in_one_walk_of_the_dag():
    # f_{k+1} = f_k & ~~f_k has 2^k copies of f_0 = boxI p: 5 * 2^k - 3 nodes
    assert size(helpers.doubled(BoxI(Atom("p")), 100)) == 5 * 2**100 - 3


def _values():
    """One instance of every node class, plus a signature and a term."""
    p, q = Atom("p"), Atom("q")
    return [
        p,
        Dec("1"),
        Top(),
        Not(p),
        And(p, Not(q)),
        BoxI(p),
        BoxF(Dec("0")),
        CP(("q", "p", "q"), q),
        Dyn(Dec("1"), BoxF(Not(And(p, Top())))),
        Signature(("p", "q"), ("0", "1")),
        Term(frozenset({"p"}), frozenset({"q"})),
    ]


def test_value_reprs():
    assert [repr(v) for v in _values()] == [
        "Atom('p')",
        "Dec('1')",
        "Top()",
        "Not(Atom('p'))",
        "And(Atom('p'), Not(Atom('q')))",
        "BoxI(Atom('p'))",
        "BoxF(Dec('0'))",
        "CP(('p', 'q'), Atom('q'))",
        "Dyn(Dec('1'), BoxF(Not(And(Atom('p'), Top()))))",
        "Signature(atoms=('p', 'q'), values=('0', '1'))",
        "Term(pos=frozenset({'p'}), neg=frozenset({'q'}))",
    ]


def test_values_survive_pickle_and_deepcopy():
    import copy
    import pickle

    for v in _values():
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert back == v and hash(back) == hash(v) and type(back) is type(v)
    sig = pickle.loads(pickle.dumps(Signature(("p", "q"), ("0", "1"))))
    assert sig.atom_index("q") == 1


def test_values_pickled_under_another_hash_seed_work_as_keys():
    # a value pickled in a process with another string-hash seed is rebuilt
    # here, so its hash is this process's and dict lookups find it
    import os
    import pickle
    import subprocess
    import sys

    code = (
        "import pickle, sys\n"
        "from plc import And, Atom, CP, Not, Signature, Term\n"
        "vals = [And(Atom('p'), Not(Atom('q'))), CP(('q', 'p'), Atom('r')),\n"
        "        Signature(('p', 'q'), ('0', '1')), Term(frozenset({'p'}), frozenset({'q'}))]\n"
        "sys.stdout.buffer.write(pickle.dumps(vals))\n"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        vals = pickle.loads(done.stdout)
        table = {v: i for i, v in enumerate(vals)}
        mine = [And(Atom("p"), Not(Atom("q"))), CP(("p", "q"), Atom("r")),
                Signature(("p", "q"), ("0", "1")), Term(frozenset({"p"}), frozenset({"q"}))]
        assert [table[v] for v in mine] == [0, 1, 2, 3]


def test_values_are_immutable():
    for v in _values():
        for name in (*type(v)._fields, "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
    sig = Signature(("p",), ("0", "1"))
    with pytest.raises(AttributeError):
        sig._atom_pos = {}


def test_structural_equality_and_hash():
    def build():
        return Dyn(Atom("p"), CP(("r", "q"), And(BoxI(Dec("1")), Not(Top()))))

    a, b = build(), build()
    assert a is b and build() is build()
    assert len({a, b}) == 1
    assert BoxI(Atom("p")) != BoxF(Atom("p"))
    assert Atom("p") != Dec("p") and Not(Atom("p")) != Not(Atom("q"))
    assert CP(("q", "p", "p"), Top()) == CP(("p", "q"), Top())
    assert Signature(("p",), ("0", "1")) != Signature(("p",), ("1", "0"))
    assert Term(frozenset({"p"}), frozenset()) != Term(frozenset(), frozenset({"p"}))
    assert Atom("p") != "p" and Term(frozenset(), frozenset()) != Top()


def _chain(n):
    f = Atom("p")
    for i in range(n):
        f = Not(f) if i % 2 else BoxI(f)
    return f


def test_deep_formulas_built_apart_are_one_object():
    import sys
    import time

    limit = sys.getrecursionlimit()
    a, b = _chain(100_000), _chain(100_000)
    start = time.perf_counter()
    same = a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert time.perf_counter() - start < 1e-3
    assert same and a is b and sys.getrecursionlimit() == limit


def test_pickling_and_copying_return_the_live_node():
    import copy
    import pickle

    phi = Dyn(Atom("p"), CP(("r", "q"), And(BoxI(Dec("1")), Not(Top()))))
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi


def test_the_table_of_live_nodes_holds_no_dropped_formula():
    import gc

    from plc.syntax import _nodes

    gc.collect()
    before = len(_nodes)
    phi = _chain(100_000)
    assert len(_nodes) >= before + 100_000
    del phi
    gc.collect()
    assert len(_nodes) == before
