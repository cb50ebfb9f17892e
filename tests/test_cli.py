import pytest

from plc.cli import main
from plc import Signature, build_mcm, dumps_mcm, dumps_mdm, mcm_to_mdm

import helpers
from conftest import EX_CONSTRAINTS


@pytest.fixture()
def ex_file(tmp_path, ex_model, ex_f1, s1):
    path = tmp_path / "ex.plc"
    path.write_text(dumps_mcm(ex_model, ex_model.point(s1, ex_f1)))
    return str(path)


@pytest.fixture()
def two_fn_file(tmp_path):
    sig = Signature(("p", "q"), ("0", "1"))
    from plc import ClassifierFn, all_states

    m = build_mcm(
        sig,
        "all",
        functions=[
            ClassifierFn("g0", {s: ("1" if "p" in s else "0") for s in all_states(sig)}),
            ClassifierFn("g1", {s: ("1" if s >= {"p", "q"} else "0") for s in all_states(sig)}),
        ],
    )
    path = tmp_path / "two.plc"
    path.write_text(dumps_mcm(m, m.point(frozenset({"p"}), "g0")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_true_false(capsys, two_fn_file):
    code, out, _ = run(capsys, "check", "-m", two_fn_file, "-f", "=1 & diaF =0")
    assert code == 0 and out.strip() == "TRUE"
    code, out, _ = run(capsys, "check", "-m", two_fn_file, "-f", "boxF =1")
    assert code == 0 and out.strip() == "FALSE"


def test_check_dynamic_example(capsys, ex_file):
    # announcing the or/an admission rule leaves some part of it as a known
    # abductive explanation of acceptance
    from plc import Term, axp_formula, Signature
    from plc.syntax import big_or
    from plc import parse_formula, render_formula, BoxF, Dyn

    sig = Signature(("si", "or", "cl", "an"), ("0", "1"))
    guard = parse_formula("(or & an) -> =1", sig)
    subterms = [
        Term(frozenset(), frozenset()),
        Term(frozenset({"or"}), frozenset()),
        Term(frozenset({"an"}), frozenset()),
        Term(frozenset({"or", "an"}), frozenset()),
    ]
    phi = Dyn(guard, BoxF(big_or(axp_formula(t, "1", sig) for t in subterms)))
    code, out, _ = run(capsys, "check", "-m", ex_file, "-f", render_formula(phi))
    assert code == 0 and out.strip() == "TRUE"


def test_check_needs_a_point(capsys, tmp_path, ex_model):
    path = tmp_path / "nopoint.plc"
    path.write_text(dumps_mcm(ex_model))
    code, _, err = run(capsys, "check", "-m", str(path), "-f", "true")
    assert code == 2 and "point" in err


def test_valid(capsys, two_fn_file):
    code, out, _ = run(capsys, "valid", "-m", two_fn_file, "-f", "p -> boxF p")
    assert code == 0 and out.strip() == "TRUE"
    code, out, _ = run(capsys, "valid", "-m", two_fn_file, "-f", "=1")
    assert code == 0 and out.strip() == "FALSE"


def test_sat_unsat_exit_zero(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sat", "--mode", "finite", "--atoms", "p", "--vals", "0,1",
        "-f", "=0 & =1", "-o", str(tmp_path / "w.plc"),
    )
    assert code == 0 and out.strip() == "UNSAT"


def test_sat_writes_witness(capsys, tmp_path):
    out_path = tmp_path / "w.plc"
    code, out, _ = run(
        capsys, "sat", "--mode", "finite", "--atoms", "p", "--vals", "0,1",
        "-f", "diaF =0 & diaF =1", "-o", str(out_path),
    )
    assert code == 0 and out.strip() == f"SAT\t{out_path}"
    from plc import loads_model, check_mcm, parse_formula

    model, point = loads_model(out_path.read_text())
    assert point is not None
    assert check_mcm(point, parse_formula("diaF =0 & diaF =1", model.sig))


def test_sat_open_mode(capsys, tmp_path):
    out_path = tmp_path / "w.plc"
    code, out, _ = run(
        capsys, "sat", "--mode", "open", "--atoms", "p", "--vals", "0,1",
        "-f", "p & =1 & diaI (p & ~=1)", "-o", str(out_path),
    )
    assert code == 0 and out.startswith("SAT")
    assert out_path.exists()


def test_sat_reduces_dynamic_first(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sat", "--mode", "finite", "--atoms", "p", "--vals", "0,1",
        "-f", "[! p] =0 & =1", "-o", str(tmp_path / "w.plc"),
    )
    assert code == 0 and out.strip() in ("UNSAT", f"SAT\t{tmp_path / 'w.plc'}")


def test_explain_objective_and_subjective(capsys, ex_file):
    code, out, _ = run(capsys, "explain", "-m", ex_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert "or & an\t=1" in lines
    # subjective acceptance explanations are empty at this point
    code, out, _ = run(capsys, "explain", "-m", ex_file, "--subjective")
    assert code == 0 and out.strip() == ""
    code, out, _ = run(capsys, "explain", "-m", ex_file, "--kind", "pimp")
    assert code == 0 and "cl & an\t=1" in out.strip().splitlines()


def test_update_writes_model(capsys, tmp_path, ex_file):
    out_path = tmp_path / "upd.plc"
    code, out, _ = run(
        capsys, "update", "-m", ex_file, "-f", "(or & an) -> =1", "-o", str(out_path)
    )
    assert code == 0
    from plc import loads_model

    model, point = loads_model(out_path.read_text())
    assert len(model.functions) == 6
    assert point is not None  # the pointed classifier survives this update


def test_update_drops_a_discarded_point(capsys, tmp_path, ex_model, ex_f2, s1):
    path = tmp_path / "ex2.plc"
    path.write_text(dumps_mcm(ex_model, ex_model.point(s1, ex_f2)))
    out_path = tmp_path / "upd.plc"
    code, _, _ = run(
        capsys, "update", "-m", str(path), "-f", "(or & an) -> =1", "-o", str(out_path)
    )
    assert code == 0
    from plc import loads_model

    model, point = loads_model(out_path.read_text())
    assert point is None  # the pointed classifier was discarded


def test_explain_subjective_pimp(capsys, ex_file):
    code, out, _ = run(capsys, "explain", "-m", ex_file, "--subjective", "--kind", "pimp")
    assert code == 0
    # no term is a prime implicant for acceptance under every admissible classifier
    assert out.strip() == ""


def test_reduce(capsys):
    code, out, _ = run(
        capsys, "reduce", "--atoms", "p", "--vals", "0,1", "-f", "[! p -> =1] boxF =1"
    )
    assert code == 0
    assert out.strip() == "boxI (p -> =1) -> boxF (boxI (p -> =1) -> =1)"


def test_normalize(capsys, tmp_path):
    sig = Signature(("p",), ("0", "1"))
    from plc import ClassifierFn, all_states

    m = build_mcm(
        sig, "all",
        functions=[ClassifierFn("f", {s: ("1" if "p" in s else "0") for s in all_states(sig)})],
    )
    M = mcm_to_mdm(m)
    path = tmp_path / "m.plc"
    path.write_text(dumps_mdm(M, point=M.worlds[0]))
    out_path = tmp_path / "out.plc"
    code, _, _ = run(capsys, "normalize", "-m", str(path), "-o", str(out_path))
    assert code == 0
    from plc import loads_model

    model, point = loads_model(out_path.read_text())
    assert len(model.states) == 2 and len(model.functions) == 1
    assert point is not None


def test_axioms_table(capsys):
    code, out, _ = run(
        capsys, "axioms", "--atoms", "p,q", "--vals", "0,1", "--seed", "3", "--count", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all(line.endswith("PASS") for line in lines)
    # deterministic across runs
    code, out2, _ = run(
        capsys, "axioms", "--atoms", "p,q", "--vals", "0,1", "--seed", "3", "--count", "2"
    )
    assert out2 == out


def test_exit_codes(capsys, tmp_path, monkeypatch):
    # usage error
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run(capsys, "check", "-m", "missing.plc")  # missing -f
    assert code == 1
    # malformed input
    bad = tmp_path / "bad.plc"
    bad.write_text("val: 0 1\natoms: p\n")
    code, _, err = run(capsys, "check", "-m", str(bad), "-f", "p")
    assert code == 2
    code, _, err = run(capsys, "check", "-m", "missing.plc", "-f", "p")
    assert code == 2
    # resource-out
    monkeypatch.setenv("PLC_NODE_BUDGET", "5")
    code, out, _ = run(
        capsys, "sat", "--mode", "finite", "--atoms", "p,q", "--vals", "0,1",
        "-f", "p & boxF ~p", "-o", str(tmp_path / "w.plc"),
    )
    assert code == 3 and out.strip() == "RESOURCE-OUT"


def test_sat_refuses_a_type_table_beyond_the_budget(capsys, tmp_path):
    # 2^40 row types: the type search's table is checked before it is built
    for mode in ("finite", "open"):
        code, out, _ = run(
            capsys, "sat", "--mode", mode, "--atoms", "p", "--vals", "0,1",
            "-f", "boxI " * 40 + "p", "-o", str(tmp_path / "w.plc"),
        )
        assert code == 3 and out.strip() == "RESOURCE-OUT"


def test_sat_decides_five_nested_updates(capsys, tmp_path):
    # the reduction is a DAG of about 1,300 nodes whose tree is far larger:
    # it is charged by the nodes built, so it completes and is decided
    out_path = tmp_path / "w.plc"
    formula = "[!(p->=1)][!(q->=0)][!boxF(p|=1)][!~boxI =0][!(p->=1)] boxF =1"
    code, out, _ = run(
        capsys, "sat", "--mode", "finite", "--atoms", "p,q", "--vals", "0,1",
        "-f", formula, "-o", str(out_path),
    )
    assert code == 0 and out.strip() == f"SAT\t{out_path}"
    code, out, _ = run(capsys, "check", "-m", str(out_path), "-f", formula)
    assert code == 0 and out.strip() == "TRUE"


def test_a_large_index_set_is_refused_before_it_is_built():
    # 2^24 clauses: refused by their count, in a child whose memory is capped
    atoms = ",".join(f"a{i}" for i in range(24))
    done, cpu = helpers.run_cli_capped(
        "sat", "--mode", "finite", "--atoms", atoms, "--vals", "0,1", "-f", f"[{atoms}] a0"
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout.strip() == "RESOURCE-OUT"
    assert cpu < 1.0


def test_an_index_set_whose_size_is_too_long_to_print_is_resource_out(capsys, tmp_path):
    # the expansion's size has over 4,300 digits, which Python refuses to print
    atoms = ",".join(f"a{i}" for i in range(15_000))
    code, out, err = run(
        capsys, "sat", "--mode", "finite", "--atoms", atoms, "--vals", "0,1",
        "-f", f"[{atoms}] a0", "-o", str(tmp_path / "w.plc"),
    )
    assert (code, out.strip(), err) == (3, "RESOURCE-OUT", "")


@pytest.mark.parametrize("flag", ["--count", "--depth"])
def test_a_negative_count_or_depth_is_a_usage_error(capsys, flag):
    code, out, err = run(capsys, "axioms", "--atoms", "p", "--vals", "0,1", flag, "-3")
    assert code == 1 and out == ""
    assert f"error: argument {flag}: must not be negative: -3" in err


def test_a_reduction_whose_tree_is_too_large_is_not_printed():
    # each update copies the 1,024-atom announcement at every non-conjunction
    # node of its scope: a DAG of a few thousand nodes, a tree of about 2e9
    def balanced(n):
        return "p" if n == 1 else f"({balanced(n // 2)} & {balanced(n - n // 2)})"

    formula = f"[!{balanced(1024)}]" * 3 + " p"
    done, cpu = helpers.run_cli_capped("reduce", "--atoms", "p", "--vals", "0,1", "-f", formula)
    assert done.returncode == 3, done.stderr
    assert done.stdout.strip() == "RESOURCE-OUT"
    assert cpu < 1.0


def test_reports_are_byte_identical_across_runs(capsys, ex_file):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "explain", "-m", ex_file, "--kind", "pimp")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_reports_do_not_depend_on_addresses_or_the_hash_seed(tmp_path, ex_file):
    # formula nodes hash by identity, so sets of them iterate in an order
    # set by memory addresses: fresh processes under other hash seeds must
    # still print the same reports and write the same witness files
    import os
    import subprocess
    import sys
    from pathlib import Path

    import plc

    formula = "diaI (p & =1) & diaF (q & =0) & [p] diaI ~q & boxF diaI =1"
    commands = [
        ["sat", "--mode", mode, "--atoms", "p,q,r", "--vals", "0,1", "-f", formula, "-o", f"{mode}.plc"]
        for mode in ("finite", "open")
    ] + [
        ["reduce", "--atoms", "p,q", "--vals", "0,1", "-f", "[!(p -> =1)][!diaF q] (boxF =1 & [q] diaI =0)"],
        ["axioms", "--atoms", "p,q", "--vals", "0,1,2", "--seed", "5", "--count", "3"],
        ["explain", "-m", ex_file, "--kind", "pimp"],
    ]
    src = str(Path(plc.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outputs = []
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "plc.cli", *argv], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0 and done.stdout, done.stderr
            outputs.append(done.stdout)
        outputs += [(path.name, path.read_bytes()) for path in sorted(work.iterdir())]
        runs.append(outputs)
    assert [name for name, _ in runs[0][len(commands):]] == ["finite.plc", "open.plc"]
    assert runs[0] == runs[1]


def test_explain_resource_out(capsys, ex_file, monkeypatch):
    monkeypatch.setenv("PLC_NODE_BUDGET", "10")
    code, out, _ = run(capsys, "explain", "-m", ex_file, "--kind", "pimp")
    assert code == 3 and out.strip() == "RESOURCE-OUT"


def test_deep_nesting_is_malformed_input(capsys):
    code, out, err = run(capsys, "reduce", "--atoms", "p", "--vals", "0,1", "-f", "~" * 2000 + "p")
    assert code == 2 and out == ""
    assert err.strip() == "error: formula nested too deeply"



def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    import plc.cli

    def broken(args):
        raise RuntimeError("self-check failed")

    monkeypatch.setitem(plc.cli._COMMANDS, "reduce", broken)
    code, out, err = run(capsys, "reduce", "--atoms", "p", "--vals", "0,1", "-f", "p")
    assert code == 4 and out == ""
    assert err.strip() == "internal error: self-check failed"

def test_import_leaves_numpy_unloaded(tmp_path):
    # plc has no runtime dependencies: with numpy blocked, satisfiability in
    # both modes and constraint-mode model building, through the library
    # and through the CLI, still run
    import os
    import subprocess
    import sys
    from pathlib import Path

    import plc

    model = tmp_path / "constraints.plc"
    model.write_text(
        "val: 0 1\natoms: si or cl an\nstates: all\nfunctions:\n"
        + "".join(f"constraint: {c}\n" for c in EX_CONSTRAINTS)
    )
    src = str(Path(plc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "import plc, plc.cli\n"
        "sig = plc.Signature(('p',), ('0', '1'))\n"
        "assert plc.sat_open(plc.parse_formula('p & =1 & diaI (p & ~=1)', sig), sig.values)\n"
        "assert plc.sat_finite(plc.parse_formula('diaF =0 & diaF =1', sig), sig)\n"
        "assert plc.valid_finite(plc.parse_formula('p -> boxF p', sig), sig)\n"
        "ex = plc.Signature(('si', 'or', 'cl', 'an'), ('0', '1'))\n"
        f"assert len(plc.build_mcm(ex, 'all', constraints={list(EX_CONSTRAINTS)!r}).functions) == 19\n"
        "sys.exit(plc.cli.main(['valid', '-m', sys.argv[1], '-f', '~an -> =0']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(model)], env=env, timeout=60, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "TRUE"
