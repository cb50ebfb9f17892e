"""Import graph: `import plc` and each CLI command load only what they use.

Each check runs in a fresh interpreter, so modules the other tests loaded do
not count.
"""

import json
import subprocess
import sys

import pytest

import plc

# the names `plc` exports, in order
EXPORTS = [
    "BudgetExceeded", "axp_formula", "check_axp", "check_pimp", "check_subjective",
    "enumerate_axps", "enumerate_pimps", "enumerate_subjective", "is_implicant",
    "pimp_formula", "subaxp_formula", "subpimp_formula", "MCM", "ClassifierFn",
    "MdmReport", "ModelError", "PointedMCM", "QuasiMDM", "all_states", "build_mcm",
    "generated_submodel", "mcm_to_mdm", "mdm_to_mcm", "update_mcm", "validate_mdm",
    "world_point", "dumps_mcm", "dumps_mdm", "load_model", "loads_model",
    "FormulaSyntaxError", "parse_formula", "render_formula", "cp_free", "reduce_dynamic",
    "simplify", "EvalError", "check_mcm", "check_mdm", "valid_in_mcm", "Witness",
    "brute_force_sat", "filtrate", "sat_finite", "sat_open", "valid_finite", "CP", "And",
    "Atom", "Bottom", "BoxF", "BoxI", "CPDia", "Dec", "DiaF", "DiaI", "Dyn", "Formula",
    "Iff", "Implies", "Not", "Or", "Signature", "SignatureError", "Term", "Top",
    "all_terms", "atoms_of", "big_and", "big_or", "conj_term", "expand_cp", "is_static",
    "subformulas", "SCHEMA_NAMES", "axiom_instances", "random_formula",
]


def _loaded_after(code: str, *args: str) -> set[str]:
    """Names in sys.modules after running `code` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_plc_loads_no_submodule():
    loaded = _loaded_after("import plc")
    assert "plc" in loaded
    assert not [m for m in loaded if m.startswith("plc.")]
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    ("argv", "absent"),
    [
        (["reduce", "--atoms", "p", "--vals", "0,1", "-f", "[! p] boxF =1"],
         {"plc.models", "plc.solver", "plc.explain"}),
        (["check", "-m", "{model}", "-f", "p -> =1"],
         {"plc.solver", "plc.explain", "plc.axioms"}),
    ],
)
def test_cli_command_loads_only_its_modules(tmp_path, argv, absent):
    model = tmp_path / "m.plc"
    sig = plc.Signature(("p",), ("0", "1"))
    m = plc.build_mcm(sig, "all", functions=[
        plc.ClassifierFn("g", {s: "1" if "p" in s else "0" for s in plc.all_states(sig)})])
    model.write_text(plc.dumps_mcm(m, m.point(frozenset({"p"}), "g")))
    argv = [a.replace("{model}", str(model)) for a in argv]
    code = "import sys, plc.cli\nassert plc.cli.main(sys.argv[1:]) == 0"
    loaded = _loaded_after(code, *argv)
    assert "plc.cli" in loaded
    assert not loaded & absent
    assert "dataclasses" not in loaded


def test_plc_loads_nothing_outside_the_standard_library():
    # modules loaded at interpreter start (site hooks among them) are not plc's
    at_start = _loaded_after("")
    code = (
        "import importlib, pkgutil, plc\n"
        "for m in pkgutil.iter_modules(plc.__path__):\n"
        "    importlib.import_module('plc.' + m.name)\n"
    )
    loaded = _loaded_after(code)
    assert {"plc.cli", "plc.solver", "plc.models", "plc.explain", "plc.axioms"} <= loaded
    tops = {m.partition(".")[0] for m in loaded - at_start}
    assert tops - {"plc"} <= set(sys.stdlib_module_names)


def test_exports():
    assert plc.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(plc, name) is not None
    namespace: dict = {}
    exec("from plc import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["Signature"] is plc.syntax.Signature
    assert namespace["sat_finite"] is plc.solver.sat_finite
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(plc, "no_such_name")
