"""Reasoning toolkit for the product modal logic of binary-input classifiers.

A classifier that is only partially known is modelled as a set of candidate
classifiers over a set of input instances; one box quantifies over instances,
the other over candidates.  The package parses and prints formulas, model
checks them, decides satisfiability in fixed-signature and open-signature
modes, computes objective and subjective explanations, and applies
knowledge-update operators with their reduction laws.

Importing the package loads none of its modules: each exported name is
imported from its module on first access.
"""

import importlib

# the exported names of each module, in the order of `__all__`
_EXPORTS = {
    "config": "BudgetExceeded",
    "explain": "axp_formula check_axp check_pimp check_subjective enumerate_axps "
    "enumerate_pimps enumerate_subjective is_implicant pimp_formula subaxp_formula "
    "subpimp_formula",
    "models": "MCM ClassifierFn MdmReport ModelError PointedMCM QuasiMDM all_states "
    "build_mcm generated_submodel mcm_to_mdm mdm_to_mcm update_mcm validate_mdm world_point",
    "modelio": "dumps_mcm dumps_mdm load_model loads_model",
    "parser": "FormulaSyntaxError parse_formula render_formula",
    "rewrite": "cp_free reduce_dynamic simplify",
    "semantics": "EvalError check_mcm check_mdm valid_in_mcm",
    "solver": "Witness brute_force_sat filtrate sat_finite sat_open valid_finite",
    "syntax": "CP And Atom Bottom BoxF BoxI CPDia Dec DiaF DiaI Dyn Formula Iff Implies Not "
    "Or Signature SignatureError Term Top all_terms atoms_of big_and big_or conj_term "
    "expand_cp is_static subformulas",
    "axioms": "SCHEMA_NAMES axiom_instances random_formula",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, reached as `plc.solver` after `import plc`
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
