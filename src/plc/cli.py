"""Command-line front end.

Exit codes: 0 = query answered (even FALSE/UNSAT), 1 = usage error,
2 = malformed input (including a formula nested too deeply),
3 = search or rewrite ran out of budget, 4 = internal error (a failed
self-check).
Reports are plain text, one result per line, tab-separated fields.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .config import BudgetExceeded
from .parser import parse_formula, render_formula
from .syntax import FRESH_PREFIX, Signature, is_static

# each command imports the modules it uses, so that a one-query process
# loads only those
if TYPE_CHECKING:
    from .models import MCM, PointedMCM


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _names(text: str) -> tuple[str, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(p for p in parts if p)


def _signature(args) -> Signature:
    atoms = _names(args.atoms or "")
    for a in atoms:
        if a.startswith(FRESH_PREFIX):
            raise ValueError(f"atom {a!r}: the '_' prefix is reserved for fresh atoms")
    return Signature(atoms, _names(args.vals))


def _load_pointed(path: str) -> PointedMCM:
    _, point = _load_mcm(path)
    if point is None:
        raise ValueError(f"{path} has no point: line")
    return point


def _load_mcm(path: str) -> tuple[MCM, PointedMCM | None]:
    from .modelio import load_model
    from .models import MCM

    model, point = load_model(path)
    if not isinstance(model, MCM):
        raise ValueError(f"{path} holds a decision model; this command needs a classifier model")
    return model, point


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="plc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="truth of a formula at a model's point")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("valid", help="truth of a formula at every point of a model")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("sat", help="satisfiability over a declared signature")
    p.add_argument("--mode", choices=("finite", "open"), required=True)
    p.add_argument("--atoms", default="")
    p.add_argument("--vals", required=True)
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-o", "--out", default="witness.plc")

    p = sub.add_parser("explain", help="explanations at a model's point")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--subjective", action="store_true")
    p.add_argument("--kind", choices=("axp", "pimp"), default="axp")

    p = sub.add_parser("update", help="discard classifiers violating a constraint")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-o", "--out")

    p = sub.add_parser("reduce", help="eliminate update operators from a formula")
    p.add_argument("--atoms", default="")
    p.add_argument("--vals", required=True)
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("normalize", help="read a decision model off as a classifier model")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-o", "--out")

    p = sub.add_parser("axioms", help="validity sweep of the schema instances")
    p.add_argument("--atoms", default="")
    p.add_argument("--vals", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--depth", type=int, default=2)

    return top


def _cmd_check(args) -> int:
    from .semantics import check_mcm

    point = _load_pointed(args.model)
    phi = parse_formula(args.formula, point.model.sig)
    print("TRUE" if check_mcm(point, phi) else "FALSE")
    return 0


def _cmd_valid(args) -> int:
    from .semantics import valid_in_mcm

    model, _ = _load_mcm(args.model)
    phi = parse_formula(args.formula, model.sig)
    print("TRUE" if valid_in_mcm(model, phi) else "FALSE")
    return 0


def _cmd_sat(args) -> int:
    from .modelio import dumps_mcm
    from .rewrite import reduce_dynamic
    from .solver import sat_finite, sat_open

    sig = _signature(args)
    phi = parse_formula(args.formula, sig)
    if not is_static(phi):
        phi = reduce_dynamic(phi)
    if args.mode == "finite":
        witness = sat_finite(phi, sig)
    else:
        witness = sat_open(phi, sig.values)
    if witness is None:
        print("UNSAT")
        return 0
    _write(dumps_mcm(witness.model, witness.point), args.out)
    print(f"SAT\t{args.out}")
    return 0


def _cmd_explain(args) -> int:
    from .explain import enumerate_axps, enumerate_pimps, enumerate_subjective

    point = _load_pointed(args.model)
    value = point.function(point.state)
    if args.subjective:
        terms = enumerate_subjective(point, args.kind)
    elif args.kind == "axp":
        terms = enumerate_axps(point)
    else:
        terms = enumerate_pimps(point)
    for t in terms:
        print(f"{render_formula(t.as_formula(point.model.sig))}\t={value}")
    return 0


def _cmd_update(args) -> int:
    from .modelio import dumps_mcm
    from .models import update_mcm

    model, point = _load_mcm(args.model)
    phi = parse_formula(args.formula, model.sig)
    updated = update_mcm(model, phi)
    keep_point = None
    if point is not None and not updated.inconsistent:
        survivor = next((f for f in updated.functions if f == point.function), None)
        if survivor is not None:
            keep_point = updated.point(point.state, survivor)
    if updated.inconsistent:
        print("warning: no classifier survives the update", file=sys.stderr)
    _write(dumps_mcm(updated, keep_point), args.out)
    return 0


def _cmd_reduce(args) -> int:
    from .rewrite import reduce_dynamic

    sig = _signature(args)
    phi = parse_formula(args.formula, sig)
    print(render_formula(reduce_dynamic(phi)))
    return 0


def _cmd_normalize(args) -> int:
    from .modelio import dumps_mcm, load_model
    from .models import MCM, generated_submodel, mdm_to_mcm

    model, point = load_model(args.model)
    if isinstance(model, MCM):
        raise ValueError(f"{args.model} already holds a classifier model")
    if point is not None:  # the designated world's truths live in its generated submodel
        model = generated_submodel(model, point)
    mcm, mapping = mdm_to_mcm(model)
    out_point = None
    if point is not None:
        state, fn = mapping[point]
        out_point = mcm.point(state, fn)
    _write(dumps_mcm(mcm, out_point), args.out)
    return 0


def _cmd_axioms(args) -> int:
    from .axioms import SCHEMA_NAMES, axiom_instances
    from .solver import valid_finite

    sig = _signature(args)
    instances = axiom_instances(sig, depth=args.depth, seed=args.seed, count=args.count)
    verdicts: dict = {}
    tallies = {name: [0, 0] for name in SCHEMA_NAMES}
    for name, phi in instances:
        if phi not in verdicts:
            verdicts[phi] = valid_finite(phi, sig)
        tallies[name][1] += 1
        if verdicts[phi]:
            tallies[name][0] += 1
    for name in SCHEMA_NAMES:
        passed, total = tallies[name]
        if total == 0:
            continue
        status = "PASS" if passed == total else "FAIL"
        print(f"{name}\t{passed}/{total}\t{status}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "valid": _cmd_valid,
    "sat": _cmd_sat,
    "explain": _cmd_explain,
    "update": _cmd_update,
    "reduce": _cmd_reduce,
    "normalize": _cmd_normalize,
    "axioms": _cmd_axioms,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded:
        print("RESOURCE-OUT")
        return 3
    except RecursionError:
        # the parser, printer and rewriters recurse once per nesting level
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {str(exc).removeprefix('internal error: ')}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
