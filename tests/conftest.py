"""Shared fixtures: the paper-selection classifier scenario used throughout.

Four binary features (significance, originality, clarity, anonymity); a
classifier is admissible iff full-score papers are accepted, acceptance is
monotone under adding features, and anonymity violations are rejected.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from plc import MCM, ClassifierFn, Signature, build_mcm

# the tests that start `python -m plc.cli` need the package in the child too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


EX_ATOMS = ("si", "or", "cl", "an")
EX_CONSTRAINTS = (
    "(si & or & cl & an) -> =1",
    "~an -> =0",
    "(=1 & ~si) -> [or,cl,an](si -> =1)",
    "(=1 & ~or) -> [si,cl,an](or -> =1)",
    "(=1 & ~cl) -> [si,or,an](cl -> =1)",
    "(=1 & ~an) -> [si,or,cl](an -> =1)",
)


@pytest.fixture(scope="session")
def ex_sig() -> Signature:
    return Signature(EX_ATOMS, ("0", "1"))


@pytest.fixture(scope="session")
def ex_model(ex_sig) -> MCM:
    return build_mcm(ex_sig, "all", constraints=EX_CONSTRAINTS)


def admissible_tables(sig: Signature) -> list[dict]:
    """Independent oracle: filter all 2^16 tables by the three admission
    predicates directly (dominance checked pairwise, not via single flips)."""
    states = [
        frozenset(a for i, a in enumerate(sig.atoms) if mask >> i & 1)
        for mask in range(16)
    ]
    out = []
    for code in range(1 << 16):
        bit = [code >> i & 1 for i in range(16)]
        if bit[15] != 1:
            continue
        if any(bit[i] for i, s in enumerate(states) if "an" not in s):
            continue
        ok = True
        for i, s in enumerate(states):
            if not bit[i]:
                continue
            for j, s2 in enumerate(states):
                if s < s2 and not bit[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append({s: ("1" if bit[i] else "0") for i, s in enumerate(states)})
    return out


@pytest.fixture(scope="session")
def ex_f1(ex_model) -> ClassifierFn:
    """Accept iff anonymous and (original or clear)."""
    want = ClassifierFn(
        "x",
        {
            s: ("1" if "an" in s and ("or" in s or "cl" in s) else "0")
            for s in ex_model.states
        },
    )
    return next(f for f in ex_model.functions if f == want)


@pytest.fixture(scope="session")
def ex_f2(ex_model) -> ClassifierFn:
    """Accept iff significant and anonymous."""
    want = ClassifierFn(
        "x", {s: ("1" if {"si", "an"} <= s else "0") for s in ex_model.states}
    )
    return next(f for f in ex_model.functions if f == want)


@pytest.fixture(scope="session")
def s1() -> frozenset:
    return frozenset({"si", "or", "an"})


@pytest.fixture(scope="session")
def s2() -> frozenset:
    return frozenset({"si", "cl", "an"})
