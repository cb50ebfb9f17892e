"""Vectorized truth evaluation over batches of grid-shaped models.

A grid model is a list of instance columns (each an atom-valuation bitmask,
repetitions allowed) plus a decision matrix assigning one output value to
every (classifier row, instance column) cell.  Only constraint-mode
`build_mcm` evaluates through here, to filter candidate classifiers; the
batch axis ranges over candidate decision matrices.
"""

from __future__ import annotations

from typing import Sequence

from .syntax import CP, And, Atom, BoxF, BoxI, Dec, Dyn, Formula, Not, Top


def grid_truth(
    phi: Formula,
    atom_order: Sequence[str],
    value_order: Sequence[str],
    col_masks: Sequence[int],
    tables: np.ndarray,
) -> np.ndarray:
    """Truth of phi at every point of every model in the batch.

    `tables` has shape (batch, rows, cols) and holds value indexes; the
    result is a bool array of shape (batch, cols, rows): entry [b, j, i] is
    the truth of phi at instance j under classifier i of model b.  Update
    operators are not supported here.
    """
    import numpy as np  # deferred: processes that never evaluate a grid skip its import

    apos = {a: k for k, a in enumerate(atom_order)}
    nb, m, n = tables.shape
    vals = np.ascontiguousarray(np.transpose(tables, (0, 2, 1)))  # (nb, n, m)
    memo: dict[int, np.ndarray] = {}

    def rec(f: Formula) -> np.ndarray:
        got = memo.get(id(f))
        if got is not None:
            return got
        if isinstance(f, Atom):
            bits = np.fromiter(
                ((mask >> apos[f.name]) & 1 for mask in col_masks), bool, count=n
            )
            out = bits.reshape(1, n, 1)
        elif isinstance(f, Dec):
            out = vals == value_order.index(f.value)
        elif isinstance(f, Top):
            out = np.ones((1, 1, 1), bool)
        elif isinstance(f, Not):
            out = ~rec(f.sub)
        elif isinstance(f, And):
            out = rec(f.left) & rec(f.right)
        elif isinstance(f, BoxI):
            out = rec(f.sub).all(axis=1, keepdims=True)
        elif isinstance(f, BoxF):
            out = rec(f.sub).all(axis=2, keepdims=True)
        elif isinstance(f, CP):
            sub = np.broadcast_to(rec(f.sub), (nb, n, m))
            xbits = 0
            for a in f.atoms:
                if a in apos:
                    xbits |= 1 << apos[a]
            groups: dict[int, list[int]] = {}
            for j, mask in enumerate(col_masks):
                groups.setdefault(mask & xbits, []).append(j)
            out = np.empty((nb, n, m), bool)
            for idxs in groups.values():
                out[:, idxs, :] = sub[:, idxs, :].all(axis=1, keepdims=True)
        elif isinstance(f, Dyn):
            raise ValueError("update operators must be reduced before grid evaluation")
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[id(f)] = out
        return out

    try:
        return np.broadcast_to(rec(phi), (nb, n, m))
    finally:
        del rec  # free the self-referencing closure and its memo now
