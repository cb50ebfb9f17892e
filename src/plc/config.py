"""Resource budgets for the search and rewrite engines."""

from __future__ import annotations

import math
import os

ENV_BUDGET = "PLC_NODE_BUDGET"
DEFAULT_SEARCH_BUDGET = 50_000_000  # candidate points examined per query
DEFAULT_REWRITE_NODES = 1_000_000  # AST nodes built per reduction


class BudgetExceeded(RuntimeError):
    """A search or rewrite ran out of its node budget.

    This is a third answer distinct from SAT and UNSAT; it is never silently
    converted into either.
    """


def magnitude(n: int) -> str:
    """n in decimal, or as a power of two when it is too long to read (and
    past 4,300 digits, too long for Python to print)."""
    return str(n) if n < 1 << 64 else f"2^{math.log2(n):.1f}"


def search_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ENV_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} must be an integer, got {env!r}") from None
    return DEFAULT_SEARCH_BUDGET


class BudgetMeter:
    """Counts work units and raises once the cap is passed."""

    def __init__(self, cap: int, what: str = "search"):
        self.cap = cap
        self.used = 0
        self.what = what

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(
                f"{self.what} exceeded its node budget ({magnitude(self.used)} > {self.cap})"
            )
