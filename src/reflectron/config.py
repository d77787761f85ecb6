"""Global configuration: dense-dimension budget and shared error types."""

import os
from math import isfinite

DEFAULT_BUDGET_ENTRIES = 2**22
BUDGET_ENV_VAR = "REFLECTRON_BUDGET"


class DimensionBudgetError(RuntimeError):
    """Requested dense object exceeds the configured entry budget."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised when a closed-form value and its dense oracle diverge beyond
    tolerance; signals a transcription or implementation bug, never a
    recoverable condition.
    """


class NonChannelElementError(ValueError):
    """Cyclic element does not define a trace-preserving channel."""


def _check_n(n: int) -> None:
    """The one check of a program-copy count."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")


def _check_d(d: int) -> None:
    """The one check of a local dimension."""
    if d < 2:
        raise ValueError(f"need d >= 2, got d = {d}")


def _check_eps(epsilon: float) -> None:
    """The one check of a target precision."""
    if not (isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def budget_entries() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_ENTRIES
    value = int(raw)
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {raw}")
    return value


def ensure_vector_budget(dim: int, what: str = "vector") -> None:
    if dim > budget_entries():
        raise DimensionBudgetError(
            f"{what} of dimension {dim} exceeds budget of {budget_entries()} entries"
        )


def ensure_operator_budget(dim: int, what: str = "operator") -> None:
    if dim * dim > budget_entries():
        raise DimensionBudgetError(
            f"{what} of dimension {dim}x{dim} exceeds budget of "
            f"{budget_entries()} entries"
        )
