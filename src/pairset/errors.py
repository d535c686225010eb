"""Shared exception types, and the one refusal policy for enumerations."""

WORK_CAP = 10_000_000  # units of work (subsets, r-sets or edges) of any scan or constructor


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget.

    Raised instead of sampling or truncating: every answer this package
    produces is meant to be a certificate, so a partial scan is worthless.
    """


def charge(work: int, what: str, allowed: int = WORK_CAP) -> None:
    """Refuse work above the allowed amount.  Every enumeration calls this
    once with its whole cost, before it starts, so it never stops halfway."""
    if work > allowed:
        raise BudgetExceededError(f"{what} needs {work} units of work, above the budget of {allowed}")
