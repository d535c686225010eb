"""Shared exception types, and the one refusal policy for enumerations: charge,
binomial_bits to place a count below C(n, k), charge_binomial for one C(n, k),
and charge_steps for loops over numbers as large as C(n, k)."""

from .combinatorics import binomial

WORK_CAP = 10_000_000  # units of work (subsets, r-sets or edges) of any scan or constructor
EXACT_BITS = 1024  # a refusal states a cost below 2^EXACT_BITS in full, a larger one as a power of two


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget.

    Raised instead of sampling or truncating: every answer this package
    produces is meant to be a certificate, so a partial scan is worthless.
    """


def charge(work: int, what: str, allowed: int = WORK_CAP, *, log2: bool = False) -> None:
    """Refuse work above the allowed amount.  Every enumeration is charged
    its whole cost before it starts (see charge_binomial for one binomial).
    With log2, work is a b for a cost of at least 2^b, refused uncomputed if
    b >= EXACT_BITS and 2^b > allowed; else the caller charges the exact cost."""
    bits = work if log2 else work.bit_length() - 1  # the cost is at least 2^bits
    if bits >= max(EXACT_BITS, allowed.bit_length()):  # then 2^bits > allowed
        k = bits.bit_length() - 1  # an exponent of EXACT_BITS bits or more is stated as 2^k
        stated = f"2^{bits}" if k < EXACT_BITS - 1 else f"2^(2^{k})"
        raise BudgetExceededError(f"{what} needs at least {stated} units of work, "
                                  f"above the budget of {allowed}")
    if not log2 and work > allowed:
        raise BudgetExceededError(f"{what} needs {work} units of work, above the budget of {allowed}")


def binomial_bits(n: int, k: int) -> int:
    """A b with C(n, k) >= 2^b for 0 <= k <= n, as each of the j = min(k, n - k)
    factors (n - i) / (j - i) of C(n, j) is at least n / j; 0 when j <= 0.  For
    k > n that 0 is no bound (C(n, k) = 0): add it to no other term."""
    j = min(k, n - k)
    return j * ((n // j).bit_length() - 1) if j > 0 else 0


def charge_binomial(n: int, k: int, what: str) -> int:
    """Charge C(n, k) units of work against WORK_CAP and return C(n, k).  Its lower
    bound 2^binomial_bits(n, k) is charged first, so a count of 2^EXACT_BITS or more
    refuses before C(n, k), slow to compute for large k near n/2, is computed."""
    charge(binomial_bits(n, k), what, log2=True)
    work = binomial(n, k)
    charge(work, what)
    return work


def charge_steps(steps: int, n: int, k: int, what: str) -> None:
    """Charge steps that each compute numbers of up to C(n, k) against WORK_CAP,
    (1 + b // 64)^2 units a step for b = binomial_bits(n, k): the schoolbook cost
    of a product of b-bit numbers in 64-bit words.  Computes no C(n, k)."""
    charge(steps * (1 + binomial_bits(n, k) // 64) ** 2, what)
