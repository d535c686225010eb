"""Shared exception types, and the one refusal policy for enumerations: charge,
binomial_bits and below_binomial to bound C(n, k) and place counts below it,
charge_binomial for one C(n, k), charge_steps for loops over numbers that size."""

from .combinatorics import binomial

WORK_CAP = 10_000_000  # units of work (subsets, r-sets or edges) of any scan or constructor
EXACT_BITS = 1024  # a refusal states an exact cost below 2^EXACT_BITS in full, any other as a power of two


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget.

    Raised instead of sampling or truncating: every answer this package
    produces is meant to be a certificate, so a partial scan is worthless.
    """


def charge(work: int, what: str, allowed: int = WORK_CAP, *, log2: bool = False) -> None:
    """Refuse work above the allowed amount.  Every enumeration is charged
    its whole cost before it starts (see charge_binomial for one binomial).
    With log2, work is a b for a cost of at least 2^b, refused whenever 2^b >
    allowed, before the caller computes the exact cost.  An exact cost below
    2^EXACT_BITS is stated in full, any other as at least 2^b."""
    bits = work if log2 else work.bit_length() - 1  # the cost is at least 2^bits
    if (log2 or bits >= EXACT_BITS) and bits >= allowed.bit_length():  # then 2^bits > allowed
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


def below_binomial(x: int, n: int, k: int) -> bool:
    """True only if 0 <= x < C(n, k), without computing C(n, k): for 0 <= k <= n,
    x.bit_length() <= b = binomial_bits(n, k) gives x < 2^b <= C(n, k).  For k > n
    that b = 0 is no bound, as C(n, k) = 0 holds no x.  False means only that the
    bound does not place x, and the caller compares x with C(n, k) itself."""
    return 0 <= x and 0 <= k <= n and x.bit_length() <= binomial_bits(n, k)


def charge_binomial(n: int, k: int, what: str) -> int:
    """Charge C(n, k) units of work against WORK_CAP and return C(n, k).  Its lower
    bound 2^binomial_bits(n, k) is charged first, so a count with a bound over the
    cap refuses before C(n, k), slow to compute for large k near n/2, is computed."""
    charge(binomial_bits(n, k), what, log2=True)
    work = binomial(n, k)
    charge(work, what)
    return work


def charge_steps(steps: int, n: int, k: int, what: str) -> None:
    """Charge steps that each compute numbers of up to C(n, k) against WORK_CAP,
    (1 + b // 64)^2 units a step for b = binomial_bits(n, k): the schoolbook cost
    of a product of b-bit numbers in 64-bit words.  Computes no C(n, k)."""
    charge(steps * (1 + binomial_bits(n, k) // 64) ** 2, what)
