"""Floor-function indicators and a telescoping-sum form of the answer.

Everything here is built from one primitive on positive integers,

    f(alpha, R) = floor(alpha/R - 1/floor(R/alpha))   for R >= alpha,
    f(alpha, R) = -1                                  for R < alpha,

which is 0 exactly when alpha divides R and -1 otherwise.  Products of
f terms over the ways to peel multiples of the largest generator off R
give h(R), an exact rational that is 0 exactly when R is representable
over the basis.  Only that zero-ness is load-bearing: nonzero h values
can have magnitude > 1 (h for R=7 over {3, 5} is -2), so nothing here
treats h as a +/-1 indicator.

With delta_i = 1 when i is NOT representable and 0 when it is, the
Frobenius number is the telescoping sum

    g = sum(i * delta_i * prod(N(delta_j) for j > i))   over i in [1, U]

where N is the exact zero test and U = scan_upper_bound (everything above
U is representable): the guard product kills every term except the
largest non-representable i.  delta_scan walks i downward and stops at
the first delta = 1, which evaluates the same sum without materializing
it.

All arithmetic is int / fractions.Fraction; floats never appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .basis import Basis, scan_upper_bound
from .errors import InvalidInputError, ResourceLimitError
from .representability import has_rep_two

ZeroMemo = dict[tuple[int, int], bool]

TRACE_CAP = 2**17
"""Largest scan bound U that sequential_trace tabulates: 131072 entries.

The deltas tuple takes 8 bytes per entry (1 MiB at the cap); the h-zero
memo behind it took about 130-200 bytes more per entry on three to five
generators (16 MiB and 2.2 s at U = 96719, for {311, 313, 317}).  The
time grows faster than U: 13.5 s and 145 MiB at U = 1050599.
"""


def f_indicator(alpha: int, R: int) -> int:
    """0 if alpha divides R (and R >= alpha), else -1.

    Evaluated exactly as floor(alpha/R - 1/floor(R/alpha)) over rationals;
    the R < alpha convention covers the case where the inner floor is 0.
    """
    if alpha < 1 or R < 1:
        raise InvalidInputError(f"need positive alpha and R, got {alpha}, {R}")
    q = R // alpha
    if q == 0:
        return -1
    return floor(Fraction(alpha, R) - Fraction(1, q))


def n_indicator(x: int | Fraction) -> int:
    """Exact zero test on [-1, 1]: 1 if x == 0, else 0.

    Agrees with floor(-|x|) + 1 on the whole domain.  Floats are rejected
    to keep the computation exact end to end.
    """
    if isinstance(x, float):
        raise InvalidInputError("n_indicator is exact; floats are not accepted")
    if not -1 <= x <= 1:
        raise InvalidInputError(f"n_indicator domain is [-1, 1], got {x}")
    return 1 if x == 0 else 0


def h_two(R: int, b1: int, b2: int) -> Fraction:
    """Exact h for a two-element prefix {b1 < b2}; 0 iff R is representable.

    The product runs f(b1, R - i*b2) over i = 0 .. R//b2 - 1, then f(b2, R),
    then the residue term (s//b1)*b1 - s with s = R mod b2, which covers
    stripping the maximal number of b2's.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    if not 0 < b1 < b2:
        raise InvalidInputError(f"need 0 < b1 < b2, got {b1}, {b2}")
    q, s = divmod(R, b2)
    prod = 1
    for i in range(q):
        prod *= f_indicator(b1, R - i * b2)
    prod *= f_indicator(b2, R)
    prod *= (s // b1) * b1 - s
    return Fraction(prod)


def h_general(R: int, basis: Basis) -> Fraction:
    """Exact h over the whole basis; 0 iff R is representable.

    For n > 2 the value multiplies h over every shorter prefix at R, an
    f term for the largest element, and h over the n-1 prefix at each
    remainder R - i*a_n.  A remainder of exactly 0 contributes a zero
    factor (0 is the empty sum, always representable).  Beware: for
    non-representable R the magnitude grows combinatorially with n and R;
    use h_is_zero when only representability is wanted.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    return _h_value(R, basis.elements)


def _h_value(R: int, elements: tuple[int, ...]) -> Fraction:
    # A zero factor zeroes the whole product; every factor is finite, so
    # returning early never changes the exact value.
    if len(elements) == 2:
        return h_two(R, elements[0], elements[1])
    prod = Fraction(1)
    for j in range(2, len(elements)):
        prod *= _h_value(R, elements[:j])
        if prod == 0:
            return prod
    top = elements[-1]
    prod *= f_indicator(top, R)
    if prod == 0:
        return prod
    shorter = elements[:-1]
    for i in range(1, R // top + 1):
        rem = R - i * top
        if rem == 0:
            return Fraction(0)
        prod *= _h_value(rem, shorter)
        if prod == 0:
            return prod
    return prod


def h_is_zero(R: int, basis: Basis, memo: ZeroMemo | None = None) -> bool:
    """Whether h_general(R, basis) == 0, without building the product.

    Follows the factor structure of h exactly: some factor is 0 iff the
    two-element base case hits a divisible remainder.  Pass a shared memo
    dict to reuse work across many R for the same basis.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    if memo is None:
        memo = {}
    return _h_zero(R, basis.elements, len(basis.elements), memo)


def _h_zero(R: int, elements: tuple[int, ...], j: int, memo: ZeroMemo) -> bool:
    if j == 2:
        # h_two is 0 iff b1 | (R - m*b2) for some m in [0, R//b2].
        return has_rep_two(R, elements[0], elements[1])
    key = (R, j)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = any(_h_zero(R, elements, jp, memo) for jp in range(2, j))
    top = elements[j - 1]
    if not result and R % top == 0:
        result = True
    if not result:
        for i in range(1, R // top + 1):
            rem = R - i * top
            if rem == 0 or _h_zero(rem, elements, j - 1, memo):
                result = True
                break
    memo[key] = result
    return result


def delta(i: int, basis: Basis, memo: ZeroMemo | None = None) -> int:
    """1 if i is NOT representable over the basis, 0 if it is.

    Defined for 1 <= i <= scan_upper_bound (everything above that bound
    is representable, so the question only makes sense below it).
    """
    upper = scan_upper_bound(basis)
    if not 1 <= i <= upper:
        raise InvalidInputError(f"delta index {i} outside [1, {upper}]")
    return 0 if h_is_zero(i, basis, memo) else 1


def delta_scan(basis: Basis) -> tuple[int, int]:
    """(largest i with delta_i = 1, number of indices examined).

    Walks downward from scan_upper_bound; equivalent to the full
    telescoping sum because the guard product zeroes every smaller term.
    """
    upper = scan_upper_bound(basis)
    if upper < 1:
        raise InvalidInputError("basis contains 1; no index has delta = 1")
    memo: ZeroMemo = {}
    for i in range(upper, 0, -1):
        if not h_is_zero(i, basis, memo):
            return i, upper - i + 1
    raise RuntimeError("unreachable: 1 is never representable when all elements exceed 1")


@dataclass(frozen=True)
class SequentialTrace:
    """Full delta vector plus the literal telescoping-sum evaluation.

    deltas[i - 1] is delta_i for i in [1, upper].  result is the sum
    evaluated term by term with the N guard products, not a shortcut.
    h_values, when requested, holds h_general(i) for the same indices.
    """

    upper: int
    deltas: tuple[int, ...]
    result: int
    h_values: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.upper >= 0 and len(self.deltas) != self.upper:
            raise InvalidInputError(
                f"expected {self.upper} deltas, got {len(self.deltas)}"
            )
        if any(d not in (0, 1) for d in self.deltas):
            raise InvalidInputError("deltas must be 0 or 1")
        if self.h_values is not None and len(self.h_values) != len(self.deltas):
            raise InvalidInputError("h_values must align with deltas")


def sequential_trace(basis: Basis, *, include_h_values: bool = False) -> SequentialTrace:
    """Tabulate every delta in [1, upper] and evaluate the sum literally.

    A scan bound above TRACE_CAP is refused (ResourceLimitError) before
    anything is tabulated.  include_h_values also records the exact h of
    every index; fine for small bases, combinatorially expensive for
    large non-representable indices at higher arities.
    """
    upper = scan_upper_bound(basis)
    if upper < 1:
        # 1 is a generator: nothing is non-representable.
        return SequentialTrace(upper=-1, deltas=(), result=-1)
    if upper > TRACE_CAP:
        raise ResourceLimitError(f"trace of {upper} entries exceeds cap {TRACE_CAP} entries")
    memo: ZeroMemo = {}
    deltas = tuple(0 if h_is_zero(i, basis, memo) else 1 for i in range(1, upper + 1))
    total = 0
    guard = 1  # product of N(delta_j) over j > i, maintained while descending
    for i in range(upper, 0, -1):
        d = deltas[i - 1]
        total += i * d * guard
        guard *= n_indicator(d)
    h_values = None
    if include_h_values:
        h_values = tuple(h_general(i, basis) for i in range(1, upper + 1))
    return SequentialTrace(upper=upper, deltas=deltas, result=total, h_values=h_values)
