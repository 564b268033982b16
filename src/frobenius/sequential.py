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

The zero test N(delta_i) needs only whether h(i) is 0, read off h's
factor list.  Write Z(R, j) for "h(R) over the first j elements is 0".
For j > 2 the factors are h(R) over every shorter prefix j' < j, then
f(a_j, R), then h(R - i*a_j) over the first j - 1 elements for
i = 1 .. R//a_j, a remainder of 0 being a zero factor.  Every h(R, j')
with j' < j - 1 is itself a factor of h(R, j - 1), so Z(R, j - 1) stands
for all the shorter prefixes:

    Z(R, j) = (a_j divides R)  or  Z(R - i*a_j, j - 1) for some i >= 0
              with R - i*a_j > 0.

When a_j > R only i = 0 is left, so Z(R, j) = Z(R, j - 1) and the test
drops straight to the longest prefix whose top is at most R.  The pair's
Z is h_two's own zero condition, b1 | R - m*b2 for some m <= R//b2: with
g = gcd(b1, b2), the smallest such m is (R/g) * (b2/g)^-1 mod (b1/g), and
it must satisfy m*b2 <= R.  g, b1/g, b2/g and that inverse are computed
once per basis.  The test is one depth-first walk with an explicit stack,
so a basis of any length needs no recursion; a memo of (R, j) answers,
both zero and nonzero, is shared across a scan.  It is derived apart from
the representability module on purpose: the two agreeing is a check.

Every zero test is budgeted: more than SEARCH_CAP steps (remainders
handed to a shorter prefix, the pair's tests included) raise
ResourceLimitError.  The largest counts per test measured are far below
it: 250 in the delta scans of the verify corpus (--count 500 --max 200
--arity 5 --seed 42), 663 in those of the table1 rows (the 49-generator
row), and 1188 for R = 7777 over the 1300 generators 1000..2299.  A test
it refuses, such as R = 666666666666665666666666666666 over
{10**15 + 3, 10**15 + 4, 2*10**15 + 5}, would otherwise try about 3*10**14
remainders.

All arithmetic is int / fractions.Fraction; floats never appear.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Callable

from .basis import Basis, scan_upper_bound
from .errors import InvalidInputError, ResourceLimitError
from .representability import SEARCH_CAP

ZeroMemo = dict[tuple[int, int], bool]

TRACE_CAP = 2**17
"""Largest scan bound U that sequential_trace tabulates: 131072 entries.

The deltas tuple takes 8 bytes per entry (1 MiB at the cap); the h-zero
memo behind it took 130-160 bytes more per entry on three generators and
about 400 on five, where it also holds answers for shorter prefixes
(15.4 MiB and 0.5 s at U = 96719 for {311, 313, 317}, 13.2 MiB and
0.12 s at U = 33673 for {150, 227, 301, 317, 331}).  Past the cap, U =
1050599 ({1021, 1031, 1033}) took 3.0-3.4 s and 136 MiB (Python 3.11,
one core of an x86-64 server).
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

    Follows the factor list of h (see the module docstring).  Pass a
    shared memo dict to reuse work across many R for the same basis (keys
    are (R, prefix length)).  Raises ResourceLimitError past SEARCH_CAP
    steps.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    return _zero_test(basis)(R, {} if memo is None else memo)


def _zero_test(basis: Basis) -> Callable[[int, ZeroMemo], bool]:
    """Z(R, n) over basis, with the pair's data computed once.

    The returned function maps (R, memo), R >= 1, to whether h(R) is 0.
    delta_scan and sequential_trace build one per scan.
    """
    es = basis.elements
    n = len(es)
    g = gcd(es[0], es[1])
    b1, b2 = es[0] // g, es[1] // g
    inv_b2 = pow(b2, -1, b1)

    def zero(R: int, memo: ZeroMemo) -> bool:
        steps = 0
        stack: list[list[int]] = []  # [x, j, current remainder] of the open levels >= 4
        x, j = R, n
        while True:
            # Decide Z(x, j), x >= 1, first dropping the levels whose top exceeds x.
            j = bisect_right(es, x, 0, j)
            if j < 3:
                found = x % g == 0 and x // g * inv_b2 % b1 * b2 <= x // g
            else:
                found = memo.get((x, j))
                if found is None:
                    top = es[j - 1]
                    if x % top == 0:
                        found = True
                    elif j > 3:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(R)
                        stack.append([x, j, x])
                        j -= 1
                        continue
                    else:
                        # The pair's zero test on each remainder x - i*a_3 > 0.
                        found = False
                        rest = x
                        while rest > 0:
                            steps += 1
                            if steps > SEARCH_CAP:
                                raise _over_budget(R)
                            if rest % g == 0:
                                y = rest // g
                                if y * inv_b2 % b1 * b2 <= y:
                                    found = True
                                    break
                            rest -= top
                    memo[x, j] = found
            # Hand the answer to the open levels: a zero closes every one of
            # them, a nonzero moves the deepest to its next remainder.
            while stack:
                frame = stack[-1]
                fx, fj, frest = frame
                if not found:
                    frest -= es[fj - 1]
                    if frest > 0:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(R)
                        frame[2] = frest
                        x, j = frest, fj - 1
                        break
                memo[fx, fj] = found
                stack.pop()
            else:
                return found

    return zero


def _over_budget(R: int) -> ResourceLimitError:
    return ResourceLimitError(f"zero test of h({R}) exceeds {SEARCH_CAP} steps")


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
    zero = _zero_test(basis)
    memo: ZeroMemo = {}
    for i in range(upper, 0, -1):
        if not zero(i, memo):
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
    zero = _zero_test(basis)
    memo: ZeroMemo = {}
    deltas = tuple(0 if zero(i, memo) else 1 for i in range(1, upper + 1))
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
