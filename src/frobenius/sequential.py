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
drops straight to the longest prefix whose top is at most R; below a1
no prefix is left, and Z is false.  The pair's Z is h_two's own zero
condition, b1 | R - m*b2 for some m <= R//b2: with g = gcd(b1, b2), the
smallest such m is (R/g) * (b2/g)^-1 mod (b1/g), and it must satisfy
m*b2 <= R.  So Z(R, 2) needs g | R, and by induction Z(R, j) needs
d_j = gcd(a_1, ..., a_j) to divide R: if a_j | R, then d_j | R;
otherwise d_{j-1} | R - i*a_j, and d_j divides both terms.  The test
answers false at once where d_j does not divide R.  The d_j, b1/g, b2/g
and that inverse are computed once per basis.  The test is one
depth-first walk with an explicit stack, so a basis of any length needs
no recursion.  It owns a memo of (R, j) answers, zero and nonzero, valid
for its basis only: the scans build one test per scan, h_is_zero one per
call.  It is derived apart from the representability module on purpose:
the two agreeing is a check.

The scans settle most indices without a test, by residue class mod a1.
The walk they share, _descend, keeps least[r], the least number it has
proven representable in class r; every x >= least[x % a1] is then
representable (add copies of a1).  An open x is settled by a lookup when
least[(x - a) % a1] + a <= x for a generator a > a1: a representable
number plus a generator (the principle of Nijenhuis's minimal-path
table, Amer. Math. Monthly 86, 1979).  Only the rest are tested.  least
only ever holds 0, a generator, x - c*a1 from a passing test, or
least[r'] + a, and each is representable; for this scan that rests on
Z(R) holding exactly when R is representable.  A failure is declared
only by a test, so the first one is the largest gap.

A passing test reports how far down its class it reaches.  The pair's
condition, b1 | y - m*b2 with y = x/g and m*b2 <= y, keeps the same m
when y drops by multiples of b1, so it holds at x - k*a1 for every
k <= (y - m*b2)/b1, the slack.  Every remainder on the path from R down
to that pair remainder drops by the same k*a1 and stays >= 0 (a
remainder of 0 being a zero factor), so Z(R - k*a1) holds for the same
k.  The zero test returns that slack, or -1 when h is nonzero; a zero
reached through a_j | x or through a memo hit reports slack 0, which
proves only R itself.  After slack s at i, least[i % a1] = i - s*a1.
Read upward, Z(i) gives Z(i + a1): add b1 to the pair's y with the same
m, and when Z(i) came from a_j | x, the remainder 0 becomes a1, which
the pair takes with m = 0.  So sequential_trace, which ascends, keeps
the residues that have had a zero and settles every later index in
them without a test.

Every zero test is budgeted: more than SEARCH_CAP steps (remainders
handed to a shorter prefix, the pair's tests included) raise
ResourceLimitError.  The largest counts per test measured are far below
it: 262 in the delta scans of the verify corpus (--count 500 --max 200
--arity 5 --seed 42), 925 in those of the table1 rows (the 49-generator
row), and 1188 for R = 7777 over the 1300 generators 1000..2299.  A test
it refuses, such as R = 666666666666665666666666666666 over
{10**15 + 3, 10**15 + 4, 2*10**15 + 5}, would otherwise try about 3*10**14
remainders.

All arithmetic is int / fractions.Fraction; floats never appear.  Only
the paper's exact objects (f_indicator, h_two, h_general) build
Fractions, and they import fractions when called: the scans and the
zero test never need it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heapreplace
from math import floor, gcd
from typing import TYPE_CHECKING, Callable

from . import oracle
from .basis import Basis, scan_upper_bound
from .errors import InvalidInputError, ResourceLimitError
from .representability import SEARCH_CAP
from .residue import RESIDUE_CAP

if TYPE_CHECKING:
    from fractions import Fraction

TRACE_CAP = 2**17
"""Largest scan bound U that sequential_trace tabulates: 131072 entries.

The deltas take 8 bytes per entry (1 MiB at the cap), once as the list
they are built in and once as the tuple kept.  The h-zero memo behind
them holds the indices actually tested, each gap and the first zero of
each residue class mod a1, plus answers for shorter prefixes on more
generators.  Peak traced memory and time were 3.4 MiB and 0.23 s at
U = 96719 for {311, 313, 317}, and 0.8 MiB and 0.03 s at U = 33673 for
{150, 227, 301, 317, 331}.  Each gap costs one full failing test, so
the cost follows the gaps more than U: past the cap, U = 1050599
({1021, 1031, 1033}) took 2.2-2.4 s and 28.5 MiB (Python 3.11, one core
of an x86-64 server).
"""

# Bytes per residue class mod a1 of _descend's state before its first
# test: a slot of least and a heap entry with its int.  Measured by peak
# RSS on the halving bases (Python 3.11, 64-bit): 39 / 64 / 112 MiB at
# a1 = 2^19 / 2^20 / 2^21.  The state is held to the residue table's own
# 8 * RESIDUE_CAP bytes (128 MiB), so a1 up to about 2.8 million.
_WALK_BYTES_PER_CLASS = 48


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
    from fractions import Fraction

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
    stripping the maximal number of b2's.  More than SEARCH_CAP f terms
    raise ResourceLimitError.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    if not 0 < b1 < b2:
        raise InvalidInputError(f"need 0 < b1 < b2, got {b1}, {b2}")
    if R // b2 >= SEARCH_CAP:
        raise ResourceLimitError(f"h({R}) exceeds {SEARCH_CAP} steps")
    from fractions import Fraction

    return Fraction(_h_two_product(R, b1, b2))


def _h_two_product(R: int, b1: int, b2: int) -> int:
    # Every factor of h is an integer, so h_general multiplies ints and
    # makes one Fraction at the end.
    q, s = divmod(R, b2)
    prod = 1
    for i in range(q):
        prod *= f_indicator(b1, R - i * b2)
    prod *= f_indicator(b2, R)
    return prod * ((s // b1) * b1 - s)


def h_general(R: int, basis: Basis) -> Fraction:
    """Exact h over the whole basis; 0 iff R is representable.

    For n > 2 the value multiplies h over every shorter prefix at R, an
    f term for the largest element, and h over the n-1 prefix at each
    remainder R - i*a_n.  A remainder of exactly 0 contributes a zero
    factor (0 is the empty sum, always representable).  Beware: for
    non-representable R the magnitude grows combinatorially with n and R;
    use h_is_zero when only representability is wanted.  Each sub-product
    is one step, and each f term of a pair's product one more; past
    SEARCH_CAP steps it raises ResourceLimitError (about 2**n sub-products
    for an R below every element).
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    steps = 0

    def value(x: int, elements: tuple[int, ...]) -> int:
        # A zero factor zeroes the whole product; every factor is finite, so
        # returning early never changes the exact value.
        nonlocal steps
        steps += 1 + (x // elements[1] if len(elements) == 2 else 0)
        if steps > SEARCH_CAP:
            raise ResourceLimitError(f"h({R}) exceeds {SEARCH_CAP} steps")
        if len(elements) == 2:
            return _h_two_product(x, elements[0], elements[1])
        prod = 1
        for j in range(2, len(elements)):
            prod *= value(x, elements[:j])
            if prod == 0:
                return prod
        top = elements[-1]
        prod *= f_indicator(top, x)
        if prod == 0:
            return prod
        shorter = elements[:-1]
        for i in range(1, x // top + 1):
            rem = x - i * top
            if rem == 0:
                return 0
            prod *= value(rem, shorter)
            if prod == 0:
                return prod
        return prod

    from fractions import Fraction

    return Fraction(value(R, basis.elements))


def h_is_zero(R: int, basis: Basis) -> bool:
    """Whether h_general(R, basis) == 0, without building the product.

    Follows the factor list of h (see the module docstring).  Raises
    ResourceLimitError past SEARCH_CAP steps.
    """
    if R < 1:
        raise InvalidInputError(f"R must be positive, got {R}")
    return _zero_test(basis)(R) >= 0


def _zero_test(basis: Basis) -> Callable[[int], int]:
    """Z(R, n) over basis, with the prefix gcds and the pair's data computed once.

    The returned function maps R >= 1 to -1 when h(R) is nonzero, else
    to a slack s >= 0 such that h(R - k*a1) is 0 for every k <= s (the
    pair factor's slack; 0 for a zero found through a_j | x or a memo
    hit), and keeps its (R, j) answers.  delta_scan and sequential_trace
    build one per scan.
    """
    es = basis.elements
    n = len(es)
    d = [0] * (n + 1)  # d[j]: gcd of the first j elements
    for j, e in enumerate(es, start=1):
        d[j] = gcd(d[j - 1], e)
    g = d[2]
    b1, b2 = es[0] // g, es[1] // g
    inv_b2 = pow(b2, -1, b1)
    memo: dict[tuple[int, int], bool] = {}

    def pair_slack(x: int) -> int:
        # b1 | y - m*b2 with m*b2 <= y holds for y - k*b1, k <= (y - m*b2)/b1.
        y = x // g
        mb2 = y * inv_b2 % b1 * b2
        return (y - mb2) // b1 if mb2 <= y else -1

    def zero(R: int) -> int:
        steps = 0
        stack: list[list[int]] = []  # [x, j, current remainder] of the open levels >= 4
        x, j = R, n
        while True:
            # Decide Z(x, j), x >= 1, first dropping the levels whose top exceeds x.
            j = bisect_right(es, x, 0, j)
            if j == 0 or x % d[j]:
                slack = -1
            elif j < 3:
                slack = pair_slack(x)
            else:
                known = memo.get((x, j))
                if known is not None:
                    slack = 0 if known else -1
                else:
                    top = es[j - 1]
                    if x % top == 0:
                        slack = 0
                    elif j > 3:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(R)
                        stack.append([x, j, x])
                        j -= 1
                        continue
                    else:
                        # The pair's zero test on each remainder x - i*a_3 > 0.
                        slack = -1
                        rest = x
                        while rest > 0:
                            steps += 1
                            if steps > SEARCH_CAP:
                                raise _over_budget(R)
                            if rest % g == 0:
                                y = rest // g
                                mb2 = y * inv_b2 % b1 * b2
                                if mb2 <= y:
                                    slack = (y - mb2) // b1
                                    break
                            rest -= top
                    memo[x, j] = slack >= 0
            # Hand the answer to the open levels: a zero closes every one of
            # them, a nonzero moves the deepest to its next remainder.
            while stack:
                frame = stack[-1]
                fx, fj, frest = frame
                if slack < 0:
                    frest -= es[fj - 1]
                    if frest > 0:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(R)
                        frame[2] = frest
                        x, j = frest, fj - 1
                        break
                memo[fx, fj] = slack >= 0
                stack.pop()
            else:
                return slack

    return zero


def _over_budget(R: int) -> ResourceLimitError:
    return ResourceLimitError(f"zero test of h({R}) exceeds {SEARCH_CAP} steps")


def delta_scan(basis: Basis) -> tuple[int, int]:
    """(largest i with delta_i = 1, number of indices examined).

    Walks downward from scan_upper_bound; equivalent to the full
    telescoping sum because the guard product zeroes every smaller term.
    """
    _, i, scanned = _descend(basis, 1, _zero_test(basis))
    if i is None:
        raise InvalidInputError("basis contains 1; no index has delta = 1")
    return i, scanned


def _descend(basis: Basis, low: int, proof: Callable[[int], int]) -> tuple[int, int | None, int]:
    """(U, first failing x or None, candidates scanned) of both scans' walk down [low, U].

    least[r] is the least number proven representable in residue class r
    mod a1, so every x >= least[x % a1] is settled.  It starts at 0 and the
    generators.  An open x is settled without a test when some larger
    generator a has least[(x - a) % a1] + a <= x (a representable number
    plus a generator), tried in ascending a; otherwise proof(x) is -1 when
    x fails, else c >= 0 with x - c*a1 representable.  Only a test declares
    x failing, so the first failure is the largest gap in [low, U].
    A heap of each open class's next candidate, at most min(a1, U - low + 1)
    entries, takes the largest first, in O(log a1).  U above
    oracle.DEFAULT_LIMIT_CAP is refused, and so is an a1 whose state would
    pass the residue table's 8 * RESIDUE_CAP bytes, before any is built.
    """
    upper = scan_upper_bound(basis)
    if upper > oracle.DEFAULT_LIMIT_CAP:
        raise ResourceLimitError(f"scan bound {upper} exceeds cap {oracle.DEFAULT_LIMIT_CAP}")
    a1, *rest = basis.elements
    if a1 * _WALK_BYTES_PER_CLASS > 8 * RESIDUE_CAP:
        raise ResourceLimitError(
            f"scan state of {a1} residue classes (about {a1 * _WALK_BYTES_PER_CLASS} bytes)"
            f" exceeds cap {8 * RESIDUE_CAP} bytes"
        )
    least = [upper + 1] * a1  # above every candidate: nothing proven yet
    least[0] = 0
    for a in rest:
        least[a % a1] = min(least[a % a1], a)
    # Negated: the least entry is the largest candidate, and ascending is a heap.
    heap = list(range(-upper, 1 - max(low, upper - a1 + 1)))
    while heap:
        x = -heap[0]
        r = x % a1
        if least[r] > x:
            for a in rest:
                proven = least[(x - a) % a1] + a
                if proven <= x:
                    least[r] = proven
                    break
            else:
                c = proof(x)
                if c < 0:
                    return upper, x, upper - x + 1
                least[r] = x - c * a1
        if least[r] - a1 >= low:
            heapreplace(heap, a1 - least[r])
        else:
            heappop(heap)
    return upper, None, max(upper - low + 1, 0)


@dataclass(frozen=True)
class SequentialTrace:
    """Full delta vector plus the literal telescoping-sum evaluation.

    deltas[i - 1] is delta_i for i in [1, upper]: 1 when i is not
    representable, 0 when it is.  result is the sum evaluated term by term
    with the N guard products, not a shortcut.
    """

    upper: int
    deltas: tuple[int, ...]
    result: int

    def __post_init__(self) -> None:
        if self.upper >= 0 and len(self.deltas) != self.upper:
            raise InvalidInputError(
                f"expected {self.upper} deltas, got {len(self.deltas)}"
            )
        if any(d not in (0, 1) for d in self.deltas):
            raise InvalidInputError("deltas must be 0 or 1")


def sequential_trace(basis: Basis) -> SequentialTrace:
    """Tabulate every delta in [1, upper] and evaluate the sum literally.

    A scan bound above TRACE_CAP is refused (ResourceLimitError) before
    anything is tabulated.  Ascending, the first zero of each residue
    class mod a1 settles every later index of that class without a test
    (see the module docstring).  Each delta comes from h's zero test, not
    from h itself; h_general gives the exact value of one index.
    """
    upper = scan_upper_bound(basis)
    if upper < 1:
        # 1 is a generator: nothing is non-representable.
        return SequentialTrace(upper=-1, deltas=(), result=-1)
    if upper > TRACE_CAP:
        raise ResourceLimitError(f"trace of {upper} entries exceeds cap {TRACE_CAP} entries")
    a1 = basis.elements[0]
    zero = _zero_test(basis)
    zero_classes: set[int] = set()  # residues mod a1 with a zero at a smaller index
    deltas: list[int] = []
    for i in range(1, upper + 1):
        r = i % a1
        if r in zero_classes or zero(i) >= 0:
            zero_classes.add(r)
            deltas.append(0)
        else:
            deltas.append(1)
    total = 0
    guard = 1  # product of N(delta_j) over j > i, maintained while descending
    for i in range(upper, 0, -1):
        d = deltas[i - 1]
        total += i * d * guard
        guard *= n_indicator(d)
    return SequentialTrace(upper=upper, deltas=tuple(deltas), result=total)
