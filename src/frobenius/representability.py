"""Membership tests: is a nonnegative integer a sum of basis elements?

The test follows the paper's descent: strip k copies of the largest
element a_j, then ask the same question of the shorter prefix
a_1..a_{j-1}.  With d_j = gcd(a_1, ..., a_j), the prefix of length j - 1
reaches only multiples of d_{j-1}, so a target x (a multiple of d_j) can
only be finished from the k with

    x - k * a_j = 0 (mod d_{j-1}),  i.e.  k = (x/d_j) * (a_j/d_j)^-1 (mod e_j)

where e_j = d_{j-1} / d_j; a_j/d_j is invertible mod e_j because
d_j = gcd(d_{j-1}, a_j).  Every other k leaves a remainder the prefix
cannot reach, so trying only this class, smallest k first, stripping
e_j * a_j per step, is exact.  Each remainder is again a multiple of its
prefix gcd, so no level needs a divisibility test (a basis has gcd 1 at
the top).  This is the gcd chain behind Brauer's bound
(basis.scan_upper_bound; Brauer and Shockley, "On a problem of
Frobenius", J. reine angew. Math. 211, 1962).  The last pair {b1, b2} is
solved in O(1): after dividing out g = gcd(b1, b2), the smallest
m >= 0 with b1 | (y - m * b2) is (y/g) * (b2/g)^-1 mod (b1/g), and y is
representable iff m * b2 <= y.  The strides, inverses and the pair's
data are computed once per basis.

The search is one depth-first walk with an explicit stack, so a basis
of any length needs no recursion.  It owns a memo of the (target, prefix
length) pairs that failed, valid for its basis only: the descent builds
one search per scan, find_witness one per call.  Each level tries its k
in ascending order, so the path the walk ends on is a witness with the
smallest possible count of a_n, then of a_{n-1} given that, and so on
down to the pair: has_rep is whether find_witness finds one.

Every search is budgeted: more than SEARCH_CAP stripping steps (k values
tried, at any level) end it.  See SEARCH_CAP for the step counts
measured on the package's own inputs.  find_witness then answers from
the grown sieve table (oracle module), which is bounded by its own bit
cap instead: on a wide basis that table is small, since it needs only
about F + a1 bits.
"""

from __future__ import annotations

from math import gcd
from typing import Callable

from .basis import Basis, RepresentationWitness
from .errors import InvalidInputError, ResourceLimitError
from .oracle import _sieve_witness

SEARCH_CAP = 2**20
"""Stripping steps one membership search may take before it is refused.

The largest counts per search measured on the package's own inputs are
far below it: 489, 909 and 1199 on the 8-, 10- and 12-generator bases
of the hasrep benchmark (every target up to each basis's scan bound),
272 in the descent over the verify corpus (--count 500 --max 200
--arity 5 --seed 42) and 1348 in the descent over the table1 rows.  A
query it refuses, such as a 30-digit target over three elements near
10**15, would otherwise strip about 10**14 copies of the largest
element; 2**20 steps took 0.5 s (Python 3.11, one core of an x86-64
server).
"""


# No caller in this package; kept as the tests' pair oracle and because
# perfbench/tracer.py resolves representability.has_rep_two by name.
def has_rep_two(a: int, b1: int, b2: int) -> bool:
    """True iff a = x*b1 + y*b2 has a solution with x, y >= 0.

    Requires 0 < b1 < b2; a must be nonnegative.  gcd(b1, b2) may exceed 1.
    """
    if a < 0:
        raise InvalidInputError(f"target must be nonnegative, got {a}")
    if not 0 < b1 < b2:
        raise InvalidInputError(f"need 0 < b1 < b2, got {b1}, {b2}")
    g = gcd(b1, b2)
    if a % g:
        return False
    a, b1, b2 = a // g, b1 // g, b2 // g
    if b1 == 1:
        return True
    # Smallest m >= 0 with b1 | (a - m*b2); representable iff m*b2 still fits.
    m = (a * pow(b2, -1, b1)) % b1
    return m * b2 <= a


def has_rep(a: int, basis: Basis) -> bool:
    """True iff a is a nonnegative integer combination of the basis elements.

    Past SEARCH_CAP steps the grown sieve table answers.
    """
    return find_witness(a, basis) is not None


def find_witness(a: int, basis: Basis) -> RepresentationWitness | None:
    """Coefficients for one representation of a, or None if there is none.

    The coefficients are the path the membership search ends on: the
    smallest usable count of the largest element, then of the next, and
    so on down to the last pair.  Past SEARCH_CAP steps they are read off
    the grown sieve table instead (oracle._sieve_witness).
    """
    if a < 0:
        raise InvalidInputError(f"target must be nonnegative, got {a}")
    try:
        coeffs = _searcher(basis)(a)
    except ResourceLimitError as search_error:
        try:
            coeffs = _sieve_witness(a, basis)
        except ResourceLimitError as sieve_error:
            raise ResourceLimitError(f"{search_error}, and the sieve {sieve_error}") from None
    if coeffs is None:
        return None
    return RepresentationWitness(basis=basis, coefficients=tuple(coeffs), target=a)


def _searcher(basis: Basis) -> Callable[[int], list[int] | None]:
    """The membership search over basis, with its per-basis data computed once.

    The returned function maps a target to the coefficients of the
    representation it finds, or None, and keeps the (target, prefix
    length) pairs that failed.  The descent builds one per scan.
    """
    es = basis.elements
    n = len(es)
    d = [0] * (n + 1)  # d[j]: gcd of the first j elements
    for j, e in enumerate(es, start=1):
        d[j] = gcd(d[j - 1], e)
    # levels[j] for j >= 3: (a_j, d_j, stride e_j, (a_j/d_j)^-1 mod e_j, e_j * a_j)
    levels: list[tuple[int, int, int, int, int] | None] = [None] * (n + 1)
    for j in range(3, n + 1):
        top, dj = es[j - 1], d[j]
        stride = d[j - 1] // dj
        levels[j] = (top, dj, stride, pow(top // dj, -1, stride), stride * top)
    g = d[2]
    b1, b2 = es[0] // g, es[1] // g
    inv_b2 = pow(b2, -1, b1)
    failed: set[tuple[int, int]] = set()

    def search(target: int) -> list[int] | None:
        steps = 0
        if n == 2:
            m = target * inv_b2 % b1
            return [(target - m * b2) // b1, m] if m * b2 <= target else None
        stack: list[list[int]] = []  # [target, level, current remainder] for levels >= 4
        x, j = target, n
        while True:
            # Enter (x, j), j >= 3; x is a multiple of d_j.
            if (x, j) not in failed:
                top, dj, stride, inv, jump = levels[j]
                rest = x - (x // dj * inv % stride) * top
                if j > 3:
                    if rest >= 0:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(target)
                        stack.append([x, j, rest])
                        x, j = rest, j - 1
                        continue
                else:
                    # Strip a_3 and test each remainder against the pair.
                    while rest >= 0:
                        steps += 1
                        if steps > SEARCH_CAP:
                            raise _over_budget(target)
                        y = rest // g
                        m = y * inv_b2 % b1
                        if m * b2 <= y:
                            coeffs = [(y - m * b2) // b1, m, (x - rest) // top]
                            for fx, fj, frest in reversed(stack):
                                coeffs.append((fx - frest) // es[fj - 1])
                            return coeffs
                        rest -= jump
                failed.add((x, j))
            # (x, j) failed: move the deepest open level to its next remainder.
            while stack:
                frame = stack[-1]
                fx, fj, frest = frame
                frest -= levels[fj][4]
                if frest >= 0:
                    steps += 1
                    if steps > SEARCH_CAP:
                        raise _over_budget(target)
                    frame[2] = frest
                    x, j = frest, fj - 1
                    break
                failed.add((fx, fj))
                stack.pop()
            else:
                return None

    return search


def _over_budget(target: int) -> ResourceLimitError:
    return ResourceLimitError(f"membership search for {target} exceeds {SEARCH_CAP} steps")
