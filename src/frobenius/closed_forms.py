"""Closed-form Frobenius numbers for structured bases.

Three families admit direct formulas: two coprime generators, arithmetic
progressions, and Fibonacci triples {F_i, F_{i+2}, F_{i+k}}.  Each function
validates that its input really is in the family and raises otherwise;
the Fibonacci formula additionally refuses inputs on which its second
branch would be used, because that branch does not reproduce sieve values
(see OutOfEnvelopeError).  Beyond these families, every basis of three
generators is served by Rødseth's formula (frobenius_three), in O(log a1)
steps and with no cap on the size of the elements; it is the default
solver for n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidInputError, NonCoprimeError, OutOfEnvelopeError


def fibonacci(n: int) -> int:
    """n-th Fibonacci number with F_1 = F_2 = 1."""
    if n < 1:
        raise InvalidInputError(f"Fibonacci index must be >= 1, got {n}")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def frobenius_two(a: int, b: int) -> int:
    """a*b - a - b for coprime 2 <= a < b."""
    if not 2 <= a < b:
        raise InvalidInputError(f"need 2 <= a < b, got {a}, {b}")
    if gcd(a, b) != 1:
        raise NonCoprimeError(f"gcd({a}, {b}) = {gcd(a, b)}, must be 1")
    return a * b - a - b


def frobenius_arithmetic(a: int, d: int, k: int) -> int:
    """Frobenius number of the progression {a, a+d, ..., a+k*d}.

    Requires a >= 2, d >= 1, k >= 1, gcd(a, d) = 1.  The value is
    ((a - 2) // k) * a + (a - 1) * d.
    """
    if a < 2:
        raise InvalidInputError(f"first term must be >= 2, got {a}")
    if d < 1 or k < 1:
        raise InvalidInputError(f"need step >= 1 and count >= 1, got d={d}, k={k}")
    if gcd(a, d) != 1:
        raise NonCoprimeError(f"gcd({a}, {d}) = {gcd(a, d)}, must be 1")
    return ((a - 2) // k) * a + (a - 1) * d


def frobenius_three(a1: int, a2: int, a3: int) -> int:
    """Frobenius number of three positive integers with gcd 1, in any order.

    Johnson's reduction (Canad. J. Math. 12, 1960) strips the common
    factor d of each pair in turn, g(a, b, c) = d * g(a/d, b/d, c) +
    (d - 1) * c, which leaves a pairwise coprime triple; a reduced
    element 1 means g = -1 there.  Otherwise Rødseth's formula ("On a
    linear Diophantine problem of Frobenius", J. reine angew. Math. 301,
    1978) works over residues mod a, with the ceiling continued fraction
    of a / s0, s0 = c * b^-1 mod a:

        r[-1] = a, r[0] = s0, r[i+1] = q * r[i] - r[i-1], q = ceil(r[i-1] / r[i])
        p[-1] = 0, p[0] = 1,  p[i+1] = q * p[i] - p[i-1]

    For the first v >= -1 with r[v+1] / p[v+1] <= c / b,
    g = -a + b * (r[v] - 1) + c * (p[v+1] - 1) - min(b * r[v+1], c * p[v]).
    The search starts at v = -1 (r/p = infinity), the case where c is
    representable by a and b; starting at v = 0 is wrong, on {2, 3, 5}
    for one.  A run of quotients q = 2 moves r and p by constant steps,
    so it is taken in one step; then every two steps at least halve r,
    and the loop makes O(log a) steps.  The formula holds for the reduced
    triple in any order; sorting it, a < b < c, makes a the smallest.
    """
    es = [a1, a2, a3]
    if any(e < 1 for e in es):
        raise InvalidInputError(f"elements must be positive, got {es}")
    if gcd(*es) != 1:
        raise NonCoprimeError(f"gcd{tuple(es)} = {gcd(*es)}, must be 1")
    scale, shift = 1, 0  # g(a1, a2, a3) = scale * g(reduced triple) + shift
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        d = gcd(es[i], es[j])
        es[i] //= d
        es[j] //= d
        shift += scale * (d - 1) * es[k]
        scale *= d
    a, b, c = sorted(es)
    if a == 1:
        return shift - scale
    r0, p0, r1, p1 = a, 0, c * pow(b, -1, a) % a, 1  # (r, p) at v and v + 1
    while r1 * b > c * p1:
        dr, dp = r0 - r1, p1 - p0
        if r1 >= dr:
            # q stays 2 for r1 // dr steps; take them all, or stop at the index sought.
            j = min(r1 // dr, -(-(r1 * b - c * p1) // (dr * b + dp * c)))
            r0, p0, r1, p1 = r1 - (j - 1) * dr, p1 + (j - 1) * dp, r1 - j * dr, p1 + j * dp
        else:
            q = -(-r0 // r1)
            r0, p0, r1, p1 = r1, p1, q * r1 - r0, q * p1 - p0
    return scale * (-a + b * (r0 - 1) + c * (p1 - 1) - min(b * r1, c * p0)) + shift


@dataclass(frozen=True)
class FibonacciTripleParams:
    """Indices selecting the basis {F_i, F_{i+2}, F_{i+k}}."""

    i: int
    k: int

    def __post_init__(self) -> None:
        if self.i < 3 or self.k < 3:
            raise InvalidInputError(
                f"need i >= 3 and k >= 3, got i={self.i}, k={self.k}"
            )


def fibonacci_triple_elements(params: FibonacciTripleParams) -> tuple[int, int, int]:
    """The actual generators (F_i, F_{i+2}, F_{i+k})."""
    return (
        fibonacci(params.i),
        fibonacci(params.i + 2),
        fibonacci(params.i + params.k),
    )


def frobenius_fibonacci_triple(params: FibonacciTripleParams) -> int:
    """Closed form for {F_i, F_{i+2}, F_{i+k}} on its verified branch.

    With r = (F_i - 1) // F_k, the branch condition
    r == 0 or F_{k-2} * F_i < (F_i - r*F_k) * F_{i+2} selects the value
    (F_i - 1) * F_{i+2} - F_i * (r * F_{k-2} + 1), which matches the sieve
    on every tested grid point.  Inputs selecting the other branch raise
    OutOfEnvelopeError: the printed value for that branch disagrees with
    the sieve everywhere it was checked, so returning it would be wrong.
    """
    fi = fibonacci(params.i)
    fi2 = fibonacci(params.i + 2)
    fk = fibonacci(params.k)
    fk2 = fibonacci(params.k - 2)
    r = (fi - 1) // fk
    if r == 0 or fk2 * fi < (fi - r * fk) * fi2:
        return (fi - 1) * fi2 - fi * (r * fk2 + 1)
    raise OutOfEnvelopeError(
        f"i={params.i}, k={params.k} selects the unverified branch; "
        "use a sieve or descent solver for this basis"
    )
