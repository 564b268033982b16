"""Classical upper bounds on the Frobenius number, plus a prefix chain.

All four bounds are upper bounds on the answer when their preconditions
hold; none is sharp in general.

- erdos_graham: 2*a_{n-1}*(a_n // n) - a_n.  Always applicable; exact for
  two generators when the larger one is odd.
- selmer: 2*a_n*(a_1 // n) - a_1.  Vacuous when a_1 // n == 0, and also
  when the generating system is dependent (some element representable
  over the others): a redundant generator inflates n without shrinking
  the answer, and the bound can then dip below it (e.g. {4, 81, 104}:
  bound 204, answer 239).
- vitek: (a_2 - 1)*(a_n - 2)/2 - 1 as an exact rational.  Stated for
  three or more generators; the two-generator value is reported but
  flagged vacuous.
- beck: (sqrt(a1*a2*a3*(a1+a2+a3)) - a1 - a2 - a3) / 2 over the three
  smallest generators.  The square root is irrational in general, so the
  value returned is a rational upper approximation with error < 1e-6,
  erring upward so it is still a valid bound.  This is the only
  approximate quantity in the package.  Like selmer, it is vacuous for
  dependent systems: a redundant generator among the three smallest
  deflates the product (e.g. {23, 46, 269}: bound ~4735, answer 5895).

chain_bounds tracks the answer itself along basis prefixes: each prefix
adds a generator, so the sequence never increases.  The chain and the
independence behind both vacuity flags come from oracle.prefix_table,
once per report.  For a pair both come from its closed form, whatever its
size.  On four or more generators it reads both off one ascending sieve
when that is projected to cost less than the residue table (the default
solver's cost rule, oracle._table_budget), and builds the table
otherwise; on three generators it builds the table.
Write F_k for the Frobenius number of the first k generators.  The sieve
starts at the limit L = F_m + a1, m the shortest prefix of three or more
generators with gcd 1, and after each later prefix k whose generator it
adds, cuts L to F_k + a1.  Two facts make that one shrinking window
serve every prefix and every generator:

- Every independent generator e is at most F_j + a1, for every prefix j
  with gcd 1, and so at most L.  A sum for e - a1 can use only
  generators below e, and with one more a1 it would be a sum for e.  So
  e - a1 is a gap of every such prefix: e - a1 <= F_j.  Hence a generator
  above L is redundant, and one at or below L is redundant exactly when
  its bit is already set when it is reached in ascending order.
- After prefix k > m, F_k is the highest hole up to L.  A longer prefix
  has no more gaps, so F_k <= F_{k-1} = L - a1.  The bits up to L stay
  exact however L shrank: every partial sum of a sum up to L is itself
  up to L, and a generator above L cannot change them.

The entries before m come without the sieve: the pair's from a1*a2 - a1 -
a2, or None while the prefix gcd exceeds 1.

When the table is refused as too large too, the report still carries the
four bounds, with no chain (None) and selmer and beck flagged vacuous,
since independence is then unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .basis import Basis
from .errors import ArityError, ResourceLimitError
from .oracle import prefix_table
from .residue import ResidueTable

BOUND_NAMES = ("erdos-graham", "selmer", "vitek", "beck")

# Denominator of the rational square-root approximation used by bound_beck.
_SQRT_SCALE = 10**7


def bound_erdos_graham(basis: Basis) -> int:
    es, n = basis.elements, basis.n
    return 2 * es[-2] * (es[-1] // n) - es[-1]


def bound_selmer(basis: Basis) -> int:
    es, n = basis.elements, basis.n
    return 2 * es[-1] * (es[0] // n) - es[0]


def bound_vitek(basis: Basis) -> Fraction:
    es = basis.elements
    return Fraction((es[1] - 1) * (es[-1] - 2), 2) - 1


def bound_beck(basis: Basis) -> Fraction:
    """Rational upper approximation; requires at least three generators."""
    if basis.n < 3:
        raise ArityError("beck bound needs three generators")
    a1, a2, a3 = basis.elements[:3]
    s = a1 * a2 * a3 * (a1 + a2 + a3)
    # isqrt rounds down; +1 makes the approximation one-sided (upward).
    root_upper = Fraction(isqrt(s * _SQRT_SCALE * _SQRT_SCALE) + 1, _SQRT_SCALE)
    return (root_upper - (a1 + a2 + a3)) / 2


def chain_bounds(basis: Basis) -> tuple[int | None, ...]:
    """Frobenius number of each prefix (first k elements, k = 2..n).

    Entries are None while the prefix gcd exceeds 1 (no finite answer yet)
    and -1 when the prefix contains 1.  Once a prefix reaches gcd 1 every
    later entry is defined, and the defined entries never increase; the
    last one is the answer for the full basis.  Raises ResourceLimitError
    where prefix_table falls back to a residue table over its caps.
    """
    return prefix_table(basis).chain


@dataclass(frozen=True)
class BoundReport:
    """All four bounds, their vacuity flags, the prefix chain, and which
    non-vacuous bound is tightest (ties broken in BOUND_NAMES order).

    chain is None when prefix_table falls back to a residue table over its
    caps.
    """

    basis: Basis
    erdos_graham: int
    selmer: int
    selmer_vacuous: bool
    vitek: Fraction
    vitek_vacuous: bool
    beck: Fraction | None
    beck_vacuous: bool
    chain: tuple[int | None, ...] | None
    tightest: str


def bound_report(basis: Basis) -> BoundReport:
    eg = bound_erdos_graham(basis)
    sel = bound_selmer(basis)
    vit = bound_vitek(basis)
    vit_vac = basis.n < 3
    # Both selmer and beck go vacuous on dependent systems, and on systems
    # whose independence is unknown; one prefix table serves both and the chain.
    table: ResidueTable | None
    try:
        table = prefix_table(basis)
    except ResourceLimitError:
        table = None
    indep = table is not None and table.independent
    sel_vac = basis.elements[0] // basis.n == 0 or not indep
    beck: Fraction | None = None
    beck_vac = basis.n < 3 or not indep
    if basis.n >= 3:
        beck = bound_beck(basis)
    candidates: list[tuple[Fraction | int, str]] = [(eg, "erdos-graham")]
    if not sel_vac:
        candidates.append((sel, "selmer"))
    if not vit_vac:
        candidates.append((vit, "vitek"))
    if beck is not None and not beck_vac:
        candidates.append((beck, "beck"))
    tight = min(candidates, key=lambda pair: (pair[0], BOUND_NAMES.index(pair[1])))[1]
    return BoundReport(
        basis=basis,
        erdos_graham=eg,
        selmer=sel,
        selmer_vacuous=sel_vac,
        vitek=vit,
        vitek_vacuous=vit_vac,
        beck=beck,
        beck_vacuous=beck_vac,
        chain=None if table is None else table.chain,
        tightest=tight,
    )
