"""Frobenius number solvers and the algorithm dispatcher.

Four solvers give the same answer by different means:

- "residue" works over residues mod a1: for three generators by
  Rødseth's formula (closed_forms.frobenius_three), in O(log a1) steps
  with no size cap; otherwise it reads the answer off the residue table
  (residue module), O(n * a1) and independent of the scan bound;
- "paper" is the paper's descent: frobenius_descent scans candidates
  downward from scan_upper_bound (the telescoping gcd bound, a1*a2 - a1 -
  a2 when the two smallest generators are coprime) and returns the first
  target the membership test rejects.  If the whole scan range
  [a1 + 1, bound] is representable, the answer is a1 - 1: integers in
  [1, a1 - 1] are never representable (too small), and representability
  of a1 + 1 .. a1 + a1 extends upward by adding copies of a1.  A witness
  for t with c copies of a1 also proves t - k*a1 for every k <= c, so
  the scan keeps, per residue class mod a1, the least candidate proved
  so far (a floor) and searches only the candidates below their class's
  floor (the residue classes of Nijenhuis's minimal-path table, Amer.
  Math. Monthly 86, 1979);
- "oracle" reads the highest gap off the grown sieve table (oracle
  module), which needs about F + a1 bits;
- "sequential" is the floor-function indicator scan (sequential module).

Descent and sequential scan up to scan_upper_bound candidates, so they
refuse (ResourceLimitError) a bound above the sieve's DEFAULT_LIMIT_CAP,
the same cap that bounds the bits of a sieve table.

frobenius() picks the algorithm and wraps the answer in a FrobeniusResult.
Two-element bases short-circuit to the closed form a1*a2 - a1 - a2, and a
basis containing 1 short-circuits to -1, whatever algorithm was asked for.
By default a triple takes Rødseth's formula.  On four or more generators
the default chooses by cost: the residue table takes about a1 * (n - 1)
steps of a Python loop, a sieve pass to L bits about L/64 machine words
per shift at C speed, and _WORDS_PER_TABLE_STEP converts between them.
The sieve grows while its passes, the next one included, are projected
to cost less than the table; otherwise the table is built.  So wide
bases (the table's cost grows with n, the sieve's mostly with F) take
the sieve, and few large generators, whose F grows like a1^(n/(n-1)),
take the table.  The result is tagged by what ran: "oracle" for the
sieve, "residue" for the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import Basis, scan_upper_bound
from .closed_forms import frobenius_three
from .errors import InvalidInputError, ResourceLimitError
from .oracle import DEFAULT_LIMIT_CAP, _grown_table, frobenius_oracle
from .representability import _searcher
from .residue import residue_table
from .sequential import delta_scan

ALGORITHM_TAGS = ("residue", "paper-descent", "oracle", "sequential", "closed-form")

# Sieve words (oracle._pass_cost) taken to cost as much as one step of the
# residue table (one residue of one generator's round-robin insertion).
# Measured (Python 3.11, x86-64 server): 230-330 ns per table step, and
# 4-7 ns per projected word on sieves of 10^5 bits and up, 9-10 ns on
# 4096 bits; the ratio ran from 30 to 87, about 60 on large tables.  At
# 40 the sieve is kept only where it is projected to be clearly cheaper,
# and the passes run before it is given up cost at most about two thirds
# of the table's time.
_WORDS_PER_TABLE_STEP = 40


@dataclass(frozen=True)
class FrobeniusResult:
    """Answer plus enough context to audit how it was produced.

    value is -1 exactly when 1 is a generator; otherwise it is the largest
    integer with no nonnegative representation.  candidates_scanned counts
    the candidates a scanning solver tested ("paper-descent", "sequential");
    it is 0 for the residue table, the sieve and closed forms, which scan
    nothing.
    """

    value: int
    upper_bound_used: int
    candidates_scanned: int
    algorithm: str

    def __post_init__(self) -> None:
        if self.value < -1:
            raise InvalidInputError(f"value must be >= -1, got {self.value}")
        if self.value > self.upper_bound_used:
            raise InvalidInputError(
                f"value {self.value} exceeds its own upper bound {self.upper_bound_used}"
            )
        if self.candidates_scanned < 0:
            raise InvalidInputError("candidates_scanned must be nonnegative")
        if self.algorithm not in ALGORITHM_TAGS:
            raise InvalidInputError(f"unknown algorithm tag {self.algorithm!r}")


def _scan_bound(basis: Basis) -> int:
    """scan_upper_bound, refused above DEFAULT_LIMIT_CAP candidates."""
    upper = scan_upper_bound(basis)
    if upper > DEFAULT_LIMIT_CAP:
        raise ResourceLimitError(f"scan bound {upper} exceeds cap {DEFAULT_LIMIT_CAP}")
    return upper


def frobenius_descent(basis: Basis) -> FrobeniusResult:
    """Downward scan from scan_upper_bound using the membership test.

    One membership search (representability module), with its per-basis
    data and the memo of failures it owns, serves the whole scan.  Its
    witness carries the most copies of a1 given the counts of the larger
    elements, coeffs[0] = c, so the candidate minus c*a1 is representable
    too: it becomes the floor of the candidate's residue class mod a1,
    and every later candidate at or above its class's floor counts as
    scanned without a search.  The floors are a dict with at most one
    entry per search, never an a1-long list.
    """
    upper = _scan_bound(basis)
    if upper < 1:
        return FrobeniusResult(-1, upper, 0, "paper-descent")
    a1 = basis.elements[0]
    search = _searcher(basis)
    floors: dict[int, int] = {}  # residue mod a1 -> least candidate proved representable
    for a in range(upper, a1, -1):
        r = a % a1
        least = floors.get(r)
        if least is not None and a >= least:
            continue
        coeffs = search(a)
        if coeffs is None:
            return FrobeniusResult(a, upper, upper - a + 1, "paper-descent")
        floors[r] = a - coeffs[0] * a1
    return FrobeniusResult(a1 - 1, upper, max(upper - a1, 0), "paper-descent")


def frobenius_sequential(basis: Basis) -> FrobeniusResult:
    """Solve via the floor-function indicator scan (see the sequential module)."""
    upper = _scan_bound(basis)
    if upper < 1:
        return FrobeniusResult(-1, upper, 0, "sequential")
    value, scanned = delta_scan(basis)
    return FrobeniusResult(value, upper, scanned, "sequential")


def frobenius(basis: Basis, algorithm: str | None = None) -> FrobeniusResult:
    """Frobenius number of a valid basis, by the named algorithm.

    algorithm is one of "residue" (Rødseth's formula for three
    generators, else the residue table), "paper" (descent scan),
    "oracle" (grown sieve table), or "sequential" (floor-function
    indicator scan).  The default, None, takes Rødseth's formula for
    three generators; on four or more it grows the sieve while its
    projected cost stays below the residue table's, a1 * (n - 1) steps,
    and builds the table otherwise.  The result's tag says which ran:
    "oracle" for the sieve, "residue" for the table.
    """
    if algorithm not in (None, "residue", "paper", "oracle", "sequential"):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    if basis.contains_one:
        return FrobeniusResult(-1, -1, 0, "closed-form")
    upper = scan_upper_bound(basis)
    if basis.n == 2:
        return FrobeniusResult(upper, upper, 0, "closed-form")
    if algorithm in (None, "residue"):
        if basis.n == 3:
            return FrobeniusResult(frobenius_three(*basis.elements), upper, 0, "residue")
        if algorithm is None:
            budget = basis.elements[0] * (basis.n - 1) * _WORDS_PER_TABLE_STEP
            table = _grown_table(basis, budget=budget)
            if table is not None:
                value = table.holes().bit_length() - 1
                return FrobeniusResult(value, upper, 0, "oracle")
        return FrobeniusResult(residue_table(basis).frobenius, upper, 0, "residue")
    if algorithm == "oracle":
        return FrobeniusResult(frobenius_oracle(basis), upper, 0, "oracle")
    if algorithm == "sequential":
        return frobenius_sequential(basis)
    return frobenius_descent(basis)
