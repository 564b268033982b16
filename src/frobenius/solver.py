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
  t - c*a1 is the least number proven in t's residue class mod a1 (the
  classes of Nijenhuis's minimal-path table, Amer. Math. Monthly 86,
  1979).  A candidate x is settled without a search when x - a is
  proven in its class for a larger generator a, since a representable
  number plus a generator is representable.  The walk is shared with
  the sequential scan;
- "oracle" reads the highest gap off the grown sieve table (oracle
  module), which needs about F + a1 bits;
- "sequential" is the floor-function indicator scan (sequential module).

That walk (sequential._descend) refuses (ResourceLimitError) a scan
bound above oracle.DEFAULT_LIMIT_CAP, the cap on a sieve table's bits,
and an a1 whose per-class state would pass the residue table's 128 MiB.

frobenius() picks the algorithm and wraps the answer in a FrobeniusResult.
Two-element bases short-circuit to the closed form a1*a2 - a1 - a2, and a
basis containing 1 short-circuits to -1, whatever algorithm was asked for.
By default a triple takes Rødseth's formula.  On four or more generators
the default chooses by cost: the residue table takes about a1 * (n - 1)
steps of a Python loop, a sieve pass to L bits about L/64 machine words
per shift at C speed, and oracle._table_budget converts between them.
The sieve grows while its passes, the next one included, are projected
to cost less than the table; otherwise the table is built.  So wide
bases (the table's cost grows with n, the sieve's mostly with F) take
the sieve, and few large generators, whose F grows like a1^(n/(n-1)),
take the table.  The result is tagged by what ran: "oracle" for the
sieve, "residue" for the table.

The scans' modules (representability, sequential) are imported by the
two scan solvers when they run, so the default path does not load them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import Basis, scan_upper_bound
from .closed_forms import frobenius_three
from .errors import InvalidInputError
from .oracle import _grown_table, _table_budget, frobenius_oracle
from .residue import residue_table

ALGORITHM_TAGS = ("residue", "paper-descent", "oracle", "sequential", "closed-form")

# The names frobenius() takes besides None, in compute --algorithm's order.
_ALGORITHM_NAMES = ("residue", "paper", "oracle", "sequential")


@dataclass(frozen=True)
class FrobeniusResult:
    """Answer plus enough context to audit how it was produced.

    value is -1 exactly when 1 is a generator; otherwise it is the largest
    integer with no nonnegative representation.  candidates_scanned counts
    the candidates a scanning solver passed over ("paper-descent",
    "sequential"), settled by a lookup or a test alike; it is 0 for the
    residue table, the sieve and closed forms, which scan nothing.
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


def frobenius_descent(basis: Basis) -> FrobeniusResult:
    """Downward scan from scan_upper_bound using the membership test.

    One membership search (representability module), with its per-basis
    data and the memo of failures it owns, serves the whole scan.  Its
    witness carries the most copies of a1 given the counts of the larger
    elements, coeffs[0] = c, so the candidate minus k*a1 is representable
    for k <= c.  The walk (sequential._descend) keeps the least number
    proven in each residue class, settles a candidate x without a search
    when x - a plus a larger generator a is already proven in its class,
    keeps each open class's next candidate in a heap of at most
    min(a1, U - a1) entries, and counts the candidates it passes over as
    scanned.
    """
    from . import representability, sequential

    a1 = basis.elements[0]
    search = representability._searcher(basis)

    def proof(a: int) -> int:
        coeffs = search(a)
        return -1 if coeffs is None else coeffs[0]

    upper, value, scanned = sequential._descend(basis, a1 + 1, proof)
    if upper < 1:
        return FrobeniusResult(-1, upper, 0, "paper-descent")
    return FrobeniusResult(a1 - 1 if value is None else value, upper, scanned, "paper-descent")


def frobenius_sequential(basis: Basis) -> FrobeniusResult:
    """Solve via the floor-function indicator scan (see the sequential module).

    Runs delta_scan's walk directly, which also returns its scan bound.
    """
    from . import sequential

    upper, value, scanned = sequential._descend(basis, 1, sequential._zero_test(basis))
    if upper < 1:
        return FrobeniusResult(-1, upper, 0, "sequential")
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
    if algorithm is not None and algorithm not in _ALGORITHM_NAMES:
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
            table = _grown_table(basis, budget=_table_budget(basis))
            if table is not None:
                value = table.holes().bit_length() - 1
                return FrobeniusResult(value, upper, 0, "oracle")
        return FrobeniusResult(residue_table(basis).frobenius, upper, 0, "residue")
    if algorithm == "oracle":
        return FrobeniusResult(frobenius_oracle(basis), upper, 0, "oracle")
    if algorithm == "sequential":
        return frobenius_sequential(basis)
    return frobenius_descent(basis)
