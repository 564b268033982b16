"""Independent ground truth via a representability sieve.

The sieve marks every representable integer in [0, limit] by repeated
shifted-OR over a Python bigint: adding generator a maps bit i to bit
i + a, and doubling the shift amount closes the set under any multiple
of a in O(log limit) bigint operations per generator.  Generators are
added in ascending order, so when a's own bit is already set, a is a sum
of smaller generators: it is redundant at any limit and its shifts are
skipped.  The sieve shares nothing with the residue table, the descent
solver or the floor-function form, so agreement between them is
meaningful evidence.

The table is grown until it proves its own answer.  Once a1 consecutive
integers ending at the limit L are representable, so is every integer
above L (add copies of a1), and the Frobenius number is the highest hole
below L: this is the fact behind Nijenhuis's residue table (Amer. Math.
Monthly 86, 1979).  So the first pass sieves to
L = max(2 * a_n, _FIRST_LIMIT), or higher when a count of residues
shows that no smaller L can end in a1 set bits (_least_window_end), and
each later pass to 2L, until the top a1 bits are all set.  Sieving a table of L bits costs about L/64 machine
words per shift, so the passes before the last at most double the cost.
L never passes U + a1, where U is Brauer's telescoping bound
(scan_upper_bound in the basis module): every integer above U is
representable, so a table that long always ends in a1 set bits, and a
pass costs no more than a sieve to U.  A table needs about F + a1 bits,
not U, which is far smaller on wide bases: at a1 = 10^5 with 200
generators U is about 10^10, beyond DEFAULT_LIMIT_CAP, where F + a1 is
a few million.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .basis import Basis, scan_upper_bound
from .errors import InvalidInputError, ResourceLimitError
# Not used here: perfbench/tracer.py resolves oracle.is_independent by name.
from .residue import is_independent  # noqa: F401

# A table this size is ~125 MB of bits; anything larger is a mistake, not a
# query.  The descent and sequential scans are held to the same bound.
DEFAULT_LIMIT_CAP = 10**9

# The least first limit of a grown table.  Below a few thousand bits the
# interpreter's cost per shift outweighs the bits shifted, and restarting
# from 2 * a_n lost to one sieve to U on small bases (6.5 against 4.9 us
# per basis with elements up to 60, Python 3.11 on an x86-64 server).
_FIRST_LIMIT = 2**12


@dataclass(frozen=True)
class RepresentabilityTable:
    """Bit-packed answers for every target in [0, limit]."""

    limit: int
    bits: int

    def __getitem__(self, a: int) -> bool:
        if not 0 <= a <= self.limit:
            raise InvalidInputError(f"target {a} outside table range [0, {self.limit}]")
        return bool(self.bits >> a & 1)

    def holes(self) -> int:
        """Bit mask of the non-representable integers in the table."""
        return ~self.bits & ((1 << (self.limit + 1)) - 1)

    def gaps(self) -> tuple[int, ...]:
        """All non-representable integers in the table, ascending."""
        hole = self.holes()
        out = []
        while hole:
            low = hole & -hole
            out.append(low.bit_length() - 1)
            hole ^= low
        return tuple(out)


def sieve(basis: Basis, limit: int) -> RepresentabilityTable:
    """Tabulate representability for all targets in [0, limit], limit <= DEFAULT_LIMIT_CAP."""
    if limit < 0:
        raise InvalidInputError(f"limit must be nonnegative, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ResourceLimitError(f"limit {limit} exceeds cap {DEFAULT_LIMIT_CAP}")
    mask = (1 << (limit + 1)) - 1
    bits = 1  # 0 is the empty sum
    for a in basis:
        if a > limit:
            break
        if bits >> a & 1:
            continue  # a sum of smaller generators
        step = a
        while step <= limit:
            bits |= (bits << step) & mask
            step <<= 1
    return RepresentabilityTable(limit=limit, bits=bits)


def _pass_cost(basis: Basis, limit: int) -> int:
    """Projected machine words one sieve pass to limit shifts.

    Each generator takes about log2(limit / a1) shifts of limit/64 words.
    """
    return ((limit >> 6) + 1) * basis.n * (limit // basis.elements[0]).bit_length()


def _least_window_end(basis: Basis) -> int:
    """A limit below which the top a1 bits of a table cannot all be set.

    They are all set exactly when the limit is at least F + a1, the
    largest w[r] of Nijenhuis's table.  Sums of at most t generators
    other than a1 reach at most comb(t + n - 1, n - 1) residues mod a1,
    so while that count is below a1 some w[r] is at least (t + 1) * a2.
    """
    es = basis.elements
    a1, k = es[0], len(es) - 1
    lo, hi = 0, a1 - 1  # least t with comb(t + k, k) >= a1; t = a1 - 1 always is
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + k, k) >= a1:
            hi = mid
        else:
            lo = mid + 1
    return lo * es[1]


def _grown_table(basis: Basis, *, budget: int | None = None) -> RepresentabilityTable | None:
    """A sieve table whose top a1 bits are all set; see the module docstring.

    With a budget (in _pass_cost words), returns None instead of starting
    a pass that would take the words spent so far past the budget, or the
    limit past DEFAULT_LIMIT_CAP.  Without one, a pass over
    DEFAULT_LIMIT_CAP bits raises ResourceLimitError.
    """
    a1 = basis.elements[0]
    top = scan_upper_bound(basis) + a1
    limit = min(top, max(2 * basis.elements[-1], _FIRST_LIMIT))
    if limit < top:
        limit = min(top, max(limit, _least_window_end(basis)))
    spent = 0
    while True:
        if budget is not None:
            spent += _pass_cost(basis, limit)
            if spent > budget or limit > DEFAULT_LIMIT_CAP:
                return None
        table = sieve(basis, limit)
        if limit == top or table.bits >> (limit - a1 + 1) == (1 << a1) - 1:
            return table
        limit = min(2 * limit, top)


def frobenius_oracle(basis: Basis) -> int:
    """Largest non-representable integer, read off the grown sieve table.

    Returns -1 when every positive integer is representable (1 in basis).
    """
    return _grown_table(basis).holes().bit_length() - 1


def gaps(basis: Basis) -> tuple[int, ...]:
    """Every non-representable positive integer, ascending."""
    return _grown_table(basis).gaps()


def _sieve_witness(target: int, basis: Basis) -> tuple[int, ...] | None:
    """Coefficients of one representation of target, read off the grown table.

    A target above the table's limit L is first brought into its top a1
    bits, which are all set, by copies of a1.  The walk then subtracts,
    largest first, any generator whose remainder the table marks; a
    multiple of a1 is finished by copies of a1 alone.  None when the
    table marks the target as a hole.
    """
    table = _grown_table(basis)
    es = basis.elements
    a1 = es[0]
    copies = max(0, -(-(target - table.limit) // a1))
    x = target - copies * a1
    data = table.bits.to_bytes((table.limit >> 3) + 1, "little")

    def marked(v: int) -> bool:
        return bool(data[v >> 3] >> (v & 7) & 1)

    if not marked(x):
        return None
    coeffs = [0] * len(es)
    coeffs[0] = copies
    while x % a1:
        # x is representable and not a multiple of a1, so some other
        # generator occurs in its representations.
        i = next(i for i in range(len(es) - 1, 0, -1) if es[i] <= x and marked(x - es[i]))
        coeffs[i] += 1
        x -= es[i]
    coeffs[0] += x // a1
    return tuple(coeffs)
