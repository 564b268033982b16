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
Monthly 86, 1979).  So the first pass sieves to L = _FIRST_LIMIT, or
higher when a count of residues shows that no smaller L can end in a1
set bits (_least_window_end), and each later pass to 2L, until the top
a1 bits are all set.  L need not reach a_n: a generator above L cannot
change a bit below it, and the sieve stops at the first such generator.
The top a1 bits still fit: when a1 > _FIRST_LIMIT, _least_window_end
is at least a2.  Sieving a table of L bits costs about L/64 machine
words per shift, so the passes before the last at most double the cost.
L never passes U + a1, where U is Brauer's telescoping bound
(scan_upper_bound in the basis module): every integer above U is
representable, so a table that long always ends in a1 set bits, and a
pass costs no more than a sieve to U.  A table needs about F + a1 bits,
not U, which is far smaller on wide bases: at a1 = 10^5 with 200
generators U is about 10^10, beyond DEFAULT_LIMIT_CAP, where F + a1 is
a few million.

prefix_table reads every prefix's Frobenius number and each generator's
redundancy off one ascending sieve whose limit shrinks with the prefix
Frobenius numbers (the bounds module docstring derives its window).  It
and the default solver share one cost rule, _table_budget: a sieve is
run while _pass_cost projects it within the residue table's cost, and
the table is built otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .basis import Basis, scan_upper_bound
from .closed_forms import frobenius_three
from .errors import InvalidInputError, ResourceLimitError
from .residue import ResidueTable, residue_table

# A table this size is ~125 MB of bits; anything larger is a mistake, not a
# query.  The descent and sequential scans are held to the same bound.
DEFAULT_LIMIT_CAP = 10**9

# The first limit of a grown table; only _least_window_end raises it, not
# a_n.  Below a few thousand bits the interpreter's cost per shift
# outweighs the bits shifted: starting from 2 * a_n lost to one sieve to U
# on small bases (6.5 against 4.9 us per basis with elements up to 60,
# Python 3.11 on an x86-64 server).
_FIRST_LIMIT = 2**12

# Sieve words (_pass_cost) taken to cost as much as one step of the
# residue table (one residue of one generator's round-robin insertion).
# Measured (Python 3.11, x86-64 server): 230-330 ns per table step, and
# 4-7 ns per projected word on sieves of 10^5 bits and up, 9-10 ns on
# 4096 bits; the ratio ran from 30 to 87, about 60 on large tables.  At
# 40 the sieve is kept only where it is projected to be clearly cheaper,
# and the passes run before it is given up cost at most about two thirds
# of the table's time.
_WORDS_PER_TABLE_STEP = 40


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
        digits = bin(self.holes())[:1:-1]  # digits[i] is bit i
        return tuple(i for i, bit in enumerate(digits) if bit == "1")


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
        if not bits >> a & 1:  # else a is a sum of smaller generators
            bits = _close(bits, a, mask)
    return RepresentabilityTable(limit=limit, bits=bits)


def _close(bits: int, a: int, mask: int) -> int:
    """bits closed under adding a, below the limit that mask (all ones) ends at."""
    limit = mask.bit_length() - 1
    step = a
    while step <= limit:
        bits |= (bits << step) & mask
        step <<= 1
    return bits


def _pass_cost(basis: Basis, limit: int) -> int:
    """Projected machine words one sieve pass to limit shifts.

    Each generator takes about log2(limit / a1) shifts of limit/64 words.
    """
    return ((limit >> 6) + 1) * basis.n * (limit // basis.elements[0]).bit_length()


def _table_budget(basis: Basis) -> int:
    """The residue table's cost, a1 * (n - 1) steps, in _pass_cost words.

    A sieve is run only while its projected words stay within it.
    """
    return basis.elements[0] * (basis.n - 1) * _WORDS_PER_TABLE_STEP


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
    limit = min(top, _FIRST_LIMIT)
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


def prefix_table(basis: Basis) -> ResidueTable:
    """Each prefix's Frobenius number and each generator's redundancy.

    For a pair both come from its closed form: F = a1*a2 - a1 - a2, and
    a2 is redundant exactly when a1 = 1, since the pair is coprime.  On
    four or more generators both are read off one ascending sieve whose
    limit shrinks with the prefix Frobenius numbers (the window facts
    are derived in the bounds module docstring), when _pass_cost
    projects it within the residue table's budget.  Otherwise, and on
    three generators, they come from the residue table, which raises
    ResourceLimitError over its caps.
    """
    if basis.n == 2:
        a1, a2 = basis.elements
        return ResidueTable((a1 * a2 - a1 - a2,), (False, a1 == 1))
    table = _shrinking_sieve(basis) if basis.n >= 4 else None
    return residue_table(basis) if table is None else table


def _shrinking_sieve(basis: Basis) -> ResidueTable | None:
    """prefix_table's sieve, or None when it is projected to cost more than the table.

    The limit starts at F_m + a1, m the shortest prefix of three or more
    generators with gcd 1, whose F comes from Rødseth's formula when m is
    3 and otherwise from a budgeted grown table.  Not two: the pair's F
    is about a1 * a2, far above F_3 on wide bases (10^10 against 10^7 at
    a1 = 10^5 with 200 generators).  Each generator that is neither above
    the limit nor already marked is sieved in; from prefix m + 1 on, the
    highest hole is then that prefix's F and the limit is cut to it plus
    a1.  The pair's entry comes from its closed form.
    """
    es = basis.elements
    a1, a2 = es[0], es[1]
    budget = _table_budget(basis)
    m, d = 3, gcd(*es[:3])
    while d > 1:
        d = gcd(d, es[m])
        m += 1
    if m == 3:
        f = frobenius_three(*es[:3])
    else:
        grown = _grown_table(Basis(es[:m]), budget=budget)
        if grown is None:
            return None
        f = grown.holes().bit_length() - 1
    limit = f + a1
    if limit > DEFAULT_LIMIT_CAP or _pass_cost(basis, limit) > budget:
        return None
    mask = (1 << (limit + 1)) - 1
    bits = _close(1, a1, mask)
    chain: list[int | None] = [a1 * a2 - a1 - a2 if gcd(a1, a2) == 1 else None]
    chain += [None] * (m - 3)
    redundant = [False]
    for k, e in enumerate(es[1:], 2):
        skip = e > limit or bool(bits >> e & 1)
        redundant.append(skip)
        if not skip:
            bits = _close(bits, e, mask)
            if k > m:
                f = (~bits & mask).bit_length() - 1
                limit = f + a1
                mask = (1 << (limit + 1)) - 1
                bits &= mask
        if k >= m:
            chain.append(f)
    return ResidueTable(tuple(chain), tuple(redundant))


def is_independent(basis: Basis) -> bool:
    """True iff no element is representable over the remaining elements.

    A dependent (redundant) generator never changes the Frobenius number,
    but some classical bounds silently assume it isn't there.  Read off
    prefix_table, so it raises ResourceLimitError only where the residue
    table it falls back to is over its caps.
    """
    return prefix_table(basis).independent


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
