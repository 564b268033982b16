"""Independent ground truth via a representability sieve.

The sieve marks every representable integer in [0, limit] by repeated
shifted-OR over a Python bigint: adding generator a maps bit i to bit
i + a, and doubling the shift amount closes the set under any multiple
of a in O(log limit) bigint operations per generator.  The sieve shares
nothing with the residue table, the descent solver or the floor-function
form, so agreement between them is meaningful evidence.

Table sizes are capped by Brauer's telescoping bound (scan_upper_bound in
the basis module): every integer above it is representable, so a table
that long suffices to read off the Frobenius number and the full gap set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import Basis, scan_upper_bound
from .errors import InvalidInputError, ResourceLimitError
from .residue import is_independent  # noqa: F401  (still importable from here)

# A table this size is ~125 MB of bits; anything larger is a mistake, not a
# query.  The descent and sequential scans are held to the same bound.
DEFAULT_LIMIT_CAP = 10**9


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


def sieve(basis: Basis, limit: int, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> RepresentabilityTable:
    """Tabulate representability for all targets in [0, limit]."""
    if limit < 0:
        raise InvalidInputError(f"limit must be nonnegative, got {limit}")
    if limit > limit_cap:
        raise ResourceLimitError(f"limit {limit} exceeds cap {limit_cap}")
    mask = (1 << (limit + 1)) - 1
    bits = 1  # 0 is the empty sum
    for a in basis:
        if a > limit:
            continue
        step = a
        while step <= limit:
            bits |= (bits << step) & mask
            step <<= 1
    return RepresentabilityTable(limit=limit, bits=bits)


def frobenius_oracle(basis: Basis, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> int:
    """Largest non-representable integer, straight from the sieve table.

    Returns -1 when every positive integer is representable (1 in basis).
    """
    upper = scan_upper_bound(basis)
    if upper < 1:
        return -1
    return sieve(basis, upper, limit_cap=limit_cap).holes().bit_length() - 1


def gaps(basis: Basis, *, limit_cap: int = DEFAULT_LIMIT_CAP) -> tuple[int, ...]:
    """Every non-representable positive integer, ascending."""
    upper = scan_upper_bound(basis)
    if upper < 1:
        return ()
    return sieve(basis, upper, limit_cap=limit_cap).gaps()

