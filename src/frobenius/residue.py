"""Shortest paths over residues mod a1: the default solver's core for n >= 4.

For a basis a1 < a2 < ... < an, w[r] is the smallest representable
number congruent to r mod a1 (Nijenhuis, "A minimal-path algorithm for
the money changing problem", Amer. Math. Monthly 86, 1979).  Generators
are inserted in ascending order by the round-robin update of Boecker and
Liptak ("A fast and simple algorithm for the money changing problem",
Algorithmica 48, 2007): O(a1) per generator, O(n * a1) in all, whatever
the scan bound U.  One pass gives

- the Frobenius number max(w) - a1 (-1 when a1 == 1);
- the Frobenius number of every prefix, None while some residue is still
  unreached (the prefix gcd exceeds 1);
- each generator's redundancy: e is representable over the smaller
  generators iff w[e mod a1] <= e just before e is inserted.  A redundant
  generator leaves w unchanged, so its insertion is skipped.

Generators larger than e cannot help represent e, so redundancy over the
smaller generators is redundancy over all the others.

w is an array('q') of 64-bit entries, 8 bytes each.  A table of more than
RESIDUE_CAP entries (2**24 entries, 128 MiB) is refused, and so is a basis
with U + a1 >= 2**63 - 1: every entry is at most U + a1, and 2**63 - 1 is
kept free to mark unreached residues.  Both refusals raise
ResourceLimitError before anything is allocated.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd

from .basis import Basis, scan_upper_bound
from .errors import ResourceLimitError

RESIDUE_CAP = 2**24  # entries of w, 8 bytes each: 128 MiB

# Larger than every stored entry, which the U + a1 check guarantees.
_UNREACHED = 2**63 - 1


@dataclass(frozen=True)
class ResidueTable:
    """What one insertion pass over a basis yields; oracle.prefix_table's
    shrinking sieve yields the same.

    chain[k - 2] is the Frobenius number of the first k generators
    (k = 2..n), None while that prefix has gcd > 1.  redundant[i] is True
    when generator i is representable over the others.
    """

    chain: tuple[int | None, ...]
    redundant: tuple[bool, ...]

    @property
    def frobenius(self) -> int:
        return self.chain[-1]

    @property
    def independent(self) -> bool:
        return not any(self.redundant)


def residue_table(basis: Basis) -> ResidueTable:
    """Insert the generators of basis in ascending order; see the module docstring."""
    es = basis.elements
    m = es[0]
    if m > RESIDUE_CAP:
        raise ResourceLimitError(
            f"residue table of {m} entries ({8 * m} bytes) exceeds cap {RESIDUE_CAP} entries"
        )
    upper = scan_upper_bound(basis)
    if upper + m >= _UNREACHED:
        raise ResourceLimitError(
            f"residue table entries up to {upper + m} do not fit in 64 bits"
        )
    w = array("q", [_UNREACHED]) * m
    w[0] = 0
    top = max(w)
    chain: list[int | None] = []
    redundant = [False]
    for e in es[1:]:
        skip = w[e % m] <= e
        redundant.append(skip)
        if not skip:
            _insert(w, e)
            top = max(w)
        chain.append(None if top == _UNREACHED else top - m)
    return ResidueTable(tuple(chain), tuple(redundant))


def _insert(w: array, a: int) -> None:
    """Round-robin update of w for one more generator a.

    Adding a links residue r to r + a mod m, which splits the residues
    into gcd(a, m) cycles, the classes mod gcd(a, m).  Walking a cycle
    once from its smallest reached entry settles every entry of it.
    """
    m = len(w)
    d = gcd(a, m)
    steps = m // d - 1
    view = memoryview(w)  # strided views of it read a cycle without copying
    for start in range(d):
        n = min(view[start::d])
        if n == _UNREACHED:
            continue
        for _ in range(steps):
            n += a
            r = n % m
            v = w[r]
            if v < n:
                n = v
            else:
                w[r] = n
