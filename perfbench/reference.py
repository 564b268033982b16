"""Independent reference answers: shortest paths over residues mod a1.

For a basis a1 < a2 < ... < an, w[r] is the smallest number that is a
nonnegative combination of the generators and is congruent to r mod a1
(Nijenhuis, "A minimal-path algorithm for the money changing problem",
Amer. Math. Monthly 86, 1979).  Generators are inserted one at a time by
the round-robin update of Boecker and Liptak, "A fast and simple
algorithm for the money changing problem", Algorithmica 48, 2007.  Then

- t >= 0 is representable iff t >= w[t mod a1];
- the Frobenius number is max(w) - a1 (-1 when a1 == 1);
- a residue never reached means the gcd so far exceeds 1;
- a generator is redundant iff w[e mod a1] <= e before it is inserted.

This module shares no code with the frobenius package, so agreement
between the two is evidence about both.
"""

from __future__ import annotations

from math import gcd

UNREACHED = -1


class ResidueTable:
    """Residue table of a basis, with the facts the benchmark checks."""

    def __init__(self, elements) -> None:
        es = sorted(set(elements))
        if len(es) < 2 or es[0] < 1:
            raise ValueError(f"need two or more distinct positive elements, got {elements!r}")
        self.elements = tuple(es)
        m = es[0]
        self.w = [UNREACHED] * m
        self.w[0] = 0
        self.dependent = [False]
        chain = []
        for e in es[1:]:
            self.dependent.append(self.contains(e))
            _insert(self.w, e)
            chain.append(self._frobenius_or_none())
        self.chain = tuple(chain)

    def contains(self, t: int) -> bool:
        """True iff t is a nonnegative combination of the generators seen so far."""
        if t < 0:
            return False
        wr = self.w[t % len(self.w)]
        return wr != UNREACHED and wr <= t

    @property
    def frobenius(self) -> int:
        return self.chain[-1]

    @property
    def independent(self) -> bool:
        return not any(self.dependent)

    def _frobenius_or_none(self) -> int | None:
        if UNREACHED in self.w:
            return None
        return max(self.w) - len(self.w)


def _insert(w: list[int], a: int) -> None:
    """Round-robin update of w for one more generator a."""
    m = len(w)
    step = a % m
    cycles = gcd(step, m)
    length = m // cycles
    for start in range(cycles):
        # Walk the cycle start, start+step, ... from its smallest reached
        # entry; one pass then settles every entry of the cycle.
        best, p = UNREACHED, start
        q = start
        for _ in range(length):
            if w[q] != UNREACHED and (best == UNREACHED or w[q] < best):
                best, p = w[q], q
            q = (q + step) % m
        if best == UNREACHED:
            continue
        n = best
        for _ in range(length - 1):
            n += a
            p = (p + step) % m
            if w[p] == UNREACHED or w[p] > n:
                w[p] = n
            else:
                n = w[p]
