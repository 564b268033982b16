"""Validated generator bases and representation witnesses.

A basis is a strictly increasing tuple of at least two positive integers
with overall gcd 1.  Under that condition the numerical semigroup
{sum(k_i * a_i) : k_i >= 0} has a finite complement, so the Frobenius
number is well defined.  If 1 is an element, everything is representable
and the conventional answer is -1.  scan_upper_bound gives Brauer's
telescoping bound above which everything is representable; every solver
and table in the package is sized or budgeted by it.

Both dataclasses here are frozen: instances are immutable, hashable, and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from typing import Iterable, Iterator

from .errors import ArityError, InvalidElementError, InvalidInputError, NonCoprimeError


def gcd_all(values: Iterable[int]) -> int:
    """Greatest common divisor of any number of integers (0 for empty)."""
    return reduce(gcd, values, 0)


@dataclass(frozen=True)
class Basis:
    """Strictly increasing coprime generators.

    The constructor enforces every invariant; use normalize_basis to build
    one from unsorted or duplicated raw input.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.elements:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidElementError(f"basis elements must be positive integers, got {v!r}")
        if len(self.elements) < 2:
            raise ArityError(f"need at least two distinct elements, got {len(self.elements)}")
        for a, b in zip(self.elements, self.elements[1:]):
            if a >= b:
                raise InvalidElementError(
                    f"elements must be strictly increasing, got {a} before {b}"
                )
        if gcd_all(self.elements) != 1:
            raise NonCoprimeError(
                f"gcd of {list(self.elements)} is {gcd_all(self.elements)}, must be 1"
            )

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def contains_one(self) -> bool:
        return self.elements[0] == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def normalize_basis(raw: Iterable[int]) -> Basis:
    """Sort, deduplicate, and validate raw integers into a Basis.

    Idempotent: normalizing a basis's own elements returns an equal Basis.
    """
    return Basis(tuple(sorted(set(raw))))


def scan_upper_bound(basis: Basis) -> int:
    """Brauer's telescoping bound: every integer above it is representable.

    With d_i = gcd of the first i generators, the bound is
    sum(a_i * d_{i-1} // d_i for i >= 2) - sum(a_i).  Each generator can
    only shrink the running gcd, and once it reaches 1 the remaining
    ratios are 1, so for a coprime leading pair this collapses to the
    familiar a1*a2 - a1 - a2.  Unlike that two-generator product, it
    stays valid when a prefix of the basis shares a common factor.
    Returns -1 when 1 is a generator (every positive integer reachable).
    """
    es = basis.elements
    d = es[0]
    total = es[0]
    bound = 0
    for a in es[1:]:
        nd = gcd(d, a)
        bound += a * (d // nd)
        total += a
        d = nd
    return bound - total


@dataclass(frozen=True)
class RepresentationWitness:
    """Nonnegative coefficients proving one integer representable.

    The constructor checks the arithmetic, so a witness that exists is
    always valid: sum(c * a for c, a in zip(coefficients, basis)) == target.
    """

    basis: Basis
    coefficients: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.basis.n:
            raise InvalidInputError(
                f"{len(self.coefficients)} coefficients for {self.basis.n} elements"
            )
        if any(c < 0 for c in self.coefficients):
            raise InvalidInputError("witness coefficients must be nonnegative")
        total = sum(c * a for c, a in zip(self.coefficients, self.basis.elements))
        if total != self.target:
            raise InvalidInputError(f"witness sums to {total}, not {self.target}")

    def __str__(self) -> str:
        terms = " + ".join(
            f"{c}*{a}" for c, a in zip(self.coefficients, self.basis.elements)
        )
        return f"{self.target} = {terms}"
