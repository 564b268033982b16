"""Deterministic random bases for cross-validation runs.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX constants, written out here so the sequence is reproducible on any
machine and any Python version (the stdlib random module makes no such
cross-version promise):

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

randint draws from the high 32 bits, which are the well-mixed ones in an
LCG.  Basis sampling: pick an arity uniformly in [2, max_arity], draw
distinct elements uniformly in [2, max_element] until that many are
collected, and redraw the whole set (same arity) until the gcd is 1.
"""

from __future__ import annotations

from typing import Iterator

from .basis import Basis, gcd_all, normalize_basis
from .errors import InvalidInputError

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """Minimal deterministic PRNG; state is a single 64-bit integer."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias < 2^-20 for small spans)."""
        if lo > hi:
            raise InvalidInputError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + (self.next_u64() >> 32) % span


def random_basis(rng: Lcg, *, max_element: int = 200, max_arity: int = 5) -> Basis:
    """Draw one valid basis: distinct elements in [2, max_element], gcd 1."""
    if max_element < 3:
        raise InvalidInputError(f"max_element must be >= 3, got {max_element}")
    if not 2 <= max_arity <= max_element - 1:
        raise InvalidInputError(
            f"max_arity must be in [2, max_element - 1], got {max_arity}"
        )
    arity = rng.randint(2, max_arity)
    while True:
        elems: set[int] = set()
        while len(elems) < arity:
            elems.add(rng.randint(2, max_element))
        if gcd_all(elems) == 1:
            return normalize_basis(elems)


def random_bases(
    seed: int, count: int, *, max_element: int = 200, max_arity: int = 5
) -> Iterator[Basis]:
    """count bases from one seeded stream: the bases verify --seed draws."""
    if count < 0:
        raise InvalidInputError(f"count must be nonnegative, got {count}")
    rng = Lcg(seed)
    for _ in range(count):
        yield random_basis(rng, max_element=max_element, max_arity=max_arity)
