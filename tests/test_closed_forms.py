"""Closed forms against the sieve: pairs, triples, progressions, Fibonacci triples.

frobenius_three is checked against the conftest brute oracle, the sieve,
the residue table and the other closed forms, never against itself.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    RESIDUE_CAP,
    Basis,
    FibonacciTripleParams,
    InvalidInputError,
    NonCoprimeError,
    OutOfEnvelopeError,
    fibonacci,
    fibonacci_triple_elements,
    frobenius_arithmetic,
    frobenius_fibonacci_triple,
    frobenius_oracle,
    frobenius_three,
    frobenius_two,
    normalize_basis,
    residue_table,
)

from conftest import brute_frobenius


def test_fibonacci_start_and_growth():
    assert [fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(InvalidInputError):
        fibonacci(0)


def test_two_generator_examples():
    assert frobenius_two(3, 5) == 7
    assert frobenius_two(7, 11) == 59
    assert frobenius_two(2, 3) == 1


def test_two_generator_validation():
    with pytest.raises(NonCoprimeError):
        frobenius_two(4, 6)
    with pytest.raises(InvalidInputError):
        frobenius_two(5, 3)
    with pytest.raises(InvalidInputError):
        frobenius_two(1, 5)


@given(st.integers(2, 60), st.integers(2, 60))
def test_two_generator_matches_oracle(a, b):
    if a < b and gcd(a, b) == 1:
        assert frobenius_two(a, b) == frobenius_oracle(normalize_basis([a, b]))


def test_arithmetic_examples():
    assert frobenius_arithmetic(5, 1, 2) == 9  # {5, 6, 7}
    assert frobenius_arithmetic(2, 3, 1) == 3  # {2, 5}
    assert frobenius_arithmetic(3, 2, 2) == 4  # {3, 5, 7}


def test_arithmetic_validation():
    with pytest.raises(NonCoprimeError):
        frobenius_arithmetic(4, 6, 2)
    with pytest.raises(InvalidInputError):
        frobenius_arithmetic(1, 3, 2)
    with pytest.raises(InvalidInputError):
        frobenius_arithmetic(5, 0, 2)
    with pytest.raises(InvalidInputError):
        frobenius_arithmetic(5, 3, 0)


def test_arithmetic_matches_oracle_on_grid():
    for a in range(2, 13):
        for d in range(1, 6):
            if gcd(a, d) != 1:
                continue
            for k in range(1, 5):
                basis = normalize_basis([a + i * d for i in range(k + 1)])
                assert frobenius_arithmetic(a, d, k) == frobenius_oracle(basis), (a, d, k)


def test_fibonacci_triple_anchor_values():
    assert frobenius_fibonacci_triple(FibonacciTripleParams(i=4, k=3)) == 10
    assert frobenius_fibonacci_triple(FibonacciTripleParams(i=3, k=3)) == 3
    assert frobenius_fibonacci_triple(FibonacciTripleParams(i=5, k=4)) == 42


def test_fibonacci_triple_elements_helper():
    assert fibonacci_triple_elements(FibonacciTripleParams(i=4, k=3)) == (3, 8, 13)


def test_fibonacci_triple_grid_matches_oracle():
    for i in range(3, 11):
        for k in range(3, 9):
            params = FibonacciTripleParams(i=i, k=k)
            value = frobenius_fibonacci_triple(params)
            basis = Basis(fibonacci_triple_elements(params))
            assert value == frobenius_oracle(basis), (i, k)


def test_fibonacci_triple_unverified_branch_refuses():
    # First grid point whose branch condition fails; the printed value
    # there (15182) contradicts the sieve (17512), so it must raise.
    with pytest.raises(OutOfEnvelopeError):
        frobenius_fibonacci_triple(FibonacciTripleParams(i=11, k=6))


def test_fibonacci_triple_params_validation():
    with pytest.raises(InvalidInputError):
        FibonacciTripleParams(i=2, k=3)
    with pytest.raises(InvalidInputError):
        FibonacciTripleParams(i=5, k=2)


def test_consecutive_pair_absorbs_any_later_fibonacci():
    # {F_i, F_{i+1}, F_l} has the same answer as {F_i, F_{i+1}}.
    for i in range(3, 10):
        pair_value = frobenius_two(fibonacci(i), fibonacci(i + 1))
        for l in range(i + 2, 15):
            basis = normalize_basis([fibonacci(i), fibonacci(i + 1), fibonacci(l)])
            assert frobenius_oracle(basis) == pair_value, (i, l)


def test_three_generator_examples():
    assert frobenius_three(2, 3, 5) == 1  # 5 is redundant: the index search starts at v = -1
    assert frobenius_three(4, 5, 6) == 7  # reduces to (2, 5, 3)
    assert frobenius_three(6, 10, 15) == 29  # every pair has a common factor
    assert frobenius_three(15, 10, 6) == 29
    assert frobenius_three(1, 4, 6) == -1


def test_three_generator_validation():
    with pytest.raises(NonCoprimeError):
        frobenius_three(4, 6, 10)
    with pytest.raises(InvalidInputError):
        frobenius_three(0, 3, 5)


def triples(max_element):
    element = st.integers(1, max_element)
    return st.tuples(element, element, element).filter(lambda t: gcd(*t) == 1)


@settings(max_examples=300, deadline=None)
@given(triples(40))
def test_three_generator_matches_brute(t):
    assert frobenius_three(*t) == brute_frobenius(t)


@st.composite
def factored_triples(draw):
    # (q*r*x, p*r*y, p*q*z): each pair shares a factor, so Johnson's
    # reduction has all three pairs to strip.
    p, q, r = (draw(st.integers(1, 7)) for _ in range(3))
    x, y, z = (draw(st.integers(1, 40)) for _ in range(3))
    t = (q * r * x, p * r * y, p * q * z)
    assume(gcd(*t) == 1)
    return t


@settings(max_examples=150, deadline=None)
@given(st.one_of(triples(2000), factored_triples()))
def test_three_generator_matches_oracle(t):
    assume(len(set(t)) > 1)  # a Basis needs two distinct elements
    assert frobenius_three(*t) == frobenius_oracle(normalize_basis(t))


@settings(max_examples=100, deadline=None)
@given(triples(20000))
def test_three_generator_matches_residue_table(t):
    assume(min(t) > 1)
    basis = normalize_basis(t)
    expected = frobenius_two(*basis.elements) if basis.n == 2 else residue_table(basis).frobenius
    assert frobenius_three(*t) == expected


@pytest.mark.parametrize("a, d", [(10**9 + 7, 2), (10**9 + 9, 1234567), (10**9, 999999999)])
def test_three_term_progressions_far_beyond_the_table(a, d):
    assert a > RESIDUE_CAP
    assert frobenius_three(a, a + d, a + 2 * d) == frobenius_arithmetic(a, d, 2)


def test_three_generator_matches_fibonacci_triples():
    checked = 0
    for i in range(3, 40):
        for k in range(3, 25):
            params = FibonacciTripleParams(i=i, k=k)
            try:
                expected = frobenius_fibonacci_triple(params)
            except OutOfEnvelopeError:
                continue
            assert frobenius_three(*fibonacci_triple_elements(params)) == expected, (i, k)
            checked += 1
    assert checked > 100


def test_three_generator_long_runs_of_quotient_two():
    # For {a, a + 1, 2a - 1} the ceiling continued fraction of a / (a - 1)
    # is a run of a - 2 quotients 2, of which about a / 3 come before the
    # index sought.  Below 600 the sieve confirms g = (2a^2 - 3a - 2) / 3
    # for a = 1 mod 3.  The run is taken in one step: walking it takes
    # about 0.4 s at a = 3 * 10**6 + 1 and would never finish at
    # a = 10**15 + 3 (both also 1 mod 3).
    for a in range(4, 600, 3):
        assert frobenius_three(a, a + 1, 2 * a - 1) == frobenius_oracle(
            normalize_basis([a, a + 1, 2 * a - 1])
        ) == (2 * a * a - 3 * a - 2) // 3
    for a in (3 * 10**6 + 1, 10**15 + 3):
        t0 = perf_counter()
        assert frobenius_three(a, a + 1, 2 * a - 1) == (2 * a * a - 3 * a - 2) // 3
        assert perf_counter() - t0 < 0.05
