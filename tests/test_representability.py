"""Membership test against exhaustive enumeration, plus witnesses."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    InvalidInputError,
    ResourceLimitError,
    find_witness,
    gcd_all,
    has_rep,
    has_rep_two,
    normalize_basis,
    scan_upper_bound,
    sieve,
)

from conftest import brute_representable, reachable_sums


@st.composite
def small_bases(draw, max_element=30, max_arity=4):
    n = draw(st.integers(2, max_arity))
    raw = draw(st.sets(st.integers(2, max_element), min_size=n, max_size=n))
    assume(gcd_all(raw) == 1)
    return normalize_basis(raw)


@st.composite
def shared_factor_bases(draw):
    """Multiples of 6, 10 and 15 plus one more element, so that prefixes
    of the sorted basis share factors (gcd chains like 6, 2, 1)."""
    raw = set(draw(st.lists(
        st.sampled_from((6, 10, 15)).flatmap(lambda f: st.integers(1, 5).map(lambda k: f * k)),
        min_size=1, max_size=4,
    )))
    raw.add(draw(st.integers(2, 40)))
    assume(len(raw) >= 2 and gcd_all(raw) == 1)
    return normalize_basis(raw)


# The 8-generator basis of the hasrep benchmark: its first four elements
# share the factor 3.
MID_BASIS = (519, 534, 624, 633, 716, 724, 737, 881)


def test_smallest_element_is_representable():
    # The trap in naive base cases: the target equal to the smaller
    # generator must come back representable.
    assert has_rep_two(3, 3, 5)
    assert has_rep(3, normalize_basis([3, 5]))


def test_two_generator_spot_values():
    assert has_rep_two(0, 3, 5)
    assert has_rep_two(5, 3, 5)
    assert has_rep_two(8, 3, 5)
    assert not has_rep_two(7, 3, 5)
    assert not has_rep_two(4, 3, 5)


def test_two_generator_handles_common_factor():
    # {4, 6}: multiples of 2 that are >= 4 and not 2 itself, i.e. 4, 6, 8, ...
    assert has_rep_two(4, 4, 6)
    assert has_rep_two(10, 4, 6)
    assert not has_rep_two(2, 4, 6)
    assert not has_rep_two(7, 4, 6)


def test_two_generator_exhaustive_small():
    for b1 in range(2, 13):
        for b2 in range(b1 + 1, 13):
            for a in range(0, 2 * b1 * b2 + 1):
                assert has_rep_two(a, b1, b2) == brute_representable(a, (b1, b2)), (
                    a,
                    b1,
                    b2,
                )


def test_argument_validation():
    with pytest.raises(InvalidInputError):
        has_rep_two(-1, 3, 5)
    with pytest.raises(InvalidInputError):
        has_rep_two(4, 5, 3)
    with pytest.raises(InvalidInputError):
        has_rep(-2, normalize_basis([3, 5]))


@settings(max_examples=150)
@given(small_bases(), st.integers(0, 150))
def test_matches_exhaustive_enumeration(basis, a):
    assert has_rep(a, basis) == brute_representable(a, basis.elements)


@settings(max_examples=100)
@given(small_bases(), st.integers(0, 120))
def test_monotone_closure(basis, a):
    if has_rep(a, basis):
        for e in basis:
            assert has_rep(a + e, basis)


@given(small_bases())
def test_shared_memo_gives_same_answers(basis):
    memo = {}
    fresh = [has_rep(a, basis) for a in range(120)]
    shared = [has_rep(a, basis, memo) for a in range(120)]
    assert fresh == shared


@settings(max_examples=150)
@given(small_bases(), st.integers(0, 150))
def test_witness_exists_exactly_when_representable(basis, a):
    w = find_witness(a, basis)
    if brute_representable(a, basis.elements):
        assert w is not None
        assert w.target == a  # constructor already checked the sum
    else:
        assert w is None


@settings(max_examples=200)
@given(shared_factor_bases(), st.integers(0, 200))
def test_shared_factor_prefixes_match_exhaustive_enumeration(basis, a):
    expected = brute_representable(a, basis.elements)
    assert has_rep(a, basis) == expected
    assert (find_witness(a, basis) is not None) == expected


@settings(max_examples=100)
@given(st.one_of(small_bases(), shared_factor_bases()), st.integers(0, 150))
def test_witness_takes_the_smallest_count_from_the_top(basis, a):
    # Each coefficient, from the largest element down, is the smallest
    # count that leaves a remainder the shorter prefix can still reach.
    w = find_witness(a, basis)
    assume(w is not None)
    es = basis.elements
    rest = a
    for j in range(len(es) - 1, 1, -1):
        for k in range(w.coefficients[j]):
            assert not brute_representable(rest - k * es[j], es[:j])
        rest -= w.coefficients[j] * es[j]


def test_witnesses_against_reachable_sums():
    for raw in ([7, 11, 13], [6, 10, 15], [12, 18, 20, 27], [4, 81, 104]):
        basis = normalize_basis(raw)
        limit = scan_upper_bound(basis) + basis.elements[0]
        reached = reachable_sums(basis.elements, limit)
        for a in range(limit + 1):
            assert (find_witness(a, basis) is not None) == (a in reached), (raw, a)


def test_witness_spot_value():
    b = normalize_basis([7, 11, 13])
    assert find_witness(31, b).coefficients == (1, 1, 1)
    assert find_witness(30, b) is None


def test_eight_generator_basis_matches_the_sieve():
    basis = normalize_basis(MID_BASIS)
    upper = scan_upper_bound(basis)
    table = sieve(basis, upper)
    for a in range(upper + 1):
        assert (find_witness(a, basis) is not None) == table[a], a


def test_search_budget_refuses_with_an_error():
    basis = normalize_basis([10**15 + 3, 10**15 + 4, 2 * 10**15 + 5])
    target = 666666666666665666666666666666
    with pytest.raises(ResourceLimitError):
        has_rep(target, basis)  # and the sieve would need 4e15 bits


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_bases(), shared_factor_bases()), st.integers(0, 400))
def test_sieve_answers_past_the_search_budget(basis, a):
    # With no search steps allowed, every search of three or more
    # generators is over budget, so the grown sieve table answers.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("frobenius.representability.SEARCH_CAP", 0)
        expected = brute_representable(a, basis.elements)
        assert has_rep(a, basis) == expected
        w = find_witness(a, basis)  # the constructor checks the sum
        assert (w is not None) == expected
        big = a + 10**6
        assert find_witness(big, basis).target == big


def test_non_coprime_pair_via_gcd_filter():
    # Membership over a non-coprime *pair* inside a wider basis is the
    # recursion's workhorse; exercise the divisibility filter directly.
    assert gcd(3, 6) == 3
    for a in range(0, 60):
        assert has_rep_two(a, 3, 6) == (a % 3 == 0)
