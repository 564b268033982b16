"""Indicator primitives, h products, deltas, and the literal sum."""

from __future__ import annotations

from fractions import Fraction
from math import floor
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    InvalidInputError,
    ResourceLimitError,
    SequentialTrace,
    delta,
    delta_scan,
    f_indicator,
    frobenius_descent,
    frobenius_oracle,
    gcd_all,
    h_general,
    h_is_zero,
    h_two,
    has_rep,
    has_rep_two,
    n_indicator,
    normalize_basis,
    random_bases,
    scan_upper_bound,
    sequential_trace,
    sieve,
)
from frobenius.sequential import _zero_test

from conftest import brute_frobenius, brute_representable


@st.composite
def small_bases(draw, max_element=30, max_arity=4):
    n = draw(st.integers(2, max_arity))
    raw = draw(st.sets(st.integers(2, max_element), min_size=n, max_size=n))
    assume(gcd_all(raw) == 1)
    return normalize_basis(raw)


@st.composite
def shared_factor_bases(draw):
    """Multiples of 6, 10 and 15, the sum of two of them (a redundant
    element) and one more element, so that pairs share factors."""
    raw = draw(st.lists(
        st.sampled_from((6, 10, 15)).flatmap(lambda f: st.integers(1, 4).map(lambda k: f * k)),
        min_size=2, max_size=3,
    ))
    raw += [raw[0] + raw[1], draw(st.integers(2, 40))]
    assume(len(set(raw)) >= 2 and gcd_all(raw) == 1)
    return normalize_basis(raw)


def test_f_spot_values():
    assert f_indicator(3, 6) == 0
    assert f_indicator(3, 7) == -1
    assert f_indicator(5, 3) == -1  # below alpha: inner floor is 0
    assert f_indicator(2, 2) == 0


@given(st.integers(1, 400), st.integers(1, 400))
def test_f_is_a_divisibility_indicator(alpha, R):
    v = f_indicator(alpha, R)
    assert isinstance(v, int) and not isinstance(v, bool)
    assert v == (0 if R >= alpha and R % alpha == 0 else -1)


def test_f_validation():
    with pytest.raises(InvalidInputError):
        f_indicator(0, 5)
    with pytest.raises(InvalidInputError):
        f_indicator(3, 0)


def test_n_spot_values():
    assert n_indicator(0) == 1
    assert n_indicator(1) == 0
    assert n_indicator(-1) == 0
    assert n_indicator(Fraction(0, 7)) == 1
    assert n_indicator(Fraction(-2, 3)) == 0


@given(st.integers(-50, 50), st.integers(1, 50))
def test_n_agrees_with_its_floor_form(num, den):
    x = Fraction(num, den)
    assume(-1 <= x <= 1)
    assert n_indicator(x) == floor(-abs(x)) + 1


def test_n_rejects_floats_and_out_of_domain():
    with pytest.raises(InvalidInputError):
        n_indicator(0.0)
    with pytest.raises(InvalidInputError):
        n_indicator(2)
    with pytest.raises(InvalidInputError):
        n_indicator(Fraction(-3, 2))


def test_h_two_spot_values():
    assert h_two(7, 3, 5) == -2  # nonzero magnitude exceeds 1: not a +/-1 indicator
    assert h_two(8, 3, 5) == 0
    assert h_two(6, 3, 5) == 0
    assert h_two(1, 3, 5) == 1  # two -1 factors: f(5, 1) and the residue term
    assert isinstance(h_two(7, 3, 5), Fraction)


@given(st.integers(2, 25), st.integers(3, 26), st.integers(1, 200))
def test_h_two_zero_iff_representable(b1, b2, R):
    assume(b1 < b2)
    assert (h_two(R, b1, b2) == 0) == has_rep_two(R, b1, b2)


def test_h_two_validation():
    with pytest.raises(InvalidInputError):
        h_two(0, 3, 5)
    with pytest.raises(InvalidInputError):
        h_two(7, 5, 3)


@pytest.mark.parametrize(
    "elements",
    [(3, 5), (2, 5), (3, 5, 7), (6, 10, 15), (5, 7, 9, 11), (8, 9, 10, 11)],
)
def test_h_exact_value_zero_iff_oracle_bit(elements):
    basis = normalize_basis(elements)
    a1, a2 = basis.elements[0], basis.elements[1]
    upper = a1 * a2 - a1 - a2
    table = sieve(basis, upper)
    for R in range(1, upper + 1):
        value = h_general(R, basis)
        assert isinstance(value, Fraction)
        assert (value == 0) == table[R], (elements, R, value)
        assert h_is_zero(R, basis) == (value == 0), (elements, R)


def test_h_general_two_element_case_is_h_two():
    b = normalize_basis([3, 5])
    for R in range(1, 8):
        assert h_general(R, b) == h_two(R, 3, 5)


@settings(max_examples=60, deadline=None)
@given(small_bases(), st.integers(1, 120))
def test_zero_test_matches_membership(basis, R):
    assert h_is_zero(R, basis) == has_rep(R, basis)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_bases(), shared_factor_bases()), st.integers(1, 150))
def test_zero_test_matches_exhaustive_enumeration(basis, R):
    assert h_is_zero(R, basis) == brute_representable(R, basis.elements)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_bases(), shared_factor_bases()))
def test_zero_test_shared_memo_gives_same_answers(basis):
    # One zero test, built once, keeps its (R, j) answers across all queries.
    zero = _zero_test(basis)
    shared = [zero(R) >= 0 for R in range(149, 0, -1)]
    assert shared == [brute_representable(R, basis.elements) for R in range(149, 0, -1)]


def test_zero_test_on_more_generators_than_the_recursion_limit():
    basis = normalize_basis(range(1000, 2300))
    t0 = perf_counter()
    assert h_is_zero(7777, basis)  # 7 * 1111
    assert not h_is_zero(999, basis)  # below every element
    assert perf_counter() - t0 < 0.5


def test_zero_test_budget_refuses_promptly():
    # About 3 * 10**14 remainders to try at the top level.
    basis = normalize_basis([10**15 + 3, 10**15 + 4, 2 * 10**15 + 5])
    t0 = perf_counter()
    with pytest.raises(ResourceLimitError):
        h_is_zero(666666666666665666666666666666, basis)
    assert perf_counter() - t0 < 5.0


def test_h_general_budget_refuses_promptly():
    # R below all 30 elements: about 2**30 sub-products without a budget.
    basis = normalize_basis(range(10, 40))
    t0 = perf_counter()
    with pytest.raises(ResourceLimitError):
        h_general(5, basis)
    assert perf_counter() - t0 < 5.0
    with pytest.raises(ResourceLimitError):
        h_two(10**30, 3, 5)


def test_delta_polarity_and_range():
    b = normalize_basis([3, 5])
    assert [delta(i, b) for i in range(1, 8)] == [1, 1, 0, 1, 0, 0, 1]
    with pytest.raises(InvalidInputError):
        delta(0, b)
    with pytest.raises(InvalidInputError):
        delta(8, b)


def test_delta_scan_examples():
    assert delta_scan(normalize_basis([3, 5])) == (7, 1)
    assert delta_scan(normalize_basis([7, 11, 13])) == (30, 30)
    # Non-coprime smallest pair: scan starts at the telescoped bound 3.
    assert delta_scan(normalize_basis([2, 4, 5])) == (3, 1)


def test_trace_example():
    tr = sequential_trace(normalize_basis([3, 5]))
    assert tr.upper == 7
    assert tr.deltas == (1, 1, 0, 1, 0, 0, 1)
    assert tr.result == 7
    assert tr.h_values is None


def test_trace_with_h_values():
    tr = sequential_trace(normalize_basis([3, 5]), include_h_values=True)
    assert tr.h_values is not None
    assert len(tr.h_values) == 7
    assert tr.h_values[6] == -2  # h at R = 7
    assert tr.h_values[2] == 0  # h at R = 3
    assert all(isinstance(v, Fraction) for v in tr.h_values)


def test_trace_tiny_and_degenerate_bases():
    tr = sequential_trace(normalize_basis([2, 3]))
    assert (tr.upper, tr.deltas, tr.result) == (1, (1,), 1)
    tr = sequential_trace(normalize_basis([1, 9]))
    assert (tr.upper, tr.deltas, tr.result) == (-1, (), -1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_bases(), shared_factor_bases()))
def test_both_scans_match_the_brute_oracles(basis):
    expected = brute_frobenius(basis.elements)
    descent = frobenius_descent(basis)
    value, scanned = delta_scan(basis)
    assert descent.value == value == frobenius_oracle(basis) == expected
    # The floors settle candidates without a search; every one still counts.
    if expected > basis.elements[0]:
        assert descent.candidates_scanned == scanned == scan_upper_bound(basis) - expected + 1


def test_both_scans_match_the_sieve_on_a_wide_corpus():
    # Up to eight generators below 40, where zero tests often end on a
    # memo hit at an inner level, which proves no slack.
    for basis in random_bases(1, 2000, max_element=40, max_arity=8):
        expected = frobenius_oracle(basis)
        assert frobenius_descent(basis).value == expected, basis
        assert delta_scan(basis)[0] == expected, basis


def test_scans_of_a_large_triple_settle_most_candidates_by_floor():
    basis = normalize_basis([1021, 1031, 1033])  # 871,887 candidates
    expected = frobenius_oracle(basis)
    for scan in (lambda: frobenius_descent(basis).value, lambda: delta_scan(basis)[0]):
        t0 = perf_counter()
        assert scan() == expected
        assert perf_counter() - t0 < 0.8


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_bases(max_element=25, max_arity=3), shared_factor_bases()))
def test_trace_result_equals_scan_and_oracle(basis):
    tr = sequential_trace(basis)
    table = sieve(basis, tr.upper)
    assert tr.deltas == tuple(0 if table[i] else 1 for i in range(1, tr.upper + 1))
    assert tr.result == frobenius_oracle(basis)
    # The literal sum only keeps the largest non-representable index.
    assert tr.deltas[tr.result - 1] == 1
    assert all(d == 0 for d in tr.deltas[tr.result :])


def test_trace_validation():
    with pytest.raises(InvalidInputError):
        SequentialTrace(upper=3, deltas=(1, 0), result=1)
    with pytest.raises(InvalidInputError):
        SequentialTrace(upper=2, deltas=(1, 2), result=1)
    with pytest.raises(InvalidInputError):
        SequentialTrace(upper=2, deltas=(1, 0), result=1, h_values=(Fraction(1),))
