"""Descent solver, dispatcher, and result invariants."""

from __future__ import annotations

import random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    REFERENCE_CASES,
    Basis,
    FrobeniusResult,
    InvalidInputError,
    ResourceLimitError,
    delta_scan,
    frobenius,
    frobenius_arithmetic,
    frobenius_descent,
    frobenius_oracle,
    frobenius_sequential,
    gcd_all,
    normalize_basis,
    residue_table,
    scan_upper_bound,
)


@st.composite
def small_bases(draw, max_element=40, max_arity=4):
    n = draw(st.integers(2, max_arity))
    raw = draw(st.sets(st.integers(2, max_element), min_size=n, max_size=n))
    assume(gcd_all(raw) == 1)
    return normalize_basis(raw)


def test_reference_spot_rows():
    assert frobenius_descent(normalize_basis([7, 11, 13])).value == 30
    assert frobenius_descent(normalize_basis([53, 71, 91])).value == 899
    assert frobenius_descent(normalize_basis([151, 157, 251, 711])).value == 3019


def test_reference_rows_count_every_scanned_candidate():
    # upper - value + 1 on every table1 row, for both scans.
    counts = (30, 2741, 77113, 78967, 20381, 20381, 10374)
    for (elements, _), count in zip(REFERENCE_CASES, counts, strict=True):
        basis = Basis(elements)
        assert frobenius_descent(basis).candidates_scanned == count
        assert frobenius_sequential(basis).candidates_scanned == count


def test_scans_reach_a_basis_of_1300_generators():
    # Settled from x - a_j's proven class, almost no candidate is searched
    # here: the descent makes no membership test, the sequential scan one
    # zero test (the failing 999).
    basis = normalize_basis(range(1000, 2300))
    upper = scan_upper_bound(basis)
    for algorithm, scanned in (("paper", upper - 1000), ("sequential", upper - 999 + 1)):
        t0 = perf_counter()
        r = frobenius(basis, algorithm)
        assert perf_counter() - t0 < 2.0, algorithm
        # The descent's range [a1 + 1, U] is all representable, so it
        # scans all of it and answers a1 - 1.
        assert (r.value, r.candidates_scanned) == (999, scanned), algorithm


def test_scans_match_the_tables_on_60_generators_near_10k():
    basis = normalize_basis(random.Random(0).sample(range(10**4, 2 * 10**4), 60))
    expected = frobenius_oracle(basis)
    assert expected == residue_table(basis).frobenius == 46903
    assert frobenius(basis, "paper").value == expected
    assert frobenius(basis, "sequential").value == expected


def test_redundant_generator_leaves_answer_alone():
    with_extra = frobenius_descent(normalize_basis([151, 157, 251, 711, 912]))
    assert with_extra.value == 3019


def test_non_coprime_smallest_pair_regression():
    # a1*a2 - a1 - a2 is 2 for {2, 4, 5}, below the answer; the telescoped
    # bound keeps 3 inside the scan for all three algorithms.
    for raw, expected in ([2, 4, 5], 3), ([6, 10, 15], 29), ([3, 6, 8], 13):
        b = normalize_basis(raw)
        assert frobenius_descent(b).value == expected
        assert frobenius_sequential(b).value == expected
        assert frobenius_oracle(b) == expected


def test_descent_fallback_when_scan_is_all_representable():
    r = frobenius_descent(normalize_basis([2, 3]))
    assert (r.value, r.candidates_scanned) == (1, 0)  # empty scan range
    r = frobenius_descent(normalize_basis([4, 5, 6, 7]))
    assert (r.value, r.candidates_scanned) == (3, 7)  # full scan, then a1 - 1


def test_result_fields():
    r = frobenius_descent(normalize_basis([7, 11, 13]))
    assert r.upper_bound_used == 59
    assert r.candidates_scanned == 59 - 30 + 1
    assert r.algorithm == "paper-descent"


def test_table_solvers_scan_nothing():
    b = normalize_basis([7, 11, 13])
    for algo, tag in (("residue", "residue"), ("oracle", "oracle")):
        r = frobenius(b, algo)
        assert (r.value, r.algorithm, r.candidates_scanned) == (30, tag, 0)
    assert frobenius(b).algorithm == "residue"  # the default


def test_default_takes_the_table_when_the_sieve_would_cost_more():
    # Four generators at a1 = 500009: F is about 8.3e10, far past any
    # sieve the cost rule allows, while the table takes 1.5e6 steps.
    a = 500009
    r = frobenius(Basis(tuple(range(a, a + 4))))
    assert (r.value, r.algorithm) == (frobenius_arithmetic(a, 1, 3), "residue")


def test_default_takes_the_sieve_on_a_wide_basis():
    # 201 generators: the table would take 200 * 10**4 steps, and F + a1
    # is under 2**15 bits.
    a = 10007
    r = frobenius(Basis(tuple(range(a, a + 201))))
    assert (r.value, r.algorithm) == (frobenius_arithmetic(a, 1, 200), "oracle")


def test_scans_refuse_a_bound_over_the_cap(monkeypatch):
    b = normalize_basis([7, 11, 13])  # scan bound 59
    monkeypatch.setattr("frobenius.oracle.DEFAULT_LIMIT_CAP", 59)
    assert frobenius_descent(b).value == frobenius_sequential(b).value == 30
    monkeypatch.setattr("frobenius.oracle.DEFAULT_LIMIT_CAP", 58)
    for solve in (frobenius_descent, frobenius_sequential, delta_scan):
        with pytest.raises(ResourceLimitError):
            solve(b)


def test_dispatcher_short_circuits():
    r = frobenius(normalize_basis([1, 7]), "oracle")
    assert (r.value, r.upper_bound_used, r.algorithm) == (-1, -1, "closed-form")
    r = frobenius(normalize_basis([7, 11]), "sequential")
    assert (r.value, r.algorithm) == (59, "closed-form")


def test_dispatcher_rejects_unknown_algorithm():
    with pytest.raises(InvalidInputError):
        frobenius(normalize_basis([3, 5]), "magic")
    with pytest.raises(InvalidInputError):
        frobenius(normalize_basis([3, 5]), "magic")  # even though n == 2


def test_sequential_direct_entry_handles_two_generators():
    r = frobenius_sequential(normalize_basis([2, 3]))
    assert (r.value, r.algorithm) == (1, "sequential")
    assert frobenius_sequential(Basis((1, 5))).value == -1


def test_result_invariants_enforced():
    with pytest.raises(InvalidInputError):
        FrobeniusResult(-2, 10, 0, "oracle")
    with pytest.raises(InvalidInputError):
        FrobeniusResult(11, 10, 0, "oracle")
    with pytest.raises(InvalidInputError):
        FrobeniusResult(5, 10, -1, "oracle")
    with pytest.raises(InvalidInputError):
        FrobeniusResult(5, 10, 0, "guesswork")


@settings(max_examples=80, deadline=None)
@given(small_bases())
def test_three_algorithms_agree(basis):
    d = frobenius_descent(basis).value
    s = frobenius_sequential(basis).value
    o = frobenius_oracle(basis)
    assert d == s == o


@settings(max_examples=60, deadline=None)
@given(small_bases(max_element=30, max_arity=3), st.integers(2, 60))
def test_adding_a_generator_never_increases_the_answer(basis, extra):
    bigger = normalize_basis(basis.elements + (extra,))
    assert frobenius_oracle(bigger) <= frobenius_oracle(basis)


@settings(max_examples=60, deadline=None)
@given(small_bases())
def test_result_value_within_its_bound(basis):
    for algo in ("residue", "paper", "oracle", "sequential"):
        r = frobenius(basis, algo)
        assert -1 <= r.value <= r.upper_bound_used
        assert r.candidates_scanned >= 0
