"""Sieve table correctness, gap sets, and independence detection."""

from __future__ import annotations

import random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    DEFAULT_LIMIT_CAP,
    Basis,
    InvalidInputError,
    ResourceLimitError,
    frobenius,
    frobenius_arithmetic,
    frobenius_oracle,
    gaps,
    gcd_all,
    is_independent,
    normalize_basis,
    residue_table,
    scan_upper_bound,
    sieve,
)

from conftest import brute_representable, brute_frobenius, reachable_sums


@st.composite
def small_bases(draw, max_element=40, max_arity=4):
    n = draw(st.integers(2, max_arity))
    raw = draw(st.sets(st.integers(2, max_element), min_size=n, max_size=n))
    assume(gcd_all(raw) == 1)
    return normalize_basis(raw)


def test_sieve_spot_table():
    t = sieve(normalize_basis([3, 5]), 7)
    assert [t[a] for a in range(8)] == [True, False, False, True, False, True, True, False]
    assert t.gaps() == (1, 2, 4, 7)


def test_sieve_index_range():
    t = sieve(normalize_basis([3, 5]), 7)
    with pytest.raises(InvalidInputError):
        t[8]
    with pytest.raises(InvalidInputError):
        t[-1]


def test_sieve_limit_validation(monkeypatch):
    b = normalize_basis([3, 5])
    with pytest.raises(InvalidInputError):
        sieve(b, -1)
    monkeypatch.setattr("frobenius.oracle.DEFAULT_LIMIT_CAP", 50)
    with pytest.raises(ResourceLimitError):
        sieve(b, 100)


def test_scan_upper_bound():
    # Coprime leading pair: collapses to a1*a2 - a1 - a2.
    assert scan_upper_bound(normalize_basis([7, 11])) == 59
    assert scan_upper_bound(normalize_basis([7, 11, 13])) == 59
    assert scan_upper_bound(normalize_basis([1, 5])) == -1
    # Non-coprime leading pairs; both values happen to be the exact
    # Frobenius numbers.
    assert scan_upper_bound(normalize_basis([2, 4, 5])) == 3
    assert scan_upper_bound(normalize_basis([6, 10, 15])) == 29


def test_scan_upper_bound_is_actually_an_upper_bound():
    # The two-smallest-generator product is not: for {2, 4, 5} it gives
    # 2*4 - 2 - 4 = 2, but 3 has no representation.
    for raw in ([2, 4, 5], [4, 8, 36, 47], [3, 6, 8], [2, 18, 60, 73, 117]):
        b = normalize_basis(raw)
        assert scan_upper_bound(b) >= brute_frobenius(b.elements)


def test_frobenius_oracle_spot_values():
    assert frobenius_oracle(normalize_basis([3, 5])) == 7
    assert frobenius_oracle(normalize_basis([5, 6, 7])) == 9
    assert frobenius_oracle(normalize_basis([1, 5])) == -1
    assert frobenius_oracle(normalize_basis([4, 5, 6, 7])) == 3
    # Regression: bases whose two smallest elements share a factor.
    assert frobenius_oracle(normalize_basis([2, 4, 5])) == 3
    assert frobenius_oracle(normalize_basis([6, 10, 15])) == 29


def test_gap_sets():
    assert gaps(normalize_basis([2, 3])) == (1,)
    assert gaps(normalize_basis([2, 5])) == (1, 3)
    assert gaps(normalize_basis([5, 6, 7])) == (1, 2, 3, 4, 8, 9)
    assert gaps(normalize_basis([1, 5])) == ()


@settings(max_examples=60)
@given(small_bases(max_element=25, max_arity=3))
def test_sieve_matches_exhaustive_enumeration(basis):
    # The load-bearing correctness pin: recompute every entry independently.
    t = sieve(basis, 100)
    for a in range(101):
        assert t[a] == brute_representable(a, basis.elements), (basis, a)


@settings(max_examples=80)
@given(small_bases())
def test_oracle_value_properties(basis):
    g = frobenius_oracle(basis)
    upper = scan_upper_bound(basis)
    assert -1 <= g <= upper
    reached = reachable_sums(basis.elements, upper + 1)
    if g >= 0:
        assert g not in reached
    # Everything above g up to the bound is representable.
    for v in range(g + 1, upper + 1):
        assert v in reached
    assert g == brute_frobenius(basis.elements)


@given(small_bases())
def test_gaps_consistent_with_oracle(basis):
    gs = gaps(basis)
    g = frobenius_oracle(basis)
    if g == -1:
        assert gs == ()
    else:
        assert gs[-1] == g
        assert all(x < y for x, y in zip(gs, gs[1:]))


def test_is_independent_examples():
    assert is_independent(normalize_basis([7, 11, 13]))
    assert is_independent(normalize_basis([2, 3]))
    assert is_independent(normalize_basis([5, 6, 7]))
    assert not is_independent(normalize_basis([3, 5, 8]))  # 8 = 3 + 5
    assert not is_independent(normalize_basis([4, 81, 104]))  # 104 = 26 * 4
    # Reference row 6 adds a redundant generator to row 5.
    assert not is_independent(normalize_basis([151, 157, 251, 711, 912]))
    assert is_independent(normalize_basis([151, 157, 251, 711]))


@settings(max_examples=60)
@given(small_bases())
def test_dependent_generator_never_changes_the_answer(basis):
    g = frobenius_oracle(basis)
    if not is_independent(basis):
        # Drop one redundant element; the answer must survive.
        es = basis.elements
        for i in range(len(es)):
            others = es[:i] + es[i + 1 :]
            if len(others) >= 2 and gcd_all(others) == 1 and brute_representable(
                es[i], others
            ):
                assert frobenius_oracle(normalize_basis(others)) == g
                break


@st.composite
def shared_factor_bases(draw):
    """All but one or two elements share a factor d, so prefixes have gcd > 1."""
    d = draw(st.sampled_from((2, 3, 4, 6)))
    raw = set(d * k for k in draw(st.sets(st.integers(1, 12), min_size=1, max_size=4)))
    raw |= draw(st.sets(st.integers(2, 60), min_size=1, max_size=2))
    assume(len(raw) >= 2 and gcd_all(raw) == 1)
    return normalize_basis(raw)


@st.composite
def redundant_bases(draw):
    """A small basis plus sums of its elements, which change nothing."""
    es = draw(small_bases(max_element=30, max_arity=4)).elements
    i, j = draw(st.integers(0, len(es) - 1)), draw(st.integers(0, len(es) - 1))
    return normalize_basis(es + (es[i] + es[j], 2 * es[-1] + es[0]))


any_small_basis = st.one_of(
    small_bases(max_element=60, max_arity=6), shared_factor_bases(), redundant_bases()
)


# A first limit of 1 makes the grown table start at the residue-count
# bound, so small bases go through several passes and stop on the window
# test rather than at U + a1.
@pytest.mark.parametrize("first_limit", [1, 2**12])
@settings(max_examples=150, deadline=None)
@given(any_small_basis)
def test_grown_table_matches_the_brute_oracles_and_the_residue_table(first_limit, basis):
    es = basis.elements
    f = brute_frobenius(es)
    reached = reachable_sums(es, max(f, 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("frobenius.oracle._FIRST_LIMIT", first_limit)
        assert frobenius_oracle(basis) == f == residue_table(basis).frobenius
        assert gaps(basis) == tuple(v for v in range(1, f + 1) if v not in reached)


# Some pass limit L here has its top a1 - 1 bits set and a hole just
# below them: a window test one bit short stops at L and reports that
# hole, below F.  Which bases have such an L depends on the start rule.
@pytest.mark.parametrize("first_limit, es", [
    (1, (4, 9, 13)), (1, (6, 13, 43)), (1, (8, 9, 60)),
    (2**12, (34, 384, 529)), (2**12, (5, 1248, 1783, 1823)),
])
def test_the_window_is_a1_bits_wide(first_limit, es, monkeypatch):
    monkeypatch.setattr("frobenius.oracle._FIRST_LIMIT", first_limit)
    assert frobenius_oracle(Basis(es)) == brute_frobenius(es)


@pytest.mark.parametrize(
    "a, d, k", [(1009, 2, 3), (997, 5, 4), (4099, 3, 5), (2003, 1, 3), (3001, 7, 4)]
)
def test_grown_table_on_arithmetic_progressions(a, d, k):
    basis = Basis(tuple(a + i * d for i in range(k + 1)))
    expected = frobenius_arithmetic(a, d, k)
    assert frobenius_oracle(basis) == expected
    assert frobenius(basis).value == expected


def test_edge_cases_a1_two_and_one_in_the_basis():
    assert frobenius_oracle(Basis((2, 2**20 + 1))) == 2**20 - 1
    assert gaps(Basis((2, 9))) == (1, 3, 5, 7)
    assert gaps(Basis((2, 4, 7, 9))) == (1, 3, 5)  # 9 = 2 + 7 is redundant
    assert frobenius(Basis((2, 4, 6, 2**20 + 1))).value == 2**20 - 1
    for es in ((1, 5), (1, 2, 3, 4), (1, 10**6)):
        assert frobenius_oracle(Basis(es)) == -1
        assert gaps(Basis(es)) == ()


def test_bases_past_the_old_scan_cap_are_served():
    # U is about a1 * a2 > 10**9, beyond what a sieve to U may build, but
    # F + a1 is a few million bits; the residue table is the check.
    es = (32003, 32009, 32089, 33013, 34019, 35051, 36073, 37021, 38047, 39079,
          40009, 41011, 42013, 43019, 44021, 45007, 46021, 47017, 48017, 49009)
    basis = Basis(es)
    assert scan_upper_bound(basis) > DEFAULT_LIMIT_CAP
    r = frobenius(basis, "oracle")
    assert (r.value, r.algorithm) == (residue_table(basis).frobenius, "oracle")


def test_the_cap_applies_to_the_limit_reached(monkeypatch):
    basis = Basis(tuple(range(100, 200)))  # U = 9899, F = 199: one pass to 2**12
    monkeypatch.setattr("frobenius.oracle.DEFAULT_LIMIT_CAP", 2**12)
    assert frobenius_oracle(basis) == frobenius_arithmetic(100, 1, 99)
    monkeypatch.setattr("frobenius.oracle.DEFAULT_LIMIT_CAP", 2**12 - 1)
    with pytest.raises(ResourceLimitError):
        frobenius_oracle(basis)
    with pytest.raises(ResourceLimitError):
        gaps(basis)


def test_a_generator_far_above_the_rest_costs_nothing():
    # The first pass is not sized by a_n: the sieve stops at a generator
    # above its limit, which cannot change a bit below it.  A first pass
    # of 2 * a_n bits would be over DEFAULT_LIMIT_CAP.
    es = sorted(random.Random(0).sample(range(40000, 80000), 10)) + [600000001]
    basis = Basis(tuple(es))
    t0 = perf_counter()
    value = frobenius_oracle(basis)
    assert perf_counter() - t0 < 0.1
    assert value == residue_table(basis).frobenius == 793996


def test_gaps_read_the_whole_hole_mask_at_once():
    # 147391 holes up to 200590 in 2**18 bits.  Clearing one hole at a
    # time copies the big integer per hole, O(genus * F): 2.2 s on this
    # basis (Python 3.11, x86-64 server).
    basis = normalize_basis(random.Random(0).sample(range(3 * 10**4, 6 * 10**4), 40))
    table = sieve(basis, 2**18)
    data = table.bits.to_bytes(2**15 + 1, "little")
    holes = tuple(v for v in range(2**18 + 1) if not data[v >> 3] >> (v & 7) & 1)
    assert (len(holes), holes[-1]) == (147391, 200590)
    t0 = perf_counter()
    assert table.gaps() == holes
    assert perf_counter() - t0 < 0.5
    assert gaps(basis) == holes
