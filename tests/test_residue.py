"""Residue-table core: Frobenius number, prefix chain, redundancy, refusals.

Every expected value comes from the brute oracles in conftest, the sieve,
or a closed form; the table is never compared with itself.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    RESIDUE_CAP,
    REFERENCE_CASES,
    Basis,
    ResourceLimitError,
    bound_report,
    chain_bounds,
    frobenius,
    frobenius_arithmetic,
    frobenius_oracle,
    frobenius_two,
    gcd_all,
    is_independent,
    normalize_basis,
    residue_table,
)

from conftest import brute_frobenius, brute_representable


@st.composite
def bases(draw, min_element=1, max_element=40, max_arity=5):
    n = draw(st.integers(2, max_arity))
    raw = draw(st.sets(st.integers(min_element, max_element), min_size=n, max_size=n))
    assume(gcd_all(raw) == 1)
    return normalize_basis(raw)


@settings(max_examples=150, deadline=None)
@given(bases())
def test_frobenius_matches_brute(basis):
    assert residue_table(basis).frobenius == brute_frobenius(basis.elements)


@settings(max_examples=100, deadline=None)
@given(bases())
def test_chain_matches_brute_per_prefix(basis):
    es = basis.elements
    expected = [
        brute_frobenius(es[:k]) if gcd_all(es[:k]) == 1 else None
        for k in range(2, len(es) + 1)
    ]
    assert list(chain_bounds(basis)) == expected


@settings(max_examples=100, deadline=None)
@given(bases())
def test_redundancy_matches_brute(basis):
    es = basis.elements
    table = residue_table(basis)
    assert table.redundant == (False,) + tuple(
        brute_representable(es[i], es[:i]) for i in range(1, len(es))
    )
    over_others = [brute_representable(e, es[:i] + es[i + 1 :]) for i, e in enumerate(es)]
    assert is_independent(basis) == (not any(over_others))


@settings(max_examples=60, deadline=None)
@given(bases(min_element=2, max_element=2000, max_arity=8))
def test_chain_and_answer_match_the_sieve(basis):
    es = basis.elements
    expected = [
        frobenius_oracle(Basis(es[:k])) if gcd_all(es[:k]) == 1 else None
        for k in range(2, len(es) + 1)
    ]
    assert list(chain_bounds(basis)) == expected
    if basis.n > 2:
        r = frobenius(basis, "residue")
        assert (r.value, r.algorithm, r.candidates_scanned) == (expected[-1], "residue", 0)
        # The default takes Rødseth's formula on three generators, and on
        # more the cheaper of the sieve and the table; either way the value.
        d = frobenius(basis)
        tags = ("residue",) if basis.n == 3 else ("residue", "oracle")
        assert d.value == expected[-1] and d.algorithm in tags


def test_reference_rows():
    for elements, expected in REFERENCE_CASES:
        assert residue_table(Basis(elements)).frobenius == expected, elements


@pytest.mark.parametrize("a, d, k", [(100003, 1, 2), (99991, 7, 3), (100019, 12, 4)])
def test_arithmetic_progressions_beyond_the_sieve(a, d, k):
    basis = Basis(tuple(a + i * d for i in range(k + 1)))
    assert residue_table(basis).frobenius == frobenius_arithmetic(a, d, k)


def test_refuses_a_table_over_the_entry_cap(monkeypatch):
    basis = Basis((RESIDUE_CAP + 1, RESIDUE_CAP + 2, RESIDUE_CAP + 3))
    for call in (residue_table, chain_bounds, is_independent):
        with pytest.raises(ResourceLimitError):
            call(basis)
    # A triple needs no table: frobenius() takes Rødseth's formula.
    assert frobenius(basis).value == frobenius_arithmetic(RESIDUE_CAP + 1, 1, 2)
    with pytest.raises(ResourceLimitError):
        frobenius(Basis(tuple(RESIDUE_CAP + i for i in range(1, 5))))
    monkeypatch.setattr("frobenius.residue.RESIDUE_CAP", 7)
    assert residue_table(Basis((7, 11, 13))).frobenius == 30  # a1 at the cap
    with pytest.raises(ResourceLimitError):
        residue_table(Basis((8, 11, 13)))


def test_refuses_a_basis_whose_answer_is_over_both_caps():
    # F is about a1**2 / 3 > 10**14: past the sieve's bit cap, and a1 is
    # past the table's entry cap.  A count of residues shows the sieve
    # would need more than DEFAULT_LIMIT_CAP bits before any is built.
    basis = Basis(tuple(RESIDUE_CAP + i for i in range(1, 5)))
    for algorithm in (None, "oracle", "residue"):
        with pytest.raises(ResourceLimitError):
            frobenius(basis, algorithm)


def test_refuses_entries_that_do_not_fit_in_64_bits():
    # For {2, b} with b odd the largest entry is U + a1 = b; 2**63 - 1 is
    # the unreached mark, so it is one past the largest storable entry.
    with pytest.raises(ResourceLimitError):
        residue_table(Basis((2, 2**63 - 1)))
    b = 2**63 - 3
    table = residue_table(Basis((2, b, b + 2)))  # b + 2 = b + 1*2 is redundant
    assert table.frobenius == frobenius_two(2, b)
    assert table.redundant == (False, False, True)


def test_report_without_the_table_keeps_the_four_bounds():
    es = (RESIDUE_CAP + 1, RESIDUE_CAP + 2, RESIDUE_CAP + 3)
    r = bound_report(Basis(es))
    assert r.chain is None
    assert r.selmer_vacuous and r.beck_vacuous  # independence unknown
    assert not r.vitek_vacuous
    assert r.erdos_graham == 2 * es[1] * (es[2] // 3) - es[2]
    assert r.tightest in ("erdos-graham", "vitek")
