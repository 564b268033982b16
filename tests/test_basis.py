"""Basis construction, normalization, and witness validation."""

from __future__ import annotations

from enum import IntEnum

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobenius import (
    ArityError,
    Basis,
    InvalidElementError,
    InvalidInputError,
    NonCoprimeError,
    RepresentationWitness,
    gcd_all,
    normalize_basis,
)


def test_gcd_all_examples():
    assert gcd_all([322, 654, 765]) == 1
    assert gcd_all([4, 6]) == 2
    assert gcd_all([6, 10, 15]) == 1
    assert gcd_all([]) == 0


def test_normalize_sorts_and_dedups():
    b = normalize_basis([13, 7, 11, 7])
    assert b.elements == (7, 11, 13)
    assert b.n == 3


def test_normalize_idempotent():
    b = normalize_basis([5, 3])
    assert normalize_basis(b.elements) == b


def test_basis_is_hashable_value_type():
    assert Basis((3, 5)) == normalize_basis([5, 3])
    d = {Basis((3, 5)): "x"}
    assert d[normalize_basis([3, 5])] == "x"


def test_one_is_allowed():
    b = normalize_basis([5, 1])
    assert b.contains_one
    assert b.elements == (1, 5)


def test_iteration_and_len():
    b = Basis((2, 3, 7))
    assert list(b) == [2, 3, 7]
    assert len(b) == 3


@pytest.mark.parametrize(
    "raw, exc",
    [
        ([5], ArityError),
        ([7, 7, 7], ArityError),  # dedups to one element
        ([4, 6], NonCoprimeError),
        ([6, 10, 14], NonCoprimeError),
        ([0, 3], InvalidElementError),
        ([-2, 3], InvalidElementError),
    ],
)
def test_normalize_rejections(raw, exc):
    with pytest.raises(exc):
        normalize_basis(raw)


def test_direct_constructor_demands_sorted_distinct():
    with pytest.raises(InvalidElementError):
        Basis((5, 3))
    with pytest.raises(InvalidElementError):
        Basis((3, 3, 5))


def test_non_integer_elements_rejected():
    with pytest.raises(InvalidElementError):
        Basis((2.5, 3))  # type: ignore[arg-type]
    with pytest.raises(InvalidElementError):
        Basis((True, 3))  # type: ignore[arg-type]


@given(st.sets(st.integers(min_value=1, max_value=500), min_size=2, max_size=6))
def test_normalize_accepts_exactly_the_coprime_sets(raw):
    if gcd_all(raw) == 1:
        b = normalize_basis(raw)
        assert b.elements == tuple(sorted(raw))
        assert gcd_all(b.elements) == 1
    else:
        with pytest.raises(NonCoprimeError):
            normalize_basis(raw)


@given(
    st.sets(st.integers(min_value=2, max_value=100), min_size=2, max_size=4),
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4),
)
def test_witness_constructor_checks_the_sum(raw, coeffs):
    assume(gcd_all(raw) == 1)
    b = normalize_basis(raw)
    cs = tuple(coeffs[: b.n])
    target = sum(c * a for c, a in zip(cs, b.elements))
    w = RepresentationWitness(basis=b, coefficients=cs, target=target)
    assert str(w).startswith(f"{target} = ")
    with pytest.raises(InvalidInputError):
        RepresentationWitness(basis=b, coefficients=cs, target=target + 1)


def test_witness_rejects_negative_and_misaligned():
    b = Basis((3, 5))
    with pytest.raises(InvalidInputError):
        RepresentationWitness(basis=b, coefficients=(-1, 2), target=7)
    with pytest.raises(InvalidInputError):
        RepresentationWitness(basis=b, coefficients=(1, 1, 1), target=8)


class Small(IntEnum):
    TWO = 2
    THREE = 3
    FIVE = 5


def _checked_one_by_one(elements):
    """The constructor's checks element by element, in their documented order."""
    for v in elements:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return InvalidElementError, f"basis elements must be positive integers, got {v!r}"
    if len(elements) < 2:
        return ArityError, f"need at least two distinct elements, got {len(elements)}"
    for a, b in zip(elements, elements[1:]):
        if a >= b:
            return InvalidElementError, f"elements must be strictly increasing, got {a} before {b}"
    if gcd_all(elements) != 1:
        return NonCoprimeError, f"gcd of {list(elements)} is {gcd_all(elements)}, must be 1"
    return None


_element = st.one_of(
    st.integers(-3, 60),
    st.integers(-3, 60),
    st.integers(1, 10**30),
    st.booleans(),
    st.sampled_from(list(Small)),
    st.floats(-2, 60, allow_nan=False),
)
_raw = st.lists(_element, max_size=8)


@settings(max_examples=400)
@given(st.one_of(
    _raw.map(tuple),
    _raw,  # a list is checked, not converted
    _raw.map(lambda xs: tuple(sorted(set(xs)))),  # sorted, so later checks are reached
    st.sets(st.integers(1, 40), max_size=6).map(lambda xs: tuple(sorted(2 * x for x in xs))),
    st.sets(st.integers(1, 90), max_size=6).map(lambda xs: tuple(sorted(xs))),
    st.lists(st.integers(1, 90), max_size=6).map(tuple),  # unsorted or duplicated
))
def test_bulk_validation_answers_as_the_checks_one_by_one(elements):
    expected = _checked_one_by_one(elements)
    if expected is None:
        assert Basis(elements).elements is elements
    else:
        with pytest.raises(expected[0]) as info:
            Basis(elements)
        assert (type(info.value), str(info.value)) == expected
