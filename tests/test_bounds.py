"""Upper-bound formulas, vacuity conditions, and the prefix chain."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from frobenius import (
    ArityError,
    Basis,
    Lcg,
    bound_beck,
    bound_erdos_graham,
    bound_report,
    bound_selmer,
    bound_vitek,
    chain_bounds,
    frobenius_oracle,
    frobenius_two,
    is_independent,
    normalize_basis,
    random_basis,
)


def test_erdos_graham_examples():
    assert bound_erdos_graham(normalize_basis([7, 11, 13])) == 75
    # 2 * 3 * (5 // 3) - 5 = 1, which is exactly the answer for {2, 3, 5}.
    assert bound_erdos_graham(normalize_basis([2, 3, 5])) == 1


def test_selmer_examples():
    assert bound_selmer(normalize_basis([7, 11, 13])) == 45
    assert bound_selmer(normalize_basis([53, 71, 91])) == 3041


def test_vitek_examples():
    assert bound_vitek(normalize_basis([7, 11, 13])) == 54
    assert bound_vitek(normalize_basis([151, 157, 251, 711])) == 55301
    assert bound_vitek(normalize_basis([3, 5])) == 5  # vacuous arity, value still defined
    assert bound_vitek(normalize_basis([3, 4, 7])) == Fraction(13, 2)  # half-integers happen


def test_beck_examples_are_tight_rational_upper_approximations():
    cases = [
        ([7, 11, 13], 31031),  # a1*a2*a3*(a1+a2+a3)
        ([2, 3, 5], 300),
        ([3, 5, 7], 1575),
    ]
    for elements, s in cases:
        b = normalize_basis(elements)
        beck = bound_beck(b)
        total = sum(elements)
        assert isinstance(beck, Fraction)
        # Upper approximation of (sqrt(s) - total) / 2 ...
        assert (2 * beck + total) ** 2 >= s
        # ... within 1e-6 of the true value.
        shaved = beck - Fraction(1, 10**6)
        assert (2 * shaved + total) ** 2 < s


def test_beck_decimal_spot_values():
    assert float(bound_beck(normalize_basis([7, 11, 13]))) == pytest.approx(72.57809, abs=1e-4)
    assert float(bound_beck(normalize_basis([2, 3, 5]))) == pytest.approx(3.66025, abs=1e-4)
    assert float(bound_beck(normalize_basis([3, 5, 7]))) == pytest.approx(12.34313, abs=1e-4)


def test_beck_needs_three_generators():
    with pytest.raises(ArityError):
        bound_beck(normalize_basis([3, 5]))


def test_erdos_graham_exact_for_two_generators_with_odd_larger():
    for a in range(2, 30):
        for b in range(a + 1, 41):
            if b % 2 == 1 and gcd(a, b) == 1:
                basis = normalize_basis([a, b])
                assert bound_erdos_graham(basis) == frobenius_two(a, b), (a, b)


def test_selmer_vacuity_small_first_element():
    assert bound_report(normalize_basis([2, 3, 5])).selmer_vacuous  # 2 // 3 == 0
    assert not bound_report(normalize_basis([7, 11, 13])).selmer_vacuous


def test_selmer_vacuity_dependent_system():
    # 104 = 26 * 4 inflates the arity; the bound then undershoots the answer.
    b = normalize_basis([4, 81, 104])
    assert not is_independent(b)
    assert bound_report(b).selmer_vacuous
    assert bound_selmer(b) == 204
    assert frobenius_oracle(b) == 239  # bound < answer: why the flag exists


def test_beck_vacuity_dependent_system():
    # 46 = 2 * 23 deflates the three-smallest product; {23, 269} alone has
    # answer 23 * 269 - 23 - 269 = 5895, above the formula value ~4735.
    b = normalize_basis([23, 46, 269])
    assert not is_independent(b)
    assert bound_report(b).beck_vacuous
    assert bound_beck(b) < 4735
    assert frobenius_oracle(b) == 5895
    assert not bound_report(normalize_basis([7, 11, 13])).beck_vacuous
    assert bound_report(normalize_basis([3, 5])).beck_vacuous  # arity alone


def test_vacuity_flags_over_the_table_cap_are_the_reports():
    # The residue table is refused here, so independence is unknown and
    # bound_report flags both bounds vacuous.
    b = Basis(tuple(2**24 + k for k in range(1, 5)))
    r = bound_report(b)
    assert r.chain is None and r.selmer_vacuous and r.beck_vacuous


def test_chain_examples():
    assert chain_bounds(normalize_basis([7, 11, 13])) == (59, 30)
    assert chain_bounds(normalize_basis([2, 3, 5])) == (1, 1)
    assert chain_bounds(normalize_basis([4, 6, 9])) == (None, 11)
    assert chain_bounds(normalize_basis([6, 10, 15])) == (None, 29)
    assert chain_bounds(normalize_basis([1, 4])) == (-1,)


def test_report_shape_for_two_generators():
    r = bound_report(normalize_basis([3, 5]))
    assert r.beck is None and r.beck_vacuous
    assert r.vitek_vacuous
    assert r.tightest in ("erdos-graham", "selmer")


def test_report_tightest_is_the_minimum_non_vacuous():
    r = bound_report(normalize_basis([7, 11, 13]))
    assert r.tightest == "selmer"
    assert r.selmer == 45
    values = {
        "erdos-graham": r.erdos_graham,
        "selmer": r.selmer,
        "vitek": r.vitek,
        "beck": r.beck,
    }
    non_vacuous = [values["erdos-graham"]]
    if not r.selmer_vacuous:
        non_vacuous.append(values["selmer"])
    if not r.vitek_vacuous:
        non_vacuous.append(values["vitek"])
    if not r.beck_vacuous:
        non_vacuous.append(values["beck"])
    assert values[r.tightest] == min(non_vacuous)


def test_dominance_on_seeded_corpus():
    rng = Lcg(11)
    for _ in range(120):
        basis = random_basis(rng, max_element=150, max_arity=5)
        g = frobenius_oracle(basis)
        r = bound_report(basis)
        assert r.erdos_graham >= g, (basis, "erdos-graham")
        if not r.selmer_vacuous:
            assert r.selmer >= g, (basis, "selmer")
        if not r.vitek_vacuous:
            assert r.vitek >= g, (basis, "vitek")
        if not r.beck_vacuous:
            assert r.beck >= g, (basis, "beck")
        defined = [c for c in r.chain if c is not None]
        assert all(x >= y for x, y in zip(defined, defined[1:]))
        assert r.chain[-1] == g
