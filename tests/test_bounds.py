"""Upper-bound formulas, vacuity conditions, and the prefix chain."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import frobenius.oracle
from frobenius import (
    ArityError,
    Basis,
    Lcg,
    ResourceLimitError,
    bound_beck,
    bound_erdos_graham,
    bound_report,
    bound_selmer,
    bound_vitek,
    chain_bounds,
    frobenius_oracle,
    frobenius_two,
    gcd_all,
    is_independent,
    normalize_basis,
    random_basis,
    residue_table,
)
from frobenius.oracle import _shrinking_sieve, prefix_table

from conftest import brute_frobenius, brute_representable


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
    assert _shrinking_sieve(b) is None  # a window of F_3 + a1, about 2**47 bits, is over its cap
    r = bound_report(b)
    assert r.chain is None and r.selmer_vacuous and r.beck_vacuous
    with pytest.raises(ResourceLimitError):
        is_independent(b)


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


# -- prefix_table: the chain and the redundancy flags from one shrinking sieve


@st.composite
def chain_bases(draw, max_element):
    """Up to 9 generators; small multiples of a shared factor often lead,
    so the first prefix with gcd 1 can be long.  1 may be a generator."""
    factor = draw(st.sampled_from([1, 2, 3, 4, 6, 10, 30]))
    shared = draw(st.sets(st.integers(2, max(2, max_element // 30)), max_size=4))
    rest = draw(st.sets(st.integers(2, max_element), min_size=1, max_size=6))
    raw = {factor * v for v in shared} | rest
    if draw(st.sampled_from([False] * 9 + [True])):
        raw.add(1)
    assume(len(raw) >= 2 and gcd_all(raw) == 1)
    return normalize_basis(raw)


@settings(max_examples=300, deadline=None)
@given(chain_bases(max_element=2000))
def test_prefix_table_matches_the_residue_table(basis):
    expected = residue_table(basis)
    assert prefix_table(basis) == expected
    table = _shrinking_sieve(basis) if basis.n >= 4 else None
    assert table is None or table == expected


@settings(max_examples=150, deadline=None)
@given(chain_bases(max_element=50))
def test_prefix_table_matches_the_brute_oracles(basis):
    es = basis.elements
    table = prefix_table(basis)
    assert table.chain == tuple(
        brute_frobenius(es[:k]) if gcd_all(es[:k]) == 1 else None for k in range(2, len(es) + 1)
    )
    assert table.redundant == (False,) + tuple(
        brute_representable(es[i], es[:i]) for i in range(1, len(es))
    )


@pytest.mark.parametrize(
    "es, chain, redundant",
    [
        # The first prefix with gcd 1 is the fourth, then the fifth.
        ((6, 10, 14, 15, 17), (None, None, 23, 19), (False,) * 5),
        ((6, 12, 18, 20, 21, 25), (None, None, None, 55, 35), (False, True, True) + (False,) * 3),
        # 7 = F({3, 5, 7}) + 3 is independent and ends the first window.
        ((3, 5, 7, 8), (7, 4, 4), (False, False, False, True)),
        # 10 = F({4, 5, 7}) + 4 is the window's last bit.
        ((4, 5, 7, 10), (11, 6, 6), (False, False, False, True)),
        # Generators above the window are redundant unread.
        ((3, 5, 7, 100, 101), (7, 4, 4, 4), (False, False, False, True, True)),
        ((1, 4, 6, 9), (-1, -1, -1), (False, True, True, True)),
    ],
)
def test_prefix_table_by_the_sieve_on_window_edges(es, chain, redundant):
    basis = Basis(es)
    table = _shrinking_sieve(basis)
    assert table is not None
    assert (table.chain, table.redundant) == (chain, redundant)
    expected = residue_table(basis)
    assert (expected.chain, expected.redundant) == (chain, redundant)
    assert [brute_frobenius(es[:k]) for k in range(2, len(es) + 1) if gcd_all(es[:k]) == 1] == [
        c for c in chain if c is not None
    ]


# A pair's table comes from its closed form (tested below); the residue
# table stays its reference here.
@pytest.mark.parametrize("es", [(3, 5), (1, 4), (6, 10, 15), (1, 5, 7), (4, 81, 104)])
def test_prefix_table_takes_the_residue_table_below_four_generators(es):
    basis = Basis(es)
    assert prefix_table(basis) == residue_table(basis)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(2, 90))
@example(1, 2)
@example(1, 7)
def test_a_pairs_prefix_table_is_its_closed_form(a1, a2):
    assume(a1 < a2 and gcd(a1, a2) == 1)
    basis = Basis((a1, a2))
    table = prefix_table(basis)
    assert table == residue_table(basis)
    assert table.chain == (brute_frobenius((a1, a2)),)
    assert table.redundant == (False, brute_representable(a2, (a1,)))


def test_bounds_on_a_pair_over_the_table_cap_reads_the_closed_form(monkeypatch):
    # a1 is over RESIDUE_CAP, where the residue table is refused; the
    # pair's chain and independence need no table at all.
    def refused(basis):
        raise ResourceLimitError("no table for a pair")

    monkeypatch.setattr("frobenius.oracle.residue_table", refused)
    b = Basis((16777259, 16777289))
    r = bound_report(b)
    assert r.chain == (frobenius_two(*b.elements),) == (281476889316303,)
    assert not r.selmer_vacuous and r.beck_vacuous
    assert is_independent(b) and not is_independent(Basis((1, 16777289)))


def test_each_generator_is_sieved_within_the_last_prefix_window(monkeypatch):
    # After each prefix past the first window, the limit is cut to that
    # prefix's F + a1, so a later generator shifts only F_{k-1} + a1 bits.
    basis = normalize_basis(random.Random(5).sample(range(500, 3000), 40))
    es, chain = basis.elements, residue_table(basis).chain
    limits = {}
    close = frobenius.oracle._close

    def spy(bits, a, mask):
        limits[a] = mask.bit_length() - 1
        return close(bits, a, mask)

    monkeypatch.setattr(frobenius.oracle, "_close", spy)
    assert prefix_table(basis).chain == chain
    later = [k for k in range(4, len(es) + 1) if es[k - 1] in limits]
    assert len(later) > 10
    for k in later:
        assert limits[es[k - 1]] == chain[k - 3] + es[0], k


def test_the_cost_rule_falls_back_to_the_residue_table(monkeypatch):
    # Four generators near 10**4: the sieve to F_3 + a1 is projected at
    # more words than the table's a1 * 3 steps are worth.
    basis = Basis((10007, 10009, 10037, 10039))
    assert _shrinking_sieve(basis) is None
    expected = residue_table(basis)
    r = bound_report(basis)
    assert (r.chain, r.selmer_vacuous, r.beck_vacuous) == (expected.chain, False, False)
    calls = []
    monkeypatch.setattr(
        "frobenius.oracle.residue_table", lambda b: calls.append(b) or expected
    )
    assert chain_bounds(basis) == expected.chain and calls == [basis]


def test_bound_report_reaches_a1_near_1e5_with_200_generators():
    basis = Basis(tuple(sorted(random.Random(100000).sample(range(10**5, 2 * 10**5), 200))))
    t0 = perf_counter()
    r = bound_report(basis)
    assert perf_counter() - t0 < 1.0  # the residue table takes 3 to 5 s
    assert r.chain == residue_table(basis).chain


@st.composite
def bases_with_a_tail_above_the_window(draw):
    head = sorted(draw(st.sets(st.integers(1, 40), min_size=3, max_size=6)))
    assume(gcd_all(head) == 1)
    # Every generator above F + a1 of a coprime prefix is redundant.
    window = max(residue_table(Basis(tuple(head))).frobenius + head[0], head[-1])
    tail = draw(st.sets(st.integers(window + 1, window + 400), min_size=1, max_size=8))
    return Basis(tuple(head) + tuple(sorted(tail)))


@settings(max_examples=200, deadline=None)
@given(bases_with_a_tail_above_the_window())
@example(Basis((1, 4, 6, 9)))
@example(Basis((3, 5, 7, 100, 101)))
@example(Basis((6, 10, 15, 36, 41)))
@example(Basis((6, 10, 14, 15, 17, 26, 40)))  # the first prefix with gcd 1 is the fourth
def test_a_tail_above_the_window_is_redundant_and_unread(basis):
    es = basis.elements
    sieved = []
    close = frobenius.oracle._close

    def spy(bits, a, mask):
        sieved.append(a)
        return close(bits, a, mask)

    with mock.patch.object(frobenius.oracle, "_close", spy):
        table = _shrinking_sieve(basis)
    assume(table is not None)
    expected = residue_table(basis)
    assert table == expected
    f = next(c for c in reversed(expected.chain) if c is not None)
    tail = [e for e in es[1:] if e > f + es[0]]
    assert tail and all(expected.redundant[es.index(e)] for e in tail)
    assert not set(sieved) & set(tail)
