"""Acceptance gate: seven end-to-end criteria, one summary line each.

Run with -s to see the lines as they pass:

    pytest -v -s tests/test_acceptance.py

Each test prints "ACCEPTANCE <n> <name>: PASS/FAIL <metric>" and then
asserts, so a red criterion is visible both in the line and in pytest's
own report.  Tolerances are fixed here and nowhere else: reference rows
and closed forms must be exact, bound dominance must have zero
violations, cross-validation must agree 500/500, the verify stream must
be byte-identical, and the two timed criteria must finish inside 60 s
and 120 s respectively.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from frobenius import (
    Basis,
    FibonacciTripleParams,
    OutOfEnvelopeError,
    REFERENCE_CASES,
    bound_report,
    f_indicator,
    fibonacci_triple_elements,
    frobenius_arithmetic,
    frobenius_descent,
    frobenius_fibonacci_triple,
    frobenius_oracle,
    frobenius_sequential,
    frobenius_two,
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
from frobenius.cli import main

# The shared corpus for criteria 2 and 4.
CORPUS_SEED = 42
CORPUS_COUNT = 500
CORPUS_MAX_ELEMENT = 200
CORPUS_MAX_ARITY = 5


def _report(number: int, name: str, ok: bool, metric: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({metric})")
    assert ok, f"criterion {number} ({name}): {metric}"


def _corpus() -> list[Basis]:
    return list(
        random_bases(
            CORPUS_SEED,
            CORPUS_COUNT,
            max_element=CORPUS_MAX_ELEMENT,
            max_arity=CORPUS_MAX_ARITY,
        )
    )


def test_criterion_1_reference_rows_exact_and_fast():
    t0 = time.perf_counter()
    wrong = []
    for elements, expected in REFERENCE_CASES:
        got = frobenius_descent(Basis(elements)).value
        if got != expected:
            wrong.append((elements[:4], expected, got))
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 60.0
    _report(1, "reference rows", ok, f"7 rows, {elapsed:.2f}s, mismatches={wrong}")


def test_criterion_2_three_way_cross_validation():
    t0 = time.perf_counter()
    disagreements = []
    for basis in _corpus():
        d = frobenius_descent(basis).value
        s = frobenius_sequential(basis).value
        o = frobenius_oracle(basis)
        if not d == s == o:
            disagreements.append((basis.elements, d, s, o))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 120.0
    _report(
        2,
        "cross-validation",
        ok,
        f"{CORPUS_COUNT - len(disagreements)}/{CORPUS_COUNT} agree, {elapsed:.2f}s",
    )


def test_criterion_3_closed_form_conformance():
    bad = []
    pairs = 0
    for a in range(2, 101):
        for b in range(a + 1, 101):
            if gcd(a, b) != 1:
                continue
            pairs += 1
            if frobenius_two(a, b) != frobenius_oracle(normalize_basis([a, b])):
                bad.append(("pair", a, b))
    progressions = 0
    for a in range(2, 41):
        for d in range(1, 11):
            if gcd(a, d) != 1:
                continue
            for k in range(1, 7):
                progressions += 1
                basis = normalize_basis([a + i * d for i in range(k + 1)])
                if frobenius_arithmetic(a, d, k) != frobenius_oracle(basis):
                    bad.append(("progression", a, d, k))
    triples = 0
    rejected = 0
    anchor_ok = frobenius_fibonacci_triple(FibonacciTripleParams(i=4, k=3)) == 10
    for i in range(3, 11):
        for k in range(3, 9):
            params = FibonacciTripleParams(i=i, k=k)
            basis = Basis(fibonacci_triple_elements(params))
            try:
                value = frobenius_fibonacci_triple(params)
            except OutOfEnvelopeError:
                rejected += 1
                continue
            triples += 1
            if value != frobenius_oracle(basis):
                bad.append(("fibonacci", i, k))
    ok = not bad and anchor_ok
    _report(
        3,
        "closed forms",
        ok,
        f"{pairs} pairs, {progressions} progressions, {triples} triples "
        f"({rejected} out-of-envelope), anchor(4,3)->10={anchor_ok}, bad={bad[:5]}",
    )


def test_criterion_4_bound_dominance_and_chain():
    violations = []
    for basis in _corpus():
        g = frobenius_oracle(basis)
        r = bound_report(basis)
        if r.erdos_graham < g:
            violations.append(("erdos-graham", basis.elements))
        if not r.selmer_vacuous and r.selmer < g:
            violations.append(("selmer", basis.elements))
        if not r.vitek_vacuous and r.vitek < g:
            violations.append(("vitek", basis.elements))
        if not r.beck_vacuous and r.beck < g:
            violations.append(("beck", basis.elements))
        defined = [c for c in r.chain if c is not None]
        if any(x < y for x, y in zip(defined, defined[1:])):
            violations.append(("chain-monotonic", basis.elements))
        if r.chain[-1] != g:
            violations.append(("chain-final", basis.elements))
    _report(
        4,
        "bound dominance",
        not violations,
        f"{CORPUS_COUNT} bases, violations={violations[:5]}",
    )


def test_criterion_5_h_zero_equivalence():
    bases = list(random_bases(5, 50, max_element=60, max_arity=4))
    mismatches = []
    checked = 0
    exact_checked = 0
    for basis in bases:
        upper = scan_upper_bound(basis)
        table = sieve(basis, upper)
        for R in range(1, upper + 1):
            checked += 1
            if h_is_zero(R, basis) != table[R]:
                mismatches.append((basis.elements, R))
        if upper <= 150:
            # Exact product values on the small instances: the fast zero
            # test and the literal rational h must agree everywhere.
            for R in range(1, upper + 1):
                exact_checked += 1
                if (h_general(R, basis) == 0) != table[R]:
                    mismatches.append((basis.elements, R, "exact"))
    ok = not mismatches and exact_checked > 0
    _report(
        5,
        "h zero-equivalence",
        ok,
        f"{len(bases)} bases, {checked} indicator checks, "
        f"{exact_checked} exact-value checks, mismatches={mismatches[:5]}",
    )


def test_criterion_6_base_case_regression():
    trap_ok = has_rep_two(3, 3, 5) and has_rep(3, normalize_basis([3, 5]))
    bad = []
    pairs = 0
    for b1 in range(2, 31):
        for b2 in range(b1 + 1, 31):
            if gcd(b1, b2) != 1:
                continue
            pairs += 1
            limit = 2 * b1 * b2
            # Independent enumeration: all x*b1 + y*b2 within the window.
            reachable = set()
            for x in range(limit // b1 + 1):
                base = x * b1
                for y in range((limit - base) // b2 + 1):
                    reachable.add(base + y * b2)
            for a in range(limit + 1):
                if has_rep_two(a, b1, b2) != (a in reachable):
                    bad.append((b1, b2, a))
    ok = trap_ok and not bad
    _report(
        6,
        "base-case regression",
        ok,
        f"trap(3 over {{3,5}})={trap_ok}, {pairs} coprime pairs exhaustive, bad={bad[:5]}",
    )


def test_criterion_7_determinism_and_exactness(capsys):
    argv = [
        "verify",
        "--count",
        "20",
        "--max",
        "120",
        "--arity",
        "4",
        "--seed",
        "42",
        "--json",
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    deterministic = code1 == code2 == 0 and out1 == out2
    # Exactness audit: every indicator-path value is an int or a Fraction.
    exact = True
    b = normalize_basis([3, 5, 7])
    deltas = sequential_trace(b).deltas
    for R in range(1, 12):
        fv = f_indicator(3, R)
        hv = h_two(R, 3, 5)
        gv = h_general(R, b)
        dv = deltas[R - 1] if R <= len(deltas) else 0
        for v in (fv, dv):
            exact = exact and isinstance(v, int) and not isinstance(v, bool)
        for v in (hv, gv):
            exact = exact and isinstance(v, Fraction) and not isinstance(v, float)
    exact = exact and isinstance(n_indicator(Fraction(1, 2)), int)
    ok = deterministic and exact
    _report(
        7,
        "determinism and exactness",
        ok,
        f"byte-identical={out1 == out2}, {len(out1.splitlines())} lines, exact-types={exact}",
    )
