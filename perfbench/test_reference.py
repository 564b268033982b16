"""Tests for the residue-table reference, against a brute reachable-sums walk.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
from math import gcd
from functools import reduce

import pytest

from reference import ResidueTable

# Published answers of the seven reference instances shipped with the package.
PUBLISHED = (
    ((7, 11, 13), 30),
    ((53, 71, 91), 899),
    ((322, 654, 765), 27971),
    ((123, 1234, 12345), 71459),
    ((151, 157, 251, 711), 3019),
    ((151, 157, 251, 711, 912), 3019),
    (
        (
            101, 109, 113, 119, 121, 131, 139, 149, 151, 161,
            163, 167, 169, 187, 191, 214, 219, 238, 276, 324,
            345, 346, 349, 387, 421, 427, 444, 453, 463, 525,
            530, 555, 579, 580, 625, 711, 719, 737, 752, 787,
            814, 834, 856, 878, 899, 915, 937, 978, 989,
        ),
        426,
    ),
)


def reachable(elements, limit):
    """reach[t] for t in [0, limit], walking sums upward one target at a time."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for t in range(1, limit + 1):
        reach[t] = any(a <= t and reach[t - a] for a in elements)
    return reach


def brute_frobenius(elements):
    """Largest unreachable target, or None when the gcd exceeds 1.

    Every target above (a1 - 1) * (an - 1) is reachable when the gcd is 1,
    so walking to a1 * an is enough.
    """
    if reduce(gcd, elements) != 1:
        return None
    limit = elements[0] * elements[-1]
    reach = reachable(elements, limit)
    return max((t for t in range(limit + 1) if not reach[t]), default=-1)


def small_bases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        yield tuple(sorted(rng.sample(range(1, 40), n)))


@pytest.mark.parametrize("elements, expected", PUBLISHED)
def test_published_answers(elements, expected):
    assert ResidueTable(elements).frobenius == expected


def test_frobenius_and_chain_match_brute_walk():
    for es in small_bases(300, 1):
        table = ResidueTable(es)
        expected = tuple(brute_frobenius(es[:k]) for k in range(2, len(es) + 1))
        assert table.chain == expected, es


def test_membership_matches_brute_walk():
    for es in small_bases(200, 2):
        limit = 3 * es[0] * es[-1]
        reach = reachable(es, limit)
        table = ResidueTable(es)
        assert [table.contains(t) for t in range(limit + 1)] == reach, es
        assert not table.contains(-1)


def test_dependence_matches_brute_walk():
    for es in small_bases(300, 3):
        table = ResidueTable(es)
        expected = [False] + [reachable(es[:i], es[i])[es[i]] for i in range(1, len(es))]
        assert table.dependent == expected, es


def test_edge_cases():
    assert ResidueTable((1, 5)).frobenius == -1
    assert ResidueTable((2, 3)).frobenius == 1
    assert ResidueTable((4, 6, 9)).chain == (None, 11)
    assert ResidueTable((3, 6, 7)).dependent == [False, True, False]
    with pytest.raises(ValueError):
        ResidueTable((5,))
