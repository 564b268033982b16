"""Seeded inputs and output checks for the four benchmark workloads.

A run is a sequence of rounds.  Every round of a workload has the same
make-up (the same number of operations of each kind, and the same
seed-independent inputs for the operations that exercise a known fault);
the seeded inputs are drawn fresh for each round from one random.Random
stream, so the same seed gives the same inputs and a longer run samples
more of them.  Because a run attempts whole rounds, the failed share of a
run is fixed by the make-up of a round.

The checks compare each operation's output with the residue-table
reference (reference.py) or with a property the method must have; none of
them compares with stored output of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from typing import Callable

from reference import ResidueTable

# Bases that the program cannot serve today.  They do not depend on the
# seed, so every round fails them the same way until the faults are fixed:
# compute has no budget (it would scan ~8e9 candidates, and its memo grows
# until the worker's memory budget cuts it), and bounds refuses the whole
# report because the prefix chain is over the sieve cap.
LARGE_TRIPLE = (100003, 100019, 100043)
OVER_CAP_TRIPLE = (31627, 31643, 31649)

VERIFY_COUNT = 20
VERIFY_MAX = 60
VERIFY_ARITY = 5


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, and whether it runs on a known-fault input."""

    argv: tuple[str, ...]
    known_fault: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float  # per operation, at the reference host speed (calibration.py)
    make_round: Callable[[random.Random], list[Op]]
    check: Callable[[Op, str], str | None]  # an error message, or None if the output is right


def scan_bound(es) -> int:
    """Telescoping gcd bound: every integer above it is representable."""
    d, bound = es[0], -es[0]
    for a in es[1:]:
        nd = gcd(d, a)
        bound += a * (d // nd) - a
        d = nd
    return bound


@lru_cache(maxsize=4096)
def table(es: tuple[int, ...]) -> ResidueTable:
    return ResidueTable(es)


# -- verify-small ---------------------------------------------------------

def verify_round(rng: random.Random) -> list[Op]:
    return [
        Op(("verify", "--json", "--count", str(VERIFY_COUNT), "--max", str(VERIFY_MAX),
            "--arity", str(VERIFY_ARITY), "--seed", str(rng.randrange(2**32))))
        for _ in range(10)
    ]


def verify_check(op: Op, stdout: str) -> str | None:
    lines = [json.loads(line) for line in stdout.splitlines()]
    seed = int(op.argv[op.argv.index("--seed") + 1])
    if len(lines) != VERIFY_COUNT + 1:
        return f"{len(lines)} lines for --count {VERIFY_COUNT}"
    for row in lines[:-1]:
        es = row["basis"]
        if not (2 <= len(es) <= VERIFY_ARITY and 2 <= es[0] and es[-1] <= VERIFY_MAX
                and all(a < b for a, b in zip(es, es[1:])) and reduce(gcd, es) == 1):
            return f"basis {es} is not a valid draw"
        f = table(tuple(es)).frobenius
        if not row["descent"] == row["sequential"] == row["oracle"] == f or row["agree"] is not True:
            return f"row {row} but the reference gives {f}"
    expected = {"cases": VERIFY_COUNT, "agreements": VERIFY_COUNT, "disagreements": 0,
                "seed": seed, "max_element": VERIFY_MAX, "max_arity": VERIFY_ARITY}
    if lines[-1] != expected:
        return f"summary {lines[-1]}"
    return None


# -- compute-large ----------------------------------------------------------

def compute_round(rng: random.Random) -> list[Op]:
    # A coprime leading pair in a narrow band fixes the descent's scan
    # length near a1*a2 (~1.2e4 candidates), so the cost of a round varies
    # little between seeds; arities 3, 4 and 5 in equal shares.
    ops = []
    for n in (3, 4, 5) * 10:
        while True:
            a1 = rng.randint(100, 120)
            a2 = rng.randint(a1 + 1, a1 + 20)
            if gcd(a1, a2) == 1:
                break
        es = [a1, a2] + rng.sample(range(a2 + 1, 301), n - 2)
        ops.append(Op(("compute", "--json", *map(str, sorted(es)))))
    ops.append(Op(("compute", "--json", *map(str, LARGE_TRIPLE)), known_fault=True))
    return ops


def compute_check(op: Op, stdout: str) -> str | None:
    es = tuple(map(int, op.argv[2:]))
    out = json.loads(stdout)
    if out["basis"] != list(es):
        return f"basis {out['basis']} for input {list(es)}"
    f = table(es).frobenius
    if out["result"] != f:
        return f"result {out['result']} but the reference gives {f}"
    if not isinstance(out["elapsed_ms"], (int, float)) or out["elapsed_ms"] < 0:
        return f"elapsed_ms {out['elapsed_ms']!r}"
    return None


# -- bounds-wide ------------------------------------------------------------

BOUND_ORDER = ("erdos-graham", "selmer", "vitek", "beck")
# An odd number of evenly spaced arities puts the median latency in the
# middle of one of them rather than in a gap between two.
WIDE_ARITIES = (20, 50, 80, 110, 140, 170, 200)


def bounds_round(rng: random.Random) -> list[Op]:
    # A coprime leading pair makes every prefix of the chain sieve to about
    # a1*a2, so the cost of a basis depends mostly on its arity.
    ops = []
    for n in WIDE_ARITIES:
        while True:
            es = sorted(rng.sample(range(200, 2001), n))
            if gcd(es[0], es[1]) == 1:
                break
        ops.append(Op(("bounds", "--json", *map(str, es))))
    for es in (LARGE_TRIPLE, OVER_CAP_TRIPLE):
        ops.append(Op(("bounds", "--json", *map(str, es)), known_fault=True))
    return ops


def bounds_check(op: Op, stdout: str) -> str | None:
    es = tuple(map(int, op.argv[2:]))
    out = json.loads(stdout)
    if out["basis"] != list(es):
        return f"basis {out['basis']} for input {list(es)}"
    ref = table(es)
    f, n = ref.frobenius, len(es)
    if out["chain"] != list(ref.chain):
        return "chain differs from the reference prefix Frobenius numbers"
    if out["erdos_graham"] != 2 * es[-2] * (es[-1] // n) - es[-1]:
        return "erdos_graham differs from its formula"
    if out["selmer"] != 2 * es[-1] * (es[0] // n) - es[0]:
        return "selmer differs from its formula"
    if Fraction(out["vitek"]) != Fraction((es[1] - 1) * (es[-1] - 2), 2) - 1:
        return "vitek differs from its formula"
    if out["selmer_vacuous"] != (es[0] // n == 0 or not ref.independent):
        return "selmer_vacuous disagrees with the reference independence"
    if out["vitek_vacuous"] != (n < 3):
        return "vitek_vacuous"
    if out["beck_vacuous"] != (n < 3 or not ref.independent):
        return "beck_vacuous disagrees with the reference independence"
    values = {"erdos-graham": Fraction(out["erdos_graham"]), "selmer": Fraction(out["selmer"]),
              "vitek": Fraction(out["vitek"])}
    if n < 3:
        if out["beck"] is not None:
            return "beck given for two generators"
    else:
        beck = Fraction(out["beck"])
        s = sum(es[:3])
        p = es[0] * es[1] * es[2] * s
        root = 2 * beck + s  # the rational stand-in for sqrt(p)
        if not (root - Fraction(1, 10**6)) ** 2 < p <= root * root:
            return "beck is not an upper approximation within 1e-6 of its square root"
        values["beck"] = beck
    vacuous = {"erdos-graham": False, "selmer": out["selmer_vacuous"],
               "vitek": out["vitek_vacuous"], "beck": out["beck_vacuous"]}
    live = [name for name in BOUND_ORDER if name in values and not vacuous[name]]
    for name in live:
        if values[name] < f:
            return f"non-vacuous bound {name} = {values[name]} is below F = {f}"
    tightest = min(live, key=lambda name: (values[name], BOUND_ORDER.index(name)))
    if out["tightest"] != tightest:
        return f"tightest {out['tightest']} but the minimum is {tightest}"
    return None


# -- hasrep-mid -------------------------------------------------------------

# Fixed bases, so that only the targets depend on the seed: the cost of a
# point query varies far more between random bases of this size than
# between targets.  The 8-generator basis gives the find_witness tail
# (about 1 ms per query, up to 10 ms); on the other two a query costs
# little beside building the parser.
HASREP_BASES = (
    (519, 534, 624, 633, 716, 724, 737, 881),
    (444, 568, 643, 645, 677, 696, 805, 909, 938, 943),
    (346, 480, 528, 627, 663, 686, 697, 827, 857, 892, 948, 994),
)


def hasrep_round(rng: random.Random) -> list[Op]:
    ops = []
    for es in HASREP_BASES:
        upper = scan_bound(es)
        for _ in range(20):
            ops.append(Op(("hasrep", "--json", str(rng.randint(0, upper)), *map(str, es))))
    return ops


def hasrep_check(op: Op, stdout: str) -> str | None:
    target = int(op.argv[2])
    es = tuple(map(int, op.argv[3:]))
    out = json.loads(stdout)
    if out["basis"] != list(es) or out["target"] != target:
        return "basis or target not echoed"
    member = table(es).contains(target)
    if out["representable"] != member:
        return f"representable {out['representable']} but the reference says {member}"
    witness = out["witness"]
    if not member:
        return None if witness is None else "witness for a non-representable target"
    if (witness is None or len(witness) != len(es) or any(c < 0 for c in witness)
            or sum(c * a for c, a in zip(witness, es)) != target):
        return f"witness {witness} does not sum to {target}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-small", 10.0, verify_round, verify_check),
        Workload("compute-large", 2.0, compute_round, compute_check),
        Workload("bounds-wide", 10.0, bounds_round, bounds_check),
        Workload("hasrep-mid", 10.0, hasrep_round, hasrep_check),
    )
}
