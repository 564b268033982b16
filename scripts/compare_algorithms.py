#!/usr/bin/env python3
"""Benchmark the four solvers on a seeded random corpus.

    python3 scripts/compare_algorithms.py --count 500 --max 200 --arity 5 --seed 42

Reports per-algorithm total wall time and the agreement count; any
disagreement is printed in full and makes the exit status nonzero.
"""

from __future__ import annotations

import argparse
import time

from frobenius import (
    frobenius_descent,
    frobenius_oracle,
    frobenius_sequential,
    random_bases,
    residue_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max", type=int, default=200, help="largest element to draw")
    parser.add_argument("--arity", type=int, default=5, help="largest basis size to draw")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    bases = list(
        random_bases(args.seed, args.count, max_element=args.max, max_arity=args.arity)
    )
    solvers = {
        "residue": lambda b: residue_table(b).frobenius,
        "descent": lambda b: frobenius_descent(b).value,
        "sequential": lambda b: frobenius_sequential(b).value,
        "oracle": frobenius_oracle,
    }
    answers = {}
    for name, fn in solvers.items():
        t0 = time.perf_counter()
        answers[name] = [fn(b) for b in bases]
        print(f"{name:<11} {time.perf_counter() - t0:7.2f}s for {len(bases)} bases")

    disagreements = [
        (b.elements, row)
        for b, row in zip(bases, zip(*answers.values()))
        if len(set(row)) > 1
    ]
    for elements, row in disagreements:
        found = " ".join(f"{name}={value}" for name, value in zip(answers, row))
        print(f"DISAGREE {list(elements)}: {found}")
    print(f"{len(bases) - len(disagreements)}/{len(bases)} agree")
    return 0 if not disagreements else 2


if __name__ == "__main__":
    raise SystemExit(main())
