"""Command-line interface.

Subcommands:
    compute   Frobenius number of one basis (--algorithm residue|paper|oracle|sequential)
    verify    cross-check four algorithms on seeded random bases
    table1    recompute the bundled reference instances, cross-checked
    bounds    classical upper bounds and the prefix chain
    hasrep    membership test for one target, with a witness
    trace     full indicator vector and telescoping-sum evaluation

Exit codes: 0 success, 1 invalid input (including bad flags), 2 internal
disagreement between algorithms.  --json switches every subcommand to
one JSON object per line; verify --json output carries no timing fields,
so identical seeds give byte-identical output.

Input files (--file) hold integers separated by whitespace, newlines, or
commas; everything after # on a line is a comment.

Element lists are converted to ints in one pass, not one interpreter
call per token (see _Parser); argparse still looks at each token once to
tell options from positionals.

Only the standard library and the errors module are imported with this
module.  Each subcommand imports the modules it runs when it runs, and
the parser imports the solver's algorithm names when it is first built,
so a call loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import TYPE_CHECKING

from .errors import FrobeniusError, InvalidInputError, ResourceLimitError

if TYPE_CHECKING:
    from .basis import Basis
    from .solver import FrobeniusResult


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 for bad usage, and wide element lists converted in bulk.

    argparse exits with 2 on bad usage; 2 is reserved here, so remap to 1.
    argparse converts and checks each token of a list argument with its
    own interpreter calls, and the subcommand's tokens pass through the
    top-level parser that way before the subparser converts them again.
    Here the subcommand's tokens pass through as one list, and an int list
    positional is converted by one map(int, ...).  Anything that needs
    argparse's own handling goes to it, so every message and exit code is
    argparse's: a "--" among the tokens, a token that int() rejects, or
    an argument with choices.  _get_values is argparse's private
    conversion step; tests/test_cli_parity.py pins the answers, and
    tools/cli_parity.py compares them across interpreters.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        if arg_strings and "--" not in arg_strings:
            if action.nargs == argparse.PARSER and action.type is None:
                self._check_value(action, arg_strings[0])  # the subcommand's name
                return list(arg_strings)
            int_list = action.nargs == argparse.ZERO_OR_MORE and action.type is int
            if int_list and action.choices is None:
                try:
                    return list(map(int, arg_strings))
                except ValueError:
                    pass  # argparse names the token
        return super()._get_values(action, arg_strings)


def parse_int_stream(text: str) -> list[int]:
    """Integers from free-form text; # starts a comment, commas allowed."""
    values = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for token in line.replace(",", " ").split():
            try:
                values.append(int(token))
            except ValueError:
                raise InvalidInputError(f"not an integer: {token!r}") from None
    return values


def _add_element_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("elements", nargs="*", type=int, help="basis elements")
    sub.add_argument("--file", help="read basis elements from this file instead")


def _gather_basis(args: argparse.Namespace) -> Basis:
    if args.file is not None and args.elements:
        raise InvalidInputError("give elements on the command line or via --file, not both")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = parse_int_stream(fh.read())
        except OSError as exc:
            raise InvalidInputError(f"cannot read {args.file}: {exc}") from None
    else:
        raw = args.elements
    if not raw:
        raise InvalidInputError("no basis elements given")
    from . import basis

    return basis.normalize_basis(raw)


def _check_answer(basis: Basis, res: FrobeniusResult) -> tuple[str, int]:
    """(name, answer) of a method that did not produce res.

    A sieve answer is checked against the residue table, any other against
    the sieve.  The sieve needs about F + a1 bits, so past its cap the table
    checks every answer it did not give itself; on four or more generators
    a "residue" answer is the table's, and the sieve's error stands.  The
    answer under check only picks the checker, never its result.
    """
    from . import oracle, residue, solver

    if res.algorithm == "oracle":
        return "residue table", solver.frobenius(basis, "residue").value
    from_table = res.algorithm == "residue" and basis.n >= 4
    if from_table or res.value + basis.elements[0] <= oracle.DEFAULT_LIMIT_CAP:
        try:
            return "sieve", oracle.frobenius_oracle(basis)
        except ResourceLimitError:
            if from_table:
                raise
    return "residue table", residue.residue_table(basis).frobenius


def cmd_compute(args: argparse.Namespace) -> int:
    from . import solver

    basis = _gather_basis(args)
    t0 = time.perf_counter()
    res = solver.frobenius(basis, args.algorithm)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    verified = False
    if args.check:
        checker, other = _check_answer(basis, res)
        if other != res.value:
            print(
                f"internal disagreement: {res.algorithm} gave {res.value}, "
                f"{checker} gave {other} for {list(basis.elements)}",
                file=sys.stderr,
            )
            return 2
        verified = True
    if args.json:
        print(
            json.dumps(
                {
                    "basis": list(basis.elements),
                    "result": res.value,
                    "algorithm": res.algorithm,
                    "elapsed_ms": round(elapsed_ms, 3),
                    "verified_against_oracle": verified,
                }
            )
        )
    else:
        print(res.value)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle, randgen, solver

    if args.count < 1:
        raise InvalidInputError(f"--count must be >= 1, got {args.count}")
    agreements = 0
    disagreements = 0
    bases = randgen.random_bases(args.seed, args.count, max_element=args.max, max_arity=args.arity)
    for basis in bases:
        d = solver.frobenius_descent(basis).value
        s = solver.frobenius_sequential(basis).value
        o = oracle.frobenius_oracle(basis)
        r = solver.frobenius(basis, "residue").value
        agree = d == s == o == r
        if agree:
            agreements += 1
        else:
            disagreements += 1
        if args.json:
            print(
                json.dumps(
                    {
                        "basis": list(basis.elements),
                        "descent": d,
                        "sequential": s,
                        "oracle": o,
                        "residue": r,
                        "agree": agree,
                    }
                )
            )
        elif not agree:
            print(
                f"DISAGREE basis={list(basis.elements)} "
                f"descent={d} sequential={s} oracle={o} residue={r}"
            )
    if args.json:
        print(
            json.dumps(
                {
                    "cases": args.count,
                    "agreements": agreements,
                    "disagreements": disagreements,
                    "seed": args.seed,
                    "max_element": args.max,
                    "max_arity": args.arity,
                }
            )
        )
    else:
        print(f"{agreements}/{args.count} agree")
    return 0 if disagreements == 0 else 2


def cmd_table1(args: argparse.Namespace) -> int:
    from . import oracle, reference, solver
    from .basis import Basis

    worst = 0
    for idx, (elements, expected) in enumerate(reference.REFERENCE_CASES, start=1):
        basis = Basis(elements)
        t0 = time.perf_counter()
        res = solver.frobenius_descent(basis)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        other = oracle.frobenius_oracle(basis)
        residue = solver.frobenius(basis, "residue").value
        if not res.value == other == residue:
            status = "disagreement"
            worst = 2
        elif res.value != expected:
            status = "reference-mismatch"
        else:
            status = "ok"
        if args.json:
            print(
                json.dumps(
                    {
                        "row": idx,
                        "basis": list(elements),
                        "n": len(elements),
                        "expected": expected,
                        "computed": res.value,
                        "oracle": other,
                        "residue": residue,
                        "status": status,
                        "elapsed_ms": round(elapsed_ms, 3),
                    }
                )
            )
        else:
            print(
                f"row {idx}  n={len(elements):<3d} expected {expected:<8d} "
                f"computed {res.value:<8d} {status:<18s} {elapsed_ms:8.1f} ms"
            )
    return worst


def cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds

    basis = _gather_basis(args)
    report = bounds.bound_report(basis)
    if args.json:
        print(
            json.dumps(
                {
                    "basis": basis.elements,
                    "erdos_graham": report.erdos_graham,
                    "selmer": report.selmer,
                    "selmer_vacuous": report.selmer_vacuous,
                    "vitek": str(report.vitek),
                    "vitek_vacuous": report.vitek_vacuous,
                    "beck": None if report.beck is None else str(report.beck),
                    "beck_vacuous": report.beck_vacuous,
                    "chain": report.chain,
                    "tightest": report.tightest,
                }
            )
        )
        return 0
    def flag(vacuous: bool) -> str:
        return " (vacuous)" if vacuous else ""
    print(f"erdos-graham  {report.erdos_graham}")
    print(f"selmer        {report.selmer}{flag(report.selmer_vacuous)}")
    print(f"vitek         {report.vitek}{flag(report.vitek_vacuous)}")
    if report.beck is None:
        print("beck          n/a (needs three generators)")
    else:
        print(
            f"beck          ~{float(report.beck):.6f}"
            f" (rational upper approximation){flag(report.beck_vacuous)}"
        )
    if report.chain is None:
        chain = "-"  # the residue table was over its cap
    else:
        chain = " ".join("-" if c is None else str(c) for c in report.chain)
    print(f"chain         {chain}")
    print(f"tightest      {report.tightest}")
    return 0


def cmd_hasrep(args: argparse.Namespace) -> int:
    from . import representability

    basis = _gather_basis(args)
    witness = representability.find_witness(args.target, basis)
    representable = witness is not None
    if args.json:
        print(
            json.dumps(
                {
                    "basis": list(basis.elements),
                    "target": args.target,
                    "representable": representable,
                    "witness": None if witness is None else list(witness.coefficients),
                }
            )
        )
    else:
        print("true" if representable else "false")
        if witness is not None:
            print(f"witness: {witness}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from . import sequential

    basis = _gather_basis(args)
    tr = sequential.sequential_trace(basis)
    if args.json:
        print(
            json.dumps(
                {
                    "basis": list(basis.elements),
                    "upper": tr.upper,
                    "deltas": list(tr.deltas),
                    "result": tr.result,
                }
            )
        )
    else:
        print(f"upper  {tr.upper}")
        print("deltas " + "".join(str(d) for d in tr.deltas))
        print(f"result {tr.result}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main() call."""
    from . import solver

    parser = _Parser(prog="frobenius", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("compute", help="Frobenius number of one basis")
    _add_element_args(p)
    p.add_argument(
        "--algorithm",
        choices=solver._ALGORITHM_NAMES,
        default=None,
        help="residues mod a1 (Rødseth's formula for three generators, else the residue"
        " table), the paper's descent scan, the grown sieve table, or the indicator scan;"
        " by default Rødseth's formula for three generators, else the cheaper of the"
        " sieve and the residue table",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against the sieve (a sieve answer against the residue table)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("verify", help="cross-check algorithms on random bases")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max", type=int, default=200, help="largest element to draw")
    p.add_argument("--arity", type=int, default=5, help="largest basis size to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("table1", help="recompute the bundled reference instances")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = subs.add_parser("bounds", help="classical upper bounds and the prefix chain")
    _add_element_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("hasrep", help="is the target a sum of basis elements?")
    p.add_argument("target", type=int)
    _add_element_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hasrep)

    p = subs.add_parser("trace", help="indicator vector and telescoping sum")
    _add_element_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FrobeniusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
