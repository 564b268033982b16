"""The CLI's exact answer to argv that argparse and int() treat specially.

Each case pins the exit code, stdout and stderr byte for byte: element
tokens that int() accepts or rejects, the "--" separator, flags around
the elements, missing, unknown and conflicting input, and help at both
levels.  Help text is pinned by digest, with COLUMNS fixed at 80.
tools/cli_parity.py runs a wider corpus to one digest, for comparing
trees and interpreters that have no test dependencies.
"""

from __future__ import annotations

import hashlib

import pytest

from frobenius.cli import main

TOP_USAGE = "usage: frobenius [-h] {compute,verify,table1,bounds,hasrep,trace} ...\n"
COMPUTE_USAGE = (
    "usage: frobenius compute [-h] [--file FILE]\n"
    "                         [--algorithm {residue,paper,oracle,sequential}]\n"
    "                         [--check] [--json]\n"
    "                         [elements ...]\n"
)
HASREP_USAGE = "usage: frobenius hasrep [-h] [--file FILE] [--json] target [elements ...]\n"
BOUNDS_7_11_13 = (
    '{"basis": [7, 11, 13], "erdos_graham": 75, "selmer": 45, "selmer_vacuous": false,'
    ' "vitek": "54", "vitek_vacuous": false, "beck": "90722613/1250000",'
    ' "beck_vacuous": false, "chain": [59, 30], "tightest": "selmer"}\n'
)


def _bad_int(token: str) -> tuple[int, str, str]:
    return 1, "", COMPUTE_USAGE + (
        f"frobenius compute: error: argument elements: invalid int value: {token!r}\n")


def _error(message: str) -> tuple[int, str, str]:
    return 1, "", f"error: {message}\n"


def _top_error(message: str) -> tuple[int, str, str]:
    return 1, "", f"{TOP_USAGE}frobenius: error: {message}\n"


CASES = [
    # element tokens
    (["compute", "7", "x"], _bad_int("x")),
    (["compute", "7", "11", "13.0"], _bad_int("13.0")),
    (["compute", "7.0", "11"], _bad_int("7.0")),
    (["compute", "", "7"], _bad_int("")),
    (["compute", "-5", "7"], _error("basis elements must be positive integers, got -5")),
    (["compute", "+7", "11"], (0, "59\n", "")),
    (["compute", "1_000", "1001"], (0, "998999\n", "")),
    (["compute", " 7", "11"], (0, "59\n", "")),
    (["compute", "٧", "11"], (0, "59\n", "")),  # ARABIC-INDIC DIGIT SEVEN
    # the "--" separator: argparse drops the first one only
    (["compute", "--", "7", "11", "13"], (0, "30\n", "")),
    (["compute", "7", "--", "11", "13"], (0, "30\n", "")),
    (["compute", "7", "11", "--", "--", "13"], _bad_int("--")),
    (["bounds", "--json", "--", "7", "11", "13"], (0, BOUNDS_7_11_13, "")),
    # flags before, between and after the elements
    (["bounds", "--json", "7", "11", "13"], (0, BOUNDS_7_11_13, "")),
    (["bounds", "7", "11", "13", "--json"], (0, BOUNDS_7_11_13, "")),
    (["bounds", "7", "--json", "11", "13"], _top_error("unrecognized arguments: 11 13")),
    (["compute", "7", "11", "13", "--algorithm", "oracle", "--check"], (0, "30\n", "")),
    (["compute", "7", "--algorithm", "oracle", "11"], _top_error("unrecognized arguments: 11")),
    # missing, unknown and conflicting input
    ([], _top_error("the following arguments are required: command")),
    (["compute"], _error("no basis elements given")),
    (["compute", "--json"], _error("no basis elements given")),
    (["compute", "--bogus", "7", "11"], _top_error("unrecognized arguments: --bogus")),
    (["compute", "7", "11", "--bogus"], _top_error("unrecognized arguments: --bogus")),
    (["compute", "--file", "no-such-file.txt", "7", "11"],
     _error("give elements on the command line or via --file, not both")),
    (["nosuch"], _top_error(
        "argument command: invalid choice: 'nosuch' (choose from 'compute', 'verify',"
        " 'table1', 'bounds', 'hasrep', 'trace')")),
    # hasrep's target
    (["hasrep", "x", "7", "11"],
     (1, "", HASREP_USAGE + "frobenius hasrep: error: argument target: invalid int value: 'x'\n")),
    (["hasrep", "-1", "7", "11"], _error("target must be nonnegative, got -1")),
    (["hasrep", "31", "7", "11", "13"], (0, "true\nwitness: 31 = 1*7 + 1*11 + 1*13\n", "")),
]


def _run(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(c[0]) or "<none>" for c in CASES])
def test_cli_answers_byte_for_byte(argv, expected, capsys, monkeypatch):
    assert _run(argv, capsys, monkeypatch) == expected


@pytest.mark.parametrize("argv, first_line, digest", [
    (["-h"], TOP_USAGE,
     "b6945aebc240c6accdc72b7bf058a4267f304f138a75e63010882ad1bb6510e4"),
    (["compute", "-h"], COMPUTE_USAGE.splitlines(keepends=True)[0],
     "cb0a067be171a3437c9fdccfbcf6cae8343b5121074ec57cbc5a565f2f14d058"),
    (["hasrep", "--help"], HASREP_USAGE,
     "4973fc4cec3f6d0647cd831bf74e51ea5a18a707186288d3f128c54c8c445541"),
])
def test_help_at_both_levels(argv, first_line, digest, capsys, monkeypatch):
    code, out, err = _run(argv, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out.startswith(first_line)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
