"""One digest of the CLI's observable behaviour over a fixed corpus of argv.

    PYTHONPATH=src python3 tools/cli_parity.py            # prints one SHA-256
    PYTHONPATH=src python3 tools/cli_parity.py --verbose  # and each case's record

Every argv in CORPUS runs in-process through frobenius.cli.main, with
stdout and stderr captured and SystemExit caught, and gives one record:
its argv, exit code, stdout and stderr.  The digest is the SHA-256 of
the JSON list of records, so two trees (or two interpreters) that print
the same digest answered every case with the same bytes.  The values of
elapsed_ms fields are stripped first, since they differ from run to run.
COLUMNS is fixed so that help text is wrapped the same on every terminal.

Standard library only: it runs under interpreters that have no test
dependencies installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from math import gcd

from frobenius.cli import main as cli_main

_ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')


def _wide(seed: int, n: int) -> list[str]:
    """n distinct generators in [200, 2000] with a coprime leading pair, ascending."""
    rng = random.Random(seed)
    while True:
        es = sorted(rng.sample(range(200, 2001), n))
        if gcd(es[0], es[1]) == 1:
            return [str(e) for e in es]


CORPUS: list[list[str]] = [
    # element tokens that int() and argparse must treat alike
    ["compute", "7", "x"],
    ["compute", "7", "11", "13.0"],
    ["compute", "-5", "7"],
    ["compute", "+7", "11"],
    ["compute", "1_000", "1001"],
    ["compute", " 7", "11"],
    ["compute", "٧", "11"],  # ARABIC-INDIC DIGIT SEVEN
    ["compute", "", "7"],
    ["compute", "7.0", "11"],
    # the "--" separator before and between elements
    ["compute", "--", "7", "11", "13"],
    ["compute", "--", "-3", "5"],
    ["compute", "7", "--", "11", "13"],
    ["compute", "7", "11", "--", "--", "13"],
    ["bounds", "--json", "--", "7", "11", "13"],
    # flags before, between and after elements
    ["bounds", "--json", "7", "11", "13"],
    ["bounds", "7", "--json", "11", "13"],
    ["bounds", "7", "11", "13", "--json"],
    ["compute", "--algorithm", "oracle", "7", "11", "13"],
    ["compute", "7", "11", "13", "--algorithm", "oracle", "--check"],
    ["compute", "7", "--algorithm", "oracle", "11"],
    ["compute", "--algorithm", "nosuch", "7", "11"],
    # missing, unknown and conflicting input
    [],
    ["nosuch"],
    ["compute"],
    ["compute", "--json"],
    ["compute", "--bogus", "7", "11"],
    ["compute", "7", "11", "--bogus"],
    ["compute", "--file", "no-such-file.txt", "7", "11"],
    ["compute", "4", "6"],
    ["compute", "7"],
    ["compute", "0", "7"],
    # hasrep's target is one int before the elements
    ["hasrep", "x", "7", "11"],
    ["hasrep", "-1", "7", "11"],
    ["hasrep", "--json", "30", "7", "11", "13"],
    ["hasrep", "31", "7", "11", "13"],
    ["hasrep", "10"],
    # help at both levels
    ["-h"],
    ["compute", "-h"],
    ["bounds", "--help"],
    ["hasrep", "-h"],
    # every subcommand answering
    ["compute", "13", "7", "11", "7"],
    ["compute", "--json", "--check", "100003", "100019", "100043"],
    ["trace", "--json", "7", "11", "13"],
    ["trace", "5", "7"],
    ["verify", "--json", "--count", "5", "--max", "60", "--seed", "3"],
    ["verify", "--count", "x"],
    ["table1", "--json"],
    ["bounds", "16", "23", "2"],
    ["bounds", "--json", "31627", "31643", "31649"],
    *(["bounds", "--json", *_wide(seed, n)] for seed, n in ((1, 20), (2, 110), (3, 200))),
    ["compute", *_wide(4, 140)],
    ["hasrep", "--json", "5000", *_wide(5, 80)],
]


def run(argv: list[str]) -> dict:
    """One case's record: argv, exit code, stdout and stderr, timings stripped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stdout = _ELAPSED.sub('"elapsed_ms"', out.getvalue())
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": err.getvalue()}


def digest(records: list[dict]) -> str:
    blob = json.dumps(records, ensure_ascii=True, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv: list[str]) -> int:
    os.environ["COLUMNS"] = "80"
    records = [run(case) for case in CORPUS]
    if "--verbose" in argv:
        for rec in records:
            print(json.dumps(rec, ensure_ascii=True))
    print(digest(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
