"""The workload checks accept the CLI's real output and reject corrupted output;
the host-speed scale comes from the calibration samples nearest in time.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from calibration import REFERENCE_S, Calibration  # noqa: E402
from frobenius import cli  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def cli_output(op: Op) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


def edit_json(stdout: str, line: int, key: str, change) -> str:
    lines = stdout.splitlines()
    obj = json.loads(lines[line])
    obj[key] = change(obj[key])
    lines[line] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def sample_ops(name: str, count: int) -> list[Op]:
    ops = [op for op in WORKLOADS[name].make_round(random.Random(5)) if not op.known_fault]
    if name == "bounds-wide":  # the cheapest wide basis, plus a small independent one
        return [ops[0], Op(("bounds", "--json", "7", "11", "13")), Op(("bounds", "--json", "5", "7"))]
    return ops[:count]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes(name):
    for op in sample_ops(name, 4):
        assert WORKLOADS[name].check(op, cli_output(op)) is None, op.argv


CORRUPTIONS = {
    "verify-small": [(0, "oracle", lambda v: v + 1), (0, "agree", lambda v: False),
                     (-1, "agreements", lambda v: v - 1)],
    "compute-large": [(0, "result", lambda v: v - 1), (0, "basis", lambda v: v[1:])],
    "bounds-wide": [(0, "chain", lambda v: v[:-1] + [v[-1] + 1]), (0, "tightest", lambda v: "vitek"),
                    (0, "erdos_graham", lambda v: v + 1), (0, "beck_vacuous", lambda v: not v),
                    (0, "beck", lambda v: v and str(Fraction(v) - Fraction(1, 1000)))],
    "hasrep-mid": [(0, "representable", lambda v: not v), (0, "target", lambda v: v + 1)],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_fails(name):
    check = WORKLOADS[name].check
    for op in sample_ops(name, 2):
        real = cli_output(op)
        for line, key, change in CORRUPTIONS[name]:
            bad = edit_json(real, line, key, change)
            if bad.strip() != real.strip():
                assert check(op, bad) is not None, (op.argv, key)


def test_bad_witness_fails():
    es = (7, 11, 13)
    op = Op(("hasrep", "--json", "31", *map(str, es)))
    real = cli_output(op)
    assert WORKLOADS["hasrep-mid"].check(op, real) is None
    bad = edit_json(real, 0, "witness", lambda w: [w[0] + 1] + w[1:])
    assert WORKLOADS["hasrep-mid"].check(op, bad) is not None


def test_known_fault_inputs_do_not_depend_on_seed():
    for name in ("compute-large", "bounds-wide"):
        faults = [[op for op in WORKLOADS[name].make_round(random.Random(seed)) if op.known_fault]
                  for seed in (1, 2)]
        assert faults[0] == faults[1] and faults[0]


def test_calibration_scale_uses_nearest_samples():
    samples = [(t, 0.001 if t < 50 else 0.002) for t in range(100)]
    cal = Calibration(samples)
    assert cal.scale(10) == REFERENCE_S / 0.001
    assert cal.scale(90) == REFERENCE_S / 0.002
    assert cal.scale() == REFERENCE_S / 0.002
    assert Calibration([[0.0, 0.004]]).scale(5.0) == REFERENCE_S / 0.004
