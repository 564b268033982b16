"""CLI behavior: output shapes, exit codes, determinism, file input."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from frobenius import RESIDUE_CAP, ResidueTable, ResourceLimitError
from frobenius.cli import build_parser, main, parse_int_stream
from frobenius.solver import FrobeniusResult, frobenius


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_plain(capsys):
    code, out, err = run_cli(["compute", "7", "11", "13"], capsys)
    assert code == 0
    assert out.strip() == "30"


def test_compute_normalizes_input_order(capsys):
    code, out, _ = run_cli(["compute", "13", "7", "11", "7"], capsys)
    assert code == 0
    assert out.strip() == "30"


def test_compute_json_record(capsys):
    code, out, _ = run_cli(["compute", "7", "11", "13", "--json", "--check"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["basis"] == [7, 11, 13]
    assert rec["result"] == 30
    assert rec["algorithm"] == "residue"
    assert rec["verified_against_oracle"] is True
    assert isinstance(rec["elapsed_ms"], (int, float)) and rec["elapsed_ms"] >= 0


def test_compute_algorithm_choices(capsys):
    for algo, tag in [
        ("paper", "paper-descent"),
        ("oracle", "oracle"),
        ("sequential", "sequential"),
    ]:
        code, out, _ = run_cli(
            ["compute", "7", "11", "13", "--algorithm", algo, "--json"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["result"] == 30
        assert rec["algorithm"] == tag


def test_compute_large_triple_by_default(capsys):
    # 2001060054 is the value of an independent residue-table implementation
    # (perfbench/reference.py); the sieve and the scans cannot reach it.
    code, out, _ = run_cli(["compute", "100003", "100019", "100043"], capsys)
    assert code == 0
    assert out.strip() == "2001060054"


def test_compute_triple_past_the_table_cap(capsys):
    # Confirmed once against residue_table (13 s, outside this suite); the
    # default path takes Rødseth's formula and needs no table.
    code, out, _ = run_cli(["compute", "16777213", "16777259", "16777289"], capsys)
    assert code == 0
    assert out.strip() == "7407844184026"


@pytest.mark.parametrize("algo", ["paper", "sequential"])
def test_compute_scan_over_budget_exits_1(algo, capsys):
    code, out, err = run_cli(
        ["compute", "--algorithm", algo, "100003", "100019", "100043"], capsys
    )
    assert code == 1
    assert err.startswith("error:") and "exceeds cap" in err
    assert out == ""


def test_compute_two_generator_closed_form(capsys):
    code, out, _ = run_cli(["compute", "2", "3", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["algorithm"] == "closed-form"


def test_non_coprime_input_exits_1(capsys):
    code, out, err = run_cli(["compute", "4", "6"], capsys)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_bad_flag_exits_1_not_2(capsys):
    code, _, err = run_cli(["compute", "7", "11", "--bogus"], capsys)
    assert code == 1
    assert "error" in err


def test_bad_algorithm_value_exits_1(capsys):
    code, _, _ = run_cli(["compute", "7", "11", "13", "--algorithm", "magic"], capsys)
    assert code == 1


def test_no_elements_exits_1(capsys):
    code, _, err = run_cli(["compute"], capsys)
    assert code == 1
    assert "no basis elements" in err


def test_verify_plain_and_exit_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--count", "5", "--max", "60", "--arity", "3", "--seed", "9"], capsys
    )
    assert code == 0
    assert out.strip() == "5/5 agree"


def test_verify_count_zero_exits_1(capsys):
    code, out, err = run_cli(["verify", "--count", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: --count must be >= 1, got 0\n"


def test_verify_json_is_byte_deterministic(capsys):
    argv = ["verify", "--count", "8", "--max", "80", "--arity", "4", "--seed", "42", "--json"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 9  # 8 cases + summary
    summary = json.loads(lines[-1])
    assert summary["agreements"] == 8 and summary["disagreements"] == 0
    assert "elapsed_ms" not in out1


def test_verify_json_output_is_pinned(capsys):
    # The seed-42 corpus's records, byte for byte: a solver change that
    # alters any answer, tag or field order changes this digest.
    argv = ["verify", "--json", "--count", "500", "--max", "200", "--arity", "5", "--seed", "42"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5269323b6c20264e79a55ccd39186f26e98decb66bebdaae5dd815d6976265d0"
    )


def test_verify_disagreement_exits_2(capsys, monkeypatch):
    def wrong(basis):
        return FrobeniusResult(0, 10**9, 0, "sequential")

    monkeypatch.setattr("frobenius.solver.frobenius_sequential", wrong)
    code, out, _ = run_cli(["verify", "--count", "1", "--seed", "3"], capsys)
    assert code == 2
    assert "DISAGREE" in out


def test_verify_and_table1_check_the_default_solver(capsys, monkeypatch):
    def wrong(basis, algorithm="residue"):
        return FrobeniusResult(0, 10**9, 0, "residue")

    monkeypatch.setattr("frobenius.solver.frobenius", wrong)
    code, out, _ = run_cli(["verify", "--count", "1", "--seed", "3", "--json"], capsys)
    assert code == 2
    row = json.loads(out.splitlines()[0])
    assert row["residue"] == 0 and row["agree"] is False
    assert row["descent"] == row["sequential"] == row["oracle"] > 0
    code, out, _ = run_cli(["verify", "--count", "1", "--seed", "3"], capsys)
    assert code == 2 and "residue=0" in out
    code, out, _ = run_cli(["table1", "--json"], capsys)
    assert code == 2
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["status"] == "disagreement" and r["residue"] == 0 for r in rows)


def test_cross_checks_run_the_residue_table_by_name(capsys, monkeypatch):
    # verify and table1 must not let their "residue" column become a
    # second copy of the sieve when the default would choose it.
    asked = []

    def spy(basis, algorithm=None):
        asked.append(algorithm)
        return frobenius(basis, algorithm)

    monkeypatch.setattr("frobenius.solver.frobenius", spy)
    assert run_cli(["verify", "--count", "5", "--seed", "3", "--json"], capsys)[0] == 0
    assert run_cli(["table1", "--json"], capsys)[0] == 0
    assert asked and set(asked) == {"residue"}


def test_compute_check_of_a_sieve_answer_uses_the_table(capsys, monkeypatch):
    es = [str(e) for e in range(1000, 1101)]
    code, out, _ = run_cli(["compute", "--json", "--check", *es], capsys)
    rec = json.loads(out)
    assert code == 0 and rec["algorithm"] == "oracle" and rec["verified_against_oracle"]
    monkeypatch.setattr(
        "frobenius.solver.residue_table", lambda basis: ResidueTable((-1,), (False,))
    )
    code, _, err = run_cli(["compute", "--check", *es], capsys)
    assert code == 2
    assert "oracle gave 9999, residue table gave -1" in err


def test_compute_check_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("frobenius.oracle.frobenius_oracle", lambda basis: -1)
    code, _, err = run_cli(["compute", "7", "11", "13", "--check"], capsys)
    assert code == 2
    assert "internal disagreement" in err


def test_compute_check_past_the_sieve_cap_uses_the_table(capsys):
    # F + a1 is about 2e9 bits, over the sieve's cap; Rødseth's formula
    # gave the answer, so the residue table checks it.
    code, out, _ = run_cli(["compute", "--check", "--json", "100003", "100019", "100043"], capsys)
    rec = json.loads(out)
    assert code == 0 and rec["result"] == 2001060054 and rec["algorithm"] == "residue"
    assert rec["verified_against_oracle"] is True


def test_compute_check_never_checks_the_table_with_itself(capsys, monkeypatch):
    def refused(basis):
        raise ResourceLimitError("limit exceeds cap")

    monkeypatch.setattr("frobenius.oracle.frobenius_oracle", refused)
    for algo in ("residue", "paper", "sequential"):
        argv = ["compute", "--algorithm", algo, "--check", "--json", "7", "11", "13"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["verified_against_oracle"] is True, algo
    # On four generators a "residue" answer is the table's: no checker is left.
    four = ["--check", "7", "11", "13", "17"]
    code, _, err = run_cli(["compute", "--algorithm", "residue", *four], capsys)
    assert code == 1 and err == "error: limit exceeds cap\n"
    code, out, _ = run_cli(["compute", "--algorithm", "paper", *four], capsys)
    assert code == 0 and out == "23\n"


def test_table1_all_rows_ok(capsys):
    code, out, _ = run_cli(["table1", "--json"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 7
    assert all(r["status"] == "ok" for r in rows)
    assert [r["computed"] for r in rows] == [30, 899, 27971, 71459, 3019, 3019, 426]
    assert rows[6]["n"] == 49
    code, out, _ = run_cli(["table1"], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 7
    assert all(line.split()[7] == "ok" for line in lines)


def test_table1_reference_mismatch_exits_0(capsys, monkeypatch):
    # A wrong published value is reported, not treated as a disagreement
    # between the solvers.
    monkeypatch.setattr("frobenius.reference.REFERENCE_CASES", (((7, 11, 13), 31),))
    code, out, _ = run_cli(["table1", "--json"], capsys)
    assert code == 0
    row = json.loads(out)
    assert (row["expected"], row["computed"], row["status"]) == (31, 30, "reference-mismatch")


def test_bounds_plain(capsys):
    code, out, _ = run_cli(["bounds", "7", "11", "13"], capsys)
    assert code == 0
    assert "erdos-graham  75" in out
    assert "selmer        45" in out
    assert "vitek         54" in out
    assert "tightest      selmer" in out
    assert "chain         59 30" in out
    code, out, _ = run_cli(["bounds", "3", "5"], capsys)
    assert code == 0
    assert "beck          n/a (needs three generators)\n" in out


def test_bounds_json_two_generators(capsys):
    code, out, _ = run_cli(["bounds", "3", "5", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["vitek"] == "5"
    assert rec["vitek_vacuous"] is True
    assert rec["beck"] is None and rec["beck_vacuous"] is True
    assert rec["selmer_vacuous"] is False
    assert rec["chain"] == [7]


def test_bounds_json_undefined_chain_prefix(capsys):
    code, out, _ = run_cli(["bounds", "4", "6", "9", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["chain"] == [None, 11]


def test_bounds_large_triple_has_a_chain(capsys):
    code, out, _ = run_cli(["bounds", "100003", "100019", "100043", "--json"], capsys)
    assert code == 0
    # frobenius_two(100003, 100019), then the value pinned in
    # test_compute_large_triple_by_default.
    assert json.loads(out)["chain"] == [10002000035, 2001060054]


def test_bounds_over_the_table_cap_still_reports(capsys):
    es = [str(RESIDUE_CAP + i) for i in (1, 2, 3)]
    code, out, _ = run_cli(["bounds", *es, "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["chain"] is None
    assert rec["selmer_vacuous"] is True and rec["beck_vacuous"] is True
    assert rec["tightest"] in ("erdos-graham", "vitek")
    code, out, _ = run_cli(["bounds", *es], capsys)
    assert code == 0
    assert "chain         -\n" in out


def test_main_reuses_one_parser_without_carrying_state(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(["compute", "7", "11", "13", "--algorithm", "oracle", "--json"], capsys)
    assert code == 0 and json.loads(out)["algorithm"] == "oracle"
    code, out, _ = run_cli(["compute", "7", "11", "13", "--json"], capsys)
    assert code == 0 and json.loads(out)["algorithm"] == "residue"
    code, out, _ = run_cli(["compute", "7", "11", "13"], capsys)
    assert (code, out) == (0, "30\n")
    code, _, err = run_cli(["compute", "7", "11", "--bogus"], capsys)
    assert code == 1 and "error" in err
    code, out, _ = run_cli(["hasrep", "31", "7", "11", "13"], capsys)
    assert (code, out.splitlines()[0]) == (0, "true")
    code, out, _ = run_cli(["bounds", "7", "11", "13"], capsys)
    assert code == 0 and "chain         59 30" in out


def test_hasrep_true_with_witness(capsys):
    code, out, _ = run_cli(["hasrep", "31", "7", "11", "13"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "true"
    assert lines[1].startswith("witness: 31 = ")


def test_hasrep_false(capsys):
    code, out, _ = run_cli(["hasrep", "30", "7", "11", "13", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["representable"] is False and rec["witness"] is None


def test_hasrep_witness_coefficients_check_out(capsys):
    # 899 is the answer for {53, 71, 91}: 900 must have a witness, 899 must not.
    code, out, _ = run_cli(["hasrep", "900", "53", "71", "91", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["representable"] is True
    assert sum(c * e for c, e in zip(rec["witness"], rec["basis"])) == 900
    code, out, _ = run_cli(["hasrep", "899", "53", "71", "91", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["representable"] is False and rec["witness"] is None


def test_hasrep_negative_target_exits_1(capsys):
    code, out, err = run_cli(["hasrep", "-5", "3", "5"], capsys)
    assert (code, out, err) == (1, "", "error: target must be nonnegative, got -5\n")


def test_hasrep_on_more_generators_than_the_recursion_limit(capsys):
    # 1300 generators: the search runs once per level without recursing.
    elements = list(range(1000, 2300))
    assert len(elements) > sys.getrecursionlimit()
    code, out, err = run_cli(["hasrep", "--json", "5000", *map(str, elements)], capsys)
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["representable"] is True
    witness = rec["witness"]
    assert len(witness) == len(elements) and min(witness) >= 0
    assert sum(c * e for c, e in zip(witness, elements)) == 5000


def test_hasrep_past_the_search_budget_answers_from_the_sieve(capsys):
    # The search is refused after SEARCH_CAP steps; F is 2997, so the
    # target is representable and the grown sieve table gives a witness.
    elements = list(range(1000, 4900, 3))
    code, out, err = run_cli(["hasrep", "--json", "123457", *map(str, elements)], capsys)
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["representable"] is True
    witness = rec["witness"]
    assert len(witness) == len(elements) and min(witness) >= 0
    assert sum(c * e for c, e in zip(witness, elements)) == 123457


def test_hasrep_over_the_search_budget_exits_1(capsys):
    # Three elements near 10**15 and a 30-digit target: about 10**14 copies
    # of the largest element to strip, refused after SEARCH_CAP steps.
    argv = ["hasrep", "666666666666665666666666666666",
            "1000000000000003", "1000000000000004", "2000000000000005"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "membership search" in err


def test_trace_plain(capsys):
    code, out, _ = run_cli(["trace", "3", "5"], capsys)
    assert code == 0
    assert out.splitlines() == ["upper  7", "deltas 1101001", "result 7"]


def test_trace_json(capsys):
    code, out, _ = run_cli(["trace", "3", "5", "--json"], capsys)
    rec = json.loads(out)
    assert rec == {"basis": [3, 5], "upper": 7, "deltas": [1, 1, 0, 1, 0, 0, 1], "result": 7}


def test_trace_over_the_cap_exits_1(capsys):
    code, out, err = run_cli(["trace", "100003", "100019", "100043"], capsys)
    assert code == 1
    assert err.startswith("error:") and "exceeds cap" in err
    assert out == ""


def test_parse_int_stream():
    text = "7, 11\n13 # trailing comment\n# whole-line comment\n  5\t8\n"
    assert parse_int_stream(text) == [7, 11, 13, 5, 8]


def test_file_input(tmp_path, capsys):
    f = tmp_path / "basis.txt"
    f.write_text("7, 11\n13 # the third generator\n", encoding="utf-8")
    code, out, _ = run_cli(["compute", "--file", str(f)], capsys)
    assert code == 0
    assert out.strip() == "30"


def test_file_with_bad_token_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("7 eleven 13\n", encoding="utf-8")
    code, _, err = run_cli(["compute", "--file", str(f)], capsys)
    assert code == 1
    assert "not an integer" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(["compute", "--file", "/nonexistent/nope.txt"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_file_and_elements_together_exit_1(tmp_path, capsys):
    f = tmp_path / "basis.txt"
    f.write_text("7 11 13\n", encoding="utf-8")
    code, _, err = run_cli(["compute", "3", "5", "--file", str(f)], capsys)
    assert code == 1
    assert "not both" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "frobenius", "compute", "7", "11", "13"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "30"


def test_negative_element_after_separator_exits_1(capsys):
    code, _, err = run_cli(["compute", "--", "-3", "5"], capsys)
    assert code == 1
    assert "positive" in err
