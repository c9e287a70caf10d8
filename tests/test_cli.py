"""End-to-end exercises of the command-line surface and its exit codes."""

from __future__ import annotations

import io
import json
import os
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertropical import (
    Polynomial, Verdict, ZERO, cli, oracle, parse_polynomial, roots, spectral,
)
from supertropical.defaults import DEFAULT_MAX_N
from supertropical.fuzz import MAX_TRIALS, CampaignResult
from supertropical.matrix import MAX_DIM_BOUND, MAX_POWER
from supertropical.polynomial import MAX_PARSE_DEGREE
from supertropical.scalar import MAX_LITERAL_DIGITS
from supertropical.spectral import CHECKS

A_TEXT = "0 0\n1 2\n"
A2_TEXT = "1 2\n3 4\n"
LONG_RUN = "7" * 5000  # past the interpreter's int() limit of 4,300 digits


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text(A_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "A2.txt"
    path.write_text(A2_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommands:
    def test_det_text(self, capsys, a_file):
        code, out, _ = run(capsys, "det", a_file)
        assert code == 0
        assert out.strip() == "2 (tangible), dominant: Id"

    def test_det_ghost_tie(self, capsys, a2_file):
        code, out, _ = run(capsys, "det", a2_file)
        assert code == 0
        assert out.strip() == "5g (ghost-by-tie), dominant: Id, -Id"

    def test_det_json(self, capsys, a_file):
        code, out, _ = run(capsys, "det", a_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "2"
        assert data["dominant"][0]["name"] == "Id"

    def test_det_lists_at_most_8_factorial_tracks(self, capsys, tmp_path):
        path = tmp_path / "Z9.txt"
        path.write_text("0 0 0 0 0 0 0 0 0\n" * 9, encoding="utf-8")
        code, out, _ = run(capsys, "det", str(path), "--json")
        assert code == 0
        assert len(out.encode()) < 10 * 10**6
        data = json.loads(out)
        assert (data["track_count"], data["truncated"], len(data["dominant"])) == (362880, True, 40320)
        assert data["dominant"][-1]["name"] == "(1 9 8 7 6 5 4 3 2)"
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert out.startswith("0g (ghost-by-tie), dominant: Id, (1 2 3 4 5 6 7 9 8), ")
        assert out.endswith(", (1 9 8 7 6 5 4 3 2) (first 40320 of 362880 listed)\n")
        assert len(out.split("dominant: ")[1].split(", ")) == 40320

    def test_charpoly(self, capsys, a2_file):
        code, out, _ = run(capsys, "charpoly", a2_file)
        assert code == 0
        assert out.strip() == "x^2 + 4x + 5g"

    def test_charpoly_json_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(json.dumps({"n": 2, "rows": [["0", "0"], ["1", "2"]]}))
        code, out, _ = run(capsys, "charpoly", str(path), "--json")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["2", "2", "0"]

    def test_roots_from_string(self, capsys):
        code, out, _ = run(capsys, "roots", "x^2 + 2x + 2")
        assert code == 0
        assert "corner roots: 0 (mult 1), 2 (mult 1)" in out
        assert "ghost intervals: none" in out

    def test_roots_ghost_interval(self, capsys):
        code, out, _ = run(capsys, "roots", "x^2 + 4x + 5g")
        assert code == 0
        assert "corner roots: 4 (mult 1)" in out
        assert "(-inf, 1]" in out

    def test_roots_from_file(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("x^2 + 2x + 2")
        code_file, out_file, _ = run(capsys, "roots", str(path))
        code_str, out_str, _ = run(capsys, "roots", "x^2 + 2x + 2")
        assert code_file == code_str == 0
        assert out_file == out_str

    def test_roots_tangible_on_edge_between_ghosts(self, capsys):
        code, out, _ = run(capsys, "roots", "2gx^2 + 1x + 0g")
        assert code == 0
        assert out == (
            "identically a root (every evaluation is ghost or -inf)\n"
            "corner roots: none\nghost intervals: (-inf, +inf)\n"
        )

    def test_roots_argument_naming_a_directory_is_a_polynomial(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "x").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "roots", "x", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == roots(parse_polynomial("x")).to_json_dict()

    def test_roots_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(["2", "2", "0"]))
        code, out, _ = run(capsys, "roots", str(path))
        assert code == 0
        assert "corner roots: 0 (mult 1), 2 (mult 1)" in out

    @pytest.mark.parametrize(
        "command, content",
        [
            ("det", A_TEXT),
            ("det", json.dumps({"n": 2, "rows": [["0", "0"], ["1", "2"]]})),
            ("roots", "x^2 + 2x + 2"),
            ("roots", json.dumps(["2", "2", "0"])),
        ],
        ids=["matrix-text", "matrix-json", "polynomial-text", "polynomial-json"],
    )
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, command, content):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(content, encoding="utf-8")
        marked.write_text(content, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        code, out, err = run(capsys, command, str(marked))
        assert (code, err) == (0, "")
        assert out == run(capsys, command, str(plain))[1]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["roots", "--", "-inf"], "identically a root"),
            (["roots", "--json", "--", "-2g"], '"is_identically_root": true'),
        ],
        ids=["text", "json"],
    )
    def test_roots_dash_led_after_separator(self, capsys, argv, expected):
        # Without "--", argparse reads a dash-led word with no space as an option.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert expected in out

    def test_eigen(self, capsys, a2_file):
        code, out, _ = run(capsys, "eigen", a2_file)
        assert code == 0
        assert "eigenvalues: 4 (mult 1)" in out
        assert "ghost root region: (-inf, 1]" in out


class TestCheckCommand:
    def test_thm36_golden(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "thm36", "-f", a_file, "-m", "2")
        assert code == 0
        assert out.startswith("PASS charpoly-power")
        assert "coeff=5g" in out and "relation=ghost-surpass" in out

    def test_thm36_json(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "thm36", "-f", a_file, "-m", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["theorem"] == "charpoly-power"
        assert data["holds"] is True

    def test_cor37_not_applicable(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "cor37", "-f", a_file, "-m", "2")
        assert code == 0
        assert out.startswith("N/A")

    def test_cor38_golden(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "cor38", "-f", a_file, "-m", "2")
        assert code == 0
        assert "corner_root=4" in out

    def test_thm13_with_two_files(self, capsys, a_file, a2_file):
        code, out, _ = run(capsys, "check", "thm13", "-f", a_file, "-g", a2_file)
        assert code == 0
        assert out.startswith("PASS det-product")

    def test_thm13_defaults_second_matrix(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "thm13", "-f", a_file)
        assert code == 0
        assert "lhs=5g" in out and "rhs=4" in out

    def test_trace(self, capsys, a2_file):
        code, out, _ = run(capsys, "check", "trace", "-f", a2_file, "-m", "2")
        assert code == 0

    def test_claim35(self, capsys):
        code, out, _ = run(capsys, "check", "claim35", "-n", "2", "-m", "2")
        assert code == 0
        assert out.count("PASS power-track-census") == 2

    def test_claim35_violation_exits_1(self, capsys, monkeypatch):
        # The trace of A^2 (k = 1) forged: the power track a11^2 counted
        # twice and a12*a21 once. The k = 2 coefficient is left true.
        real = oracle.sym_charpoly_coeff
        track = oracle.SymMonomial.of([((0, 0), 2)])
        other = oracle.SymMonomial.of([((0, 1), 1), ((1, 0), 1)])
        forged = oracle.SymPoly({**real(2, 2, 1).terms, track: 2, other: 1})
        monkeypatch.setattr(oracle, "sym_charpoly_coeff",
                            lambda n, m, k: forged if k == 1 else real(n, m, k))
        code, out, _ = run(capsys, "check", "claim35", "-n", "2", "-m", "2")
        assert code == 1
        assert out.startswith("FAIL power-track-census")
        assert out.count("PASS power-track-census") == 1

    def test_claim35_full_census_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "claim35", "-n", "2", "-m", "2", "--json", "--full-census"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert any(
            item["monomial"] == {"a[1,2]": 1, "a[2,1]": 1} and item["count"] == 2
            for item in payload[0]["census"]
        )

    def test_frobenius_sweep(self, capsys):
        code, out, _ = run(capsys, "check", "frobenius")
        assert code == 0
        assert "failures=0" in out

    def test_prop32(self, capsys, a_file):
        code, out, _ = run(capsys, "check", "prop32", "-f", a_file, "-m", "3")
        assert code == 0
        assert out.startswith("PASS eigen-power")

    def test_prop32_builds_the_power_once(self, capsys, monkeypatch, tmp_path):
        # A^m is the trial's, built once; each eigenpair that `eigenpairs`
        # found is checked on A^m, not again on A. B4 has two eigenpairs, and
        # `eigenpairs` checks six candidates to find them.
        calls = Counter()
        for name in ("mat_pow", "check_eigenpair"):

            def counted(*args, _name=name, _original=getattr(spectral, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(spectral, name, counted)
        path = tmp_path / "B4.txt"
        path.write_text("1/2g 3/2 1/2 -inf\n1/2 1g 1 -1/3\n-2/3 2 3/2 -inf\n-1/3 2 1 2\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "check", "prop32", "-f", str(path), "-m", "2")
        golden = Path(__file__).resolve().parent / "golden" / "check_prop32_fB4_m2.txt"
        assert (code, out) == (0, golden.read_text(encoding="utf-8"))
        assert calls == Counter({"mat_pow": 1, "check_eigenpair": 8})

    def test_prop32_eigenvalue_without_eigenvector(self, capsys, tmp_path):
        # Eigenvalue 0 has the eigenvector (3, 1); eigenvalue 1 has no tangible one.
        path = tmp_path / "N.txt"
        path.write_text("1 3\n-inf 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "prop32", "-f", str(path), "-m", "2")
        assert code == 0
        assert out.startswith("PASS eigen-power\n  eigenvalue=0  vector=(3, 1)\n")
        assert out.endswith("\nN/A  eigen-power\n  eigenvalue=1  note=no column of adj(A + xI) "
                            "or critical column of the star of |A| - x, nor either sum, gives a "
                            "tangible eigenvector\n")
        code, out, _ = run(capsys, "check", "prop32", "-f", str(path), "--json")
        assert code == 0
        assert [v.get("not_applicable", False) for v in json.loads(out)] == [False, True]

    def test_prop32_vector_from_the_critical_sum(self, capsys, tmp_path):
        # |A| has a positive cycle for eigenvalue 0, whose vector is the sum
        # of the columns critical in their own row; 3 has no tangible one.
        path = tmp_path / "P.txt"
        path.write_text("3 -inf -inf -3/2\n-inf -inf 0 -inf\n-inf 0 -inf -inf\n0 -inf -inf 0\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "check", "prop32", "-f", str(path), "-m", "2")
        assert code == 0
        assert out == (
            "PASS eigen-power\n  eigenvalue=0  vector=(-3/2, 3, 3, 3)\n"
            "  i=0  lhs=9/2g  rhs=-3/2  ok=True\n  i=1  lhs=3  rhs=3  ok=True\n"
            "  i=2  lhs=3  rhs=3  ok=True\n  i=3  lhs=3  rhs=3  ok=True\n"
            "N/A  eigen-power\n  eigenvalue=3  note=no column of adj(A + xI) or critical column "
            "of the star of |A| - x, nor either sum, gives a tangible eigenvector\n"
        )

    def test_prop32_without_tangible_eigenvalue(self, capsys, tmp_path):
        path = tmp_path / "Z.txt"
        path.write_text("-inf -inf\n-inf -inf\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "prop32", "-f", str(path))
        assert (code, out) == (0, "N/A  eigen-power\n  note=no tangible eigenvalue\n")

    @pytest.mark.parametrize("text", ["-inf -inf\n-inf -inf\n", "1 3\n-inf 0\n"],
                             ids=["no-eigenvalue", "eigenpairs"])
    def test_prop32_power_cap_exit_3(self, capsys, tmp_path, text):
        # The power is refused whether or not any eigenpair would reach it.
        path = tmp_path / "M.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", "prop32", "-f", str(path), "-m", str(MAX_POWER + 1))
        assert (code, out) == (3, "")
        assert err == f"error: matrix power: size {MAX_POWER + 1} exceeds bound {MAX_POWER}\n"

    def test_prop32_requires_file(self, capsys):
        code, _, err = run(capsys, "check", "prop32")
        assert code == 2
        assert "matrix file" in err

    def test_charpoly_equiv_single(self, capsys, a2_file):
        code, out, _ = run(capsys, "check", "charpoly-equiv", "-f", a2_file)
        assert code == 0

    def test_generated_inputs(self, capsys):
        code, out, _ = run(
            capsys, "check", "thm36", "--trials", "20", "--seed", "3", "--max-n", "3"
        )
        assert code == 0
        assert out.startswith("PASS thm36")
        assert "pass=20" in out and "fail=0" in out

    def test_unknown_theorem_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "thm99"])
        assert exc.value.code == 2

    def test_generated_inputs_match_fuzz(self, capsys):
        _, out, _ = run(capsys, "fuzz", "--trials", "20", "--seed", "4", "--json")
        tallies = json.loads(out)["results"]
        for law in ("thm13", "cor37"):
            _, out, _ = run(capsys, "check", law, "--trials", "20", "--seed", "4", "--json")
            assert json.loads(out)["detail"] == [tallies[law]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "thm36", "-f", "A", "-m", "0"],
            ["check", "trace", "-m", "0", "--trials", "5"],
            ["check", "claim35", "-n", "0"],
        ],
        ids=["file-m0", "generated-m0", "claim35-n0"],
    )
    def test_power_or_dim_below_one_exit_2(self, capsys, a_file, argv):
        code, out, err = run(capsys, *[a_file if arg == "A" else arg for arg in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: -")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "frobenius", "-f", "/nonexistent.txt"], "-f"),
            (["check", "claim35", "-f", "/nonexistent.txt"], "-f"),
            (["check", "charpoly-equiv", "--trials", "3", "-m", "5"], "-m"),
            (["check", "thm36", "-f", "A", "-n", "7"], "-n"),
            (["check", "thm36", "-f", "A", "-g", "B"], "-g"),
            (["check", "frobenius", "--bound", "2"], "--bound"),
            (["check", "claim35", "--bound", "3"], "--bound"),
        ],
        ids=["frobenius-f", "claim35-f", "charpoly-equiv-m", "thm36-n", "thm36-g",
             "frobenius-bound", "claim35-bound"],
    )
    def test_unread_flag_exit_2(self, capsys, a_file, a2_file, argv, flag):
        files = {"A": a_file, "B": a2_file}
        code, out, err = run(capsys, *[files.get(arg, arg) for arg in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} is not used by {argv[1]}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "thm36", "-f", "A", "-m", "2", "--seed", "5", "--trials", "9",
              "--max-n", "7", "--full-census"], "--trials is not used by thm36 with -f"),
            (["check", "prop32", "-f", "A", "--trials", "1"],
             "--trials is not used by prop32 with -f"),
            (["check", "frobenius", "--seed", "3"], "--seed is not used by frobenius"),
            (["check", "claim35", "--max-n", "3"], "--max-n is not used by claim35"),
            (["check", "trace", "-m", "2", "--max-m", "4"],
             "--max-m is not used by trace with -m"),
            (["check", "thm36", "--trials", "3", "--full-census"],
             "--full-census is not used by thm36"),
            (["check", "claim35", "-n", "2", "--full-census"],
             "--full-census is not used by claim35 without --json"),
            (["check", "thm13", "-g", "/nonexistent"], "-g is not used by thm13 without -f"),
            # The trace law has no dimension bound: --bound caps generated dimensions only.
            (["check", "trace", "-f", "A", "--bound", "1"], "--bound is not used by trace with -f"),
        ],
        ids=["file-generation-flags", "prop32-trials", "frobenius-seed", "claim35-max-n",
             "fixed-m-max-m", "thm36-full-census", "claim35-text-full-census",
             "thm13-g-without-f", "trace-file-bound"],
    )
    def test_unread_generation_flag_exit_2(self, capsys, a_file, argv, message):
        code, out, err = run(capsys, *[a_file if arg == "A" else arg for arg in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "thm36", "--max-n", "1"], "--max-n must be at least 2, got 1"),
            (["check", "thm36", "--max-m", "1"], "--max-m must be at least 2, got 1"),
            (["fuzz", "--max-m", "1"], "--max-m must be at least 2, got 1"),
        ],
        ids=["check-max-n", "check-max-m", "fuzz-max-m"],
    )
    def test_largest_size_below_least_names_its_flag(self, capsys, argv, message):
        # No flag sets the least size here, so the refusal names the flag given.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuzz", "--min-n", "0"], "--min-n must be at least 1, got 0"),
            (["fuzz", "--trials", "3", "--min-n", "5"],
             f"--min-n must be at most {DEFAULT_MAX_N}, got 5"),
            (["fuzz", "--min-n", "3", "--max-n", "2"], "--min-n must be at most 2, got 3"),
        ],
        ids=["below-one", "above-default-max-n", "above-given-max-n"],
    )
    def test_least_dimension_out_of_range_names_its_flag(self, capsys, argv, message):
        # The refusal names --min-n, not the `Config` field it sets.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_generation_defaults(self, capsys):
        explicit = ["--trials", "100", "--seed", "0", "--max-n", "4", "--max-m", "3"]
        _, defaulted, _ = run(capsys, "check", "cor38", "--json")
        _, spelled_out, _ = run(capsys, "check", "cor38", *explicit, "--json")
        assert defaulted == spelled_out
        assert json.loads(defaulted)["detail"][0]["pass"] > 0

    def test_violation_exit_code(self, capsys, a_file, monkeypatch):
        # No true input can make the laws fail, so fake a failing verdict to
        # pin the exit-code contract on every path that runs the law.
        monkeypatch.setitem(
            CHECKS, "thm36", lambda t: Verdict("charpoly-power", False, {"matrix": "w"})
        )
        code, out, _ = run(capsys, "check", "thm36", "-f", a_file, "-m", "2")
        assert code == 1
        assert out.startswith("FAIL")

        code, out, _ = run(capsys, "check", "thm36", "--trials", "5", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["holds"] is False and data["witness"] == {"matrix": "w"}
        assert data["detail"] == [{"pass": 0, "fail": 5, "na": 0}]

        code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "9", "--json")
        assert code == 1
        violations = json.loads(out)["violations"]
        assert [v["check"] for v in violations] == ["thm36"] * 5
        assert [v["seed"] for v in violations] == [f"9:{i}" for i in range(5)]

        code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "9")
        assert code == 1
        listed = out.splitlines()
        start = listed.index("violations:")
        assert [json.loads(line) for line in listed[start + 1:]] == violations

    def test_charpoly_equiv_failure(self, capsys, monkeypatch):
        # The kernel and the oracle disagreeing on every generated trial.
        monkeypatch.setattr(oracle, "sym_direct_charpoly",
                            lambda a, bound=None: Polynomial((ZERO,)))
        code, out, _ = run(capsys, "check", "charpoly-equiv", "--trials", "3")
        assert code == 1
        assert out.startswith("FAIL charpoly-equiv\n")
        assert "failures=3" in out


class TestErrorPaths:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 nope\n1 2")
        code, _, err = run(capsys, "det", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("zero_den.txt", "1/00 0\n0 0"),
            ("rows_scalar.json", '{"n": 2, "rows": 5}'),
            ("n_bool.json", '{"n": true, "rows": [["0"]]}'),
            ("n_float.json", '{"n": 1.0, "rows": [["1"]]}'),
        ],
        ids=["zero-denominator", "rows-not-a-list", "n-bool", "n-float"],
    )
    def test_malformed_matrix_exit_2(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "det", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("det", '{"rows": [["1"]]}', "matrix JSON needs keys 'n' and 'rows'"),
            ("det", '{"n": 1, "rows": [[1]]}', "expected a scalar string, got int"),
            ("det", '{"n": 2, "rows": "ab"}', "matrix JSON 'rows' must be a list of lists"),
            ("roots", "[1, 2]", "expected a scalar string, got int"),
            ("roots", '["1", {"a": 1}]', "expected a scalar string, got dict"),
        ],
        ids=["matrix-missing-n", "matrix-int-entry", "matrix-rows-string",
             "poly-int-entries", "poly-dict-entry"],
    )
    def test_json_reader_refusals_exit_2(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_empty_json_matrix_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "rows": []}')
        code, out, err = run(capsys, "det", str(path))
        assert (code, out) == (2, "")
        assert err == "error: matrix must be square and nonempty\n"

    def test_zero_denominator_polynomial_exit_2(self, capsys):
        code, _, err = run(capsys, "roots", "x + 1/00")
        assert code == 2
        assert "zero denominator" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "det", "/does/not/exist.txt")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", "thm36", "-f", ""], ["check", "charpoly-equiv", "-f", ""],
         ["check", "thm13", "-f", "A", "-g", ""]],
        ids=["thm36-f", "charpoly-equiv-f", "thm13-g"],
    )
    def test_empty_path_exit_2(self, capsys, a_file, argv):
        # An empty path is a file that cannot be opened, not a missing flag.
        code, out, err = run(capsys, *[a_file if arg == "A" else arg for arg in argv])
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_bound_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("\n".join(" ".join("0" for _ in range(3)) for _ in range(3)))
        code, _, err = run(capsys, "det", str(path), "--bound", "2")
        assert code == 3
        assert "bound" in err

    @pytest.mark.parametrize("bound", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["det", "A"], ["charpoly", "A"], ["eigen", "A"], ["check", "thm36", "-f", "A"],
         ["check", "frobenius"], ["fuzz", "--trials", "2"]],
        ids=["det", "charpoly", "eigen", "check-f", "check-frobenius", "fuzz"],
    )
    def test_bound_below_one_exit_2(self, capsys, a_file, argv, bound):
        code, out, err = run(capsys, *[a_file if arg == "A" else arg for arg in argv],
                             "--bound", bound)
        assert (code, out) == (2, "")
        assert err == f"error: --bound must be at least 1, got {bound}\n"

    def test_bound_one_is_a_bound(self, capsys, a_file):
        code, out, err = run(capsys, "det", a_file, "--bound", "1")
        assert (code, out) == (3, "")
        assert err == "error: determinant: size 2 exceeds bound 1\n"

    def test_bound_ceiling_exit_3(self, capsys, a_file):
        # A bound past MAX_DIM_BOUND is refused as one line, however large,
        # and a campaign's before any draw; the ceiling itself is a bound.
        past = MAX_DIM_BOUND + 1
        code, out, err = run(capsys, "det", a_file, "--bound", str(past))
        assert (code, out) == (3, "")
        assert err == f"error: dimension bound: size {past} exceeds bound {MAX_DIM_BOUND}\n"
        code, out, err = run(capsys, "fuzz", "--max-n", "1000000", "--bound", "1000000")
        assert (code, out) == (3, "")
        assert err == f"error: dimension bound: size 1000000 exceeds bound {MAX_DIM_BOUND}\n"
        assert run(capsys, "det", a_file, "--bound", str(MAX_DIM_BOUND))[0] == 0

    @pytest.mark.parametrize("source", ["text", "json"])
    def test_polynomial_degree_cap_exit_3(self, capsys, tmp_path, source):
        # Degree MAX_PARSE_DEGREE passes and one more is refused, on both routes.
        for degree, code in ((MAX_PARSE_DEGREE, 0), (MAX_PARSE_DEGREE + 1, 3)):
            if source == "text":
                arg = f"x^{degree} + 0"
            else:
                path = tmp_path / "f.json"
                path.write_text(json.dumps(["0"] * (degree + 1)))
                arg = str(path)
            got, out, err = run(capsys, "roots", arg)
            assert got == code
            if code == 0:
                assert out.startswith("corner roots: 0 (mult ") and err == ""
            else:
                assert out == ""
                assert err == (
                    f"error: polynomial degree: size {degree} exceeds bound "
                    f"{MAX_PARSE_DEGREE}\n"
                )

    @pytest.mark.parametrize(
        "argv, content, code",
        [
            (["roots", "{n}"], None, 3),
            (["roots", "x^{n}"], None, 3),
            (["roots", "1/{n}"], None, 3),
            (["det", "{file}"], "0 {n}\n1 2\n", 3),
            (["det", "{file}"], '{{"n": {n}, "rows": []}}', 2),
            (["roots", "{file}"], '["{n}"]', 3),
        ],
        ids=["roots-number", "roots-degree", "roots-denominator", "det-text-entry",
             "det-json-integer", "roots-json-entry"],
    )
    def test_long_number_exit_2_or_3(self, capsys, tmp_path, argv, content, code):
        n = LONG_RUN
        path = tmp_path / "f"
        if content is not None:
            path.write_text(content.format(n=n))
        got, out, err = run(capsys, *(arg.format(n=n, file=path) for arg in argv))
        assert (got, out) == (code, "")
        if code == 3:
            assert err == (
                "error: number of digits: size 5000 exceeds bound "
                f"{MAX_LITERAL_DIGITS}\n"
            )
        else:
            assert err.startswith("error: bad JSON: ")

    @pytest.mark.parametrize("command", ["det", "charpoly", "eigen"])
    def test_matrix_scale_cap_exit_3(self, capsys, tmp_path, command):
        # Five pairwise coprime 1,000-digit denominators on the diagonal: each
        # literal is within its cap, but the running LCM of the first three
        # has 2,998 digits, and it is refused there.
        rows = [
            " ".join(f"1/{10**999 + 2 * i + 1}" if i == j else "0" for j in range(5))
            for i in range(5)
        ]
        path = tmp_path / "diag.txt"
        path.write_text("\n".join(rows))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert err == (
            f"error: digits of the matrix scale: size 2998 exceeds bound {2 * MAX_LITERAL_DIGITS}\n"
        )

    def test_joint_matrix_scale_cap_exit_3(self, capsys, tmp_path):
        # Two diagonal matrices of pairwise coprime 1,000-digit denominators:
        # each one's scale has 1,999 digits and passes, but the determinant
        # rule multiplies them at the LCM of the two, which is refused.
        paths = []
        for k in (0, 2):
            path = tmp_path / f"diag{k}.txt"
            path.write_text(f"1/{10**999 + 2 * k + 1} 0\n0 1/{10**999 + 2 * k + 3}\n")
            paths.append(str(path))
        for path in paths:
            assert run(capsys, "det", path)[0] == 0
        code, out, err = run(capsys, "check", "thm13", "-f", paths[0], "-g", paths[1])
        assert (code, out) == (3, "")
        assert err.startswith("error: digits of the matrix scale: size ")

    @pytest.mark.parametrize("source", ["text", "json"])
    def test_polynomial_scale_cap_exit_3(self, capsys, tmp_path, source):
        # Each literal is within its cap; the LCM of the first two
        # denominators has 2,000 digits and passes, with 7 it has 2,001.
        q1, q2 = 10**1000 - 1, 10**1000 - 3
        for coeffs, code in (([f"1/{q1}", f"1/{q2}"], 0), ([f"1/{q1}", f"1/{q2}", "1/7"], 3)):
            if source == "text":
                arg = " + ".join(f"{c}x^{d}" for d, c in enumerate(coeffs))
            else:
                path = tmp_path / "f.json"
                path.write_text(json.dumps(coeffs))
                arg = str(path)
            got, out, err = run(capsys, "roots", arg)
            assert got == code
            if code == 0:
                assert out.startswith("corner roots: ") and err == ""
            else:
                assert out == ""
                assert err == (
                    "error: digits of the polynomial scale: size 2001 exceeds bound "
                    f"{2 * MAX_LITERAL_DIGITS}\n"
                )

    @pytest.mark.parametrize(
        "argv",
        [["check", "thm36", "-f", "{a}", "-m", "{m}"], ["fuzz", "--trials", "3", "--max-m", "{m}"]],
        ids=["check-m", "fuzz-max-m"],
    )
    def test_matrix_power_cap_exit_3(self, capsys, a_file, argv):
        m = 9 * 10**4299  # 4,300 digits: argparse still reads it as an int
        code, out, err = run(capsys, *(arg.format(a=a_file, m=m) for arg in argv))
        assert (code, out) == (3, "")
        assert err.startswith("error: matrix power: size ")
        assert err.endswith(f" exceeds bound {MAX_POWER}\n")
        # The refused power is reported by its digit count, not echoed.
        assert err == f"error: matrix power: size of 4300 digits exceeds bound {MAX_POWER}\n"
        assert len(err.encode()) < 120

    @pytest.mark.parametrize("command", [["fuzz"], ["check", "thm36"]])
    def test_trials_cap(self, capsys, monkeypatch, command):
        # The campaign is stubbed out: at the cap the config is accepted and
        # handed over, above it the run is refused before any trial is drawn.
        configs = []

        def no_campaign(cfg, checks=("thm36",)):
            configs.append(cfg)
            return CampaignResult(cfg, {c: {"pass": 0, "fail": 0, "na": 0} for c in checks}, [])

        monkeypatch.setattr("supertropical.fuzz.run_campaign", no_campaign)
        code, _, _ = run(capsys, *command, "--trials", str(MAX_TRIALS), "--json")
        assert code == 0
        assert [cfg.trials for cfg in configs] == [MAX_TRIALS]
        code, out, err = run(capsys, *command, "--trials", str(MAX_TRIALS + 1))
        assert (code, out) == (3, "")
        assert err == f"error: trials: size {MAX_TRIALS + 1} exceeds bound {MAX_TRIALS}\n"
        assert len(configs) == 1

    def test_trials_shown_by_digit_count(self, capsys):
        # 40 nines: one below a power of ten, where the float log10 rounds up.
        code, out, err = run(capsys, "fuzz", "--trials", "9" * 40)
        assert (code, out) == (3, "")
        assert err == f"error: trials: size of 40 digits exceeds bound {MAX_TRIALS}\n"

    def test_max_n_cap(self, capsys):
        # Refused before any trial is drawn, however large; within the
        # dimension bound the campaign runs.
        code, out, err = run(capsys, "fuzz", "--max-n", "1000000")
        assert (code, out) == (3, "")
        assert err == "error: largest generated dimension: size 1000000 exceeds bound 9\n"
        code, out, _ = run(capsys, "fuzz", "--max-n", "12", "--bound", "12", "--trials", "1")
        assert code == 0
        assert out.startswith("fuzz: 1 trials, seed 0, n in [2,12], ")
        # The generated trace law reads --bound through the same cap.
        code, out, _ = run(capsys, "check", "trace", "--max-n", "12", "--trials", "1")
        assert (code, out) == (3, "")
        code, out, _ = run(capsys, "check", "trace", "--bound", "12", "--max-n", "12",
                           "--trials", "1")
        assert code == 0
        assert out.startswith("PASS trace\n")

    def test_matrix_power_at_cap(self, capsys, a_file):
        code, _, _ = run(capsys, "check", "thm36", "-f", a_file, "-m", str(MAX_POWER))
        assert code == 0
        code, out, err = run(capsys, "check", "trace", "-f", a_file, "-m", str(MAX_POWER + 1))
        assert (code, out) == (3, "")
        assert err == f"error: matrix power: size {MAX_POWER + 1} exceeds bound {MAX_POWER}\n"

    @pytest.mark.parametrize("kind", ["non-utf8", "deep-json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "{bad}"],
            ["roots", "{bad}"],
            ["check", "thm36", "-f", "{bad}"],
            ["check", "thm13", "-f", "{a}", "-g", "{bad}"],
        ],
        ids=["det", "roots", "check-f", "check-thm13-g"],
    )
    def test_undecodable_file_exit_2(self, capsys, tmp_path, a_file, argv, kind):
        # A non-UTF-8 file and JSON nested far past the recursion limit are
        # input errors; polynomial JSON is a list and matrix JSON an object.
        deep = b"[" * 200_000
        content = {
            "non-utf8": b"\xff\xfe 1 2\n3 4\n",
            "deep-json": deep if argv[0] == "roots" else b'{"rows": ' + deep,
        }[kind]
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        code, out, err = run(capsys, *(arg.format(a=a_file, bad=bad) for arg in argv))
        assert code == 2
        assert out == ""
        prefix = {"non-utf8": f"{bad} is not UTF-8 text: ", "deep-json": "bad JSON: "}[kind]
        assert err.startswith("error: " + prefix)


# Every subcommand that reads a file or a polynomial argument; {a} and {b}
# are files holding the two drawn texts, {text} is the first text itself.
BOUNDARY_COMMANDS = (
    ("det", "{a}"),
    ("charpoly", "{a}"),
    ("eigen", "{a}"),
    ("roots", "{a}"),
    ("roots", "{text}"),
    ("check", "thm36", "-f", "{a}"),
    ("check", "thm13", "-f", "{a}", "-g", "{b}"),
    ("check", "prop32", "-f", "{a}"),
)
LITERAL_TOKENS = (
    *"0123456789", "/", "g", "-inf", "x", "^", "+", " ", "\n", "\t", *'{}[]",:',
)
# Whole terms among the single tokens, so that some texts parse.
literal_terms = st.from_regex(r"-?[0-9](/[0-9])?g?(x(\^[0-9])?)?\Z")
literal_texts = st.lists(
    st.one_of(st.sampled_from(LITERAL_TOKENS), literal_terms), max_size=30
).map("".join)
DEEP_JSON = "[" * 200_000


class TestInputBoundary:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(BOUNDARY_COMMANDS), literal_texts, literal_texts)
    @example(("roots", "{text}"), LONG_RUN, "")
    @example(("check", "thm13", "-f", "{a}", "-g", "{b}"), "0", "1/" + LONG_RUN)
    @example(("det", "{a}"), '{"n": ' + LONG_RUN + ', "rows": []}', "")
    @example(("eigen", "{a}"), '{"rows": ' + DEEP_JSON, "")
    @example(("roots", "{a}"), DEEP_JSON, "")
    def test_exit_code_is_0_2_or_3(self, command, first, second):
        # The laws are theorems, so exit 1 would be a finding, and any
        # exception other than argparse's exit fails the test.
        with tempfile.TemporaryDirectory() as tmp:
            files = {"a": os.path.join(tmp, "a"), "b": os.path.join(tmp, "b")}
            for name, text in zip(files, (first, second)):
                with open(files[name], "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [arg.format(text=first, **files) for arg in command]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 2, 3), err.getvalue()


def _flag_values(valid, past_cap):
    """A flag's text: a small valid value, or one past its cap."""
    return st.one_of(valid, st.sampled_from(past_cap)).map(str)


# Past every cap: below 1, above the power and trial caps, above the default
# dimension bound (and so above every bound drawn here), and not a number. A
# bound is also drawn past its own ceiling.
_PAST_CAP = (0, -1, MAX_POWER + 1, MAX_TRIALS + 1, 10, 10**30, "nan")
NUMERIC_FLAGS = {
    "--trials": _flag_values(st.integers(1, 3), _PAST_CAP),
    "--max-n": _flag_values(st.integers(1, 4), _PAST_CAP),
    "--max-m": _flag_values(st.integers(1, 3), _PAST_CAP),
    "-m": _flag_values(st.integers(1, 3), _PAST_CAP),
    "-n": _flag_values(st.integers(1, 4), _PAST_CAP),
    "--bound": _flag_values(st.integers(1, 9), _PAST_CAP[:2] + (MAX_DIM_BOUND + 1, 10**30, "nan")),
    "--ghost-prob": _flag_values(st.floats(0, 1), (-0.5, 1.5, "nan", "inf", "-inf")),
}
# Each command with the numeric flags it reads, and whether it draws
# generated trials. Those draw a --trials always, so that no example runs the
# default 100 trials.
FLAG_COMMANDS = [
    (["fuzz"], ("--max-n", "--max-m", "--bound", "--ghost-prob"), True),
    *(
        (["check", check_id],
         tuple(f for f in reads if f in NUMERIC_FLAGS) + ("--max-n", "--max-m") * generated,
         generated)
        for check_id, (reads, generated, _) in cli._CHECK_TABLE.items()
    ),
]


@st.composite
def flag_argvs(draw):
    command, flags, generated = draw(st.sampled_from(FLAG_COMMANDS))
    required = {"--trials": NUMERIC_FLAGS["--trials"]} if generated else {}
    optional = {flag: NUMERIC_FLAGS[flag] for flag in flags}
    values = draw(st.fixed_dictionaries(required, optional=optional))
    return command + [arg for item in values.items() for arg in item]


class TestFlagBoundary:
    @settings(max_examples=150, deadline=None)
    @given(flag_argvs())
    @example(["fuzz", "--trials", "1", "--max-n", "1000000"])
    @example(["check", "thm36", "--trials", str(10**30)])
    @example(["check", "claim35", "-n", "3", "-m", str(MAX_POWER + 1)])
    @example(["fuzz", "--trials", "1", "--ghost-prob", "nan"])
    def test_exit_code_is_0_2_or_3(self, argv):
        # A dimension, trial count or power past its cap is refused before it
        # sizes any work, so each example is quick; the laws are theorems, so
        # exit 1 would be a finding, and any exception other than argparse's
        # exit fails the test.
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestFuzzCommand:
    def test_small_campaign(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "10", "--seed", "5")
        assert code == 0
        assert "violations: none" in out

    def test_json_deterministic(self, capsys):
        args = ["fuzz", "--trials", "15", "--seed", "11", "--max-n", "3", "--json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["results"]["thm36"]["fail"] == 0
        assert data["config"]["seed"] == 11

    def test_different_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "fuzz", "--trials", "15", "--seed", "1", "--json")
        _, out2, _ = run(capsys, "fuzz", "--trials", "15", "--seed", "2", "--json")
        assert out1 != out2
