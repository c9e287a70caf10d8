"""Byte-for-byte CLI output pinned against recorded golden files.

Each case runs ``supertropical <argv>`` in-process, expects exit 0 (no law
can fail on true inputs) and compares its stdout with ``tests/golden/<name>``.
The files were recorded from the command line; regenerate one by running the
same argv with the matrix fixtures below written to files, and review the
diff before committing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from supertropical import (
    Config,
    char_poly,
    check_charpoly_power,
    cli,
    det,
    eigenvalues,
    parse_matrix,
    roots,
    run_campaign,
)
from supertropical.defaults import LAW_IDS

GOLDEN = Path(__file__).resolve().parent / "golden"

# The same 2x2 fixtures as test_cli.py: A has a tangible determinant, A2 a
# ghost-by-tie one. B4 mixes ghosts, -inf and non-integers: its determinant
# ties two tracks, its characteristic polynomial has a ghost constant term,
# and it has a double eigenvalue and a ghost root region.
MATRICES = {
    "A": "0 0\n1 2\n",
    "A2": "1 2\n3 4\n",
    "B4": "1/2g 3/2 1/2 -inf\n1/2 1g 1 -1/3\n-2/3 2 3/2 -inf\n-1/3 2 1 2\n",
}

CASES = {
    "fuzz_t200_s42.txt": ["fuzz", "--trials", "200", "--seed", "42"],
    "fuzz_t200_s42.json": ["fuzz", "--trials", "200", "--seed", "42", "--json"],
    **{
        f"check_{law}_t50_s7.json": ["check", law, "--trials", "50", "--seed", "7", "--json"]
        for law in LAW_IDS
    },
    "check_charpoly-equiv_t30_s3.json": [
        "check", "charpoly-equiv", "--trials", "30", "--seed", "3", "--json"
    ],
    "check_thm36_fA_m2.json": ["check", "thm36", "-f", "{A}", "-m", "2", "--json"],
    "check_thm36_fA2_m3.json": ["check", "thm36", "-f", "{A2}", "-m", "3", "--json"],
    "check_cor38_fA_m2.json": ["check", "cor38", "-f", "{A}", "-m", "2", "--json"],
    "check_thm13_fA_gA2.json": ["check", "thm13", "-f", "{A}", "-g", "{A2}", "--json"],
    "check_thm13_fA.json": ["check", "thm13", "-f", "{A}", "--json"],
    "check_frobenius.txt": ["check", "frobenius"],
    "check_frobenius.json": ["check", "frobenius", "--json"],
    **{
        f"check_prop32_f{key}_m{m}.{ext}": ["check", "prop32", "-f", f"{{{key}}}", "-m", str(m),
                                           *(["--json"] if ext == "json" else [])]
        for key, m in (("A", 3), ("B4", 2))
        for ext in ("txt", "json")
    },
    "check_charpoly-equiv_fA2.txt": ["check", "charpoly-equiv", "-f", "{A2}"],
    "check_charpoly-equiv_fA2.json": ["check", "charpoly-equiv", "-f", "{A2}", "--json"],
    **{
        f"{command}_f{key}.{ext}": [command, f"{{{key}}}", *(["--json"] if ext == "json" else [])]
        for command in ("det", "charpoly", "eigen")
        for key in MATRICES
        for ext in ("txt", "json")
    },
    "fuzz_t100_s5_n1-3_m4_g0.5.json": [
        "fuzz", "--trials", "100", "--seed", "5", "--min-n", "1", "--max-n", "3",
        "--max-m", "4", "--ghost-prob", "0.5", "--json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    paths = {}
    for key, text in MATRICES.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in CASES[name]]
    code = cli.main(argv)
    out = capsys.readouterr().out
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert code == 0
    assert out == expected


HELP_COMMANDS = ("det", "check", "fuzz")


# The help texts show the defaults of --bound and of the generation flags,
# which the parser reads from `supertropical.defaults`; recorded with Python
# 3.11's argparse at 80 columns.
@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_matches_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text(encoding="utf-8")


# Each report the library returns for a matrix fixture, and the argv whose
# output is that report: "{path}" is the fixture's file and "{charpoly}"
# its characteristic polynomial's text.
LIBRARY_REPORTS = {
    "det": (det, ["det", "{path}"]),
    "charpoly": (char_poly, ["charpoly", "{path}"]),
    "roots": (lambda a: roots(char_poly(a)), ["roots", "{charpoly}"]),
    "eigen": (eigenvalues, ["eigen", "{path}"]),
    "verdict": (lambda a: check_charpoly_power(a, 2),
                ["check", "thm36", "-f", "{path}", "-m", "2"]),
}


@pytest.mark.parametrize(
    "report, key", [(report, key) for report in LIBRARY_REPORTS for key in MATRICES]
    + [("campaign", None)],
)
def test_library_text_is_the_command_text(report, key, tmp_path, capsys):
    """A report's ``str`` is its command's stdout without the final newline,
    and its ``to_json_dict()`` is what the command prints with --json."""
    if key is None:
        value = run_campaign(Config(trials=30, seed=5))
        argv = ["fuzz", "--trials", "30", "--seed", "5"]
    else:
        path = tmp_path / f"{key}.txt"
        path.write_text(MATRICES[key], encoding="utf-8")
        a = parse_matrix(MATRICES[key])
        compute, template = LIBRARY_REPORTS[report]
        value = compute(a)
        argv = [arg.format(path=path, charpoly=char_poly(a)) for arg in template]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{value}\n"
    assert cli.main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == value.to_json_dict()


def test_every_golden_file_is_read():
    # A golden file that no case reads pins nothing.
    read = set(CASES) | {f"help_{command}.txt" for command in HELP_COMMANDS}
    assert {path.name for path in GOLDEN.iterdir()} == read
