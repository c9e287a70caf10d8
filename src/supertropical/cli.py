"""Command-line front end.

Subcommands: det, charpoly, roots, eigen, check, fuzz. Exit codes: 0 on
success, 1 when a check or campaign found a violation, 2 for input errors,
3 when a bound (dimension, degree, digit count, matrix or polynomial scale,
matrix power or trial count) was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Iterable

from .errors import BoundExceededError, DomainError, ParseError, ShapeError
from .fuzz import Config, generate_trials, run_campaign, search_eigenpairs
from .matrix import DEFAULT_DET_BOUND, Matrix, char_poly, det, matrix_from_json_dict, parse_matrix
from .oracle import census_power_tracks, sym_charpoly_coeff, sym_direct_charpoly
from .polynomial import (
    Polynomial,
    coeff_strings,
    parse_polynomial,
    polynomial_from_strings,
    roots,
)
from .scalar import ZERO, ghost, tangible
from .spectral import CHECKS, Trial, Verdict, check_eigen_power, check_frobenius, eigenvalues

CHECK_IDS = (*CHECKS, "frobenius", "prop32", "claim35", "charpoly-equiv")

# The input flags each check reads; checks not listed read -f and -m.
_CHECK_FLAGS = {
    "thm13": ("-f", "-g"),
    "charpoly-equiv": ("-f",),
    "claim35": ("-n", "-m"),
    "frobenius": (),
}

# The flags that shape generated inputs, with their `Config` field names.
_GENERATION_FLAGS = (
    ("--trials", "trials"), ("--seed", "seed"), ("--max-n", "max_n"), ("--max-m", "max_m")
)

# How many eigenpairs `check prop32` looks for on its search lattice.
_PROP32_MAX_PAIRS = 100


def _read_file(path: str, json_opener: str, from_json, from_text):
    """Parse a file by ``from_json`` if it opens with ``json_opener``, else by ``from_text``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not text.lstrip().startswith(json_opener):
        return from_text(text)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    return from_json(data)


def _read_matrix(path: str) -> Matrix:
    return _read_file(path, "{", matrix_from_json_dict, parse_matrix)


def _read_polynomial(arg: str) -> Polynomial:
    if os.path.exists(arg):
        return _read_file(arg, "[", polynomial_from_strings, parse_polynomial)
    return parse_polynomial(arg)


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_det(args) -> int:
    report = det(_read_matrix(args.path), bound=args.bound)
    names = ", ".join(t.name for t in report.dominant_tracks) or "none"
    text = f"{report.value} ({report.classification.value}), dominant: {names}"
    _emit(report.to_json_dict(), args.json, text)
    return 0


def cmd_charpoly(args) -> int:
    poly = char_poly(_read_matrix(args.path), bound=args.bound)
    _emit({"coeffs": coeff_strings(poly), "text": str(poly)}, args.json, str(poly))
    return 0


def _root_report_text(report) -> str:
    lines = []
    if report.is_identically_root:
        lines.append("identically a root (every evaluation is ghost or -inf)")
    corners = ", ".join(f"{r} (mult {m})" for r, m in report.corner_roots) or "none"
    lines.append(f"corner roots: {corners}")
    intervals = ", ".join(str(iv) for iv in report.ghost_intervals) or "none"
    lines.append(f"ghost intervals: {intervals}")
    return "\n".join(lines)


def cmd_roots(args) -> int:
    report = roots(_read_polynomial(args.poly))
    _emit(report.to_json_dict(), args.json, _root_report_text(report))
    return 0


def cmd_eigen(args) -> int:
    report = eigenvalues(_read_matrix(args.path), bound=args.bound)
    values = ", ".join(f"{v} (mult {m})" for v, m in report.eigenvalues) or "none"
    region = ", ".join(str(iv) for iv in report.ghost_region) or "none"
    text = f"eigenvalues: {values}\nghost root region: {region}"
    _emit(report.to_json_dict(), args.json, text)
    return 0


def _verdict_text(v: Verdict) -> str:
    if v.holds is None:
        status = "N/A "
    else:
        status = "PASS" if v.holds else "FAIL"
    lines = [f"{status} {v.check}"]
    for record in v.detail:
        lines.append("  " + "  ".join(f"{k}={val}" for k, val in record.items()))
    if v.witness is not None:
        lines.append("  witness: " + json.dumps(v.witness, sort_keys=True))
    return "\n".join(lines)


def _print_verdicts(verdicts: list[Verdict], as_json: bool) -> int:
    if as_json:
        payload = [v.to_json_dict() for v in verdicts]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         sort_keys=True, indent=2))
    else:
        for v in verdicts:
            print(_verdict_text(v))
    return 1 if any(v.holds is False for v in verdicts) else 0


def _generated_config(args) -> Config:
    """The campaign shape the generation flags give, for `fuzz` and `check`.

    Each flag named after a `Config` field sets that field, flags left out
    take `Config`'s defaults, and `check`'s -m fixes the power.
    """
    names = {f.name for f in fields(Config)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if getattr(args, "power", None) is not None:
        given["min_m"] = given["max_m"] = args.power
    return Config(**given, det_bound=args.bound)


def _summary(check_id: str, verdicts: Iterable[Verdict]) -> Verdict:
    """One verdict over many cases: the case and failure counts, and the
    first failure's witness."""
    cases = 0
    failures = []
    for v in verdicts:
        cases += 1
        if v.holds is False:
            failures.append(v)
    return Verdict(
        check_id,
        not failures,
        failures[0].witness if failures else None,
        ({"cases": cases, "failures": len(failures)},),
    )


def _charpoly_equiv(t: Trial) -> Verdict:
    """Does the kernel's charpoly(A) equal the one the direct route expands?"""
    same = t.alpha == sym_direct_charpoly(t.a, t.bound)
    return Verdict("charpoly-equiv", same, None if same else {"matrix": t.a.to_json_dict()})


def cmd_check(args) -> int:
    check_id = args.theorem
    given = {"-f": args.file, "-g": args.file_b, "-m": args.power, "-n": args.dim}
    for flag, value in given.items():
        if value is not None and flag not in _CHECK_FLAGS.get(check_id, ("-f", "-m")):
            raise DomainError(f"{flag} is not used by {check_id}")
    if args.file_b is not None and args.file is None:
        raise DomainError(f"-g is not used by {check_id} without -f")
    for flag, name in _GENERATION_FLAGS:
        if getattr(args, name) is None:
            continue
        if check_id in ("frobenius", "claim35"):
            raise DomainError(f"{flag} is not used by {check_id}")
        if args.file is not None:
            raise DomainError(f"{flag} is not used by {check_id} with -f")
        if flag == "--max-m" and args.power is not None:
            raise DomainError(f"{flag} is not used by {check_id} with -m")
    if args.full_census and (check_id != "claim35" or not args.json):
        where = "claim35 without --json" if check_id == "claim35" else check_id
        raise DomainError(f"--full-census is not used by {where}")
    for flag, value in (("-m", args.power), ("-n", args.dim)):
        if value is not None and value < 1:
            raise DomainError(f"{flag} must be at least 1, got {value}")
    m = 2 if args.power is None else args.power
    if check_id == "claim35":
        n = 2 if args.dim is None else args.dim
        verdicts = [
            census_power_tracks(n, m, k) for k in range(1, n + 1)
        ]
        if args.json:
            payload = [v.to_json_dict() for v in verdicts]
            if args.full_census:
                for k, entry in enumerate(payload, start=1):
                    entry["census"] = sym_charpoly_coeff(n, m, k).to_json_list()
            print(json.dumps(payload, sort_keys=True, indent=2))
            return 1 if any(v.holds is False for v in verdicts) else 0
        return _print_verdicts(verdicts, False)
    if check_id == "frobenius":
        grid = [ZERO] + [f(v) for v in range(-3, 4) for f in (tangible, ghost)]
        cases = (check_frobenius(a, b, n) for a in grid for b in grid for n in range(1, 5))
        return _print_verdicts([_summary(check_id, cases)], args.json)
    if check_id == "prop32":
        if not args.file:
            raise DomainError("prop32 needs a matrix file (-f)")
        a = _read_matrix(args.file)
        pairs = search_eigenpairs(a, bound=args.bound, max_results=_PROP32_MAX_PAIRS)
        if not pairs:
            v = Verdict("eigen-power", None, None,
                        ({"note": "no tangible eigenpair found on the search lattice"},))
            return _print_verdicts([v], args.json)
        verdicts = [check_eigen_power(a, v, x, m) for v, x in pairs]
        return _print_verdicts(verdicts, args.json)

    check = _charpoly_equiv if check_id == "charpoly-equiv" else CHECKS[check_id]
    if args.file:
        a = _read_matrix(args.file)
        b = _read_matrix(args.file_b) if args.file_b else a
        return _print_verdicts([check(Trial(a, b, m, args.bound))], args.json)
    cfg = _generated_config(args)
    if check_id == "charpoly-equiv":
        verdicts = map(check, generate_trials(cfg))
        return _print_verdicts([_summary(check_id, verdicts)], args.json)
    result = run_campaign(cfg, (check_id,))
    first = result.violations[0]["verdict"] if result.violations else {}
    summary = Verdict(check_id, result.ok, first.get("witness"), (result.tallies[check_id],))
    return _print_verdicts([summary], args.json)


def cmd_fuzz(args) -> int:
    cfg = _generated_config(args)
    result = run_campaign(cfg)
    if args.json:
        print(result.to_json())
    else:
        print(
            f"fuzz: {cfg.trials} trials, seed {cfg.seed}, "
            f"n in [{cfg.min_n},{cfg.max_n}], m in [{cfg.min_m},{cfg.max_m}]"
        )
        for name, t in result.tallies.items():
            print(f"  {name:<6} pass {t['pass']:>5}  fail {t['fail']:>3}  na {t['na']:>5}")
        if result.violations:
            print("violations:")
            for item in result.violations:
                print(json.dumps(item, sort_keys=True))
        else:
            print("violations: none")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertropical",
        description="Exact max-plus (with ghosts) matrix and polynomial computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_bound=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if with_bound:
            p.add_argument(
                "--bound", type=int, default=None,
                help=f"dimension bound for det and charpoly (default {DEFAULT_DET_BOUND})",
            )

    p = sub.add_parser("det", help="determinant with dominant tracks")
    p.add_argument("path", help="matrix file (text or JSON)")
    add_common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("charpoly", help="characteristic polynomial")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("roots", help="root report for a polynomial")
    p.add_argument("poly", help="polynomial string or file")
    add_common(p, with_bound=False)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("eigen", help="eigenvalues of a matrix")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("check", help="run one law checker")
    p.add_argument("theorem", choices=CHECK_IDS)
    p.add_argument("-f", "--file", help="matrix file")
    p.add_argument("-g", "--file-b", help="second matrix file (thm13)")
    p.add_argument("-m", "--power", type=int, default=None, help="matrix power")
    p.add_argument("-n", "--dim", type=int, default=None, help="dimension (claim35)")
    p.add_argument("--trials", type=int, default=None,
                   help=f"generated-input trials when no file is given (default {Config.trials})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"generated-input seed (default {Config.seed})")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"largest generated dimension (default {Config.max_n})")
    p.add_argument("--max-m", type=int, default=None,
                   help=f"largest generated power when -m is not given (default {Config.max_m})")
    p.add_argument("--full-census", action="store_true",
                   help="include the complete monomial census in JSON output")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="seeded law-checking campaign")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-n", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--max-m", type=int)
    p.add_argument("--ghost-prob", type=float)
    add_common(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
