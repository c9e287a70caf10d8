"""Command-line front end.

Subcommands: det, charpoly, roots, eigen, check, fuzz. Each is a function
from its parsed arguments to one report; `main` prints that report once, as
text or ``--json``, and takes the exit code from it. Exit codes: 0 on
success, 1 when the report is not ``ok`` (a check or campaign found a
violation), 2 for input errors, 3 when a bound (dimension, dimension bound,
degree, digit count, matrix or polynomial scale, matrix power or trial
count) was exceeded.

Every subcommand uses ``polynomial`` (and ``scalar``), which load with this
module. The other submodules are bound here as the package's lazy modules:
each runs when a command first reads one of its names, so a command runs
only the modules it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from . import fuzz, matrix, oracle, scalar, spectral
from .defaults import (
    DEFAULT_DET_BOUND,
    DEFAULT_GHOST_PROB,
    DEFAULT_MAX_M,
    DEFAULT_MAX_N,
    DEFAULT_MIN_N,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    LAW_IDS,
)
from .errors import BoundExceededError, DomainError, ParseError, ShapeError
from .polynomial import Polynomial, parse_polynomial, polynomial_from_strings, roots

def _read_file(path: str, json_opener: str, from_json, from_text):
    """Parse a file by ``from_json`` if it opens with ``json_opener``, else by ``from_text``."""
    # "utf-8-sig" drops a leading byte-order mark, which editors may save.
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _read_matrix(path: str) -> matrix.Matrix:
    return _read_file(path, "{", matrix.matrix_from_json_dict, matrix.parse_matrix)


def _read_polynomial(arg: str) -> Polynomial:
    if os.path.exists(arg) and not os.path.isdir(arg):
        return _read_file(arg, "[", polynomial_from_strings, parse_polynomial)
    return parse_polynomial(arg)


def _emit(report, as_json: bool) -> None:
    """Print a report's ``--json`` object or its text, building only the one printed."""
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) if as_json else report)


_MATRIX_FILE = "matrix file (text or JSON)"

# The subcommands that compute one report from one input, in `--help` order:
# name, help, positional argument and its help, whether --bound is read, and
# the call. Each call reads its lazy module's name when it runs.
_REPORTS = (
    ("det", "determinant with dominant tracks", "path", _MATRIX_FILE, True,
     lambda args: matrix.det(_read_matrix(args.path), bound=args.bound)),
    ("charpoly", "characteristic polynomial", "path", _MATRIX_FILE, True,
     lambda args: matrix.char_poly(_read_matrix(args.path), bound=args.bound)),
    ("roots", "root report for a polynomial", "poly",
     "polynomial string or file; one that starts with '-' and has no "
     "space goes after --, as in: roots -- -2g", False,
     lambda args: roots(_read_polynomial(args.poly))),
    ("eigen", "eigenvalues of a matrix", "path", _MATRIX_FILE, True,
     lambda args: spectral.eigenvalues(_read_matrix(args.path), bound=args.bound)),
)


class _Verdicts(tuple):
    """Verdicts as one report: their texts in turn, and in JSON a lone
    verdict's object or else the list of theirs."""

    def to_json_dict(self) -> dict | list:
        return self[0].to_json_dict() if len(self) == 1 else [v.to_json_dict() for v in self]

    def __str__(self) -> str:
        return "\n".join(map(str, self))

    @property
    def ok(self) -> bool:
        return all(v.holds is not False for v in self)


def _generated_config(args) -> fuzz.Config:
    """The campaign shape the generation flags give, for `fuzz` and `check`.

    Each flag named after a `Config` field sets that field, flags left out
    take `Config`'s defaults, and `check`'s -m fixes the power. A largest
    size below the default least one that no flag set is refused by its flag,
    and so is a least dimension below 1 or above the largest.
    """
    given = {k: v for k, v in vars(args).items() if k in fuzz.Config._fields and v is not None}
    if getattr(args, "power", None) is not None:
        given["min_m"] = given["max_m"] = args.power
    defaults = fuzz.Config()
    for low, high in (("min_n", "max_n"), ("min_m", "max_m")):
        least = getattr(defaults, low)
        if low not in given and given.get(high, least) < least:
            flag = "--" + high.replace("_", "-")
            raise DomainError(f"{flag} must be at least {least}, got {given[high]}")
    if "min_n" in given:
        _at_least_one("--min-n", given["min_n"])
        most = given.get("max_n", defaults.max_n)
        if given["min_n"] > most:
            raise DomainError(f"--min-n must be at most {most}, got {given['min_n']}")
    return fuzz.Config(**given, det_bound=args.bound)


def _summary(check_id: str, verdicts: Iterable[spectral.Verdict]) -> spectral.Verdict:
    """One verdict over many cases: the case and failure counts, and the
    first failure's witness."""
    cases, failures = 0, []
    for cases, v in enumerate(verdicts, start=1):
        if v.holds is False:
            failures.append(v)
    witness = failures[0].witness if failures else None
    return spectral.Verdict(check_id, not failures, witness,
                            ({"cases": cases, "failures": len(failures)},))


def _file_trial(args) -> spectral.Trial:
    """The trial that -f (and -g, else A again) and -m (else 2) give."""
    a = _read_matrix(args.file)
    b = a if args.file_b is None else _read_matrix(args.file_b)
    return spectral.Trial(a, b, 2 if args.power is None else args.power, args.bound)


def _run_law(args) -> _Verdicts:
    """One of `spectral.CHECKS` on the file's trial, or tallied over a campaign."""
    check_id = args.theorem
    if args.file is not None:
        return _Verdicts([spectral.CHECKS[check_id](_file_trial(args))])
    result = fuzz.run_campaign(_generated_config(args), (check_id,))
    first = result.violations[0]["verdict"] if result.violations else {}
    tally = (result.tallies[check_id],)
    return _Verdicts([spectral.Verdict(check_id, result.ok, first.get("witness"), tally)])


def _run_charpoly_equiv(args) -> _Verdicts:
    """Does the kernel's charpoly(A) equal the one the direct route expands?"""

    def check(t: spectral.Trial) -> spectral.Verdict:
        same = t.alpha == oracle.sym_direct_charpoly(t.a, t.bound)
        witness = None if same else {"matrix": t.a.to_json_dict()}
        return spectral.Verdict("charpoly-equiv", same, witness)

    if args.file is not None:
        return _Verdicts([check(_file_trial(args))])
    verdicts = map(check, fuzz.generate_trials(_generated_config(args)))
    return _Verdicts([_summary(args.theorem, verdicts)])


def _run_frobenius(args) -> _Verdicts:
    grid = [scalar.ZERO] + [f(v) for v in range(-3, 4) for f in (scalar.tangible, scalar.ghost)]
    cases = (spectral.check_frobenius(a, b, n) for a in grid for b in grid for n in range(1, 5))
    return _Verdicts([_summary(args.theorem, cases)])


def _run_prop32(args) -> _Verdicts:
    """The power law on each tangible eigenvalue's eigenvector from the adjoint."""
    return _Verdicts(spectral.eigen_power_verdicts(_file_trial(args)))


def _run_claim35(args) -> _Verdicts:
    n = 2 if args.dim is None else args.dim
    m = 2 if args.power is None else args.power
    verdicts = [oracle.census_power_tracks(n, m, k) for k in range(1, n + 1)]

    class Census(_Verdicts):
        """Always a list in JSON; with --full-census each entry adds its coefficient's census."""

        def to_json_dict(self) -> list:
            payload = [v.to_json_dict() for v in self]
            if args.full_census:
                for k, entry in enumerate(payload, start=1):
                    entry["census"] = oracle.sym_charpoly_coeff(n, m, k).to_json_list()
            return payload

    return Census(verdicts)


# Every `check` id in `check --help` order, laws first: the flags it reads,
# whether it draws generated trials without -f, and its runner. A check that
# reads no -f reads no generation flag; one that reads -f but draws no trials
# needs it. thm13 (det(AB)) reads a second matrix and no power. The trace
# law computes no determinant: it reads --bound only as a generation flag,
# the cap on generated dimensions.
_CHECK_TABLE = {
    **{
        law: (("-f", "-g" if law == "thm13" else "-m") + (() if law == "trace" else ("--bound",)),
              True, _run_law)
        for law in LAW_IDS
    },
    "frobenius": ((), False, _run_frobenius),
    "prop32": (("-f", "-m", "--bound"), False, _run_prop32),
    "claim35": (("-n", "-m", "--full-census"), False, _run_claim35),
    "charpoly-equiv": (("-f", "--bound"), True, _run_charpoly_equiv),
}
CHECK_IDS = tuple(_CHECK_TABLE)


def _at_least_one(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise DomainError(f"{flag} must be at least 1, got {value}")


def cmd_check(args) -> _Verdicts:
    check_id = args.theorem
    reads, generated, run = _CHECK_TABLE[check_id]
    given = {"-f": args.file, "-g": args.file_b, "-m": args.power, "-n": args.dim}
    generation = {"--trials": args.trials, "--seed": args.seed,
                  "--max-n": args.max_n, "--max-m": args.max_m}
    # Generated trials read --bound through their `Config`, even for a law that does not.
    (generation if generated and "--bound" not in reads else given)["--bound"] = args.bound
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise DomainError(f"{flag} is not used by {check_id}")
    if args.file_b is not None and args.file is None:
        raise DomainError(f"-g is not used by {check_id} without -f")
    for flag, value in generation.items():
        if value is None:
            continue
        if "-f" not in reads:
            raise DomainError(f"{flag} is not used by {check_id}")
        if args.file is not None:
            raise DomainError(f"{flag} is not used by {check_id} with -f")
        if flag == "--max-m" and args.power is not None:
            raise DomainError(f"{flag} is not used by {check_id} with -m")
    if args.full_census and not ("--full-census" in reads and args.json):
        where = " without --json" if "--full-census" in reads else ""
        raise DomainError(f"--full-census is not used by {check_id}{where}")
    _at_least_one("-m", args.power)
    _at_least_one("-n", args.dim)
    if "-f" in reads and not generated and args.file is None:
        raise DomainError(f"{check_id} needs a matrix file (-f)")
    return run(args)


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

    for name, help_text, positional, positional_help, with_bound, call in _REPORTS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional, help=positional_help)
        add_common(p, with_bound)
        p.set_defaults(func=call)

    p = sub.add_parser("check", help="run one law checker")
    p.add_argument("theorem", choices=CHECK_IDS)
    p.add_argument("-f", "--file", help="matrix file")
    p.add_argument("-g", "--file-b", help="second matrix file (thm13)")
    p.add_argument("-m", "--power", type=int, default=None, help="matrix power")
    p.add_argument("-n", "--dim", type=int, default=None, help="dimension (claim35)")
    p.add_argument("--trials", type=int, default=None,
                   help=f"generated-input trials when no file is given (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"generated-input seed (default {DEFAULT_SEED})")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"largest generated dimension (default {DEFAULT_MAX_N})")
    p.add_argument("--max-m", type=int, default=None,
                   help=f"largest generated power when -m is not given (default {DEFAULT_MAX_M})")
    p.add_argument("--full-census", action="store_true",
                   help="include the complete monomial census in JSON output")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="seeded law-checking campaign")
    p.add_argument("--trials", type=int, help=f"campaign trials (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, help=f"campaign seed (default {DEFAULT_SEED})")
    p.add_argument("--min-n", type=int,
                   help=f"smallest generated dimension (default {DEFAULT_MIN_N})")
    p.add_argument("--max-n", type=int,
                   help=f"largest generated dimension (default {DEFAULT_MAX_N})")
    p.add_argument("--max-m", type=int, help=f"largest generated power (default {DEFAULT_MAX_M})")
    p.add_argument("--ghost-prob", type=float,
                   help=f"probability that a finite entry is ghost (default {DEFAULT_GHOST_PROB})")
    add_common(p)
    p.set_defaults(func=lambda args: fuzz.run_campaign(_generated_config(args)))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _at_least_one("--bound", getattr(args, "bound", None))
        report = args.func(args)
        _emit(report, args.json)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if getattr(report, "ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
