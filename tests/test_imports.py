"""The package and the command line run only the modules they use.

Each case runs in a fresh interpreter and reads ``sys.modules`` there: in
this process every module has run already. The package registers each
submodule in ``sys.modules`` as a lazy module that has not run yet; its type
turns into a plain module when it runs, and ``type()`` does not run it.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supertropical
from supertropical.defaults import LAW_IDS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# The package's public names, by the module that defines each: resolving
# them lazily must keep every one.
EXPORTED = {
    "errors": ["BoundExceededError", "DomainError", "ParseError", "ShapeError",
               "SupertropicalError"],
    "scalar": ["Kind", "ONE", "Scalar", "ZERO", "ghost", "parse_scalar", "tangible"],
    "polynomial": ["Interval", "Polynomial", "RootReport", "breakpoints", "coeff_strings",
                   "essential", "is_root", "parse_polynomial", "polynomial_from_strings",
                   "primary_root", "roots"],
    "matrix": ["DetClass", "DetReport", "Matrix", "PermutationTrack", "char_poly", "det",
               "format_matrix", "mat_mul", "mat_pow", "mat_surpasses", "mat_vec",
               "matrix_from_json_dict", "parse_matrix", "principal_minor", "trace"],
    "spectral": ["EigenReport", "Verdict", "check_charpoly_power", "check_corner_root_power",
                 "check_det_rule", "check_eigen_power", "check_eigenpair", "check_frobenius",
                 "check_tangible_equality", "check_trace_power", "eigenpairs", "eigenvalues"],
    "oracle": ["SymMonomial", "SymPoly", "census_power_tracks", "enum_det",
               "minor_sum_charpoly", "sampled_equiv", "search_eigenpairs", "sym_charpoly_coeff",
               "sym_direct_charpoly"],
    "fuzz": ["CampaignResult", "Config", "random_matrix", "random_polynomial", "random_scalar",
             "run_campaign", "trial_seed"],
}
HEAVY = {"matrix", "spectral", "fuzz", "oracle"}


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return what it printed last, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# The package modules that have run, as an expression over sys and types.
RAN = (
    "sorted(n.split('.', 1)[1] for n, m in sys.modules.items()"
    " if n.startswith('supertropical.') and type(m) is types.ModuleType)"
)

# Standard modules that cost a command several milliseconds to import and
# that the package does not need, and an expression for those loaded.
SLOW_STDLIB = ("dataclasses", "inspect")
SLOW_LOADED = f"[name for name in {SLOW_STDLIB!r} if name in sys.modules]"


def cli_modules(tmp_path, *argv: str) -> set[str]:
    """The package modules a CLI call runs, after checking that it succeeded
    and loaded none of `SLOW_STDLIB`."""
    path = tmp_path / "A.txt"
    path.write_text("0 0\n1 2\n", encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, types\n"
        "from supertropical import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        f"print(json.dumps([{RAN}, {SLOW_LOADED}]))"
    )
    ran, slow = fresh(code, *(str(path) if arg == "A" else arg for arg in argv))
    assert slow == []
    return set(ran)


def test_import_runs_no_submodule():
    ran = fresh(f"import json, sys, types, supertropical\nprint(json.dumps({RAN}))")
    assert set(ran) <= {"errors"}


def test_import_registers_every_submodule():
    # Code that scans sys.modules after `import supertropical` finds every
    # submodule, and reading one of its attributes runs it.
    code = (
        "import json, sys, types, supertropical\n"
        "registered = sorted(n for n in sys.modules if n.startswith('supertropical.'))\n"
        "sys.modules['supertropical.oracle'].enum_det\n"
        f"print(json.dumps([registered, {RAN}]))"
    )
    registered, ran = fresh(code)
    assert registered == sorted(f"supertropical.{name}" for name in EXPORTED)
    assert {"oracle", "matrix", "spectral"} <= set(ran)


def test_roots_loads_no_matrix_module(tmp_path):
    assert not cli_modules(tmp_path, "roots", "x^2 + 2x + 2") & HEAVY


@pytest.mark.parametrize("command", ["det", "charpoly"])
def test_det_and_charpoly_load_matrix_only(tmp_path, command):
    loaded = cli_modules(tmp_path, command, "A", "--json")
    assert "matrix" in loaded
    assert not loaded & {"spectral", "fuzz", "oracle"}


@pytest.mark.parametrize(
    "argv, heavy",
    [
        (["eigen", "A"], {"matrix", "spectral"}),
        (["check", "thm36", "-f", "A"], {"matrix", "spectral"}),
        (["check", "frobenius"], {"matrix", "spectral"}),
        (["check", "claim35"], {"matrix", "spectral", "oracle"}),
        (["fuzz", "--trials", "2"], {"matrix", "spectral", "fuzz"}),
        (["check", "thm36", "--trials", "2"], {"matrix", "spectral", "fuzz"}),
        (["check", "charpoly-equiv", "-f", "A"], {"matrix", "spectral", "oracle"}),
        (["check", "prop32", "-f", "A"], {"matrix", "spectral"}),
    ],
    ids=["eigen", "check-law-file", "check-frobenius", "check-claim35", "fuzz",
         "check-law-generated", "check-charpoly-equiv-file", "check-prop32"],
)
def test_checks_load_what_they_run(tmp_path, argv, heavy):
    assert cli_modules(tmp_path, *argv) & HEAVY == heavy


def test_star_import_loads_no_slow_stdlib():
    # Every module runs once each exported name has been read.
    code = (
        "import json, sys, types\n"
        "from supertropical import *\n"
        "import supertropical\n"
        "for name in supertropical.__all__:\n"
        "    getattr(supertropical, name)\n"
        f"print(json.dumps([{RAN}, {SLOW_LOADED}]))"
    )
    ran, slow = fresh(code)
    assert set(EXPORTED) <= set(ran)
    assert slow == []


def test_every_export_resolves_to_its_home():
    # In a fresh interpreter, so that each name goes through the lazy lookup.
    code = (
        "import importlib, json, sys, supertropical as st\n"
        "exported = json.loads(sys.argv[1])\n"
        "same = {name: getattr(st, name) is getattr(importlib.import_module("
        "'supertropical.' + home), name) for home, names in exported.items() for name in names}\n"
        "same.update({home: getattr(st, home) is sys.modules['supertropical.' + home]"
        " for home in exported})\n"
        "print(json.dumps(same))"
    )
    same = fresh(code, json.dumps(EXPORTED))
    assert same == {name: True for name in [*EXPORTED, *(n for v in EXPORTED.values() for n in v)]}


def test_exports_read_through_to_their_home():
    # The package stores no name: one first read while the home attribute is
    # patched does not outlive the patch.
    code = (
        "import json, supertropical as st\n"
        "original = st.matrix.det\n"
        "st.matrix.det = lambda *args, **kwargs: None\n"
        "patched = st.det is st.matrix.det\n"
        "st.matrix.det = original\n"
        "print(json.dumps([patched, st.det is st.matrix.det]))"
    )
    assert fresh(code) == [True, True]


def test_cli_has_one_lazy_mechanism():
    # The command line reaches the submodules through the package's lazy
    # modules, bound at module level; no function imports on its own.
    source = (SRC / "supertropical" / "cli.py").read_text(encoding="utf-8")
    assert "TYPE_CHECKING" not in source
    local_imports = [
        (fn.name, node.lineno)
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local_imports == []


def test_all_and_dir_list_every_export():
    names = {*EXPORTED, *(n for v in EXPORTED.values() for n in v)}
    assert set(supertropical.__all__) == names
    assert names <= set(dir(supertropical))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        supertropical.no_such_name  # noqa: B018
    assert not hasattr(supertropical, "cli_main")
    with pytest.raises(ImportError):
        from supertropical import no_such_name  # noqa: F401


def test_only_the_oracle_enumerates():
    # Brute-force enumeration is the oracle's reference; no other module
    # imports the itertools generators that enumerate.
    enumerators = {"permutations", "combinations", "product"}
    found = []
    for path in sorted((SRC / "supertropical").glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                found += [(path.name, a.name) for a in node.names if a.name in enumerators]
            elif (isinstance(node, ast.Attribute) and node.attr in enumerators
                  and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                found.append((path.name, node.attr))
    assert found == []


def test_one_list_of_law_ids():
    # The five law ids are spelled out together once, as `defaults.LAW_IDS`;
    # every other list of them, in the package or its tests, reads that one.
    found = []
    for path in sorted([*(SRC / "supertropical").glob("*.py"), *TESTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                spelled = {e.value for e in node.elts if isinstance(e, ast.Constant)}
                if set(LAW_IDS) <= spelled:
                    found.append((path.name, type(node).__name__))
    assert found == [("defaults.py", "Tuple")]


def test_one_power_rule():
    # Only `matrix` reads the power cap: every other module has a power
    # refused by `matrix.check_power`, through `mat_pow` or on its own.
    readers = []
    for path in sorted((SRC / "supertropical").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        if "MAX_POWER" in names:
            readers.append(path.name)
    assert readers == ["matrix.py"]


def test_benchmark_tracer_targets_exist():
    # The benchmark's tracer (perfbench/tracer.py) wraps package names given
    # as strings, and a name that no longer exists loses its per-layer
    # metric without an error. Its tables are read here, not imported.
    tree = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED", "METHODS")
    }
    missing = []
    for module, name in [*tables["SPANNED"].values(), *tables["COUNTED"].values()]:
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.append(f"{module}.{name}")
    for module, cls, method, _spanned in tables["METHODS"].values():
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None)):
            missing.append(f"{module}.{cls}.{method}")
    assert missing == []
