"""Record the reference output of every input pool entry of the named workloads.

    python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

The files in ``reference/`` hold the outputs of the seed commit. Re-record
only when a workload's input pool changes, and only on a commit whose
outputs are known to be right.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def record(name: str) -> None:
    import supertropical as st

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.make(name, Path(tmp))
        strata = {}
        for stratum in wl.strata:
            strata[stratum] = [
                wl.canon(wl.call(st, wl.prepare(st, stratum, member)))
                for member in range(wl.members)
            ]
            print(f"{name} {stratum}: {wl.members} entries", file=sys.stderr)
    write(name, wl.members, strata)


def write(name: str, members: int, strata: dict) -> None:
    """JSON with one pool entry per line."""
    blocks = [
        f"  {json.dumps(stratum)}: [\n"
        + ",\n".join("   " + json.dumps(entry, sort_keys=True) for entry in entries)
        + "\n  ]"
        for stratum, entries in strata.items()
    ]
    text = (
        f'{{\n "workload": {json.dumps(name)},\n "members": {members},\n "strata": {{\n'
        + ",\n".join(blocks)
        + "\n }\n}\n"
    )
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.reference_path(name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    for workload in sys.argv[1:]:
        record(workload)
