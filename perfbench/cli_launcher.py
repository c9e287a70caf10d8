"""Run the ``supertropical`` command line from this checkout's sources.

Behaves like the installed ``supertropical`` entry point. When the
environment variable PERFBENCH_TRACE_OUT names a file, the per-layer
tracer is installed after the import and its spans, counts and the import
time are written there when the command returns.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    start = time.perf_counter()
    import supertropical.cli

    import_s = time.perf_counter() - start
    if not trace_out:
        return supertropical.cli.main(sys.argv[1:])
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return supertropical.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
        tracer.counts["cli.import_s"] += import_s
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main())
