"""Time one set-up in a fresh interpreter.

A set-up is the package import plus the inputs of a run's first round.
Prints the set-up seconds and the calibration seconds measured right after.
Usage: setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (after the path set-up, before the timed import)


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = workloads.make(name, workdir)
    start = time.perf_counter()
    import supertropical

    wl.round_inputs(supertropical, wl.schedule(seed), 0)
    seconds = time.perf_counter() - start
    import clock  # after the timed set-up: it imports fractions itself

    clock.calibration()
    print(seconds, (clock.calibration() + clock.calibration()) / 2)


if __name__ == "__main__":
    main()
