"""Machine-speed correction for timings taken on a shared, noisy host.

On a host shared with other tenants the same Python work can take half as
long again from one second to the next. Each timing is therefore paired
with a fixed calibration loop, run right before and after the timed work
and, through a wall-clock timer signal, every ``INTERVAL_S`` during it. The
timing is reported scaled to the calibration's reference time:
``seconds * REFERENCE_S / mean calibration``, i.e. the time the work would
take with the machine at reference speed. The calibration is benchmark
code, so a slower program still reads slower; a slower machine does not.
The samples taken during the work (about 1% of its time) stay in it.
"""

import gc
import signal
import time
from fractions import Fraction

# Typical calibration time on the reference machine (see BASELINE.md).
REFERENCE_S = 0.0006
INTERVAL_S = 0.1


def calibration() -> float:
    """Seconds taken now by a fixed loop of exact-rational additions.

    The garbage collector is held off meanwhile: a collection started by
    the loop's allocations would scan the program's heap and time that.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i % 17, 3)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_S / calibration_s


class Sampler:
    """Calibration samples: on request, and every INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibration())

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
