"""Machine-speed calibration for the benchmark's timings.

On a machine whose CPUs share physical cores with other tenants, the same
Python code runs up to three times as fast or slow from one stretch of
seconds to the next.  On a 2-vCPU virtual machine, round times of the
``queries`` workload ranged from 1.15 s to 3.2 s within ten minutes, a
spread of 0.79 (quartile distance over median).

So the benchmark times fixed stdlib kernels on the same CPU while it runs and
reports seconds at a reference speed: each call's raw time is multiplied by
the mean of ``REFERENCE_S[k] / t`` over the kernel times ``t`` sampled
during and around the call.  Two kernels, because code slows down with the
resource it leans on.  Over three minutes of interleaved samples,
allocation-heavy Fraction, dict and set code tracked ``alloc`` (spread 0.015
to 0.02 after scaling, 0.3 to 0.4 before) and big-integer arithmetic tracked
``interp`` (0.05, from 0.19).  Neither kernel touches tentlab, so a change to
tentlab moves the reported times in full; raw seconds and kernel times are
printed too.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Typical kernel times on a 2-vCPU Intel Xeon virtual machine; they set the
# scale of every reported time, nothing else.
REFERENCE_S = {"alloc": 0.015, "interp": 0.0055}


def _alloc() -> Fraction:
    den = 3 << 9
    points = {Fraction(j, den) for j in range(den + 1)}
    return sorted(points)[den // 2]


def _interp() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


KERNELS = {"alloc": _alloc, "interp": _interp}


def calibrate() -> dict[str, float]:
    """Time each kernel once, now, on this CPU."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        times[name] = time.perf_counter() - t0
    return times


def scale(calibrations, kernel: str) -> float:
    """Factor turning raw seconds into reference seconds: the mean of the
    reference over the kernel's time in the calibrations around the code."""
    return statistics.fmean(REFERENCE_S[kernel] / c[kernel] for c in calibrations)


class Sampler:
    """Calibrations every ``period`` seconds while the ``with`` block runs.

    SIGALRM drives them, and Python runs the handler between bytecodes of the
    main thread, so samples land inside long calls too.  ``stolen`` is the
    time spent in the handler so far; callers subtract it from what they
    time.  ``marks`` holds (start time, kernel times) pairs, including one
    on entry and one on exit.
    """

    def __init__(self, period: float):
        self.period = period
        self.marks: list[tuple[float, dict]] = []
        self.stolen = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.marks.append((t0, calibrate()))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
