"""Machine-speed calibration for the end-to-end times.

On a 2-core x86-64 virtual machine (Xeon, 2.0 GHz), the same job list ran up
to 2x slower from one minute to the next, and the speed moved within a
single 6 s job too (other tenants share the cores; guest steal time stays
0), so raw wall times do not repeat between runs. A short fixed kernel of
the kind of work the jobs do (list building from text, small numpy arrays
and least-squares solves) is timed three times before each timed call and
then every ``PERIOD_S`` during it, from a SIGALRM handler in the same
thread; the kernel's time is taken out of the call's wall time, which is
then reported scaled by ``REFERENCE_S / median(kernel times)``: seconds on a
machine where the kernel takes ``REFERENCE_S``.

This cut the spread of the median job time between runs (interquartile
range over median) from 10-45% raw, in five-run trials, to 4-9% in sets of
ten runs per workload. The
kernel never calls dinaq, so a change to the program moves the scaled
times exactly as much as the raw ones. Raw times are printed beside them.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
PRE_RUNS = 3
# about the kernel's median time on the machine above
REFERENCE_S = 0.0008

_RNG = np.random.default_rng(0)
_A = _RNG.random((63, 4))
_B = _RNG.random(63)
_TEXT = "\n".join(format(i * 2654435761 % 256, "08b") for i in range(150))


def kernel_s() -> float:
    """Wall seconds of one run of the calibration kernel (about 1 ms)."""
    t0 = time.perf_counter()
    rows = [[int(ch) for ch in line] for line in _TEXT.splitlines()]
    np.array(rows, dtype=np.uint8).sum()
    for _ in range(10):
        np.linalg.lstsq(_A, _B, rcond=None)
        np.column_stack([_A[:, 0] * _B, _A[:, 1]]).sum()
    return time.perf_counter() - t0


def timed(fn):
    """Call ``fn()`` sampling the machine speed around and during it.

    Returns (result, wall seconds, seconds at the reference speed); only
    the latter excludes the kernel runs made during the call.
    """
    samples = [kernel_s() for _ in range(PRE_RUNS)]
    inside = 0.0

    def sample(signum, frame):
        nonlocal inside
        t0 = time.perf_counter()
        samples.append(kernel_s())
        inside += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result, wall, (wall - inside) * REFERENCE_S / statistics.median(samples)


def scale_around(fn) -> tuple[float, float]:
    """(raw, reference-speed) seconds of ``fn()``, which returns its own raw
    seconds; for calls that wait on a child process, where sampling during
    the call would compete with the child for the cores."""
    samples = [kernel_s() for _ in range(PRE_RUNS)]
    raw = fn()
    samples += [kernel_s() for _ in range(PRE_RUNS)]
    return raw, raw * REFERENCE_S / statistics.median(samples)
