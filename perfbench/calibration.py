"""Calibration slices: fixed work that measures how fast the box runs right now.

The speed of a shared box drifts by up to 80% within minutes, and a process's
CPU time drifts with it. So every timed section is bracketed by calibration
slices: fixed NumPy-and-Python work on small matrices that shares no code with
chanent. A time is rescaled to a box on which one slice takes REFERENCE_S.

Each slice starts with a gap of GAP_S and then untimed warm-up rounds, so
what the measured program leaves behind does not land in the slice: OpenBLAS
worker threads stop spinning within the gap (2^28 cycles, about 0.13 s at
2.1 GHz), and the warm-up refills the caches. The gap busy-waits instead of
sleeping: after a sleep, a slice tracked the next batch's speed less well
(within-run dispersion of calibrated theorem1 rates 0.19-0.26 against 0.12-0.14).

Set-up time is mostly interpreter work (reading, unmarshalling and running
module code), which the NumPy slice tracks poorly. A set-up probe is therefore
calibrated by compile slices: compiling a fixed, generated Python source, run
in the probe's own interpreter on either side of its timed section. On a 2-core
shared box their correlation with the probe's set-up time was 0.81 to 0.87;
that of a NumPy slice after the timed section was 0.41 to 0.67. Set-up time
does not scale in full with the slice: part of it is file and kernel work. So
it is rescaled by the slice ratio to the power SETUP_ELASTICITY, the log-log
slope of set-up time on slice time, which was 0.49 on a calm box and 0.68 on a
noisy one (70 and 84 probes).

This module imports only the standard library; NumPy is imported on the first
slice, so a set-up probe can run a compile slice before anything is imported.
"""

import statistics
import time

REFERENCE_S = 0.007
COMPILE_REFERENCE_S = 0.028
SETUP_ELASTICITY = 0.7
GAP_S = 0.15
COMPILE_ROUNDS = 5
_MATRIX = [[2.0, 0.3 + 0.1j, 0.0], [0.3 - 0.1j, 1.0, 0.2], [0.0, 0.2, 0.5]]


def slice_s() -> float:
    """Seconds one calibration slice takes now."""
    import numpy as np

    end = time.perf_counter() + GAP_S
    while time.perf_counter() < end:
        pass
    h = np.array(_MATRIX)
    acc = 0.0  # keeps Python float arithmetic in the slice, as in the workloads
    for i in range(180):  # the first 30 warm caches after the gap and are not timed
        if i == 30:
            start = time.perf_counter()
        w, v = np.linalg.eigh(h)
        q, r = np.linalg.qr((v * np.sqrt(w)) @ v.conj().T)
        acc += float(np.trace(q @ r).real) + sum(float(x) for x in w)
    return time.perf_counter() - start


def compile_slice_s() -> float:
    """Median seconds of compiling a fixed generated source, after one untimed round."""
    source = "\n".join(
        f"def f{i}(a, b=1.0, *args, **kw):\n"
        f"    x = [a * b + {i}, {{'k': a, 'i': {i}}}, (b, a, '{i}')]\n"
        f"    if x and a > b:\n"
        f"        return sum(v * {i}.5 for v in range(3) if v % 2)\n"
        f"    return [y for y in x if y is not None][-1]\n\n"
        f"class C{i}:\n    z = {i}\n\n    def m(self, q):\n        return self.z + q\n"
        for i in range(200))
    times = []
    for _ in range(COMPILE_ROUNDS + 1):
        start = time.perf_counter()
        compile(source, "<calibration>", "exec")
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def scales(slices: list[float]) -> list[float]:
    """Speed factor of each interval between consecutive calibration slices."""
    return [(a + b) / 2 / REFERENCE_S for a, b in zip(slices, slices[1:])]
