"""Host-speed probe: a fixed piece of interpreter, numpy and LAPACK work whose
time tracks how fast the shared host runs at the moment.

The test host lends its cores to other tenants, and its speed drifts by
20-40 % over tens of seconds.  The drift is common to all code, but not equal
for all kinds of code, so the probe has five parts of about 8 ms each: a
pure-Python loop, in-place arithmetic on a 50k-element array, small LAPACK
solves, numpy calls on 3-element arrays, and building and formatting Python
lists of floats.  Each part's time is divided by its nominal time (NOMINAL_S,
its median on the 2-vCPU test host); the mean of these ratios is the host's
slowdown at that moment.  Each pass is timed between two probes and divided
by the mean of their slowdowns: the result is the pass time at nominal host
speed.  The probe does not call sidelab, so a change to the program does not
change it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_VECTOR = _rng.standard_normal(50_000)
_SCRATCH = np.empty_like(_VECTOR)
_MATRIX = _rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
_RHS = _rng.standard_normal((60, 4))
_STEP = np.eye(3) + 1e-3 * _rng.standard_normal((3, 3))


def _interpreter() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(45_000):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


def _vector() -> float:
    # in place, so the time does not depend on the allocator's state
    x = _SCRATCH
    np.copyto(x, _VECTOR)
    for _ in range(60):
        np.abs(x, out=x)
        x += 1.0
        np.sqrt(x, out=x)
        x *= 0.5
    return float(x.sum())


def _lapack() -> float:
    total = 0.0
    for _ in range(40):
        total += float(np.linalg.solve(_MATRIX, _RHS)[0, 0])
        total += float(np.linalg.eigvals(_MATRIX[:20, :20]).real.sum())
    return total


def _small_arrays() -> float:
    x = np.ones(3)
    for _ in range(1_800):
        x = x + 1e-3 * (_STEP @ x)
        x = np.maximum(x, -1e9)
    return float(x[0])


def _objects() -> int:
    rows = [[float(i), i * 0.5, i * 0.25, i * 0.125] for i in range(3_500)]
    return len("\n".join(",".join(map(repr, row)) for row in rows))


PARTS = (_interpreter, _vector, _lapack, _small_arrays, _objects)
# seconds of each part on the 2-vCPU test host (Xeon, 2.1 GHz), about its median
NOMINAL_S = (0.0075, 0.0065, 0.0075, 0.0075, 0.008)


def probe() -> list[float]:
    """Wall seconds of each part of the probe, timed once."""
    times = []
    for part in PARTS:
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return times


def slowdown(times: list[float]) -> float:
    """How many times slower than nominal the host ran one probe."""
    return sum(t / n for t, n in zip(times, NOMINAL_S, strict=True)) / len(NOMINAL_S)


def calibrated(pass_s: list[float], probes: list[list[float]]) -> list[float]:
    """Pass times at nominal host speed.  probes[i] and probes[i + 1] are the
    probes timed just before and just after pass i."""
    if len(probes) != len(pass_s) + 1:
        raise ValueError("need one probe before each pass and one after the last")
    factors = [slowdown(p) for p in probes]
    return [t / ((a + b) / 2.0) for t, a, b in zip(pass_s, factors, factors[1:])]
