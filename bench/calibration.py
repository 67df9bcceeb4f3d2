"""Machine-speed calibration for timings taken on a shared host.

On a shared box the same CPU-bound loop can run at two speeds that differ by
up to 2x, switching every few seconds as neighbours load the host.  A median
over repetitions does not remove a drift that lasts as long as a run.  So
every timed repetition is bracketed by a fixed calibration kernel whose
instruction mix resembles the workload's, and its time is rescaled to the
speed at which the kernel takes its reference time.  Set-up, which is mostly
process start and imports, is rescaled instead by the start-up of a bare
interpreter that imports numpy.  No kernel uses cqsm code, so no change to
the program can move them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Kernel times on a 2-core host running CPython 3.11 and numpy 2.4, in its
# fast state; scaled times read as seconds on that host.
SCALAR_REFERENCE_S = 0.0060
STEPPING_REFERENCE_S = 0.0080
VECTOR_REFERENCE_S = 0.0100
NULL_START_REFERENCE_S = 0.150
NULL_START = [sys.executable, "-c", "import time, numpy; print(repr(time.perf_counter()))"]


def scalar_kernel_s() -> float:
    """Wall time of scalar Python, math and numpy-scalar calls: the samplers' mix."""
    rng = np.random.default_rng(12345)
    w = np.array([0.3, -0.2, 0.1])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(4000):
        z = rng.standard_normal()
        acc += -math.exp(w[0]) * z + w[1] * acc * 1e-3 + w[2]
        if i % 8 == 0:
            acc += float(np.array([acc, z, 1.0]).sum()) * 1e-9
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def stepping_kernel_s() -> float:
    """Wall time of scalar Euler-Maruyama steps with finite checks, numpy-scalar
    draws and array stores: the scalar simulator's mix."""
    rng = np.random.default_rng(12345)
    path = np.empty(1500)
    drift = lambda x, a: -x + 0.5 * a
    x = a = 0.0
    t0 = time.perf_counter()
    for k in range(1500):
        if not np.all(np.isfinite(drift(x, a))):
            raise RuntimeError("calibration kernel produced a non-finite value")
        step = drift(a, x)
        if not (isinstance(step, float) and math.isfinite(step)):
            raise RuntimeError("calibration kernel produced a non-finite value")
        x = x + step * 0.1 + 0.3 * rng.standard_normal()
        a = a * 0.9 + 0.4 * rng.standard_normal()
        path[k] = x
    return time.perf_counter() - t0


def vector_kernel_s() -> float:
    """Wall time of block draws and elementwise updates on 200-wide arrays, then
    one pass over a large array: the batched simulator's mix."""
    rng = np.random.default_rng(12345)
    x = np.zeros(200)
    a = np.zeros(200)
    t0 = time.perf_counter()
    for _ in range(300):
        x = x - x * 0.01 + 0.1 * a * rng.standard_normal(200)
        a = a + (0.5 * x - 3.0 * a) * 0.01 + 0.14 * rng.standard_normal(200)
    big = rng.standard_normal(200_000)
    total = float((np.exp(-0.01 * big) * big).sum())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


KERNELS = {
    "scalar": (scalar_kernel_s, SCALAR_REFERENCE_S),
    "stepping": (stepping_kernel_s, STEPPING_REFERENCE_S),
    "mixed": (lambda: scalar_kernel_s() + vector_kernel_s(),
              SCALAR_REFERENCE_S + VECTOR_REFERENCE_S),
}


def bracketed(fn, kernel: str = "scalar"):
    """Run ``fn()`` between two kernel runs; return (result, speed factor).

    A wall time measured inside ``fn`` times the factor is the time at the
    reference speed.
    """
    measure, reference = KERNELS[kernel]
    before = measure()
    result = fn()
    after = measure()
    return result, reference / (0.5 * (before + after))


def start_s(cmd) -> float:
    """Wall time from spawning ``cmd`` to the perf_counter value it prints last.

    On Linux perf_counter reads a system-wide monotonic clock, so the two
    processes' readings are comparable.
    """
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def rescaled_starts(cmd, repeats: int):
    """Start ``cmd`` ``repeats`` times, each between two bare starts.

    Returns the start-up times rescaled to the reference speed, and unscaled.
    """
    scaled, raw = [], []
    before = start_s(NULL_START)
    for _ in range(repeats):
        seconds = start_s(cmd)
        after = start_s(NULL_START)
        raw.append(seconds)
        scaled.append(seconds * NULL_START_REFERENCE_S / (0.5 * (before + after)))
        before = after
    return scaled, raw
