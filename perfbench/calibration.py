"""A fixed calibration kernel that reads the machine's current speed.

On a shared machine the same op can take 25-70% longer from one minute
to the next.  The benchmark therefore runs this kernel between
consecutive ops and reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

with the kernel time averaged over both sides of the measured interval.
Set-up spawns are read the same way against a reference spawn,
`python3 -c "import numpy"`, whose start-up and module loading feel the
machine the way the program's own import does.

The kernel is written here so that no change to the program can move
it: an interpreter-bound integer loop plus a batched numpy elimination
with fancy indexing, the two kinds of work graphqec's subset scans,
Smith normal form and per-operator channel loops do.  On the 2-CPU
tuning machine it cut the run-to-run spread (IQR / median over 10 seeds)
of the pass time from 17-29% raw to 4-8% on the certify workloads and
7-14% on simulate; a BLAS-bound kernel tracked simulate no better in
tuning runs.  REFERENCE_S and REFERENCE_SPAWN_S are the medians on that
machine, so that reference seconds stay close to wall seconds there.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0075
REFERENCE_SPAWN = "import numpy"
REFERENCE_SPAWN_S = 0.19

_RNG = np.random.default_rng(0)
_BATCH = _RNG.integers(0, 5, size=(1000, 10, 5))


def kernel_seconds() -> float:
    """Time one run of the calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    a = _BATCH.copy()
    rows = np.arange(len(a))
    for col in range(a.shape[2]):
        pivot = np.argmax(a[:, :, col] != 0, axis=1)
        perm = np.tile(np.arange(a.shape[1]), (len(a), 1))
        perm[rows, 0] = pivot
        a = np.take_along_axis(a, perm[:, :, None], axis=1)
        a = (a - a[:, :, col : col + 1] * a[:, 0:1, :]) % 5
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float, reference: float) -> float:
    """Measured seconds rescaled to reference seconds by the calibration runs
    around them, whose time on the tuning machine is `reference`."""
    return seconds * 2 * reference / (before + after)
