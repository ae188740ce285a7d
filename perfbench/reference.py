"""A fixed reference task that measures how fast the host is right now.

The benchmark host is shared: its speed swings by more than a factor of 1.5
over minutes, while the code stays the same. The reference task runs between
the workload's cycles, so it sees the same swings; the end-to-end rate is
scaled by it to the rate on a host where the task takes NOMINAL_S. The task
uses only Python and numpy, none of the package, so a change to the package
does not move it. Its mix (an interpreter loop, small-array numpy
broadcasting, row-by-matrix products and a distance sweep whose temporaries
outgrow the caches) is the kind of work the workloads do.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.1

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((48, 3))
_OTHERS = _RNG.random((400, 3))
_ROTATION = _RNG.random((3, 3))
_ROW = _RNG.random((1, 128))
_WEIGHTS = _RNG.random((128, 128)) / 128
_SITES = _RNG.random((98, 3))
_IMAGES = _RNG.random((98 * 27, 3))


def seconds() -> float:
    """Time of one run of the reference task."""
    t0 = perf_counter()
    total = 0
    for k in range(80_000):
        total += k * k % 7
    for _ in range(100):
        d = (_POINTS @ _ROTATION)[:, None, :] - _OTHERS[None, :, :]
        d -= np.round(d)
        total += float(np.sqrt((d * d).sum(-1)).min())
    for _ in range(600):
        total += float(np.tanh(_ROW @ _WEIGHTS).sum())
    for _ in range(3):
        d = _SITES[:, None, :] - _IMAGES[None, :, :]
        total += float(np.sqrt((d * d).sum(-1)).min())
    return perf_counter() - t0
