"""Fixed calibration work that tracks the speed the host gives the benchmark.

On a shared machine the same CPU-bound call can take 40% longer for
seconds or minutes at a time, and the timing of a plain pure-Python loop
moves with it.  Each round times one of these loops right after set-up and
around every program call; ``run.py`` scales each measured time by
``REFERENCE_S[kind] / calibration time``, so the end-to-end times read as
seconds on the reference machine at its unloaded speed.  The loops never
touch zenokick, so a change to the program moves the scaled times exactly as
it moves the raw ones.

The kinds match the kinds of work the workloads do:

* ``interpreter``: small complex arithmetic, 2x2 numpy arrays and float
  formatting, as in the reduced fold and the CSV writer;
* ``array``: copies and fancy-indexed updates of a 1 MiB complex vector, as
  in the dense kernels;
* ``mixed``: both in turn, for workloads that run both paths side by side.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: calibration seconds on the reference machine (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), unloaded
REFERENCE_S = {"interpreter": 0.016, "array": 0.009, "mixed": 0.025}

_VECTOR = np.exp(1j * np.arange(2**16))
_EVEN = np.arange(0, 2**16, 2)


def _interpreter() -> None:
    a, b = 1 + 0j, 0j
    for i in range(3000):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        u = np.array([[c, -1j * s], [-1j * s, c]])
        a, b = complex(u[0, 0] * a + u[0, 1] * b), complex(u[1, 0] * a + u[1, 1] * b)
        f"{a.real:.17g},{b.imag:.17g}"  # formatting, as the CSV writer does


def _array() -> None:
    for _ in range(20):
        w = _VECTOR.copy()
        x = w[_EVEN].copy()
        w[_EVEN] = 0.5 * x - 0.5j * w[_EVEN + 1]


def _mixed() -> None:
    _interpreter()
    _array()


_WORK = {"interpreter": _interpreter, "array": _array, "mixed": _mixed}


def calibrate(kind: str) -> float:
    """Seconds one calibration loop of ``kind`` takes now."""
    start = time.perf_counter()
    _WORK[kind]()
    return time.perf_counter() - start
