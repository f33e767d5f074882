"""Kernel micro-benchmarks: the step kernels, one run, and the dense kicks.

Each case builds its inputs once and returns a callable that does one batch
of work of ``items`` units; the figure is the median seconds per unit over
``reps`` batches, scaled to the case's unit.  ``measure`` serves the traced
benchmark run; ``kernels_bench.py`` times the same cases under
pytest-benchmark.  Neither gates on time.

Dense cases also give the bytes moved per call, computed from the array
sizes as one read and one write of the whole amplitude vector (the least a
kernel that returns a new state can move).  Every vector here fits in the
last-level cache, so that rate is a computed figure, not a memory-bandwidth
measurement.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

DENSE_PROBES = (10, 16, 20)


@dataclass(frozen=True)
class Case:
    metric: str
    unit: str
    scale: float  # unit per second
    reps: int
    make: Callable  # zenokick package -> (batch callable, items per batch, bytes per item)


def _free_propagate(zk):
    state = zk.ReducedState(0.6 + 0.0j, 0.8j, 0.0)
    params = zk.SystemParams()

    def batch():
        for _ in range(1000):
            zk.core.free_propagate(state, 0.01, params)

    return batch, 1000, 0


def _apply_kick(zk):
    state = zk.ReducedState(0.6 + 0.0j, 0.8j, 0.0)

    def batch():
        for _ in range(1000):
            zk.core.apply_kick(state, 1.0)

    return batch, 1000, 0


def _schedule_steps(zk):
    kicks = tuple((k / 64, 1.0) for k in range(1, 65))
    schedule = zk.KickSchedule(kicks, 1.0, 1000.0)
    steps = len(zk.core.schedule_steps(schedule))
    return (lambda: zk.core.schedule_steps(schedule)), steps, 0


def _trajectory(zk):
    n = 100_000
    t = np.linspace(0.0, 1.0, n)
    p10 = np.cos(t) ** 2
    p01 = 1.0 - p10
    zeros = np.zeros(n)
    ones = np.ones(n)
    return (lambda: zk.Trajectory(t, p10, p01, zeros, ones)), n, 0


def _run_equally_spaced(n):
    def make(zk):
        return (lambda: zk.engine.run_equally_spaced(n, math.pi / 2, total_time=math.pi / 2)), 1, 0

    return make


def _dense(kernel, probes):
    def make(zk):
        state = zk.oracle.initial_state(probes)
        params = zk.SystemParams()
        if kernel == "kick":
            fn = lambda: zk.oracle.kick(state, probes // 2, 1.0)  # noqa: E731
        else:
            fn = lambda: zk.oracle.free_step(state, 0.01, params)  # noqa: E731
        return fn, 1, 2 * state.amps.nbytes

    return make


CASES = [
    Case("core.free_propagate.us_per_call", "us", 1e6, 15, _free_propagate),
    Case("core.apply_kick.us_per_call", "us", 1e6, 15, _apply_kick),
    Case("core.schedule_steps.us_per_step", "us", 1e6, 15, _schedule_steps),
    Case("core.Trajectory.us_per_sample", "us", 1e6, 15, _trajectory),
    Case("engine.run_equally_spaced.n64.ms", "ms", 1e3, 15, _run_equally_spaced(64)),
    Case("engine.run_equally_spaced.n1024.ms", "ms", 1e3, 7, _run_equally_spaced(1024)),
    Case("engine.run_equally_spaced.n16384.ms", "ms", 1e3, 3, _run_equally_spaced(16384)),
    *(
        Case(f"oracle.{kernel}.p{p}.ms", "ms", 1e3, reps, _dense(kernel, p))
        for kernel in ("kick", "free_step")
        for p, reps in zip(DENSE_PROBES, (15, 7, 3))
    ),
]

#: dense cases whose computed bytes per call also give a computed rate
RATE_CASES = {"oracle.kick.p20.ms", "oracle.free_step.p20.ms"}


def time_case(case: Case, zk) -> tuple[float, int]:
    """Median seconds per item over the case's batches (after one warm-up), and bytes per item."""
    batch, items, nbytes = case.make(zk)
    batch()
    samples = []
    for _ in range(case.reps):
        start = time.perf_counter()
        batch()
        samples.append((time.perf_counter() - start) / items)
    return statistics.median(samples), nbytes


def measure(zk) -> dict[str, dict]:
    """Every case as ``{metric: {"value", "unit"}}``, plus computed GB/s for the p20 kernels."""
    out = {}
    for case in CASES:
        seconds, nbytes = time_case(case, zk)
        out[case.metric] = {"value": seconds * case.scale, "unit": case.unit}
        if case.metric in RATE_CASES:
            rate_name = case.metric.removesuffix(".ms") + ".computed_gb_per_s"
            out[rate_name] = {"value": nbytes / seconds / 1e9, "unit": "GB/s"}
    return out
