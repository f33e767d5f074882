"""The kernel micro-benchmarks under pytest-benchmark, with no timing gates.

Run from the repository root (the default test run does not collect it):

    python -m pytest bench/kernels_bench.py -p no:cacheprovider

Each case's ``extra_info`` records its work items per call and, for dense
kernels, the bytes moved per call computed from the array sizes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import kernels  # noqa: E402
from worker import import_zenokick  # noqa: E402


@pytest.fixture(scope="module")
def zk():
    return import_zenokick()


@pytest.mark.parametrize("case", kernels.CASES, ids=lambda c: c.metric)
def test_kernel(benchmark, zk, case):
    batch, items, nbytes = case.make(zk)
    benchmark.extra_info["items_per_call"] = items
    benchmark.extra_info["computed_bytes_per_item"] = nbytes
    benchmark.pedantic(batch, rounds=case.reps, warmup_rounds=1)
