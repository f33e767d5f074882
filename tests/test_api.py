"""The public names resolve: every ``__all__`` entry, and every name the benchmark reads.

A deletion that breaks ``bench/`` would otherwise show only when someone runs
the benchmark.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenokick

MODULES = ("analytics", "cli", "core", "engine", "oracle")

#: what bench/kernels.py, bench/worker.py and bench/tracer.py reach for
BENCHMARK_NAMES = (
    "ReducedState",
    "SystemParams",
    "KickSchedule",
    "Trajectory",
    "core.free_propagate",
    "core.apply_kick",
    "core.schedule_steps",
    "engine.run_equally_spaced",
    "engine.sweep",
    "oracle.initial_state",
    "oracle.kick",
    "oracle.free_step",
    "oracle.run_schedule",
    "cli.parse_config",
    "cli.main",
)


@pytest.mark.parametrize("module", ["zenokick", *(f"zenokick.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("dotted", BENCHMARK_NAMES)
def test_every_name_the_benchmark_reads_resolves(dotted):
    obj = zenokick
    for part in dotted.split("."):
        obj = getattr(obj, part)
    assert obj is not None


def test_importing_the_package_leaves_the_cli_unloaded():
    # ``cli`` (and argparse) load on first use of ``zenokick.cli``.
    src = str(Path(zenokick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, zenokick\n"
        "print(sorted({'argparse', 'zenokick.cli'} & set(sys.modules)))\n"
        "print(zenokick.cli.main is sys.modules['zenokick.cli'].main)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue\n", "")


def test_an_oracle_check_run_loads_no_numpy_random(tmp_path):
    # The trials are drawn with the standard library's ``random``, which
    # ``import numpy`` has already loaded; numpy's random subpackage would
    # pull in ``hashlib``, ``secrets`` and OpenSSL on every fresh run.
    src = str(Path(zenokick.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenario = tmp_path / "check.txt"
    out = tmp_path / "report.txt"
    scenario.write_text(
        f"scenario = oracle-check\ntrials = 2\nN_list = 3\nT = 1\nresolution = 10\nout = {out}\n"
    )
    probe = (
        "import sys, zenokick\n"
        f"code = zenokick.cli.main([{str(scenario)!r}])\n"
        "print(code, sorted({'numpy.random', 'hashlib', 'secrets'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report, wrote, loaded = proc.stdout.splitlines()
    assert report.startswith("status=PASS max_dev=") and report.endswith("trials=2")
    assert wrote == f"wrote {out}"
    assert loaded == "0 []"
    assert out.read_text() == report + "\n"
