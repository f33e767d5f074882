"""zenokick benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

One run of one workload (the last line of stdout is the result as JSON):

    python3 bench/run.py --workload sweep-zeno --seed 1 --seconds 30 --trace 0

Every workload, several seeds each, plus one traced run per workload; prints
each metric's median and spread and saves every result to bench/results/:

    python3 bench/run.py --all --runs 10 --seconds 30 --save base

With ``--trace 0`` the run repeats whole rounds, each in a fresh worker
process, until ``--seconds`` have passed, and reports the median over rounds
of every end-to-end metric.  With ``--trace 1`` it makes three untraced and
three traced rounds, runs the kernel micro-benchmarks, and reports the
per-layer metrics.  Every program output is checked against the independent reference
in ``reference.py``; zenokick is never imported in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from compare import spread  # noqa: E402
from workloads import WORKLOADS, returned  # noqa: E402

WORK = BENCH / ".work"
RESULTS = BENCH / "results"
ROUND_TIMEOUT_S = 150
#: untraced and traced rounds each in a --trace 1 run
TRACE_ROUNDS = 3


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_sources() -> None:
    if not (ROOT / "src" / "zenokick" / "__init__.py").is_file():
        raise HarnessError(f"no zenokick sources under {ROOT / 'src'}")


def worker(args: list[str], cwd: Path) -> None:
    """Run worker.py to its end (killed and reaped on timeout); raise if it failed."""
    command = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker ran past {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def fresh_dir(name: str) -> Path:
    path = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_round(workload, inputs: dict, expected, traced: bool) -> dict:
    """One worker process making the workload's calls; its outputs checked here."""
    round_dir = fresh_dir("round")
    try:
        (round_dir / "inputs.json").write_text(json.dumps(inputs))
        for name, text in inputs.get("files", {}).items():
            (round_dir / name).write_text(text)
        args = ["--inputs", "inputs.json", "--result", "result.json"]
        if traced:
            args.append("--trace")
        spawned = time.monotonic()
        worker([*args, "--spawned", repr(spawned)], round_dir)
        result = json.loads((round_dir / "result.json").read_text())
        calls = result["calls"]
        failed = [not returned(c) for c in calls]
        try:
            per_call = workload.check(inputs, expected, round_dir, calls)
        except (OSError, ValueError, KeyError) as exc:
            per_call = [[f"outputs unreadable: {exc!r}"]] * len(calls)
        result.update(scaled_times(result, inputs["calibration"]))
        result["attempted"] = len(calls)
        result["failed"] = sum(failed)
        result["problems"] = [
            p for problems, bad in zip(per_call, failed) if not bad for p in problems
        ]
        result["errors"] = [
            c["error"] or f"exit code {c['exit']}" for c, bad in zip(calls, failed) if bad
        ]
        if traced:
            result["trace"] = tracer.derive(round_dir / "spans.npz")
        return result
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)


def scaled_times(result: dict, kind: str) -> dict[str, float]:
    """Set-up and call times at the reference machine's unloaded speed.

    Set-up is scaled by the interpreter calibration taken right after it;
    each call by the mean of the calibrations taken right before and after it.
    """
    cal = result["calibrations_s"]
    wall = sum(
        c["wall_s"] * REFERENCE_S[kind] * 2.0 / (before + after)
        for c, before, after in zip(result["calls"], cal, cal[1:])
    )
    return {
        "raw_setup_s": result["setup_s"],
        "raw_wall_s": sum(c["wall_s"] for c in result["calls"]),
        "setup_s": result["setup_s"] * REFERENCE_S["interpreter"] / result["setup_calibration_s"],
        "wall_s": wall,
    }


def end_to_end(rounds: list[dict], kicks: int) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(r["setup_s"] for r in rounds),
        "wall_s": median(r["wall_s"] for r in rounds),
        "kicks_per_s": median(kicks / r["wall_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict], kernel_metrics: dict) -> dict[str, float]:
    """Layer metrics from the last traced round, kernels, and the traced-minus-plain wall time."""
    stats = traced[-1]["trace"]
    spans = stats["spans"]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    values = {name: m["value"] for name, m in kernel_metrics.items()}
    for name in ("engine.sweep", "engine.run_schedule", "engine.final_state",
                 "oracle.run_schedule", "analytics.finite_difference_rate",
                 "cli.trajectory_csv", "cli.sweep_csv", "cli.write",
                 "cli.oracle_engine_deviation", "cli.rate_comparison_rows"):
        values[f"{name}.busy_s"] = busy(name)
    for name in ("engine.run_schedule", "engine.final_state", "oracle.run_schedule",
                 "analytics.finite_difference_rate"):
        values[f"{name}.calls"] = calls(name)
    values.update(stats["counts"])
    values["engine.free_propagate.calls"] = stats["calls_from"].get(("core.free_propagate", "engine"), 0)
    values["engine.apply_kick.calls"] = stats["calls_from"].get(("core.apply_kick", "engine"), 0)
    values["analytics.survival_function.evals"] = calls(tracer.SURVIVAL_EVAL)
    parses = calls("cli.parse_config")
    values["cli.parse_config.ms"] = 1e3 * busy("cli.parse_config") / parses if parses else 0.0
    values["cli.main.self_s"] = spans.get("cli.main", (0, 0.0, 0.0))[2]
    for layer, (layer_busy, layer_self) in stats["layers"].items():
        values[f"{layer}.busy_s"] = layer_busy
        values[f"{layer}.self_s"] = layer_self
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return values


def single_run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    require_sources()
    declared = spec()
    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    expected = workload.expected(inputs)
    if trace:
        plain = [run_round(workload, inputs, expected, False) for _ in range(TRACE_ROUNDS)]
        traced = [run_round(workload, inputs, expected, True) for _ in range(TRACE_ROUNDS)]
        rounds = plain + traced
        kernel_dir = fresh_dir("kernels")
        try:
            worker(["--kernels", "--result", "kernels.json"], kernel_dir)
            kernel_metrics = json.loads((kernel_dir / "kernels.json").read_text())
        finally:
            shutil.rmtree(kernel_dir, ignore_errors=True)
        values = per_layer(plain, traced, kernel_metrics)
        wanted = declared["per_layer"]
    else:
        # Whole rounds only, and none that would end past --seconds (one at least).
        rounds = []
        start = time.monotonic()
        lengths = []
        while not rounds or time.monotonic() - start + statistics.median(lengths) <= seconds:
            begun = time.monotonic()
            rounds.append(run_round(workload, inputs, expected, traced=False))
            lengths.append(time.monotonic() - begun)
        values = end_to_end(rounds, workload.kicks(inputs))
        wanted = declared["end_to_end"]
        print(f"{workload_name}: {len(rounds)} rounds; unscaled medians: setup_s "
              f"{statistics.median(r['raw_setup_s'] for r in rounds):.6g}, wall_s "
              f"{statistics.median(r['raw_wall_s'] for r in rounds):.6g}", file=sys.stderr)
    if set(values) != {m["name"] for m in wanted}:
        raise HarnessError(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
                           "do not match BENCHMARK.json")
    problems = [p for r in rounds for p in r["problems"]]
    for message in problems + [e for r in rounds for e in r["errors"]]:
        print(f"{workload_name}: {message}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def suite(runs: int, seconds: float, save: str) -> None:
    """Every workload over seeds 1..runs untraced, plus one traced run each."""
    declared = spec()
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        plain = [call_self(name, seed, seconds, 0) for seed in range(1, runs + 1)]
        traced = call_self(name, 1, seconds, 1)
        report["workloads"][name] = {"end_to_end": plain, "per_layer": [traced]}
        print(f"\n{name}: attempted {sum(r['attempted'] for r in plain + [traced])}, "
              f"failed {sum(r['failed'] for r in plain + [traced])}, "
              f"correct {all(r['correct'] for r in plain + [traced])}")
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            print(f"  {metric['name']:<14} {statistics.median(values):>14.6g} {metric['unit']:<8}"
                  f" spread {spread(values):.4f} (bound {metric['bound']})")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{save}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nsaved {path}")


def call_self(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, --runs seeds each")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", default="latest", help="result file name under bench/results/")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    try:
        if args.all:
            suite(args.runs, args.seconds, args.save)
        else:
            result = single_run(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
