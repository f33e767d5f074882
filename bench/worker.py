"""One measured round of a workload in a fresh interpreter.

Started by ``run.py`` with the round's directory as working directory:

    python3 bench/worker.py --inputs inputs.json --result result.json --spawned T [--trace]
    python3 bench/worker.py --kernels --result kernels.json

Set-up runs from process start until zenokick is imported from this
checkout's ``src`` and the scenario files are parsed (or the schedules are
built); ``--spawned`` is the parent's ``time.monotonic()`` just before it
started this process.  Then every program call of the round runs in order
and is timed, with a calibration loop (``calibrate.py``) timed right after
set-up, before the first call and after every call.  With ``--trace`` the
public functions of each zenokick layer are wrapped first (see
``tracer.py``) and the spans are saved to ``spans.npz`` when the round
ends.  Outputs are left in the working
directory, or returned in the result file for the dense path, for the parent
to check.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_zenokick():
    """zenokick from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import zenokick

    if Path(zenokick.__file__).resolve().parent != SRC / "zenokick":
        raise ImportError(f"zenokick imported from {zenokick.__file__}, not from {SRC}")
    return zenokick


def prepare_cli(zk, inputs: dict) -> list:
    for name in inputs["files"]:
        zk.cli.parse_config(Path(name).read_text(), name)
    return [(lambda argv=argv: zk.cli.main(list(argv)), None) for argv in inputs["argv"]]


def prepare_dense(zk, inputs: dict) -> list:
    params = zk.SystemParams(coupling=inputs["coupling"])
    schedules = [
        zk.KickSchedule(
            tuple((t, g) for t, g in s["kicks"]), s["total_time"], s["sample_resolution"]
        )
        for s in inputs["schedules"]
    ]

    def columns(traj) -> dict:
        return {k: getattr(traj, k).tolist() for k in ("t", "p10", "p01", "pvac", "norm")}

    return [(lambda s=s: zk.oracle.run_schedule(s, params), columns) for s in schedules]


PREPARE = {"cli": prepare_cli, "dense": prepare_dense}


def run_round(args: argparse.Namespace) -> dict:
    inputs = json.loads(Path(args.inputs).read_text())
    zk = import_zenokick()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, zk)
    calls = PREPARE[inputs["kind"]](zk, inputs)
    ready = time.monotonic()
    from calibrate import calibrate  # after set-up, whose time it must not add to

    kind = inputs["calibration"]
    setup_calibration = calibrate("interpreter")
    calibrations = [calibrate(kind)]
    records = []
    outputs = []
    for fn, collect in calls:
        error = None
        value = None
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a failed program call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        calibrations.append(calibrate(kind))
        records.append({"wall_s": wall, "error": error,
                        "exit": value if isinstance(value, int) else None})
        outputs.append((value, collect))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for record, (value, collect) in zip(records, outputs):
        if collect is not None and record["error"] is None:
            record["data"] = collect(value)
    if tracer is not None:
        tracer.save("spans.npz")
    return {
        "setup_s": ready - args.spawned,
        "setup_calibration_s": setup_calibration,
        "calibrations_s": calibrations,
        "peak_rss_mb": peak_rss_mb,
        "calls": records,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args()
    if args.kernels:
        import kernels

        result = kernels.measure(import_zenokick())
    else:
        result = run_round(args)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
