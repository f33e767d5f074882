"""Config-driven command line front end: scenarios in, CSV artifacts out.

A scenario lives in a flat ``key = value`` text file (blank lines and ``#``
comment lines are skipped, unknown keys are rejected).  The ``scenario`` key
picks what runs:

* ``run``          trajectory CSV per kick strength (``t,p10,p01,pvac,norm``)
* ``sweep``        table CSV over (g, N) cells (``g,N,p10,p01,pvac``)
* ``oracle-check`` randomized reduced-vs-dense comparison, one report line
* ``rates``        closed-form rates vs finite differences CSV

Numbers accept plain floats or pi forms (``pi``, ``pi/2``, ``3pi/4``,
``-2pi``); integer lists accept ``a..b`` ranges.  Floats are written with 17
significant digits so repeated runs are byte-identical and values round-trip.
Exit codes: 0 success / PASS, 1 verification FAIL, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import engine, oracle
from .analytics import (
    ONE_SIDED_STEP,
    finite_difference_rate,
    rate_after_n_kicks,
    rate_after_one_kick,
    rate_free,
    rate_super_zeno,
    survival_function,
)
from .core import CapacityError, KickSchedule, OffResonanceError, SystemParams, Trajectory

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "PRESETS",
    "COMMANDS",
    "parse_config",
    "oracle_engine_deviation",
    "cmd_run",
    "cmd_sweep",
    "cmd_oracle_check",
    "cmd_rates",
    "main",
]

ORACLE_CHECK_TOLERANCE = 1e-10
ORACLE_CHECK_MAX_KICKS = 10
MAX_LIST_ENTRIES = 10**6


class ConfigError(Exception):
    """Rejected scenario file; carries the offending line number when known."""

    def __init__(self, message: str, source: str = "<config>", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of one scenario file; attribute names are pythonic, keys are not."""

    scenario: str
    coupling: float = 1.0
    eps_a: float = 0.0
    eps_b: float = 0.0
    g_list: tuple[float, ...] = ()
    n_list: tuple[int, ...] = ()
    total_time: float | None = None
    interval: float | None = None
    mode: str = "total"
    kick_times: tuple[float, ...] = ()
    resolution: int = 1000
    trials: int = 200
    seed: int = 0
    out: str | None = None

    def params(self) -> SystemParams:
        return SystemParams(coupling=self.coupling, eps_a=self.eps_a, eps_b=self.eps_b)


_PI_FORM = re.compile(
    r"^(?P<coef>[+-]?(?:\d+(?:\.\d*)?|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(?P<div>\d+(?:\.\d*)?|\.\d+))?$",
    re.IGNORECASE,
)


def parse_number(token: str) -> float:
    """One float: a plain literal or a pi form like ``pi``, ``3pi/4``, ``-pi/2``."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        match = _PI_FORM.match(token)
        if match is None:
            raise ValueError(f"malformed number {token!r}") from None
        coef_text = match.group("coef")
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        divisor = float(match.group("div")) if match.group("div") else 1.0
        if divisor == 0.0:
            raise ValueError(f"zero divisor in {token!r}") from None
        value = coef * math.pi / divisor
    if not math.isfinite(value):
        raise ValueError(f"malformed number {token!r}")
    return value


def parse_number_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_number(tok) for tok in text.split(","))


def parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"malformed integer {token!r}") from None


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, ``MAX_LIST_ENTRIES`` at most; ``a..b`` is an inclusive range."""
    text = text.strip()
    if not text:
        return ()
    values: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo_text, _, hi_text = tok.partition("..")
            lo, hi = parse_int(lo_text), parse_int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {tok!r}")
        else:
            lo = hi = parse_int(tok)
        # Checked before expanding, so an oversized range is refused, not allocated.
        if len(values) + hi - lo + 1 > MAX_LIST_ENTRIES:
            raise ValueError(f"integer list has more than {MAX_LIST_ENTRIES} entries")
        values.extend(range(lo, hi + 1))
    return tuple(values)


def _scenario(value: str) -> str:
    if value not in COMMANDS:
        raise ValueError(f"scenario must be one of {', '.join(COMMANDS)}; got {value!r}")
    return value


def _mode(value: str) -> str:
    if value not in ("total", "interval"):
        raise ValueError(f"mode must be 'total' or 'interval', got {value!r}")
    return value


def _out(value: str) -> str:
    if not value:
        raise ValueError("out must not be empty")
    return value


def _count(key: str):
    def parse(value: str) -> int:
        n = parse_int(value)
        if n < 0:
            raise ValueError(f"{key} must be >= 0, got {n}")
        return n

    return parse


# Scenario-file key -> (ScenarioConfig attribute, value parser).
_KEYS = {
    "scenario": ("scenario", _scenario),
    "G": ("coupling", parse_number),
    "eps_a": ("eps_a", parse_number),
    "eps_b": ("eps_b", parse_number),
    "g_list": ("g_list", parse_number_list),
    "N_list": ("n_list", parse_int_list),
    "T": ("total_time", parse_number),
    "tau": ("interval", parse_number),
    "mode": ("mode", _mode),
    "t_kicks": ("kick_times", parse_number_list),
    "resolution": ("resolution", _count("resolution")),
    "trials": ("trials", _count("trials")),
    "seed": ("seed", _count("seed")),
    "out": ("out", _out),
}


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse a flat key = value scenario file; reject anything unknown or malformed."""
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", source, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", source, lineno)
        attr, parse = _KEYS[key]
        if attr in fields:
            raise ConfigError(f"duplicate key {key!r}", source, lineno)
        try:
            fields[attr] = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(str(exc), source, lineno) from None
    if "scenario" not in fields:
        raise ConfigError("missing required key 'scenario'", source)
    return ScenarioConfig(**fields)  # type: ignore[arg-type]


PRESETS: dict[str, str] = {
    "fig1": """\
# Survival trajectories: one mid-run kick, five strengths.
# The undisturbed curve is cos^2(t); every kicked curve sits on or above it
# past the kick, the mirror kick (g = pi) climbing all the way back to 1.
scenario = run
G = 1
eps_a = 0
eps_b = 0
T = 1
t_kicks = 0.5
g_list = 0, pi/4, pi/2, 3pi/4, pi
resolution = 1000
out = fig1.csv
""",
    "fig2": """\
# Survival after N equally spaced kicks in a fixed run length T = pi/2:
# complete measurements (pi/2) against mirror kicks (pi), whose curve
# oscillates with the parity of N and upper-bounds the other.
scenario = sweep
G = 1
T = pi/2
mode = total
g_list = pi/2, pi
N_list = 1..60
out = fig2.csv
""",
    "fig4": """\
# Survival after N equally spaced kicks, fixed T = pi/2, three strengths:
# pointwise ordering 3pi/4 >= pi/2 >= pi/4 at every N.
scenario = sweep
G = 1
T = pi/2
mode = total
g_list = pi/4, pi/2, 3pi/4
N_list = 1..60
out = fig4.csv
""",
    "rates": """\
# Closed-form transition rates checked against finite differences of fresh
# reduced runs.  Fails (exit 1) if any row exceeds its documented tolerance:
# 1e-8 for central differences on smooth segments, 1e-4 one-sided at kicks.
scenario = rates
G = 1
out = rates.csv
""",
    "oracle-check": """\
# Randomized cross-validation of the reduced path against the dense path:
# uniformly drawn kick counts, times and strengths, comparing P10/P01/Pvac
# pointwise on the shared sample grid.  PASS requires max deviation <= 1e-10.
scenario = oracle-check
G = 1
T = 1
N_list = 0..8
trials = 200
seed = 42
resolution = 200
out = oracle_check.txt
""",
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: str, row_format: str, rows: Iterable[tuple]) -> str:
    """CSV text: the header, then one ``row_format % row`` line per row.

    ``%.17g`` writes a float exactly as ``_fmt`` does; one template per table
    keeps the work per row to a single formatting call.
    """
    return "\n".join((header, *map(row_format.__mod__, rows))) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    columns = (traj.t, traj.p10, traj.p01, traj.pvac, traj.norm)
    rows = zip(*(column.tolist() for column in columns))
    return _csv("t,p10,p01,pvac,norm", "%.17g,%.17g,%.17g,%.17g,%.17g", rows)


def sweep_csv(rows: Sequence[engine.SweepRow]) -> str:
    return _csv("g,N,p10,p01,pvac", "%.17g,%d,%.17g,%.17g,%.17g", rows)


def _write(path: Path, text: str, note: str = "") -> None:
    # Compute-then-write keeps rejected runs from leaving partial files behind.
    path.write_text(text)
    print(f"wrote {path}{note}")


def _gnuplot(title: str, xlabel: str, ylabel: str, clauses: list[str]) -> str:
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        "set key outside\n"
        "plot \\\n  " + ", \\\n  ".join(clauses) + "\n"
    )


def _run_schedule(config: ScenarioConfig, g: float) -> Trajectory:
    if config.total_time is None:
        raise ValueError("scenario 'run' needs T")
    span = config.total_time
    per_unit = config.resolution / span if span > 0 else 0.0
    schedule = KickSchedule(
        tuple((t, g) for t in config.kick_times), span, per_unit
    )
    return engine.run_schedule(schedule, config.params())


def cmd_run(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Trajectory CSV per kick strength; multiple strengths fan out by suffix."""
    g_values = config.g_list if config.g_list else (0.0,)
    out = Path(config.out or "run.csv")
    outputs: list[tuple[Path, float]] = []
    for i, g in enumerate(g_values):
        path = out if len(g_values) == 1 else out.with_name(f"{out.stem}_g{i}{out.suffix}")
        outputs.append((path, g))
    # Every run finishes before the first write, so a refused run leaves no
    # files; then one CSV text at a time is formatted and written.
    trajectories = [_run_schedule(config, g) for _, g in outputs]
    for (path, g), traj in zip(outputs, trajectories):
        _write(path, trajectory_csv(traj), f" (g={_fmt(g)})")
    if gnuplot:
        clauses = [
            f"'{path.name}' every ::1 using 1:2 with lines title 'g={_fmt(g)}'"
            for path, g in outputs
        ]
        _write(out.with_suffix(".gp"), _gnuplot("survival probability", "t", "p10", clauses))
    return 0


def cmd_sweep(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Sweep table CSV over the (g, N) grid, g outermost."""
    if not config.g_list or not config.n_list:
        raise ValueError("scenario 'sweep' needs g_list and N_list")
    spec = engine.SweepSpec(
        g_values=config.g_list,
        n_values=config.n_list,
        mode=config.mode,
        total_time=config.total_time,
        interval=config.interval,
        params=config.params(),
    )
    rows = engine.sweep(spec)
    out = Path(config.out or "sweep.csv")
    _write(out, sweep_csv(rows))
    if gnuplot:
        clauses = [
            f"'{out.name}' every ::1 using 2:(stringcolumn(1) eq '{_fmt(g)}' ? $3 : 1/0) "
            f"with linespoints title 'g={_fmt(g)}'"
            for g in config.g_list
        ]
        _write(out.with_suffix(".gp"), _gnuplot("survival vs kick count", "N", "p10", clauses))
    return 0


def oracle_engine_deviation(
    trials: int,
    n_choices: Sequence[int],
    total_time: float,
    resolution: int,
    seed: int,
    params: SystemParams,
) -> float:
    """Max |population difference| between the reduced and dense paths.

    Each trial draws a kick count from ``n_choices``, sorts uniform kick times
    in [0, total_time] and draws each strength uniformly in [0, 2 pi], then
    compares P10, P01 and Pvac pointwise on the shared sample grid.
    """
    if max(n_choices, default=0) > ORACLE_CHECK_MAX_KICKS:
        raise CapacityError(
            f"oracle check supports at most {ORACLE_CHECK_MAX_KICKS} kicks per schedule"
        )
    if any(n < 0 for n in n_choices):
        raise ValueError("kick counts must be >= 0")
    if total_time <= 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    rng = np.random.default_rng(seed)
    per_unit = resolution / total_time
    worst = 0.0
    for _ in range(trials):
        n = int(rng.choice(n_choices)) if n_choices else 0
        while True:
            times = np.sort(rng.uniform(0.0, total_time, n))
            if n == 0 or np.all(np.diff(times) > 0):
                break
        strengths = rng.uniform(0.0, 2.0 * math.pi, n)
        schedule = KickSchedule(tuple(zip(times, strengths)), total_time, per_unit)
        reduced = engine.run_schedule(schedule, params)
        dense = oracle.run_schedule(schedule, params)
        for attr in ("p10", "p01", "pvac"):
            dev = float(np.max(np.abs(getattr(reduced, attr) - getattr(dense, attr))))
            worst = max(worst, dev)
    return worst


def cmd_oracle_check(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Randomized reduced-vs-dense comparison; prints one report line and plots nothing."""
    if config.total_time is None:
        raise ValueError("scenario 'oracle-check' needs T")
    n_choices = config.n_list if config.n_list else tuple(range(9))
    if config.trials == 0:
        print("warning: trials=0, nothing was compared", file=sys.stderr)
    max_dev = oracle_engine_deviation(
        config.trials, n_choices, config.total_time, config.resolution,
        config.seed, config.params(),
    )
    status = "PASS" if max_dev <= ORACLE_CHECK_TOLERANCE else "FAIL"
    report = f"status={status} max_dev={max_dev:.3e} trials={config.trials}"
    print(report)
    if config.out:
        Path(config.out).write_text(report + "\n")
    return 0 if status == "PASS" else 1


RATE_TOLERANCES = {
    "rate_free": 1e-8,
    "rate_after_one_kick": 1e-4,
    "rate_super_zeno": 1e-8,
    "rate_after_n_kicks": 1e-4,
}


def rate_comparison_rows(params: SystemParams) -> list[tuple[str, float, float, float, float]]:
    """(check, t_or_N, analytic, numeric, abs_error) rows for every rate block."""
    rows: list[tuple[str, float, float, float, float]] = []

    # Free rate along the kick-free curve; central differences need t >= step.
    bare = survival_function((), params)
    for t in np.linspace(0.0, math.pi, 51)[1:]:
        t = float(t)
        analytic = rate_free(t, params)
        numeric = finite_difference_rate(bare, t, "central")
        rows.append(("rate_free", t, analytic, numeric, abs(analytic - numeric)))

    # One kick at t_m: one-sided slope just past the kick, swept over g.
    t_m = 0.5
    for g in np.linspace(0.0, 2.0 * math.pi, 17):
        g = float(g)
        kicked = survival_function(((t_m, g),), params)
        analytic = rate_after_one_kick(t_m, g, params)
        numeric = finite_difference_rate(kicked, t_m, "right")
        rows.append(("rate_after_one_kick", g, analytic, numeric, abs(analytic - numeric)))

    # Mirror kick: smooth post-kick segment, rate on both sides of the echo.
    mirrored = survival_function(((t_m, math.pi),), params)
    for t in np.linspace(0.1, 0.9, 17):
        t = float(t)
        analytic = rate_super_zeno(t_m, t, params)
        numeric = finite_difference_rate(mirrored, t_m + t, "central")
        rows.append(("rate_super_zeno", t, analytic, numeric, abs(analytic - numeric)))

    # Back-to-back kick bursts: geometric suppression in the burst length.
    g_burst = math.pi / 4
    for n in range(9):
        burst = survival_function(((t_m, g_burst),) * n, params)
        analytic = rate_after_n_kicks(t_m, g_burst, n, params)
        numeric = finite_difference_rate(burst, t_m, "right", ONE_SIDED_STEP)
        rows.append(("rate_after_n_kicks", float(n), analytic, numeric, abs(analytic - numeric)))
    return rows


def cmd_rates(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Compare every closed-form rate against its finite-difference estimate; plots nothing."""
    params = config.params()
    if not params.resonant:
        raise OffResonanceError("scenario 'rates' requires eps_a == eps_b")
    rows = rate_comparison_rows(params)
    text = _csv("check,t_or_N,analytic,numeric,abs_error", "%s,%.17g,%.17g,%.17g,%.17g", rows)
    _write(Path(config.out or "rates.csv"), text)
    failed = False
    for check, tolerance in RATE_TOLERANCES.items():
        worst = max(err for name, _, _, _, err in rows if name == check)
        ok = worst <= tolerance
        failed = failed or not ok
        print(f"{check}: max_err={worst:.3e} tol={tolerance:g} {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


# Scenario name -> command(config, gnuplot flag) -> exit code.
COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
    "rates": cmd_rates,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zenokick",
        description="Kicked two-qubit simulator: run scenario files or built-in presets.",
    )
    parser.add_argument("config", nargs="?", help="flat 'key = value' scenario file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="run a built-in scenario")
    parser.add_argument(
        "--show-preset", choices=sorted(PRESETS), metavar="NAME",
        help="print a preset's scenario file and exit",
    )
    parser.add_argument("--list-presets", action="store_true", help="list preset names and exit")
    parser.add_argument("--out", help="override the scenario's output path")
    parser.add_argument(
        "--gnuplot", action="store_true",
        help="also emit a gnuplot script next to run/sweep CSV output",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.list_presets:
        for name in sorted(PRESETS):
            print(name)
        return 0
    if args.show_preset:
        print(PRESETS[args.show_preset], end="")
        return 0
    if (args.config is None) == (args.preset is None):
        print("error: give exactly one of a config file or --preset", file=sys.stderr)
        return 2

    if args.preset:
        text, source = PRESETS[args.preset], f"preset:{args.preset}"
    else:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        source = args.config

    try:
        config = parse_config(text, source)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config = replace(config, out=args.out)

    try:
        return COMMANDS[config.scenario](config, args.gnuplot)
    except (ValueError, CapacityError, OffResonanceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
