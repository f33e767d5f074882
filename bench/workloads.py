"""Workload inputs, built from a seed, and the checks of the program's outputs.

This module runs in the benchmark's parent process and never imports
zenokick.  Each workload turns ``--seed`` into the exact inputs handed to
the program (scenario files, or kick schedules for the dense path), counts
the kicks in those inputs, computes the expected outputs with the
independent ``reference`` module, and checks every output of a round.

A round is one fresh worker process that makes the workload's program calls
in order; one call plus the check of its output is one operation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

#: |program - reference| allowed for any population
AGREEMENT = 1e-10
#: |p10 + p01 + pvac - 1| allowed on every output row
NORM_TOLERANCE = 1e-10
#: |p10(pre) - p10(post)| allowed at a kick instant; kicks never touch a
CONTINUITY_TOLERANCE = 1e-14
#: t column against the documented sample layout
TIME_TOLERANCE = 1e-12
#: relative band around the Zeno loss law at N = 256, g in [pi/4, 3pi/4]
ZENO_LAW_BAND = 0.10
ZENO_LAW_N = 256
#: Sizes keep every program call near 0.1-0.3 s on the reference machine, far
#: shorter than the spells in which a shared host runs slower, so that the
#: calibrations taken around a call see the speed the call ran at.


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _kick_times(rng: np.random.Generator, n: int, total_time: float) -> list[float]:
    """n sorted kick times, one drawn inside each of n equal slots of the run.

    One kick per slot keeps the sample layout, and with it the work and the
    output size, nearly the same for every seed.
    """
    slots = np.arange(n) + rng.uniform(0.1, 0.9, n)
    return (slots * (total_time / n)).tolist()


def _numbers(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _read_csv(path: Path, header: str) -> np.ndarray:
    with path.open() as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(f, delimiter=",", ndmin=2)


def returned(call: dict) -> bool:
    """The call returned normally; the outputs of a failed call are not checked."""
    return call["error"] is None and call["exit"] in (None, 0)


def _worst(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def _trajectory_problems(name: str, got: dict, want: dict) -> list[str]:
    """Compare trajectory columns with the piecewise reference and check its properties."""
    if len(got["t"]) != len(want["t"]):
        return [f"{name}: {len(got['t'])} rows, reference has {len(want['t'])}"]
    problems = []
    if _worst(got["t"], want["t"]) > TIME_TOLERANCE:
        problems.append(f"{name}: sample times off the documented layout")
    for col in ("p10", "p01", "pvac"):
        dev = _worst(got[col], want[col])
        if not dev <= AGREEMENT:
            problems.append(f"{name}: {col} deviates from the reference by {dev:.3e}")
    total = got["p10"] + got["p01"] + got["pvac"]
    if not _worst(total, np.ones_like(total)) <= NORM_TOLERANCE:
        problems.append(f"{name}: p10 + p01 + pvac departs from 1")
    if not _worst(got["norm"], np.ones_like(total)) <= NORM_TOLERANCE:
        problems.append(f"{name}: norm column departs from 1")
    applied = want["applied"]
    post = np.flatnonzero(np.diff(applied) == 1) + 1
    jump = _worst(got["p10"][post], got["p10"][post - 1])
    if not jump <= CONTINUITY_TOLERANCE:
        problems.append(f"{name}: p10 jumps by {jump:.3e} across a kick")
    return problems


class SweepZeno:
    """Zeno sweep: G = 1, T = pi/2, total mode, 8 strengths, N = 1..32 then up to 256."""

    name = "sweep-zeno"
    calibration = "interpreter"
    coupling = 1.0
    total_time = math.pi / 2
    n_values = (*range(1, 33), 48, 64, 96, 128, 192, 256)

    def inputs(self, seed: int) -> dict:
        drawn = _rng(seed, 1).uniform(0.0, math.pi, 6)
        g_list = sorted([math.pi / 2, math.pi, *drawn.tolist()])
        scenario = (
            "scenario = sweep\n"
            f"G = {self.coupling!r}\n"
            f"T = {self.total_time!r}\n"
            "mode = total\n"
            f"g_list = {_numbers(g_list)}\n"
            f"N_list = 1..32, {', '.join(map(str, self.n_values[32:]))}\n"
            "out = sweep.csv\n"
        )
        return {
            "kind": "cli",
            "calibration": self.calibration,
            "files": {"sweep.scenario": scenario},
            "argv": [["sweep.scenario"]],
            "g_list": g_list,
        }

    def kicks(self, inputs: dict) -> int:
        return len(inputs["g_list"]) * sum(self.n_values)

    def expected(self, inputs: dict) -> dict:
        h = reference.hamiltonian(self.coupling)
        p10, p01, pvac = reference.equally_spaced(
            h, self.total_time, inputs["g_list"], self.n_values
        )
        return {"p10": p10.ravel(), "p01": p01.ravel(), "pvac": pvac.ravel()}

    def check(self, inputs: dict, expected: dict, round_dir: Path, calls: list) -> list[list[str]]:
        rows = _read_csv(round_dir / "sweep.csv", "g,N,p10,p01,pvac")
        g_list = inputs["g_list"]
        n = np.array(self.n_values)
        if rows.shape != (len(g_list) * len(n), 5):
            return [[f"sweep.csv has shape {rows.shape}"]]
        problems = []
        if not np.array_equal(rows[:, 0], np.repeat(g_list, len(n))):
            problems.append("g column is not the g_list, g outermost")
        if not np.array_equal(rows[:, 1], np.tile(n, len(g_list))):
            problems.append("N column is not N_list, N innermost")
        for j, col in enumerate(("p10", "p01", "pvac"), start=2):
            dev = _worst(rows[:, j], expected[col])
            if not dev <= AGREEMENT:
                problems.append(f"{col} deviates from the reference by {dev:.3e}")
        total = rows[:, 2:].sum(axis=1)
        if not _worst(total, np.ones_like(total)) <= NORM_TOLERANCE:
            problems.append("p10 + p01 + pvac departs from 1")
        last = rows[rows[:, 1] == ZENO_LAW_N]
        for g, p10 in zip(last[:, 0], last[:, 2]):
            if math.pi / 4 <= g <= 3 * math.pi / 4:
                law = reference.zeno_loss(self.coupling, self.total_time, g, ZENO_LAW_N)
                ratio = (1.0 - p10) / law
                if not abs(ratio - 1.0) <= ZENO_LAW_BAND:
                    problems.append(f"Zeno loss law ratio {ratio:.4f} at g={g:.6f}")
        return [problems]


class TrajectoryCsv:
    """Sampled trajectories: 30 kicks, 4 strengths, 5000 samples each, as CSV.

    The seed places the kicks; the strengths are fixed, because the peak
    memory of the CSV formatting moves by up to 15% with the strengths.
    Mirror kicks (g = pi) are left out: over 80000 samples the fold can drift
    p10 past the 1 + 1e-12 population guard, and the run is then refused.
    """

    name = "trajectory-csv"
    calibration = "interpreter"
    coupling = 1.0
    total_time = 1.0
    n_kicks = 30
    g_list = (math.pi / 8, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    resolution = 5000

    def inputs(self, seed: int) -> dict:
        times = _kick_times(_rng(seed, 2), self.n_kicks, self.total_time)
        g_list = list(self.g_list)
        scenario = (
            "scenario = run\n"
            f"G = {self.coupling!r}\n"
            f"T = {self.total_time!r}\n"
            f"t_kicks = {_numbers(times)}\n"
            f"g_list = {_numbers(g_list)}\n"
            f"resolution = {self.resolution}\n"
            "out = traj.csv\n"
        )
        return {
            "kind": "cli",
            "calibration": self.calibration,
            "files": {"traj.scenario": scenario},
            "argv": [["traj.scenario"]],
            "t_kicks": times,
            "g_list": g_list,
        }

    def kicks(self, inputs: dict) -> int:
        return len(inputs["t_kicks"]) * len(inputs["g_list"])

    def expected(self, inputs: dict) -> list[dict]:
        h = reference.hamiltonian(self.coupling)
        grid = np.linspace(0.0, self.total_time, self.resolution + 1)
        return [
            reference.piecewise(h, [(t, g) for t in inputs["t_kicks"]], grid)
            for g in inputs["g_list"]
        ]

    def check(self, inputs: dict, expected: list, round_dir: Path, calls: list) -> list[list[str]]:
        problems = []
        for i, want in enumerate(expected):
            name = f"traj_g{i}.csv"
            rows = _read_csv(round_dir / name, "t,p10,p01,pvac,norm")
            got = dict(zip(("t", "p10", "p01", "pvac", "norm"), rows.T))
            problems += _trajectory_problems(name, got, want)
        return [problems]


class Verify:
    """Detuned oracle check with 10 kicks per trial, then the rates preset."""

    name = "verify"
    calibration = "mixed"
    trials = 16
    kicks_per_trial = 10
    #: fixed parameters of the rates preset: coupling, kick time, burst strength
    rates_coupling = 1.0
    rates_t_m = 0.5
    rates_g_burst = math.pi / 4
    #: tolerance documented for each rates check
    rate_tolerances = {
        "rate_free": 1e-8,
        "rate_after_one_kick": 1e-4,
        "rate_super_zeno": 1e-8,
        "rate_after_n_kicks": 1e-4,
    }
    oracle_tolerance = 1e-10

    def inputs(self, seed: int) -> dict:
        scenario = (
            "scenario = oracle-check\n"
            "G = 1.3\n"
            "eps_a = 0.4\n"
            "eps_b = -0.2\n"
            "T = 1\n"
            f"N_list = {self.kicks_per_trial}\n"
            f"trials = {self.trials}\n"
            f"seed = {seed}\n"
            "resolution = 200\n"
            "out = oracle_check.txt\n"
        )
        return {
            "kind": "cli",
            "calibration": self.calibration,
            "files": {"oracle.scenario": scenario},
            "argv": [["oracle.scenario"], ["--preset", "rates", "--out", "rates.csv"]],
        }

    def kicks(self, inputs: dict) -> int:
        return self.trials * self.kicks_per_trial

    def expected(self, inputs: dict) -> None:
        return None

    def _analytic(self, check: str, x: float) -> float:
        c, t_m = self.rates_coupling, self.rates_t_m
        if check == "rate_free":
            return reference.rate_free(c, x)
        if check == "rate_after_one_kick":
            return reference.rate_after_one_kick(c, t_m, x)
        if check == "rate_super_zeno":
            return reference.rate_super_zeno(c, t_m, x)
        return reference.rate_after_n_kicks(c, t_m, self.rates_g_burst, int(x))

    def _oracle_problems(self, round_dir: Path) -> list[str]:
        report = (round_dir / "oracle_check.txt").read_text().split()
        fields = dict(item.partition("=")[::2] for item in report)
        problems = []
        if fields.get("status") != "PASS":
            problems.append(f"oracle-check status {fields.get('status')!r}")
        if fields.get("trials") != str(self.trials):
            problems.append(f"oracle-check ran {fields.get('trials')!r} trials, asked {self.trials}")
        if not float(fields.get("max_dev", "nan")) <= self.oracle_tolerance:
            problems.append(f"oracle-check max_dev {fields.get('max_dev')!r}")
        return problems

    def _rates_problems(self, round_dir: Path) -> list[str]:
        lines = (round_dir / "rates.csv").read_text().splitlines()
        if lines[0] != "check,t_or_N,analytic,numeric,abs_error":
            return [f"rates.csv header {lines[0]!r}"]
        problems = []
        seen = set()
        for line in lines[1:]:
            check, *values = line.split(",")
            if check not in self.rate_tolerances:
                continue  # a check this benchmark has no closed form for
            seen.add(check)
            x, analytic, numeric, err = map(float, values)
            want = self._analytic(check, x)
            if not abs(analytic - want) <= 1e-12:
                problems.append(f"{check} at {x!r}: analytic {analytic!r}, formula gives {want!r}")
            if not err <= self.rate_tolerances[check]:
                problems.append(f"{check} at {x!r}: abs_error {err!r} over tolerance")
            if not abs(err - abs(analytic - numeric)) <= 1e-15 + 1e-12 * err:
                problems.append(f"{check} at {x!r}: abs_error is not |analytic - numeric|")
        missing = set(self.rate_tolerances) - seen
        if missing:
            problems.append(f"rates.csv lacks {sorted(missing)}")
        return problems

    def check(self, inputs: dict, expected: None, round_dir: Path, calls: list) -> list[list[str]]:
        oracle_call, rates_call = calls
        return [
            self._oracle_problems(round_dir) if returned(oracle_call) else [],
            self._rates_problems(round_dir) if returned(rates_call) else [],
        ]


class DenseWide:
    """Dense oracle on fixed schedules of 15 and 16 probes."""

    name = "dense-wide"
    calibration = "array"
    coupling = 1.0
    total_time = 1.0
    probe_counts = (15, 16)
    sample_resolution = 20.0

    def inputs(self, seed: int) -> dict:
        rng = _rng(seed, 4)
        schedules = []
        for n in self.probe_counts:
            times = _kick_times(rng, n, self.total_time)
            strengths = rng.uniform(0.0, math.pi, n).tolist()
            schedules.append({
                "kicks": [list(k) for k in zip(times, strengths)],
                "total_time": self.total_time,
                "sample_resolution": self.sample_resolution,
            })
        return {
            "kind": "dense",
            "calibration": self.calibration,
            "coupling": self.coupling,
            "schedules": schedules,
        }

    def kicks(self, inputs: dict) -> int:
        return sum(len(s["kicks"]) for s in inputs["schedules"])

    def expected(self, inputs: dict) -> list[dict]:
        h = reference.hamiltonian(inputs["coupling"])
        grid = np.linspace(
            0.0, self.total_time, round(self.total_time * self.sample_resolution) + 1
        )
        return [reference.piecewise(h, s["kicks"], grid) for s in inputs["schedules"]]

    def check(self, inputs: dict, expected: list, round_dir: Path, calls: list) -> list[list[str]]:
        out = []
        for n, want, call in zip(self.probe_counts, expected, calls):
            if not returned(call):
                out.append([])
                continue
            got = {k: np.array(v) for k, v in call["data"].items()}
            problems = _trajectory_problems(f"{n} probes", got, want)
            if len(got["t"]) == len(want["t"]):
                for col in ("p10", "p01", "pvac"):
                    if not abs(got[col][-1] - want[col][-1]) <= AGREEMENT:
                        problems.append(f"{n} probes: final {col} off the reference")
            out.append(problems)
        return out


WORKLOADS = {w.name: w for w in (SweepZeno(), TrajectoryCsv(), Verify(), DenseWide())}
