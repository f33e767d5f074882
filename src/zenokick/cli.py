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

A ``ScenarioConfig`` is checked whole when it is built, so ``parse_config``
refuses a missing key, a size or a free step up front, naming the file, and
a command only runs the config and writes; the rules that a public entry
owns, such as kick times, stay with that entry.

Tables are written 8192 rows at a time: the columns of a block are
interleaved into one argument tuple for one ``%`` call on the line format
repeated.  A column whose values repeat by construction formats each
distinct value once and passes the texts: the sample times, shared by every
strength of a ``run``, and a sweep's ``g`` and ``N``.  A run's ``pvac`` and
``norm`` change only at kicks, so the pair is one field, written once per
distinct pair.  Values are told apart by their bits, so ``-0.0`` and ``0.0``
keep their own texts, and the bytes are those of formatting every value on
its own.  In a table of ``_CSV_PIECES_ROWS`` rows or more, a block of a
float column whose values lie mostly in [1e-6, 1e17), as probabilities and
times do, is passed in pieces that ``%s`` prints, computed exactly in numpy
by ``_float_pieces``: a head (``0.`` and its zeros, the lead digit of
e-notation, or an integer part), the significant digits as integers, and,
only in a block where one value in eight needs it, a third piece (``e-05``
or the digits after an integer part).  Python formats the rest, and the
bytes stay those of ``%.17g``.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import engine, oracle
from .analytics import (
    CENTRAL_STEP,
    ONE_SIDED_STEP,
    finite_difference_rate,
    rate_after_n_kicks,
    rate_after_one_kick,
    rate_free,
    rate_super_zeno,
    survival_function,
)
from .core import (
    MAX_SAMPLES,
    KickSchedule,
    SystemParams,
    Trajectory,
    _check_free_step,
    _count,
    _real,
)

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
#: kick counts an ``oracle-check`` draws from when ``N_list`` is not given
ORACLE_CHECK_KICK_COUNTS = tuple(range(9))
#: Draws of one trial's kick times before the check gives up on distinct
#: times.  Only a T with fewer than about ``N_list`` doubles below it needs
#: a second draw with any real chance.
_KICK_TIME_DRAWS = 100
MAX_LIST_ENTRIES = 10**6
#: Largest ``abs_error`` each ``rates`` check accepts.
RATE_TOLERANCES = {
    "rate_free": 1e-8,
    "rate_after_one_kick": 1e-4,
    "rate_super_zeno": 1e-8,
    "rate_after_n_kicks": 1e-4,
}
#: How far P10, as the engine evaluates it, may be off at the couplings the
#: ``rates`` checks accept: 16 units in the last place of 1.  The worst
#: measured against a 40-digit model is 6.2, at G = 5.3 and c t = 16.7.
_P10_ROUNDING = 16 * sys.float_info.epsilon
#: Largest coupling G whose ``rates`` checks can meet their tolerances.  On
#: their curves |d^3 P10/dt^3| <= 4 G^3 and |d^2 P10/dt^2| <= 2 G^2, so a
#: central difference with step h is off by at most (2/3) G^3 h^2 +
#: rounding / h, and a one-sided one by G^2 h + 2 rounding / h.  Past this G
#: the bound of some check exceeds its tolerance.
RATES_MAX_COUPLING = min(
    (
        1.5 * (min(RATE_TOLERANCES["rate_free"], RATE_TOLERANCES["rate_super_zeno"])
               - _P10_ROUNDING / CENTRAL_STEP) / CENTRAL_STEP**2
    ) ** (1 / 3),
    (
        (min(RATE_TOLERANCES["rate_after_one_kick"], RATE_TOLERANCES["rate_after_n_kicks"])
         - 2 * _P10_ROUNDING / ONE_SIDED_STEP) / ONE_SIDED_STEP
    ) ** 0.5,
)


class ConfigError(Exception):
    """Rejected scenario file; carries the offending line number when known."""

    def __init__(self, message: str, source: str = "<config>", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of one scenario file; attribute names are pythonic, keys are not.

    Valid by construction: building one reads its energies, durations and
    counts, fills the defaults of a ``run``'s empty ``g_list``, ``(0.0,)``,
    and of an ``oracle-check``'s empty ``n_list``, ``ORACLE_CHECK_KICK_COUNTS``,
    then runs ``_check_scenario`` and ``params()``: a config that exists can
    be run, and a ValueError names the first rule a scenario breaks.
    """

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

    def __post_init__(self) -> None:
        given = [name for name in ("total_time", "interval") if getattr(self, name) is not None]
        for name in ("coupling", "eps_a", "eps_b", *given):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("resolution", "trials", "seed"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.scenario == "run" and not self.g_list:
            object.__setattr__(self, "g_list", (0.0,))
        if self.scenario == "oracle-check" and not self.n_list:
            object.__setattr__(self, "n_list", ORACLE_CHECK_KICK_COUNTS)
        object.__setattr__(self, "n_list", tuple(_count(n, "kick counts") for n in self.n_list))
        _check_scenario(self)
        self.params()  # refuses energies whose sum or difference overflows

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


def parse_count(token: str, name: str = "kick counts") -> int:
    """A count as a file writes it, an integer literal, read by ``core._count`` as ``name``."""
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        value = token  # not an integer literal: ``_count`` refuses the text itself
    return _count(value, name)


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated kick counts, ``MAX_LIST_ENTRIES`` at most; ``a..b`` is an inclusive range."""
    text = text.strip()
    if not text:
        return ()
    values: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo_text, _, hi_text = tok.partition("..")
            lo, hi = parse_count(lo_text), parse_count(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {tok!r}")
        else:
            lo = hi = parse_count(tok)
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
    "resolution": ("resolution", lambda text: parse_count(text, "resolution")),
    "trials": ("trials", lambda text: parse_count(text, "trials")),
    "seed": ("seed", lambda text: parse_count(text, "seed")),
    "out": ("out", _out),
}


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse a flat key = value scenario file; reject anything unknown, malformed or unrunnable.

    Every refusal is a ``ConfigError`` prefixed by ``source``, and by the
    line for a malformed line.
    """
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
    try:
        return ScenarioConfig(**fields)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(str(exc), source) from None


#: a sweep's ``mode`` -> the ``ScenarioConfig`` attribute (``engine.sweep``
#: argument) and the key of its duration; every other scenario runs for ``T``
_DURATIONS = {"total": ("total_time", "T"), "interval": ("interval", "tau")}


def _check_scenario(config: ScenarioConfig) -> None:
    """Refuse a scenario that lacks a key, is too large or takes a step that overflows.

    Every ``ScenarioConfig`` passes it when built, before any compute.
    ``run`` and ``oracle-check`` need ``T``, and ``sweep`` needs ``g_list``,
    ``N_list`` and the duration of its ``mode``.  The sample count is
    (strengths or trials) x (grid points + a pre and a post record per
    kick), exact unless a kick falls on a grid point; a sweep's cell count
    is strengths x kick counts, and the samples per unit time,
    ``resolution / T``, must stay finite.  The longest free step, ``T`` or
    ``tau`` for an interval sweep (times the largest N if g = 0), must pass
    ``core._check_free_step``.
    ``rates`` refuses a coupling past ``RATES_MAX_COUPLING``, where the fixed
    finite-difference steps stop resolving the dynamics, and ``oracle-check``
    needs ``T > 0`` and at most ``ORACLE_CHECK_MAX_KICKS`` kicks per trial.
    The numbers are read before it, by ``ScenarioConfig``; the rules that a
    public entry owns (kick times, a run's or a sweep's positive duration)
    are left to it.
    """
    if config.scenario == "rates" and config.coupling > RATES_MAX_COUPLING:
        raise ValueError(
            f"scenario 'rates' needs G <= {RATES_MAX_COUPLING:.6g}, got G = {config.coupling:g}: "
            "past it the finite-difference error bound exceeds the checks' tolerances"
        )
    if config.scenario == "rates":  # runs for no duration
        return
    if config.scenario == "sweep":
        if not config.g_list or not config.n_list:
            raise ValueError("scenario 'sweep' needs g_list and N_list")
        cells = len(config.g_list) * len(config.n_list)
        if cells > MAX_SAMPLES:
            raise ValueError(
                f"sweep would take {cells} cells ({len(config.g_list)} x "
                f"{len(config.n_list)}); at most {MAX_SAMPLES} are allowed"
            )
    attr, step_name = _DURATIONS[config.mode if config.scenario == "sweep" else "total"]
    step = getattr(config, attr)
    if step is None:
        raise ValueError(f"scenario {config.scenario!r} needs {step_name}")
    if config.scenario in ("run", "oracle-check"):
        if config.scenario == "run":
            runs, kicks = len(config.g_list), len(config.kick_times)
        else:
            runs, kicks = config.trials, max(config.n_list)
        per_run = (max(1, config.resolution) + 1 if step > 0 else 1) + 2 * kicks
        if runs * per_run > MAX_SAMPLES:
            raise ValueError(
                f"scenario would take {runs * per_run} samples ({runs} x {per_run}); "
                f"at most {MAX_SAMPLES} are allowed"
            )
        if step > 0 and not math.isfinite(config.resolution / step):
            raise ValueError(
                f"resolution / T overflows (resolution = {config.resolution}, T = {step:g})"
            )
    if step >= 0:  # a negative duration is refused here or where the scenario runs
        _check_free_step(step, config, step_name)
        if step_name == "tau" and 0.0 in config.g_list:  # a kick-free cell runs for N tau
            _check_free_step(step * max(config.n_list), config, "tau * N_list")
    if config.scenario == "oracle-check":
        if max(config.n_list) > ORACLE_CHECK_MAX_KICKS:
            raise ValueError(
                f"scenario 'oracle-check' needs N_list <= {ORACLE_CHECK_MAX_KICKS}, "
                f"got N_list = {max(config.n_list)}"
            )
        if step <= 0:
            raise ValueError(f"scenario 'oracle-check' needs T > 0, got T = {step:g}")


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


#: Rows formatted at a time.  A block's values are freed before the next
#: block is formatted, so a table peaks at about twice its text.
_CSV_BLOCK = 1 << 13
#: Rows from which a table may take its ``%.17g`` columns from ``_float_pieces``.
#: Below it the kernel's fixed cost per call outweighs what it saves.
_CSV_PIECES_ROWS = 1024
#: Share of a block's values that must lie in [1e-6, 1e17) for ``_csv`` to take
#: the column from ``_float_pieces``.  The kernel adds more to a value that
#: Python formats than it saves on one in that range.  On blocks of 8192 that
#: mix the two at random (the others below 1e-6) it breaks even at a share of
#: about 0.6 for values in [1e-4, 1), 0.65 for values spread over [1e-6, 1),
#: and only from 0.85 (times in [1, 10)) to 1.0 (values spread over [1, 1e17))
#: for values in fixed notation.  Every block the CLI writes above the bound
#: is a probability's, or a run's times, all in the range but t = 0.
_CSV_PIECES_SHARE = 2 / 3


def _texts(values: np.ndarray) -> list[str]:
    """Each value of a column, formatted: integers with ``%d``, floats with ``%.17g``."""
    fmt = "%d" if values.dtype.kind in "iu" else "%.17g"
    return list(map(fmt.__mod__, values.tolist()))


def _halves(a):
    """Dekker's split: ``a = hi + lo``, each with at most 26 significant bits."""
    t = (2.0**27 + 1) * a
    hi = t - (t - a)
    return hi, a - hi


# Slot s = ``_DECADES.searchsorted(x, "right")`` in 1..23 holds the x of
# decimal exponent X = s - 7: each of these doubles is the first at or above
# its power of ten, so x >= 10**X exactly when x >= the double.  The double
# nearest 10**-6 lies below it, so that bound is the next one up.  Slots 0
# and 24 hold every other x.  ``'%.17g'`` writes the 17 digits of
# x * 10**(16 - X), the ``_SCALES``, in e-notation in slots 1 and 2, after
# "0." and -X-1 zeros (the ``_HEADS``) in slots 3..6, and after an integer
# part in slots 7..23.  Slots 1, 2 and 7..23 split off their lead, the first
# digit or the integer part, from the ``_WIDTHS`` digits after it.
_DECADES = np.array([1.0000000000000002e-06, *(float(f"1e{k}") for k in range(-5, 18))])
_SCALES = np.array([1.0, *(float(f"1e{16 - x}") for x in range(-6, 17)), 1.0])
_SCALES_HI, _SCALES_LO = _halves(_SCALES)
_HEADS = np.array(["", "", "", "0.000", "0.00", "0.0", "0.", *[""] * 18], dtype=object)
_WIDTHS = np.array([0, 16, 16, 0, 0, 0, 0, *range(16, -1, -1), 0])
_UNITS = 10**_WIDTHS
#: slots 1 and 2 write e-notation, slots 7..23 an integer part
_E_SLOTS, _WHOLE_SLOTS = 3, 7
_POWERS = 10 ** np.arange(17)  # ``_POWERS.searchsorted(n, "right")`` counts n's digits
#: marks digits after a lead that are all zero, which ``%g`` drops with the point
_NONE = 17
_SUFFIXES = np.array(["", "e-06", "e-05", *[""] * 22], dtype=object)
#: [L, z]: an e-notation lead L, its point and z zeros; at ``_NONE`` the bare L
_PREFIXES = np.array(
    [[f"{lead}." + "0" * z for z in range(_NONE)] + [str(lead)] for lead in range(10)],
    dtype=object,
)
#: [z]: the point and z zeros after an integer part; at ``_NONE`` nothing
_POINTS = np.array(["." + "0" * z for z in range(_NONE)] + [""], dtype=object)
#: Share of values from which ``_float_pieces`` returns third pieces.  Below
#: it their texts join the second piece.  The 1/8 is a byte model, not a
#: timing: a third piece costs an 8-byte reference for every value, a joined
#: text about 60 bytes for each value that needs one.  Of the columns the CLI
#: writes, p01 at g = pi/2 and 3pi/4 (0.28 and 0.37 of its values need one)
#: and a T = 10 run's times (0.90) take three pieces; p10, p01 at g = pi/8
#: and pi/4 (about 0.01) and a T = 1 run's times (1e-4) join.  The one
#: measured need is that last column, shared by the files of a run: three
#: strengths at 330 001 points peak at 190.8 MB with three pieces, 188.2 MB
#: joined.
_THIRD_PIECE_SHARE = 1 / 8


def _float_pieces(values: np.ndarray) -> tuple[list, ...]:
    """``'%.17g' % x`` of each float x of ``values`` as two or three pieces that ``%s`` prints.

    The pieces of x are its texts in order, each an int or a str:
    - 1e-6 <= x < 1e-4: "L." and zeros (or a bare "L"), the rest of the 17
      significant digits, then "e-06" or "e-05";
    - 1e-4 <= x < 1: "0." and zeros, then the 17 digits;
    - 1 <= x < 1e17: the integer part, then "." and zeros, then the digits
      after them, or "" and "" for an integral x.
    Digits drop their trailing zeros.  The third pieces are returned only if
    at least ``_THIRD_PIECE_SHARE`` of them are not empty; otherwise those
    that are not are joined to their second pieces as texts.

    The digits are exact: 10**0..10**22 are doubles, so Dekker's two-product
    gives x * 10**(16 - X) = p + e exactly, p an integer, and the digits are
    p plus e rounded.  No rounding carries to 18 digits: the double below
    each bound lies more than 8 units of its 17th digit under the bound's
    power of ten.  Every other x, and an e that ends in exactly one half,
    fall back to ``'%.17g' % x`` in the first piece, so the text is that of
    ``'%.17g'`` for every value.
    """
    slot = _DECADES.searchsorted(values, side="right")
    kernel = (slot > 0) & (slot < len(_DECADES))
    x = np.where(kernel, values, 0.5)  # keeps the arithmetic finite
    p = x * _SCALES[slot]
    x_hi, x_lo = _halves(x)
    s_hi, s_lo = _SCALES_HI[slot], _SCALES_LO[slot]
    e = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    whole = np.floor(e)
    frac = e - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    kernel &= frac != 0.5
    split = np.flatnonzero(kernel & ((slot < _E_SLOTS) | (slot >= _WHOLE_SLOTS)))
    lead, after = np.divmod(digits[split], _UNITS[slot[split]])
    zeros = _WIDTHS[slot[split]] - _POWERS.searchsorted(after, side="right")
    zeros[after == 0] = _NONE
    digits[split] = after
    ends_in_zero = np.flatnonzero(digits % 10 == 0)
    stripped = digits[ends_in_zero]
    for step in (10**8, 10**4, 10**2, 10, 10):  # strips up to 16 trailing zeros
        quotient = stripped // step
        stripped = np.where(quotient * step == stripped, quotient, stripped)
    digits[ends_in_zero] = stripped
    heads, tails = _HEADS[slot], digits.astype(object)
    tails[split[zeros == _NONE]] = ""
    e_notation = slot[split] < _E_SLOTS
    heads[split[e_notation]] = _PREFIXES[lead[e_notation], zeros[e_notation]]
    whole_part = split[~e_notation]
    heads[whole_part] = lead[~e_notation].astype(object)
    rest = np.flatnonzero(~kernel)
    heads[rest] = np.array(_texts(values[rest]), dtype=object)
    tails[rest] = ""
    pieces = [heads, tails]
    third = np.concatenate([split[e_notation], whole_part[zeros[~e_notation] != _NONE]])
    if len(third):
        ends = _SUFFIXES[slot]
        ends[rest] = ""
        ends[whole_part] = tails[whole_part]
    tails[whole_part] = _POINTS[zeros[~e_notation]]
    if len(third) >= max(_THIRD_PIECE_SHARE * len(values), 1):
        pieces.append(ends)
    elif len(third):
        tails[third] = list(map("%s%s".__mod__, zip(tails[third], ends[third])))
    return tuple(piece.tolist() for piece in pieces)


def _pieces_pay(values: np.ndarray, rows: int) -> bool:
    """Whether ``_float_pieces`` beats ``%.17g`` on ``values``, a block of a ``rows``-row table."""
    if rows < _CSV_PIECES_ROWS:
        return False
    inside = np.count_nonzero((values >= _DECADES[0]) & (values < _DECADES[-1]))
    return inside >= _CSV_PIECES_SHARE * len(values)


def _repeated_texts(column: np.ndarray, other: np.ndarray | None = None) -> list[str]:
    """``_texts`` of a 64-bit column, or of two joined by commas, each distinct row once.

    Rows are told apart by the bits of their values, so ``-0.0`` and ``0.0``
    keep their own texts.  Pays off for columns whose values repeat by
    construction.
    """
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = _texts(keys.view(column.dtype))
    if other is not None:
        other_keys, other_inverse = np.unique(other.view(np.int64), return_inverse=True)
        other_texts = _texts(other_keys.view(other.dtype))
        rows, inverse = np.unique(inverse * len(other_keys) + other_inverse, return_inverse=True)
        pairs = zip(*np.divmod(rows, len(other_keys)))
        texts = [f"{texts[i]},{other_texts[j]}" for i, j in pairs]
    return np.array(texts, dtype=object)[inverse].tolist()


def _csv(header: str, columns: list[tuple]) -> str:
    """CSV text: the header, then one line per row of ``columns``.

    Each column is a format and the sequences it takes, in order: ``("%s",
    texts)`` for values that are texts already, ``("%s%s", heads, tails)``
    or three ``%s`` for texts in pieces, else ``(fmt, values)`` with the
    format of every value.  Where ``_pieces_pay`` says so, a block of a
    ``"%.17g"`` column is taken from ``_float_pieces`` instead.  A block of
    rows is one ``%`` call on the line format repeated, so no text is made
    per value or row.
    """
    rows = len(columns[0][1])
    blocks = [header + "\n"]
    for lo in range(0, rows, _CSV_BLOCK):
        hi = min(rows, lo + _CSV_BLOCK)
        fmts, parts = [], []
        for fmt, *sequences in columns:
            sequences = [sequence[lo:hi] for sequence in sequences]
            if fmt == "%.17g":
                values = np.asarray(sequences[0], dtype=np.float64)
                if _pieces_pay(values, rows):
                    sequences = _float_pieces(values)
                    fmt = "%s" * len(sequences)
            fmts.append(fmt)
            parts += sequences
        width = len(parts)
        flat = [None] * (width * (hi - lo))
        for j, part in enumerate(parts):
            flat[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        blocks.append((",".join(fmts) + "\n") * (hi - lo) % tuple(flat))
    return "".join(blocks)


def trajectory_csv(traj: Trajectory, t_pieces: tuple[Sequence, ...] | None = None) -> str:
    """One ``t,p10,p01,pvac,norm`` line per sample.

    ``t_pieces`` is ``traj.t`` already formatted, for a caller writing several
    trajectories on one sample grid: sequences whose items, printed by ``%s``
    one after another, give each time's text, such as ``(texts,)`` or the
    pieces of ``_float_pieces``.
    """
    columns = [
        ("%.17g", traj.t) if t_pieces is None else ("%s" * len(t_pieces), *t_pieces),
        ("%.17g", traj.p10),
        ("%.17g", traj.p01),
        ("%s", _repeated_texts(traj.pvac, traj.norm)),
    ]
    return _csv("t,p10,p01,pvac,norm", columns)


def sweep_csv(cells: np.recarray) -> str:
    """One ``g,N,p10,p01,pvac`` line per record of an ``engine.sweep`` result."""
    columns = [
        ("%s", _repeated_texts(cells["g"])),
        ("%s", _repeated_texts(cells["n"])),
        ("%.17g", cells["p10"]),
        ("%.17g", cells["p01"]),
        ("%.17g", cells["pvac"]),
    ]
    return _csv("g,N,p10,p01,pvac", columns)


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


def _schedule(
    kicks: Iterable[tuple[float, float]], total_time: float, resolution: int
) -> KickSchedule:
    """The ``KickSchedule`` of a scenario's run: ``resolution`` counts samples per run."""
    per_unit = resolution / total_time if total_time > 0 else 0.0
    return KickSchedule(tuple(kicks), total_time, per_unit)


def cmd_run(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Trajectory CSV per kick strength; multiple strengths fan out by suffix."""
    out = Path(config.out or "run.csv")
    outputs: list[tuple[Path, float]] = []
    for i, g in enumerate(config.g_list):
        path = out if len(config.g_list) == 1 else out.with_name(f"{out.stem}_g{i}{out.suffix}")
        outputs.append((path, g))
    # Every run finishes before the first write, so a refused run leaves no
    # files; then one CSV text at a time is formatted and written.
    schedules = [
        _schedule([(t, g) for t in config.kick_times], config.total_time, config.resolution)
        for g in config.g_list
    ]
    trajectories = engine._run_strengths(schedules, config.params())
    # Several files share one formatted t column, in pieces where ``_csv``
    # would take them; a single file formats its own a block at a time, which
    # holds less memory.
    t, t_pieces = trajectories[0].t, None
    if len(trajectories) > 1:
        t_pieces = _float_pieces(t) if _pieces_pay(t, len(t)) else (_texts(t),)
    for (path, g), traj in zip(outputs, trajectories):
        _write(path, trajectory_csv(traj, t_pieces), f" (g={_fmt(g)})")
    if gnuplot:
        clauses = [
            f"'{path.name}' every ::1 using 1:2 with lines title 'g={_fmt(g)}'"
            for path, g in outputs
        ]
        _write(out.with_suffix(".gp"), _gnuplot("survival probability", "t", "p10", clauses))
    return 0


def cmd_sweep(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Sweep table CSV over the (g, N) grid, g outermost."""
    attr, _ = _DURATIONS[config.mode]
    duration = {attr: getattr(config, attr)}
    cells = engine.sweep(config.g_list, config.n_list, params=config.params(), **duration)
    out = Path(config.out or "sweep.csv")
    _write(out, sweep_csv(cells))
    if gnuplot:
        clauses = [
            f"'{out.name}' every ::1 using 2:(stringcolumn(1) eq '{_fmt(g)}' ? $3 : 1/0) "
            f"with linespoints title 'g={_fmt(g)}'"
            for g in config.g_list
        ]
        _write(out.with_suffix(".gp"), _gnuplot("survival vs kick count", "N", "p10", clauses))
    return 0


def oracle_engine_deviation(config: ScenarioConfig) -> float:
    """Max |population difference| between the reduced and dense paths of an ``oracle-check``.

    Each of ``config.trials`` trials draws a kick count from ``config.n_list``,
    sorts uniform kick times in [0, T] and draws each strength uniformly in
    [0, 2 pi], then compares P10, P01 and Pvac pointwise on the shared sample
    grid.  The config was checked when it was built; a config of another
    scenario raises ValueError.  Kick times are redrawn until they are
    distinct; a ValueError is raised if ``_KICK_TIME_DRAWS`` draws never give
    distinct times.  Every trial is drawn before any is run, in that order,
    so a seed gives the same trials however they are run;
    ``oracle._max_deviation`` runs and compares them.

    The trials come from the standard library's ``random.Random(seed)``, not
    from numpy's generator.  ``random`` is already loaded by ``import numpy``,
    while numpy's random subpackage would load about 20 more modules
    (OpenSSL's ``_hashlib`` among them) in every fresh process, at several
    times the cost of the draws.  Python also keeps the ``random()`` stream
    behind ``uniform`` fixed per seed across versions; numpy makes no such
    promise for its ``Generator`` methods.
    """
    if config.scenario != "oracle-check":
        raise ValueError(f"the check needs scenario 'oracle-check', got {config.scenario!r}")
    total_time = config.total_time
    rng = random.Random(config.seed)
    schedules = []
    for _ in range(config.trials):
        n = rng.choice(config.n_list)
        for _ in range(_KICK_TIME_DRAWS):
            times = sorted(rng.uniform(0.0, total_time) for _ in range(n))
            if all(a < b for a, b in zip(times, times[1:])):
                break
        else:
            raise ValueError(f"could not draw {n} distinct kick times in [0, {total_time:g}]")
        strengths = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
        schedules.append(_schedule(zip(times, strengths), total_time, config.resolution))
    return oracle._max_deviation(schedules, config.params())


def cmd_oracle_check(config: ScenarioConfig, gnuplot: bool = False) -> int:
    """Randomized reduced-vs-dense comparison; prints one report line and plots nothing."""
    if config.trials == 0:
        print("warning: trials=0, nothing was compared", file=sys.stderr)
    max_dev = oracle_engine_deviation(config)
    status = "PASS" if max_dev <= ORACLE_CHECK_TOLERANCE else "FAIL"
    report = f"status={status} max_dev={max_dev:.3e} trials={config.trials}"
    print(report)
    if config.out:
        _write(Path(config.out), report + "\n")
    return 0 if status == "PASS" else 1


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
    rows = rate_comparison_rows(config.params())
    checks, *numbers = zip(*rows)
    columns = [("%s", checks), *(("%.17g", column) for column in numbers)]
    text = _csv("check,t_or_N,analytic,numeric,abs_error", columns)
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

    try:
        if args.preset:
            config = parse_config(PRESETS[args.preset], f"preset:{args.preset}")
        else:
            config = parse_config(Path(args.config).read_text(), args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config = replace(config, out=args.out)

    try:
        return COMMANDS[config.scenario](config, args.gnuplot)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
