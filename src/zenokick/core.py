"""Domain types and exact single-excitation dynamics of the kicked two-qubit pair.

Two qubits a and b trade one excitation through a coupling of strength
``coupling`` (angular frequency, hbar = 1).  Everything of interest happens in
the subspace spanned by |1,0> (a excited) and |0,1> (b excited); the shared
vacuum |0,0> is reachable only through probe kicks, which move weight from
|0,1> onto frozen, mutually orthogonal vacuum branches.

Conventions:

* hbar = 1; energies are angular frequencies, times are their inverse.
* ``ReducedState`` holds the complex amplitudes (a, b) on |1,0>, |0,1> plus a
  single real accumulator ``v`` for all vacuum-branch population.
* Free evolution is the exact closed form of the 2x2 block
  [[eps_a, coupling], [coupling, eps_b]]; there is no numerical integrator.
* A kick of strength g rescales b by cos(g) and leaks |b|^2 sin^2(g) into v;
  the survivor amplitude a is never touched by a kick.
* Global phases are not normalised away; compare populations, or amplitudes
  up to one overall phase.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CapacityError",
    "OffResonanceError",
    "SystemParams",
    "KickSchedule",
    "ReducedState",
    "Trajectory",
    "block_minus_identity",
    "free_propagate",
    "apply_kick",
    "schedule_steps",
    "check_populations",
]


#: Samples a ``KickSchedule`` may take; ``cli`` also caps the samples of a
#: whole ``run`` or ``oracle-check`` scenario, and the cells of a ``sweep``,
#: at this number.  A written sample or cell costs about 0.3 KB of peak
#: memory while it is computed and written.
MAX_SAMPLES = 10**6
#: Largest count ``_count`` accepts: ``engine.sweep`` keeps its kick counts in int64.
MAX_COUNT = 2**63 - 1


class CapacityError(ValueError):
    """Requested problem size exceeds what this simulator supports."""


class OffResonanceError(ValueError):
    """A resonance-only closed form was asked for detuned qubits."""


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the coupled pair, each kept as the float ``_real`` reads.

    coupling: excitation-exchange rate between the qubits, > 0.
    eps_a, eps_b: excited-state energies of qubit a and qubit b; their sum
        and their difference must not overflow.
    """

    coupling: float = 1.0
    eps_a: float = 0.0
    eps_b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("coupling", "eps_a", "eps_b"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not all(math.isfinite(v) for v in (self.eps_a + self.eps_b, self.eps_a - self.eps_b)):
            raise ValueError(
                "eps_a + eps_b and eps_a - eps_b must not overflow, "
                f"got eps_a = {self.eps_a:g} and eps_b = {self.eps_b:g}"
            )
        if self.coupling <= 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")

    @property
    def resonant(self) -> bool:
        return self.eps_a == self.eps_b


def _real(value, name: str = "kick times and strengths") -> float:
    """A real number as a float; ValueError unless it is a finite real number.

    Every public entry reads its real inputs here, and no code after it checks
    them again; ``name`` names the value.  ``float()`` alone would also read
    ``'0.5'`` or ``b'0.5'``; ints and numpy scalars convert as it does.  A
    number past the float range, such as ``10**400``, is refused without
    being printed: ``str()`` of an int past 4300 digits raises on its own.
    """
    # A Python float skips the ABC check, which costs about 30 times more.
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be real numbers, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number past the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _count(value, name: str) -> int:
    """A count as a Python int; ValueError unless it is an integer in [0, ``MAX_COUNT``].

    Every public entry reads its counts here, and no code after it checks
    them again; ``name`` names the count in the message.  Integers are read
    with ``operator.index``, so numpy integers pass, while ``2.0``, ``'3'``
    and ``b'3'`` are refused rather than truncated or parsed.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be integers, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    if n > MAX_COUNT:
        raise ValueError(f"{name} must be <= {MAX_COUNT}, got {n}")
    return n


def _check_free_step(dt: float, params, name: str = "dt") -> None:
    """ValueError unless a free step ``dt``, read by ``_real``, is >= 0 and turns finite angles.

    The angles are ``omega * dt``, ``(eps_a + eps_b) * dt`` and
    ``(eps_a - eps_b) * dt``; past them a propagator turns to NaN.  The full
    sum is the dense |1,1> phase's.  The difference is bounded because
    ``engine.sweep`` shifts the survivor's energy out of both qubits, so its
    block turns by the difference where the other paths turn by the sum;
    with one rule for every path, ``cli`` checks a scenario once and no path
    refuses it later.  ``params`` needs only ``coupling``, ``eps_a`` and
    ``eps_b``, so ``cli`` passes a scenario config; ``name`` names the step
    in the message.
    """
    if _real(dt, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {dt}")
    total, diff = params.eps_a + params.eps_b, params.eps_a - params.eps_b
    omega = math.hypot(0.5 * diff, params.coupling)
    for rate, label in ((omega, "omega"), (total, "(eps_a + eps_b)"), (diff, "(eps_a - eps_b)")):
        if not math.isfinite(rate * float(dt)):  # a numpy product would warn first
            raise ValueError(
                f"{label} * {name} overflows ({label} = {rate:g}, {name} = {dt:g}); "
                "reduce G, eps_a, eps_b or the run time"
            )


@dataclass(frozen=True)
class KickSchedule:
    """Ordered instantaneous probe kicks over a finite run.

    kicks: (time, strength in radians) pairs with strictly increasing times,
        all inside [0, total_time], total_time >= 0.  May be empty.
    sample_resolution: uniform trajectory samples per unit time, >= 0; 0 keeps
        only the endpoints (plus the pre/post pair recorded at every kick).

    Numbers are kept as ``_real`` reads them.  More than ``MAX_SAMPLES``
    samples, grid points plus two per kick, are refused before allocating.
    """

    kicks: tuple[tuple[float, float], ...]
    total_time: float
    sample_resolution: float = 1000.0

    def __post_init__(self) -> None:
        kicks = tuple((_real(t), _real(g)) for t, g in self.kicks)
        object.__setattr__(self, "kicks", kicks)
        for name in ("total_time", "sample_resolution"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        previous = -math.inf
        for t, _ in kicks:
            if not 0.0 <= t <= self.total_time:
                raise ValueError(f"kick time {t} outside [0, {self.total_time}]")
            if t <= previous:
                raise ValueError("kick times must be strictly increasing")
            previous = t
        samples = self._grid_points() + 2 * len(kicks)
        if samples > MAX_SAMPLES:
            raise ValueError(
                f"schedule would take {samples:.12g} samples; at most {MAX_SAMPLES} are allowed"
            )

    def _grid_points(self) -> float:
        """Points of ``sample_grid``; inf if ``total_time * sample_resolution`` overflows."""
        if self.total_time == 0.0:
            return 1
        intervals = self.total_time * self.sample_resolution
        return max(1, round(intervals)) + 1 if intervals < math.inf else intervals

    def sample_grid(self) -> np.ndarray:
        """Uniform sample times covering [0, total_time], endpoints included."""
        return np.linspace(0.0, self.total_time, self._grid_points())


@dataclass(frozen=True)
class ReducedState:
    """Amplitudes on |1,0> and |0,1> plus accumulated vacuum population."""

    a: complex = 1.0 + 0.0j
    b: complex = 0.0j
    v: float = 0.0

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b) and math.isfinite(self.v)):
            raise ValueError("ReducedState fields must be finite")
        if self.v < 0.0:
            raise ValueError(f"vacuum population must be >= 0, got {self.v}")

    @property
    def p10(self) -> float:
        return self.a.real**2 + self.a.imag**2

    @property
    def p01(self) -> float:
        return self.b.real**2 + self.b.imag**2

    @property
    def norm(self) -> float:
        return self.p10 + self.p01 + self.v


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled populations; kick instants appear twice (pre/post record)."""

    t: np.ndarray
    p10: np.ndarray
    p01: np.ndarray
    pvac: np.ndarray
    norm: np.ndarray

    def __post_init__(self) -> None:
        _check_samples((self.t, self.p10, self.p01, self.pvac, self.norm), [0, len(self.t)])

    def __len__(self) -> int:
        return len(self.t)


#: slack of the population guard: populations may lie 1e-12 outside [0, 1] ...
_POPULATION_SLACK = 1e-12
#: ... and the total weight 1e-10 away from 1
_NORM_SLACK = 1e-10


def check_populations(p10, p01, pvac, norm) -> None:
    """Raise ValueError unless every population lies in [0, 1] and every norm is 1.

    Populations get 1e-12 of slack, the total weight 1e-10.  ``_check_samples``
    applies this guard to sampled runs and ``engine.sweep`` to its cells.  The
    bounds are written as negated ``<=`` tests so that NaN fails them too.
    """
    pops = np.array((p10, p01, pvac))
    if not (pops.min() >= -_POPULATION_SLACK and pops.max() <= 1 + _POPULATION_SLACK):
        raise ValueError("populations must lie in [0, 1]")
    if not np.max(np.abs(norm - 1.0)) <= _NORM_SLACK:
        raise ValueError("total weight drifted from 1 by more than 1e-10")


def _check_samples(columns: tuple[np.ndarray, ...], offsets: list[int]) -> None:
    """The guard of sampled runs: a ``Trajectory`` is one run, a batch several.

    ``columns`` are ``(t, p10, p01, pvac, norm)``, run r at
    ``offsets[r]:offsets[r + 1]``.  Times may drop only where a run starts,
    a NaN time fails, and every sample gets ``check_populations``.
    """
    t, *populations = columns
    if len(t) == 0 or any(len(column) != len(t) for column in populations):
        raise ValueError("trajectory arrays must be non-empty and equally long")
    rising = np.diff(t) >= 0  # False at a NaN time, so that it fails too
    rising[np.array(offsets[1:-1], dtype=np.intp) - 1] = True
    if not np.all(rising):
        raise ValueError("sample times must be non-decreasing")
    check_populations(*populations)


def _check_state(a: complex, b: complex, v: float) -> None:
    """``check_populations`` on the reduced state (a, b, v), compared as Python floats.

    Same bounds, same messages in the same order, and NaN fails here too;
    building arrays from three floats would cost more than a short fold.
    The populations are computed as ``ReducedState`` computes them.
    """
    low, high = -_POPULATION_SLACK, 1 + _POPULATION_SLACK
    p10 = a.real**2 + a.imag**2
    p01 = b.real**2 + b.imag**2
    if not (low <= p10 <= high and low <= p01 <= high and low <= v <= high):
        raise ValueError("populations must lie in [0, 1]")
    if not abs(p10 + p01 + v - 1.0) <= _NORM_SLACK:
        raise ValueError("total weight drifted from 1 by more than 1e-10")


def _block_entries(dt: float, params: SystemParams) -> tuple[complex, complex, complex]:
    """Exact exp(-i H dt) on the (|1,0>, |0,1>) block, H = [[eps_a, c], [c, eps_b]].

    Takes a step that ``_check_free_step`` has passed and returns the entries
    (u00, u01 = u10, u11) as Python complex numbers.  Valid for any detuning;
    at eps_a == eps_b the block is [[cos(c dt), -i sin(c dt)], [-i sin(c dt), cos(c dt)]].
    """
    half_sum = 0.5 * (params.eps_a + params.eps_b)
    half_diff = 0.5 * (params.eps_a - params.eps_b)
    omega = math.hypot(half_diff, params.coupling)  # > 0 since coupling > 0
    c = math.cos(omega * dt)
    f = math.sin(omega * dt) / omega
    phase = cmath.exp(-1j * half_sum * dt)
    return (
        phase * (c - 1j * half_diff * f),
        phase * (-1j * params.coupling * f),
        phase * (c + 1j * half_diff * f),
    )


def block_minus_identity(dt, params: SystemParams) -> np.ndarray:
    """The block of ``_block_entries`` minus I for an array of steps, without cancellation.

    The same closed form, with every cos(x) - 1 written as -2 sin^2(x/2), so
    an entry keeps its full relative precision however small dt is; the
    block itself rounds cos(c dt) to 1 once c dt drops below about 1e-8.
    Returns shape (2, 2, *dt.shape): entry [i, j] is an array over dt.
    """
    if np.asarray(dt).dtype.kind not in "biuf":  # strings, bytes, complex, objects
        _real(dt, "dt")  # passes only a real scalar that numpy holds as an object
    dt = np.asarray(dt, dtype=float)
    _check_free_step(dt.min(initial=0.0), params)  # a negative or NaN step
    _check_free_step(dt.max(initial=0.0), params)  # the widest angles
    half_sum = 0.5 * (params.eps_a + params.eps_b)
    half_diff = 0.5 * (params.eps_a - params.eps_b)
    omega = math.hypot(half_diff, params.coupling)
    angle = omega * dt
    cos_m1 = -2.0 * np.sin(0.5 * angle) ** 2
    f = np.sin(angle) / omega
    phi = half_sum * dt
    phase_m1 = -2.0 * np.sin(0.5 * phi) ** 2 - 1j * np.sin(phi)  # exp(-i phi) - 1
    diag_a = cos_m1 - 1j * half_diff * f
    diag_b = cos_m1 + 1j * half_diff * f
    out = np.empty((2, 2, *dt.shape), dtype=np.complex128)
    out[0, 0] = diag_a + phase_m1 * (1.0 + diag_a)
    out[1, 1] = diag_b + phase_m1 * (1.0 + diag_b)
    out[0, 1] = out[1, 0] = (1.0 + phase_m1) * (-1j * params.coupling * f)
    return out


def _free_step(a: complex, b: complex, dt: float, params: SystemParams) -> tuple[complex, complex]:
    """(a, b) after the block of ``_block_entries(dt)``, on plain scalars."""
    u00, u01, u11 = _block_entries(dt, params)
    return u00 * a + u01 * b, u01 * a + u11 * b


def _kick(a: complex, b: complex, v: float, g: float) -> tuple[complex, complex, float]:
    """(a, b, v) after a kick of strength g, on plain scalars; see ``apply_kick``."""
    cg = math.cos(g)
    sg = math.sin(g)
    return a, b * cg, v + (b.real**2 + b.imag**2) * sg * sg


def free_propagate(state: ReducedState, dt: float, params: SystemParams) -> ReducedState:
    """Evolve (a, b) by the closed-form block propagator; vacuum weight is frozen.

    |0,0> is an eigenstate of the pair Hamiltonian with eigenvalue 0, so ``v``
    is carried through unchanged.
    """
    _check_free_step(dt, params)
    return ReducedState(*_free_step(state.a, state.b, dt, params), state.v)


def apply_kick(state: ReducedState, g: float) -> ReducedState:
    """Entangle b with a fresh probe: b -> b cos(g), leak |b|^2 sin^2(g) to vacuum.

    The survivor amplitude a commutes with the kick and is returned untouched,
    so P10 is continuous across kick instants.  Distinct probe flags are
    orthogonal and the vacuum does not evolve, which is why the leaked weight
    can be accumulated additively in the scalar ``v``.
    """
    return ReducedState(*_kick(state.a, state.b, state.v, _real(g)))


def schedule_steps(schedule: KickSchedule) -> list[tuple]:
    """Flatten a schedule into ("advance", dt) / ("sample", t) / ("kick", k, g) steps.

    A step-by-step reference for the sample layout that ``_sample_layout``
    builds with numpy for both sampled paths; the tests hold it to this list.
    """
    grid = schedule.sample_grid()
    n_grid = len(grid)
    steps: list[tuple] = []
    now = 0.0
    gi = 0

    def advance_to(target: float) -> None:
        nonlocal now
        if target > now:
            steps.append(("advance", target - now))
            now = target

    for index, (t_kick, g) in enumerate(schedule.kicks):
        while gi < n_grid and grid[gi] < t_kick:
            advance_to(float(grid[gi]))
            steps.append(("sample", now))
            gi += 1
        advance_to(t_kick)
        steps.append(("sample", now))
        steps.append(("kick", index, g))
        steps.append(("sample", now))
        while gi < n_grid and grid[gi] <= t_kick:
            gi += 1
    while gi < n_grid:
        advance_to(float(grid[gi]))
        steps.append(("sample", now))
        gi += 1
    return steps


def _sample_layout(
    schedules: list[KickSchedule], params: SystemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The samples of a batch of runs, laid out as one flat array for both sampled paths.

    The schedules must share one kick count n and one sample grid (one
    ``total_time`` and ``sample_resolution``); a single schedule is a batch
    of one.  A run's samples are the uniform ``sample_grid`` plus a pre- and
    a post-kick record at every kick time, in time order; a grid point that
    coincides with a kick is represented by that pair, so sample times are
    only non-decreasing.  Anchor k of a run is its state right after its
    first k kicks, at time 0 for k = 0 and at kick k's time otherwise, so a
    pre-kick record still belongs to the anchor before its kick.

    Returns the flat sample times ``t``; ``anchor``, each sample's index
    into the batch's trials x (n + 1) anchors (run r's anchor k is
    r * (n + 1) + k); ``u``, where ``u[:, :, i]`` is the block of
    ``_block_entries`` over the time from sample i's anchor to it, from one
    ``block_minus_identity`` call; and ``offsets``, so that run r owns the
    samples ``offsets[r]:offsets[r + 1]``.  Each run's slice is bit for bit
    the layout of its schedule alone.  ``engine.run_schedule`` and
    ``oracle.run_schedule`` both sample this way, which makes their
    trajectories comparable sample by sample; ``schedule_steps`` lists the
    same layout step by step.

    Only exact integer and equality steps place the samples.  The kicks are
    searched in the shared grid, and a ``bincount`` and ``cumsum`` of their
    positions count the kicks at or before each grid point.  Each trial
    first gets a row of every grid point and two records per kick; then the
    grid points that equal a kick are dropped.  Any grid that fits in memory
    is strictly increasing, so a kick equals at most the grid point at its
    position, whose slot follows the kick's post-kick record.
    """
    first = schedules[0]
    n, grid = len(first.kicks), first.sample_grid()
    if any(
        len(s.kicks) != n
        or s.total_time != first.total_time
        or s.sample_resolution != first.sample_resolution
        for s in schedules
    ):
        raise ValueError("a sample layout needs one kick count and one sample grid")
    trials, points, width = len(schedules), len(grid), len(grid) + 2 * n
    # (trials, n), also for n = 0; -0.0 becomes 0.0
    kick_t = np.array([[t for t, _ in s.kicks] for s in schedules], dtype=float) + 0.0
    pos = np.searchsorted(grid, kick_t)  # first grid point at or after each kick
    cell = np.arange(0, trials * points, points)[:, None] + pos
    before = np.bincount(cell.ravel(), minlength=trials * points).reshape(trials, points)
    before = before.cumsum(axis=1)  # kicks at or before each grid point
    hit = grid[pos] == kick_t
    # Each record is preceded by every earlier grid point and two records per earlier kick.
    row = np.arange(0, trials * width, width)[:, None]
    at_grid = row + np.arange(points) + 2 * before
    at_pre = row + pos + 2 * np.arange(n)
    first_anchor = np.arange(0, trials * (n + 1), n + 1)[:, None]
    kick_anchor = first_anchor + np.arange(n)
    t = np.empty(trials * width)
    anchor = np.empty(len(t), dtype=np.intp)
    t[at_grid], anchor[at_grid] = grid, first_anchor + before
    t[at_pre], anchor[at_pre] = kick_t, kick_anchor
    t[at_pre + 1], anchor[at_pre + 1] = kick_t, kick_anchor + 1
    keep = np.ones(len(t), dtype=bool)
    keep[(at_pre + 2)[hit]] = False
    t, anchor = t[keep], anchor[keep]
    offsets = np.concatenate(([0], np.cumsum(width - hit.sum(axis=1))))
    anchor_t = np.concatenate((np.zeros((trials, 1)), kick_t), axis=1).ravel()
    u = block_minus_identity(t - anchor_t[anchor], params)
    u[0, 0] += 1.0
    u[1, 1] += 1.0
    return t, anchor, u, offsets.tolist()
