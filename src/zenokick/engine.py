"""Reduced simulation path: two amplitudes and one leak accumulator per run.

``_fold`` is the one fold of a kick schedule: kick by kick, on plain Python
scalars, it applies the closed-form free propagator and the kick update and
yields anchors, the initial state and the state right after each kick; leaked
weight never re-enters the dynamics, so two complex amplitudes and one real
accumulator are the entire state.  Every answer is one free step from an
anchor: a batch of sampled runs takes all its samples in one numpy pass on
one ``core._sample_layout``, while ``final_state`` and the survival curves of
``analytics`` take one guarded ``_step_from``.  Equally spaced runs skip the
fold: ``sweep`` raises the 2x2 map of one kick period of every (g, n) cell to
its power n by binary doubling, a chunk of cells at once, in O(log n) steps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator

import numpy as np

from .core import (
    KickSchedule,
    ReducedState,
    SystemParams,
    Trajectory,
    _check_free_step,
    _check_state,
    _count,
    _free_step,
    _kick,
    _real,
    _sample_layout,
    block_minus_identity,
    check_populations,
)

__all__ = ["run_schedule", "final_state", "run_equally_spaced", "sweep"]

#: cells whose doubling arrays a sweep holds at once, about 0.8 KB each
SWEEP_CHUNK = 4096
#: one ``sweep`` record per (g, n) cell
_CELL = np.dtype(
    [("g", np.float64), ("n", np.int64), ("p10", np.float64), ("p01", np.float64),
     ("pvac", np.float64)]
)
_IDENTITY = np.eye(2, dtype=np.complex128)[:, :, None]


def _fold(
    kicks: Iterable[tuple[float, float]], total_time: float, params: SystemParams
) -> Iterator[tuple[float, complex, complex, float]]:
    """Yield (t, a, b, v) at t = 0, then right after each kick, in order, on plain scalars.

    Takes kick times as ``final_state`` does: non-decreasing, inside
    [0, total_time], a ValueError otherwise; the caller has passed a time
    at or past the last kick to ``core._check_free_step``.  The
    module-level ``_free_step`` and ``_kick`` are looked up at every step.
    """
    now, a, b, v = 0.0, 1.0 + 0.0j, 0.0j, 0.0
    yield now, a, b, v
    for t, g in kicks:
        if not now <= t <= total_time:
            raise ValueError(f"kick time {t} outside [{now}, {total_time}]")
        if t > now:
            a, b = _free_step(a, b, t - now, params)
            now = t
        a, b, v = _kick(a, b, v, g)
        yield now, a, b, v


def run_schedule(schedule: KickSchedule, params: SystemParams) -> Trajectory:
    """Run a kick schedule and sample populations along the way.

    A kick instant is sampled twice, as its two one-sided limits (P10 is
    continuous there, P01 generally is not), so consumers must not assume
    strictly increasing sample times; ``core._sample_layout`` places the
    samples.  Every sample is propagated from the state right after the
    latest kick before it, so rounding grows with the number of kicks, not
    with the number of samples.
    """
    batch = [schedule]
    return Trajectory(*_run_batch(batch, params, _sample_layout(batch, params)))


def _run_strengths(schedules: list[KickSchedule], params: SystemParams) -> list[Trajectory]:
    """``run_schedule`` of schedules that differ only in g, on the first one's layout.

    No layout depends on g; this one is freed when the runs return.
    """
    layout = _sample_layout(schedules[:1], params)
    return [Trajectory(*_run_batch([schedule], params, layout)) for schedule in schedules]


def _run_batch(
    schedules: list[KickSchedule], params: SystemParams, layout
) -> tuple[np.ndarray, ...]:
    """Sampled runs of a batch of schedules on their shared ``core._sample_layout``.

    Each trial's anchors are folded on its own, on Python scalars; then the
    samples of every trial are propagated from their anchors in one pass.
    Returns the batch's flat columns ``(t, p10, p01, pvac, norm)``.  Nothing
    here guards them: a caller wraps them in a ``Trajectory``, or hands the
    whole batch to ``core._check_samples``, which is the same guard.
    """
    anchors = [state for s in schedules for _, *state in _fold(s.kicks, s.total_time, params)]
    a_anchor, b_anchor, v_anchor = (np.array(column) for column in zip(*anchors))
    t, anchor, u, _ = layout
    a0, b0 = a_anchor[anchor], b_anchor[anchor]
    a = u[0, 0] * a0 + u[0, 1] * b0
    b = u[1, 0] * a0 + u[1, 1] * b0
    p10 = a.real**2 + a.imag**2
    p01 = b.real**2 + b.imag**2
    pvac = v_anchor[anchor]
    return t, p10, p01, pvac, p10 + p01 + pvac


def final_state(
    kicks: Iterable[tuple[float, float]],
    total_time: float,
    params: SystemParams,
) -> ReducedState:
    """Fold a kick sequence without sampling and return the state at total_time.

    Unlike ``KickSchedule`` this accepts non-decreasing (not necessarily
    strictly increasing) kick times: repeated times mean back-to-back kicks
    with no free evolution in between.  The returned state passes the
    population and norm guard of a ``Trajectory``; a ValueError is raised
    otherwise.  Kick values and ``total_time`` are read as ``KickSchedule``
    reads them.  It is the last anchor of ``_fold`` carried by ``_step_from``.
    """
    _check_free_step(total_time, params, "total_time")  # no step of the fold is longer
    for anchor in _fold(((_real(t), _real(g)) for t, g in kicks), total_time, params):
        pass
    return ReducedState(*_step_from(anchor, total_time, params))


def _step_from(anchor: tuple, t: float, params: SystemParams) -> tuple[complex, complex, float]:
    """(a, b, v) at t >= t0, one free step from a ``_fold`` anchor (t0, a, b, v).

    t has passed ``core._check_free_step``; ``core._check_state`` guards the result.
    """
    now, a, b, v = anchor
    if t > now:
        a, b = _free_step(a, b, t - now, params)
    _check_state(a, b, v)
    return a, b, v


def run_equally_spaced(
    n: int,
    g: float,
    *,
    total_time: float | None = None,
    interval: float | None = None,
    params: SystemParams | None = None,
) -> tuple[float, float, float]:
    """Final (p10, p01, pvac) after n equally spaced kicks of strength g.

    Takes n and its timing as ``sweep`` does; the answer is the one-cell sweep.
    """
    (cell,) = sweep((g,), (n,), total_time=total_time, interval=interval, params=params).tolist()
    return cell[2:]


def sweep(
    g_values: Iterable[float],
    n_values: Iterable[int],
    *,
    total_time: float | None = None,
    interval: float | None = None,
    params: SystemParams | None = None,
) -> np.recarray:
    """Populations of every (g, n) cell: a record array with fields g, n, p10, p01, pvac.

    Exactly one duration, a positive real, picks the timing rule:
    ``total_time`` keeps the run length fixed (tau = total_time / n shrinks
    as n grows), ``interval`` keeps the spacing tau fixed (the run lasts
    n * interval).  Kick k lands at k * tau, so the last one is on the final
    instant.  A cell without a working kick (n = 0, or g = +-0, the identity)
    is one free period of its whole run, exact at any n.  Reals are read by
    ``core._real``, counts by ``core._count`` (int64 holds [0, 2**63 - 1]).

    Records come g outermost, in deterministic grid order, one per cell.
    Every cell passes the population and norm guard of a ``Trajectory``; a
    ValueError is raised otherwise.  Cells are raised ``SWEEP_CHUNK`` at a
    time, which bounds the memory of the doubling whatever the grid size.

    Read the loss ``1 - P10`` as ``p01 + pvac``: neither term comes from a
    subtraction, so the sum keeps full relative precision however small the
    loss is, while ``1 - p10`` keeps only its absolute precision and reads 0
    once the loss drops below about 1e-16.
    """
    g_values = tuple(_real(g) for g in g_values)
    n_values = tuple(_count(n, "kick counts") for n in n_values)
    if not g_values or not n_values:
        raise ValueError("g_values and n_values must be non-empty")
    if (total_time is None) == (interval is None):
        raise ValueError("give exactly one of total_time or interval")
    duration = _real(total_time if total_time is not None else interval, "the duration")
    if duration <= 0:
        raise ValueError(f"the duration must be positive, got {duration}")
    params = params or SystemParams()
    if interval is not None and 0.0 in g_values:  # before numpy forms n * interval
        _check_free_step(duration * max(n_values), params)
    g_column = np.repeat(g_values, len(n_values))
    n_column = np.tile(np.array(n_values, dtype=np.int64), len(g_values))
    free = (n_column == 0) | (g_column == 0.0)
    g_cell = np.where(free, 0.0, g_column)
    n_cell = np.where(free, 1, n_column)
    tau = duration / n_cell if interval is None else duration * np.where(free, n_column, 1)
    _check_free_step(tau.max(), params)  # on the given energies, before the shift below
    chunks = []
    for lo in range(0, len(n_cell), SWEEP_CHUNK):
        part = slice(lo, lo + SWEEP_CHUNK)
        chunks.append(_equally_spaced_populations(g_cell[part], n_cell[part], tau[part], params))
    p10, p01, pvac = (np.concatenate(column) for column in zip(*chunks))
    check_populations(p10, p01, pvac, p10 + p01 + pvac)
    # Filled in place: np.rec.fromarrays would cost a process 0.3 ms more on first use.
    cells = np.empty(len(n_column), _CELL).view(np.recarray)
    cells.g, cells.n, cells.p10, cells.p01, cells.pvac = g_column, n_column, p10, p01, pvac
    return cells


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cell-by-cell 2x2 products of (2, 2, cells) stacks."""
    return x[:, 0, None] * y[None, 0] + x[:, 1, None] * y[None, 1]


def _sandwich(p_minus_identity: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P^dagger S P, cell by cell, for P = I + ``p_minus_identity``."""
    p = p_minus_identity + _IDENTITY
    return _mul(np.conj(p.transpose(1, 0, 2)), _mul(s, p))


def _equally_spaced_populations(
    g: np.ndarray, n: np.ndarray, tau: np.ndarray, params: SystemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final (p10, p01, pvac) arrays of cells with n kicks of strength g spaced tau.

    One period is M = diag(1, cos g) U(tau), and the state after the last
    kick is M^n (1, 0).  Powers of M are carried as their difference D from
    the identity and squared as 2D + D D: when tau is small M rounds to I,
    while D keeps the rotation that drives the transition.

    The leak is summed on its own, not taken as 1 - p10 - p01, so the norm
    guard stays a real check.  Kick k + 1 leaks sin^2 g |(U M^k x0)_b|^2,
    so pvac = sin^2 g (S_n)_00 with S_n = sum_{k<n} (M^k)^dagger Q M^k and
    Q = U^dagger |b><b| U; it doubles as S_{p+r} = S_p + (M^p)^dagger S_r M^p.

    U is taken with the survivor's own energy eps_a removed from both
    qubits (eps_a' = 0, eps_b' = eps_b - eps_a).  That only drops a global
    phase of the single-excitation block, which no population sees: the
    vacuum does not interfere with it and |1,1> is never populated.  A
    phase left turning on |1,0> would be a rotation in D that no kick damps,
    so the doubling would carry its rounding n times and the norm would
    drift in proportion to n; removing the mean energy instead would leave
    (eps_a - eps_b) tau / 2 per period there.  At eps_a == eps_b both
    energies become 0, so a common energy reads bit for bit as none.
    ``SystemParams`` refuses energies whose difference overflows, and
    ``sweep`` a step whose angle on the given energies does.
    """
    params = replace(params, eps_a=0.0, eps_b=params.eps_b - params.eps_a)
    u_minus_identity = block_minus_identity(tau, params)
    power_d = u_minus_identity.copy()
    power_d[1] *= np.cos(g)
    power_d[1, 1] -= 2.0 * np.sin(0.5 * g) ** 2  # cos g - 1 without cancellation
    row_b = u_minus_identity[1] + _IDENTITY[1]
    power_s = np.conj(row_b)[:, None] * row_b[None, :]
    acc_d = np.zeros_like(power_d)
    acc_s = np.zeros_like(power_s)
    bits = n.copy()
    while True:
        take = (bits & 1) == 1
        if take.any():
            acc_s = np.where(take, power_s + _sandwich(power_d, acc_s), acc_s)
            acc_d = np.where(take, acc_d + power_d + _mul(power_d, acc_d), acc_d)
        bits >>= 1
        if not bits.any():
            break
        power_s = power_s + _sandwich(power_d, power_s)
        power_d = 2.0 * power_d + _mul(power_d, power_d)
    a = 1.0 + acc_d[0, 0]
    b = acc_d[1, 0]
    pvac = np.sin(g) ** 2 * acc_s[0, 0].real
    return a.real**2 + a.imag**2, b.real**2 + b.imag**2, pvac
