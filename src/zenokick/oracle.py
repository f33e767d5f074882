"""Dense state-vector simulation over (two qubits) x (N probe qubits).

This path keeps every amplitude of the joint system and exists to be trusted,
not to be fast: no reduction to the excitation subspace, closed-form blocks
only, capacity capped at 20 probes (4 * 2**20 amplitudes).  It is the ground
truth the reduced engine is validated against.

Basis ordering
--------------
index = (probe bits << 2) | (a bit << 1) | b bit

Probe k occupies bit k + 2, so probe 0 is the least significant probe bit.
With no probes the four system states order as |0,0>, |0,1>, |1,0>, |1,1>.
``FullState.amps`` always holds this flat ordering.

Working array
-------------
Every step works in place on a system-major view of the amplitudes with a
leading trial axis, ``phi[r, s, m] = amps_r[(m << 2) | s]`` with shape
``(trials, 4, 2**n)``, where trial r is one schedule's state.  A free step
updates rows 1 and 2 (and the phase of row 3) of every trial with its block
entries, and a kick on probe k rotates both of its row pairs in every trial
at once, as two ``(trials, 2, 2**(n-k-1), 2**k)`` slices of
``phi.reshape(trials, 4, 2**(n-k-1), 2, 2**k)``.  The populations are the
row sums of ``|phi|**2``, read in one pass over the float view without
writing a squared copy.  The kernels take any view whose rows are
contiguous, so they also run on a column prefix ``phi[..., :2**j]``, which
holds every probe state with no probe at or above j excited: its rows keep
the full row stride, and splitting one axis of it still never copies.

Each trial's constants (block entries, phase, ``cos g`` and ``-i sin g``)
are computed on Python scalars, one trial at a time, and enter the kernels
as a column with one value per trial, which stays fixed along the trial's
rows as a scalar would.  Every product therefore runs along one row of one
trial, with the same operands and in the same numpy loop as a run of that
trial alone, and a trial's bits do not depend on the other trials.

``_run_batch`` steps one batch: ``run_schedule`` a batch of one,
``_max_deviation`` (the check against ``engine``) batches of bounded size.
Each batch allocates one zeroed working array and one scratch buffer of
``phi.size // 4`` slots, all that the free step and the anchor read use; its
kicks need none.  The public ``free_step`` runs its kernel on a copy, as a
``(4, 2**n)`` view with scalar constants: the kernels index from the last axis
(``phi[..., s, :]``).  The public ``kick`` rotates a copy's ``_kick_pairs``
views as ``cos g * x - (i sin g) * y`` and its mirror, out of place.

Sampling a run
--------------
Probes have no free Hamiltonian, so between two kicks only the pair's
single-excitation block moves.  A run therefore makes one dense free step
from each kick to the next, then the kick, and then reads the
reduced density matrix of the pair right after it (the anchor): the weights
``p00``, ``p11``, ``A = sum |x10|**2``, ``B = sum |x01|**2`` and the
coherence ``C = sum x10 conj(x01)``, each summed over all probe states.  A
sample at time t after the anchor's time t0 is the quadratic form of
``u = exp(-i H (t - t0))`` on that block,
``P10 = |u00|**2 A + |u01|**2 B + 2 Re(u00 conj(u01) C)``, ``P01`` the same
with row 1 of u, and ``Pvac = p00``.  The samples cost only vector
arithmetic, and each is one closed-form step from its anchor, so rounding
does not grow with the number of samples.  The sample times, the anchor
that owns each sample and each sample's block u come from
``core._sample_layout``, and a batch is sampled in one pass.

Kick k consumes fresh probe k, and only kick j moves probe bit j, so before
kick k every amplitude with a probe bit at or above k is exactly zero.  The
dense steps therefore run on the live prefix: the free step before kick k on
``phi[..., :2**k]``, and kick k with its anchor read on
``phi[..., :2**(k+1)]``.  The prefixes double from kick to kick, so a run
costs O(2**n) dense work instead of O(n 2**n).  Kick k's partner half y,
the columns its prefix adds, is still zero, so the rotation reduces to
``y = (-i sin g) * x`` and ``x = cos g * x``: the run's kick writes y
without reading it, then scales x in place (``_fresh_kick_in_place``), and
gives the full rotation's amplitudes up to the sign of a zero.  This is not
a sparse oracle: every amplitude of every probe touched so far is stored
and stepped densely, whatever its value, the final working array holds all
``4 * 2**n`` amplitudes, and nothing of the engine's reduction is used.

Each product on the state is computed as the out-of-place expression
``u[i, j] * x`` or ``cos g * x - (i sin g) * y`` would compute it, in that
operand order and never written over one of its own operands: numpy's
in-place complex multiply can round an ulp differently.  The one exception
is a factor with a zero part: ``cos g`` is purely real and ``i sin g``
purely imaginary, so each part of such a product is one real product
rounded once, in place or not, with or without FMA; the run's kick
therefore scales x in place.  The rule does not bind the |1,1> phase,
``row *= phase``, on a row that no run populates, nor the coherence read,
which multiplies ``conj(x01)`` by ``x10`` in place in the scratch buffer,
since it only feeds a sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .core import (
    CapacityError,
    KickSchedule,
    SystemParams,
    Trajectory,
    _block_entries,
    _check_free_step,
    _check_samples,
    _real,
    _sample_layout,
)

__all__ = [
    "MAX_PROBES",
    "FullState",
    "initial_state",
    "free_step",
    "kick",
    "run_schedule",
]

MAX_PROBES = 20
#: amplitudes one batch of ``_max_deviation`` may hold (16 MiB)
BATCH_AMPLITUDES = 2**20


@dataclass(frozen=True)
class FullState:
    """Dense complex amplitude vector over the joint Hilbert space."""

    amps: np.ndarray
    n_probes: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_probes <= MAX_PROBES:
            raise CapacityError(f"n_probes must be within [0, {MAX_PROBES}], got {self.n_probes}")
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        if amps.shape != (4 * 2**self.n_probes,):
            raise ValueError(f"expected {4 * 2**self.n_probes} amplitudes, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _read_anchor(phi: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's weights and coherence; ``scratch`` needs phi.size / 4 slots.

    Returns the weight of each system state s, summed over the probes, as
    ``pops[..., s]``: the row sums of |phi|^2, read as interleaved (re, im)
    pairs and summed as squares in one read-only pass.  Returns C = sum over
    the probes of x10 conj(x01) as ``cross[...]``.  Each row of ``phi`` must
    be contiguous, but the row stride may be wider than a row, as in a
    column-prefix view ``phi[..., :m]`` of the working array.  A BLAS dot
    (``np.vdot``, ``np.dot``) would do either sum, but OpenBLAS can stall for
    milliseconds starting its threads.
    """
    w = phi.view(np.float64)
    x01, x10 = phi[..., 1, :], phi[..., 2, :]
    c = np.conjugate(x01, out=scratch[: x01.size].reshape(x01.shape))
    np.multiply(c, x10, out=c)
    return np.einsum("...ij,...ij->...i", w, w), c.sum(axis=-1)


def _free_constants(dt: float, params: SystemParams) -> tuple[complex, complex, complex, complex]:
    """(u00, u01, u11, |1,1> phase) of exp(-i H_pair dt), as Python complex numbers."""
    return (*_block_entries(dt, params), cmath.exp(-1j * (params.eps_a + params.eps_b) * dt))


def _free_step_in_place(phi: np.ndarray, constants, scratch: np.ndarray) -> None:
    """exp(-i H_pair dt) on a (4, m) or (trials, 4, m) array; ``scratch`` needs phi.size / 2.

    ``constants`` are the four values of ``_free_constants``, each a scalar
    or a (trials, 1) column that holds one value per trial.
    """
    u00, u01, u11, phase = constants
    x01, x10 = phi[..., 1, :], phi[..., 2, :]
    t1 = scratch[: x10.size].reshape(x10.shape)
    t2 = scratch[x10.size : 2 * x10.size].reshape(x10.shape)
    np.multiply(u00, x10, out=t1)
    np.multiply(u01, x01, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(u01, x10, out=t2)
    x10[...] = t1
    np.multiply(u11, x01, out=t1)
    np.add(t2, t1, out=x01)
    np.multiply(phi[..., 3, :], phase, out=phi[..., 3, :])


def _kick_pairs(phi: np.ndarray, probe_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs (x, y) of a kick on probe k, as views of a (4, m) or (trials, 4, m) array.

    With ``quad = phi.reshape(..., 4, 2**(n-k-1), 2, 2**k)`` the probe-k bit
    is the second axis from the end, so (b=1, probe=0) is
    ``quad[..., s | 1, :, 0, :]`` and its partner (b=0, probe=1) is
    ``quad[..., s, :, 1, :]`` for each a-bit row pair s in {0, 2};
    ``x = quad[..., 1::2, :, 0, :]`` and ``y = quad[..., 0::2, :, 1, :]``
    hold both pairs at once.
    """
    n_probes = phi.shape[-1].bit_length() - 1
    if not 0 <= probe_index < n_probes:
        raise IndexError(f"probe index {probe_index} out of range for {n_probes} probes")
    shape = (*phi.shape[:-1], 2 ** (n_probes - probe_index - 1), 2, 2**probe_index)
    quad = phi.reshape(shape)  # splitting one axis never copies, so writes land in phi
    return quad[..., 1::2, :, 0, :], quad[..., 0::2, :, 1, :]


def _fresh_kick_in_place(phi: np.ndarray, probe_index: int, cg, misg) -> None:
    """Kick rotation of ``_kick_pairs`` on an array whose probe-k half is still zero.

    With y = 0 the rotation reduces to y = (-i sin g) x, written into y
    without reading it, then x = (cos g) x in place.  ``cg`` and ``misg``
    are cos g and -i sin g, each a scalar or a (trials, 1, 1, 1) column.
    """
    x, y = _kick_pairs(phi, probe_index)
    np.multiply(misg, x, out=y)
    np.multiply(cg, x, out=x)


def initial_state(n_probes: int) -> FullState:
    """|1,0> with every probe in its ground state."""
    if n_probes < 0 or n_probes > MAX_PROBES:
        raise CapacityError(f"n_probes must be within [0, {MAX_PROBES}], got {n_probes}")
    amps = np.zeros(4 * 2**n_probes, dtype=np.complex128)
    amps[2] = 1.0
    return FullState(amps, n_probes)


def free_step(state: FullState, dt: float, params: SystemParams) -> FullState:
    """Apply exp(-i H_pair dt) exactly; probes have no free Hamiltonian.

    The pair Hamiltonian acts blockwise on the system factor: the closed-form
    2x2 rotation inside each single-excitation block, eigenphases on |0,0>
    (eigenvalue 0) and |1,1> (eps_a + eps_b).
    """
    _check_free_step(dt, params)
    psi = state.amps.reshape(-1, 4).copy()
    constants = _free_constants(dt, params)
    _free_step_in_place(psi.T, constants, np.empty(psi.size // 2, dtype=np.complex128))
    return FullState(psi.reshape(-1), state.n_probes)


def kick(state: FullState, probe_index: int, g: float) -> FullState:
    """Instantaneous kick of strength g between qubit b and the given probe.

    Amplitudes on the paired basis states (b=1, probe=0) <-> (b=0, probe=1)
    get the exact 2x2 rotation [[cos g, -i sin g], [-i sin g, cos g]]; every
    amplitude outside those pairs is left untouched.  Applying the rotation
    directly (instead of exponentiating a matrix) keeps the kick exactly
    unitary and exactly the identity where the exchange generator vanishes.
    """
    g = _real(g)
    cg, isg = math.cos(g), 1j * math.sin(g)
    psi = state.amps.reshape(-1, 4).copy()
    x, y = _kick_pairs(psi.T, probe_index)
    x[...], y[...] = cg * x - isg * y, cg * y - isg * x
    return FullState(psi.reshape(-1), state.n_probes)


def _run_batch(
    schedules: list[KickSchedule], params: SystemParams, layout
) -> tuple[np.ndarray, ...]:
    """Full-space runs of a batch of schedules, sampled on its ``core._sample_layout``.

    Returns the batch's flat columns ``(t, p10, p01, pvac, norm)`` as
    ``engine._run_batch`` does.  It refuses more than ``MAX_PROBES`` kicks
    and guards nothing else.
    """
    trials, n = len(schedules), len(schedules[0].kicks)
    if n > MAX_PROBES:
        raise CapacityError(f"schedule has {n} kicks; dense path supports at most {MAX_PROBES}")
    # Per kick of each trial: the free step before it, then the kick.  A kick
    # at t = 0 gets a step of length 0, the identity up to the sign of zeros.
    rows = []
    for schedule in schedules:
        now = 0.0
        for t, g in schedule.kicks:
            # -(i sin g), not (-i) sin g: the two can differ in the sign of a zero
            rows.append((*_free_constants(t - now, params), math.cos(g), -(1j * math.sin(g))))
            now = t
    table = np.array(rows, dtype=np.complex128).reshape(trials, n, 6).transpose(1, 2, 0)
    free = table[:, :4, :, None]  # per kick: four (trials, 1) columns
    rotations = table[:, 4:, :, None, None, None]  # per kick: cos g, -i sin g as (trials, 1, 1, 1)
    phi = np.zeros((trials, 4, 2**n), dtype=np.complex128)
    phi[:, 2, 0] = 1.0  # |1,0> with every probe in its ground state
    scratch = np.empty(phi.size // 4, dtype=np.complex128)
    live = phi[..., :1]  # before kick k only probe states below 2**k hold weight
    anchors = [_read_anchor(live, scratch)]  # each: (p00, p01 = B, p10 = A, p11) and C
    for index in range(n):
        _free_step_in_place(live, free[index], scratch)
        live = phi[..., : 2 ** (index + 1)]
        _fresh_kick_in_place(live, index, *rotations[index])
        anchors.append(_read_anchor(live, scratch))
    pops, cross = zip(*anchors)
    # Flat anchors, trial by trial: trial r's anchor k is row r * (n + 1) + k.
    pops = np.array(pops).reshape(n + 1, trials, 4).transpose(1, 0, 2).reshape(-1, 4)
    cross = np.array(cross).reshape(n + 1, trials).T.ravel()
    t, anchor, u, _ = layout
    p00, w01, w10, p11 = pops[anchor].T
    c = cross[anchor]

    def weight(row: int) -> np.ndarray:
        """Sum over the probes of |u[row, 0] x10 + u[row, 1] x01|^2."""
        u0, u1 = u[row, 0], u[row, 1]
        return (
            (u0.real**2 + u0.imag**2) * w10
            + (u1.real**2 + u1.imag**2) * w01
            + 2.0 * (u0 * u1.conj() * c).real
        )

    p10, p01 = weight(0), weight(1)
    return t, p10, p01, p00, p10 + p01 + p00 + p11


def _max_deviation(schedules: list[KickSchedule], params: SystemParams) -> float:
    """Largest |P10|, |P01| or |Pvac| gap of the reduced and dense runs; 0.0 for no schedules.

    Schedules of one kick count and sample grid run in batches of at most
    ``BATCH_AMPLITUDES`` amplitudes (at least one trial), each laid out once
    and run by both paths under the guard of a ``Trajectory``.  The result
    does not depend on the batching, and a NaN is kept, so it reads as FAIL.
    """
    groups: dict[tuple, list[KickSchedule]] = {}
    for schedule in schedules:
        key = (len(schedule.kicks), schedule.total_time, schedule.sample_resolution)
        groups.setdefault(key, []).append(schedule)
    worst = 0.0
    for (n, *_), members in groups.items():
        per_batch = max(1, BATCH_AMPLITUDES // (4 * 2**n))
        for lo in range(0, len(members), per_batch):
            batch = members[lo : lo + per_batch]
            layout = _sample_layout(batch, params)
            reduced = engine._run_batch(batch, params, layout)
            _check_samples(reduced, layout[-1])
            dense = _run_batch(batch, params, layout)
            _check_samples(dense, layout[-1])
            for observable in (1, 2, 3):  # p10, p01, pvac
                dev = np.max(np.abs(reduced[observable] - dense[observable]))
                worst = np.maximum(worst, dev)  # unlike max(), keeps a NaN
    return float(worst)


def run_schedule(schedule: KickSchedule, params: SystemParams) -> Trajectory:
    """Full-space run of a kick schedule; kick k consumes fresh probe k.

    Samples the times ``engine.run_schedule`` samples, so the two compare
    sample by sample.  More than ``MAX_PROBES`` kicks raise CapacityError.
    The module docstring says how a run is stepped and sampled.
    """
    batch = [schedule]
    return Trajectory(*_run_batch(batch, params, _sample_layout(batch, params)))
