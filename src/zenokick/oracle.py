"""Dense state-vector simulation over (two qubits) x (N probe qubits).

This path keeps every amplitude of the joint system and exists to be trusted,
not to be fast: no sparsity, closed-form blocks only, capacity capped at 20
probes (4 * 2**20 amplitudes).  It is the ground truth the reduced engine is
validated against.

Basis ordering
--------------
index = (probe bits << 2) | (a bit << 1) | b bit

Probe k occupies bit k + 2, so probe 0 is the least significant probe bit.
With no probes the four system states order as |0,0>, |0,1>, |1,0>, |1,1>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    KickSchedule,
    SystemParams,
    Trajectory,
    schedule_steps,
    single_excitation_block,
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

    def norm(self) -> float:
        w = self.amps.real**2 + self.amps.imag**2
        return math.sqrt(float(w.sum()))

    def populations(self) -> tuple[float, float, float]:
        """(P10, P01, Pvac): weight summed over all probe configurations."""
        p10, p01, pvac, _ = _population_split(self.amps)
        return p10, p01, pvac


def _population_split(amps: np.ndarray) -> tuple[float, float, float, float]:
    w = (amps.real**2 + amps.imag**2).reshape(-1, 4)
    col = w.sum(axis=0)
    return float(col[2]), float(col[1]), float(col[0]), float(col[3])


def _pair_rows(n_probes: int, probe_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe-register rows paired by flipping probe ``probe_index``: bit clear, bit set."""
    if not 0 <= probe_index < n_probes:
        raise IndexError(f"probe index {probe_index} out of range for {n_probes} probes")
    m = np.arange(2**n_probes)
    rows0 = m[(m >> probe_index) & 1 == 0]
    return rows0, rows0 | (1 << probe_index)


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
    u = single_excitation_block(dt, params)  # validates dt
    psi = state.amps.reshape(-1, 4).copy()
    x10 = psi[:, 2].copy()
    x01 = psi[:, 1].copy()
    psi[:, 2] = u[0, 0] * x10 + u[0, 1] * x01
    psi[:, 1] = u[1, 0] * x10 + u[1, 1] * x01
    psi[:, 3] *= cmath.exp(-1j * (params.eps_a + params.eps_b) * dt)
    return FullState(psi.reshape(-1), state.n_probes)


def kick(state: FullState, probe_index: int, g: float) -> FullState:
    """Instantaneous kick of strength g between qubit b and the given probe.

    Amplitudes on the paired basis states (b=1, probe=0) <-> (b=0, probe=1)
    get the exact 2x2 rotation [[cos g, -i sin g], [-i sin g, cos g]]; every
    amplitude outside those pairs is left untouched.  Applying the rotation
    directly (instead of exponentiating a matrix) keeps the kick exactly
    unitary and exactly the identity where the exchange generator vanishes.
    """
    if not math.isfinite(g):
        raise ValueError(f"kick strength must be finite, got {g}")
    rows0, rows1 = _pair_rows(state.n_probes, probe_index)
    cg = math.cos(g)
    sg = math.sin(g)
    psi = state.amps.reshape(-1, 4).copy()
    for col_b1, col_b0 in ((1, 0), (3, 2)):
        x = psi[rows0, col_b1].copy()  # b excited, probe ground
        y = psi[rows1, col_b0].copy()  # b ground, probe excited
        psi[rows0, col_b1] = cg * x - 1j * sg * y
        psi[rows1, col_b0] = cg * y - 1j * sg * x
    return FullState(psi.reshape(-1), state.n_probes)


def run_schedule(schedule: KickSchedule, params: SystemParams) -> Trajectory:
    """Full-space run of a kick schedule; kick k consumes fresh probe k.

    Returns the populations sampled exactly like the reduced engine: the
    uniform grid plus both one-sided records at each kick instant.
    """
    if len(schedule.kicks) > MAX_PROBES:
        raise CapacityError(
            f"schedule has {len(schedule.kicks)} kicks; dense path supports at most {MAX_PROBES}"
        )
    state = initial_state(len(schedule.kicks))
    times: list[float] = []
    rows: list[tuple[float, float, float, float]] = []
    for step in schedule_steps(schedule):
        if step[0] == "advance":
            state = free_step(state, step[1], params)
        elif step[0] == "kick":
            state = kick(state, step[1], step[2])
        else:
            p10, p01, pvac, p11 = _population_split(state.amps)
            times.append(step[1])
            rows.append((p10, p01, pvac, p10 + p01 + pvac + p11))
    data = np.array(rows)
    return Trajectory(np.array(times), data[:, 0], data[:, 1], data[:, 2], data[:, 3])

