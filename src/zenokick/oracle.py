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
``FullState.amps`` always holds this flat ordering.

Working array
-------------
Every step works in place on a system-major view of the amplitudes,
``phi[s, m] = amps[(m << 2) | s]`` with shape ``(4, 2**n)``: a free step
updates rows 1 and 2 (and the phase of row 3), a kick on probe k rotates
slices of ``phi.reshape(4, 2**(n-k-1), 2, 2**k)``, and the populations are
row sums of ``|phi|**2``.  ``run_schedule`` copies the initial state into one
contiguous working array and allocates one scratch buffer, once per run; the
public ``free_step``, ``kick`` and ``FullState.populations`` copy the state,
run the same kernel on the copy and return fresh values.

Sampling a run
--------------
Probes have no free Hamiltonian, so between two kicks only the pair's
single-excitation block moves.  ``run_schedule`` therefore makes one dense
free step from each kick to the next, then the kick, and then reads the
reduced density matrix of the pair right after it (the anchor): the weights
``p00``, ``p11``, ``A = sum |x10|**2``, ``B = sum |x01|**2`` and the
coherence ``C = sum x10 conj(x01)``, each summed over all probe states.  A
sample at time t after the anchor's time t0 is the quadratic form of
``u = exp(-i H (t - t0))`` on that block,
``P10 = |u00|**2 A + |u01|**2 B + 2 Re(u00 conj(u01) C)``, ``P01`` the same
with row 1 of u, and ``Pvac = p00``.  Every dense step still updates all
``4 * 2**n`` amplitudes, once per kick; the samples cost only vector
arithmetic, and each is one closed-form step from its anchor, so rounding
does not grow with the number of samples.

Each product is computed as the out-of-place expression ``u[i, j] * x`` or
``cos g * x - (i sin g) * y`` would compute it, in that operand order and
never written over one of its own operands: numpy's in-place complex
multiply can round an ulp differently.  The one in-place product is the
|1,1> phase, ``row *= phase``.
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
    block_minus_identity,
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
_IDENTITY = np.eye(2, dtype=np.complex128)[:, :, None]


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
        phi = self.amps.reshape(-1, 4).T.copy()
        p00, p01, p10, _ = _populations(phi, np.empty(phi.size, dtype=np.complex128))
        return p10, p01, p00


def _populations(phi: np.ndarray, scratch: np.ndarray) -> list[float]:
    """Weight of each system state s, summed over the probes: row sums of |phi|^2.

    ``phi`` must be contiguous; its rows are read as interleaved (re, im)
    pairs and squared into ``scratch``, which needs ``phi.size`` complex slots.
    """
    w = scratch.view(np.float64).reshape(4, -1)
    np.square(phi.view(np.float64), out=w)
    return w.sum(axis=1).tolist()


def _free_step_in_place(
    phi: np.ndarray, dt: float, params: SystemParams, scratch: np.ndarray
) -> None:
    """exp(-i H_pair dt) on a system-major array; ``scratch`` needs phi.size / 2 slots."""
    u = single_excitation_block(dt, params)  # validates dt
    x01, x10 = phi[1], phi[2]
    t1, t2 = scratch[: x10.size], scratch[x10.size : 2 * x10.size]
    np.multiply(u[0, 0], x10, out=t1)
    np.multiply(u[0, 1], x01, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(u[1, 0], x10, out=t2)
    x10[...] = t1
    np.multiply(u[1, 1], x01, out=t1)
    np.add(t2, t1, out=x01)
    np.multiply(phi[3], cmath.exp(-1j * (params.eps_a + params.eps_b) * dt), out=phi[3])


def _kick_in_place(phi: np.ndarray, probe_index: int, g: float, scratch: np.ndarray) -> None:
    """Kick rotation on a system-major array; ``scratch`` needs phi.size / 4 slots.

    With ``quad = phi.reshape(4, 2**(n-k-1), 2, 2**k)`` the probe-k bit is
    axis 2, so (b=1, probe=0) is ``quad[s | 1, :, 0]`` and its partner
    (b=0, probe=1) is ``quad[s, :, 1]`` for each a-bit row pair s in {0, 2}.
    """
    if not math.isfinite(g):
        raise ValueError(f"kick strength must be finite, got {g}")
    n_probes = phi.shape[1].bit_length() - 1
    if not 0 <= probe_index < n_probes:
        raise IndexError(f"probe index {probe_index} out of range for {n_probes} probes")
    cg = math.cos(g)
    isg = 1j * math.sin(g)
    shape = (4, 2 ** (n_probes - probe_index - 1), 2, 2**probe_index)
    quad = phi.reshape(shape)  # splitting one axis never copies, so writes land in phi
    half = phi.shape[1] // 2
    t1 = scratch[:half].reshape(shape[1], shape[3])
    t2 = scratch[half : 2 * half].reshape(shape[1], shape[3])
    for s_b1, s_b0 in ((1, 0), (3, 2)):
        x = quad[s_b1, :, 0]  # b excited, probe ground
        y = quad[s_b0, :, 1]  # b ground, probe excited
        np.multiply(cg, x, out=t1)
        np.multiply(isg, y, out=t2)
        np.subtract(t1, t2, out=t1)
        np.multiply(cg, y, out=t2)
        np.multiply(isg, x, out=y)
        np.subtract(t2, y, out=y)
        x[...] = t1


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
    psi = state.amps.reshape(-1, 4).copy()
    _free_step_in_place(psi.T, dt, params, np.empty(psi.size // 2, dtype=np.complex128))
    return FullState(psi.reshape(-1), state.n_probes)


def kick(state: FullState, probe_index: int, g: float) -> FullState:
    """Instantaneous kick of strength g between qubit b and the given probe.

    Amplitudes on the paired basis states (b=1, probe=0) <-> (b=0, probe=1)
    get the exact 2x2 rotation [[cos g, -i sin g], [-i sin g, cos g]]; every
    amplitude outside those pairs is left untouched.  Applying the rotation
    directly (instead of exponentiating a matrix) keeps the kick exactly
    unitary and exactly the identity where the exchange generator vanishes.
    """
    psi = state.amps.reshape(-1, 4).copy()
    _kick_in_place(psi.T, probe_index, g, np.empty(psi.size // 4, dtype=np.complex128))
    return FullState(psi.reshape(-1), state.n_probes)


def run_schedule(schedule: KickSchedule, params: SystemParams) -> Trajectory:
    """Full-space run of a kick schedule; kick k consumes fresh probe k.

    Returns the populations sampled exactly like the reduced engine: the
    uniform grid plus both one-sided records at each kick instant.  The dense
    state moves only from kick to kick; every sample is read off the reduced
    density matrix of the pair right after the latest kick before it.
    """
    if len(schedule.kicks) > MAX_PROBES:
        raise CapacityError(
            f"schedule has {len(schedule.kicks)} kicks; dense path supports at most {MAX_PROBES}"
        )
    phi = initial_state(len(schedule.kicks)).amps.reshape(-1, 4).T.copy()
    scratch = np.empty(phi.size, dtype=np.complex128)
    t_anchor: list[float] = []
    pops: list[list[float]] = []  # per anchor: p00, p01 = B, p10 = A, p11
    cross: list[complex] = []  # per anchor: C = sum of x10 conj(x01)

    def anchor(t: float) -> None:
        t_anchor.append(t)
        pops.append(_populations(phi, scratch))
        cross.append(np.vdot(phi[1], phi[2]))

    anchor(0.0)
    times: list[float] = []
    owner: list[int] = []
    for step in schedule_steps(schedule):  # an "advance" step does no dense work
        if step[0] == "sample":
            times.append(step[1])
            owner.append(len(t_anchor) - 1)
        elif step[0] == "kick":
            t_kick = times[-1]  # the pre-kick record, taken at the kick instant
            if t_kick > t_anchor[-1]:
                _free_step_in_place(phi, t_kick - t_anchor[-1], params, scratch)
            _kick_in_place(phi, step[1], step[2], scratch)
            anchor(t_kick)
    t = np.array(times)
    idx = np.array(owner)
    p00, w01, w10, p11 = np.array(pops)[idx].T
    c = np.array(cross)[idx]
    u = block_minus_identity(t - np.array(t_anchor)[idx], params) + _IDENTITY

    def weight(row: int) -> np.ndarray:
        """Sum over the probes of |u[row, 0] x10 + u[row, 1] x01|^2."""
        u0, u1 = u[row, 0], u[row, 1]
        return (
            (u0.real**2 + u0.imag**2) * w10
            + (u1.real**2 + u1.imag**2) * w01
            + 2.0 * (u0 * u1.conj() * c).real
        )

    p10, p01 = weight(0), weight(1)
    return Trajectory(t, p10, p01, p00, p10 + p01 + p00 + p11)
