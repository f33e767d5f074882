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
Every step works in place on a system-major view of the amplitudes,
``phi[s, m] = amps[(m << 2) | s]`` with shape ``(4, 2**n)``: a free step
updates rows 1 and 2 (and the phase of row 3) with the block entries as
scalars, and a kick on probe k rotates both of its row pairs at once, as two
``(2, 2**(n-k-1), 2**k)`` slices of ``phi.reshape(4, 2**(n-k-1), 2, 2**k)``.
The populations are the row sums of ``|phi|**2``, read in one pass over the
float view without writing a squared copy.  The kernels take any view whose
rows are contiguous, so they also run on a column prefix ``phi[:, :2**j]``,
which holds every probe state with no probe at or above j excited: its rows
keep the full row stride, and splitting one axis of it still never copies.

``run_schedule`` allocates one zeroed ``(4, 2**n)`` working array and one
scratch buffer of ``phi.size // 2`` slots, once per run; the public
``free_step``, ``kick`` and ``FullState.populations`` copy the state, run the
same kernel on the copy and return fresh values.

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
with row 1 of u, and ``Pvac = p00``.  The samples cost only vector
arithmetic, and each is one closed-form step from its anchor, so rounding
does not grow with the number of samples.  The sample times, the anchor
that owns each sample and each sample's block u come from
``core._sample_blocks``, which describes the layout.

Kick k consumes fresh probe k, and only kick j moves probe bit j, so before
kick k every amplitude with a probe bit at or above k is exactly zero.  The
dense steps therefore run on the live prefix: the free step before kick k on
``phi[:, :2**k]``, and kick k with its anchor read on ``phi[:, :2**(k+1)]``.
The prefixes double from kick to kick, so a run costs O(2**n) dense work
instead of O(n 2**n), with the same kernels and the same bits.  This is not
a sparse oracle: every amplitude of every probe touched so far is stored and
stepped densely, whatever its value, the final working array holds all
``4 * 2**n`` amplitudes, and nothing of the engine's reduction is used.

Each product is computed as the out-of-place expression ``u[i, j] * x`` or
``cos g * x - (i sin g) * y`` would compute it, in that operand order and
never written over one of its own operands: numpy's in-place complex
multiply can round an ulp differently.  The one in-place product on the
state is the |1,1> phase, ``row *= phase``; the coherence read multiplies
``conj(x01)`` by ``x10`` in place in the scratch buffer, since it only feeds
a sum.
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
    _block_entries,
    _sample_blocks,
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
        p00, p01, p10, _ = _populations(self.amps.reshape(-1, 4).T.copy())
        return p10, p01, p00


def _populations(phi: np.ndarray) -> list[float]:
    """Weight of each system state s, summed over the probes: row sums of |phi|^2.

    Each row of ``phi`` must be contiguous, but the row stride may be wider
    than a row, as in a column-prefix view ``phi[:, :m]`` of the working
    array.  The rows are read as interleaved (re, im) pairs and summed as
    squares in one read-only pass.  A BLAS dot would do the same sum, but
    OpenBLAS can stall for milliseconds starting its threads.
    """
    w = phi.view(np.float64)
    return np.einsum("ij,ij->i", w, w).tolist()


def _coherence(phi: np.ndarray, scratch: np.ndarray) -> complex:
    """C = sum over the probes of x10 conj(x01); ``scratch`` needs phi.shape[1] slots.

    ``np.vdot`` would be one call, but it is an OpenBLAS ``zdotc``, which
    can stall as a BLAS dot does in ``_populations``.
    """
    c = np.conjugate(phi[1], out=scratch[: phi.shape[1]])
    np.multiply(c, phi[2], out=c)
    return c.sum()


def _free_step_in_place(
    phi: np.ndarray, dt: float, params: SystemParams, scratch: np.ndarray
) -> None:
    """exp(-i H_pair dt) on a system-major array; ``scratch`` needs phi.size / 2 slots."""
    u00, u01, u11 = _block_entries(dt, params)  # validates dt
    x01, x10 = phi[1], phi[2]
    t1, t2 = scratch[: x10.size], scratch[x10.size : 2 * x10.size]
    np.multiply(u00, x10, out=t1)
    np.multiply(u01, x01, out=t2)
    np.add(t1, t2, out=t1)
    np.multiply(u01, x10, out=t2)
    x10[...] = t1
    np.multiply(u11, x01, out=t1)
    np.add(t2, t1, out=x01)
    np.multiply(phi[3], cmath.exp(-1j * (params.eps_a + params.eps_b) * dt), out=phi[3])


def _kick_in_place(phi: np.ndarray, probe_index: int, g: float, scratch: np.ndarray) -> None:
    """Kick rotation on a system-major array; ``scratch`` needs phi.size / 2 slots.

    With ``quad = phi.reshape(4, 2**(n-k-1), 2, 2**k)`` the probe-k bit is
    axis 2, so (b=1, probe=0) is ``quad[s | 1, :, 0]`` and its partner
    (b=0, probe=1) is ``quad[s, :, 1]`` for each a-bit row pair s in {0, 2};
    ``quad[1::2, :, 0]`` and ``quad[0::2, :, 1]`` hold both pairs at once.
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
    x = quad[1::2, :, 0]  # b excited, probe ground
    y = quad[0::2, :, 1]  # b ground, probe excited
    size = phi.shape[1]
    t1 = scratch[:size].reshape(x.shape)
    t2 = scratch[size : 2 * size].reshape(x.shape)
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
    _kick_in_place(psi.T, probe_index, g, np.empty(psi.size // 2, dtype=np.complex128))
    return FullState(psi.reshape(-1), state.n_probes)


def run_schedule(schedule: KickSchedule, params: SystemParams) -> Trajectory:
    """Full-space run of a kick schedule; kick k consumes fresh probe k.

    Returns the populations sampled exactly like the reduced engine: the
    uniform grid plus both one-sided records at each kick instant.  The dense
    state moves only from kick to kick; every sample is read off the reduced
    density matrix of the pair right after the latest kick before it.  Each
    step runs on the live prefix of the working array, the probe states in
    which no probe beyond the current kick is excited, so the dense work of
    a run is O(2**n); see the module docstring.
    """
    if len(schedule.kicks) > MAX_PROBES:
        raise CapacityError(
            f"schedule has {len(schedule.kicks)} kicks; dense path supports at most {MAX_PROBES}"
        )
    phi = np.zeros((4, 2 ** len(schedule.kicks)), dtype=np.complex128)
    phi[2, 0] = 1.0  # |1,0> with every probe in its ground state
    scratch = np.empty(phi.size // 2, dtype=np.complex128)
    live = phi[:, :1]  # before kick k only probe states below 2**k hold weight
    pops = [_populations(live)]  # per anchor: p00, p01 = B, p10 = A, p11
    cross = [_coherence(live, scratch)]  # per anchor: C = sum of x10 conj(x01)
    now = 0.0
    for index, (t_kick, g) in enumerate(schedule.kicks):
        if t_kick > now:
            _free_step_in_place(live, t_kick - now, params, scratch)
            now = t_kick
        live = phi[:, : 2 ** (index + 1)]
        _kick_in_place(live, index, g, scratch)
        pops.append(_populations(live))
        cross.append(_coherence(live, scratch))

    t, idx, u = _sample_blocks(schedule, params)
    p00, w01, w10, p11 = np.array(pops)[idx].T
    c = np.array(cross)[idx]

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
