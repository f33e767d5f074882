"""Test-only references that the package itself does not need."""

import math

import numpy as np

from zenokick.core import _block_entries


def single_excitation_block(dt, params):
    """exp(-i H dt) on the (|1,0>, |0,1>) block as a 2x2 array, with the kernels' exact entries."""
    u00, u01, u11 = _block_entries(dt, params)
    return np.array([[u00, u01], [u01, u11]], dtype=np.complex128)


def weights(state):
    """|amps|^2 of a dense ``oracle.FullState``, one row per probe configuration."""
    return (state.amps.real**2 + state.amps.imag**2).reshape(-1, 4)


def norm(state):
    """Euclidean norm of a dense state."""
    return math.sqrt(weights(state).sum())


def populations(state):
    """(P10, P01, Pvac) of a dense state: |1,0>, |0,1> and |0,0> summed over the probes."""
    w = weights(state)
    return w[:, 2].sum(), w[:, 1].sum(), w[:, 0].sum()
