"""Independent reference for the kicked two-qubit pair, built on numpy and scipy only.

Nothing here imports zenokick: every expected value the benchmark checks the
program against is recomputed from the model itself.

Model (hbar = 1): the amplitudes (a, b) on |1,0>, |0,1> evolve under
H = [[eps_a, G], [G, eps_b]].  A kick of strength g maps (a, b) to
(a, b cos g) and moves |b|^2 sin^2 g into the vacuum weight, which never
evolves again.  One period of an equally spaced schedule is therefore the
2x2 map diag(1, cos g) . expm(-i H tau); N kicks are its N-th power.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

#: agreement demanded between the spectral and the expm propagator inside the reference
SELF_CHECK_TOLERANCE = 1e-13


def hamiltonian(coupling: float, eps_a: float = 0.0, eps_b: float = 0.0) -> np.ndarray:
    return np.array([[eps_a, coupling], [coupling, eps_b]], dtype=np.complex128)


def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    return expm(-1j * h * dt)


def equally_spaced(
    h: np.ndarray, total_time: float, g_values, n_values
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p10, p01, pvac) after n kicks at k * total_time / n, k = 1..n.

    Arrays are shaped (len(g_values), len(n_values)).  Uses the period map
    raised to the n-th power; n = 0 is not part of any workload and refused.
    """
    g = np.asarray(g_values, dtype=float)
    kick = np.zeros((len(g), 2, 2), dtype=np.complex128)
    kick[:, 0, 0] = 1.0
    kick[:, 1, 1] = np.cos(g)
    p10 = np.empty((len(g), len(n_values)))
    p01 = np.empty_like(p10)
    for j, n in enumerate(n_values):
        if n < 1:
            raise ValueError("the reference handles n >= 1 kicks only")
        period = kick @ propagator(h, total_time / n)
        column = np.linalg.matrix_power(period, n)[:, :, 0]
        p10[:, j] = np.abs(column[:, 0]) ** 2
        p01[:, j] = np.abs(column[:, 1]) ** 2
    return p10, p01, 1.0 - p10 - p01


def sample_layout(grid: np.ndarray, kick_times) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and the number of kicks applied before each sample.

    The documented layout: the uniform grid, plus a pre-kick and a post-kick
    record at every kick instant; a grid point that coincides with a kick is
    represented by that pair.
    """
    times: list[float] = []
    applied: list[int] = []
    gi = 0
    for k, t_kick in enumerate(kick_times):
        while gi < len(grid) and grid[gi] < t_kick:
            times.append(float(grid[gi]))
            applied.append(k)
            gi += 1
        times += [t_kick, t_kick]
        applied += [k, k + 1]
        while gi < len(grid) and grid[gi] <= t_kick:
            gi += 1
    times += [float(x) for x in grid[gi:]]
    applied += [len(kick_times)] * (len(grid) - gi)
    return np.array(times), np.array(applied)


def piecewise(h: np.ndarray, kicks, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Populations on the documented sample layout for arbitrary kick times.

    The state right after each kick is folded segment by segment with expm;
    samples inside a segment use the spectral form V exp(-i w dt) V^H of the
    same propagator, which is vectorised over all samples.  Both forms are
    checked against each other at every kick instant.
    """
    kick_times = [float(t) for t, _ in kicks]
    t_rows, applied = sample_layout(grid, kick_times)
    w, v = np.linalg.eigh(h)

    def spectral(dt: np.ndarray, psi: np.ndarray) -> np.ndarray:
        coeff = psi @ v.conj()  # rows of V^H psi
        return (coeff * np.exp(-1j * np.outer(dt, w))) @ v.T

    origin = [0.0]
    states = [np.array([1.0, 0.0], dtype=np.complex128)]
    leaks = [0.0]
    for t_kick, g in kicks:
        dt = float(t_kick) - origin[-1]
        psi = propagator(h, dt) @ states[-1]
        drift = np.max(np.abs(spectral(np.array([dt]), states[-1][None, :])[0] - psi))
        if drift > SELF_CHECK_TOLERANCE:
            raise ArithmeticError(f"reference propagators disagree by {drift:.3e}")
        b_weight = abs(psi[1]) ** 2
        leaks.append(leaks[-1] + b_weight * math.sin(g) ** 2)
        states.append(np.array([psi[0], psi[1] * math.cos(g)]))
        origin.append(float(t_kick))
    origin_arr = np.array(origin)
    psi_rows = spectral(t_rows - origin_arr[applied], np.array(states)[applied])
    p10 = np.abs(psi_rows[:, 0]) ** 2
    p01 = np.abs(psi_rows[:, 1]) ** 2
    return {
        "t": t_rows,
        "p10": p10,
        "p01": p01,
        "pvac": np.array(leaks)[applied],
        "applied": applied,
    }


def zeno_loss(coupling: float, total_time: float, g: float, n: int) -> float:
    """Leading-order loss 1 - P10 after n equally spaced kicks in a fixed run."""
    return (coupling * total_time) ** 2 * (1 + math.cos(g)) / ((1 - math.cos(g)) * n)


# Closed-form resonant rates dP10/dt, written from the model (c = coupling).
def rate_free(c: float, t: float) -> float:
    return -c * math.sin(2.0 * c * t)


def rate_after_one_kick(c: float, t_m: float, g: float) -> float:
    return rate_free(c, t_m) * math.cos(g)


def rate_super_zeno(c: float, t_m: float, t: float) -> float:
    return c * math.sin(2.0 * c * (t_m - t))


def rate_after_n_kicks(c: float, t1: float, g: float, n: int) -> float:
    return rate_free(c, t1) * math.cos(g) ** n
