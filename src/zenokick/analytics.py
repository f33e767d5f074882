"""Closed-form transition rates and the finite-difference instrument that checks them.

All closed forms below hold on resonance (eps_a == eps_b) where the free
amplitudes are cos(c t) and sin(c t) with c the coupling; calling them with
detuned parameters raises ``OffResonanceError`` instead of silently returning
wrong numbers.  The rate of interest is dP10/dt, the time derivative of the
survival probability; ``zeno_loss`` gives the leading-order loss 1 - P10
after many equally spaced kicks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from . import engine
from .core import OffResonanceError, SystemParams

__all__ = [
    "rate_free",
    "rate_after_one_kick",
    "rate_super_zeno",
    "rate_after_n_kicks",
    "zeno_loss",
    "survival_function",
    "finite_difference_rate",
]

#: finite-difference defaults balancing truncation against round-off in doubles
CENTRAL_STEP = 1e-5
ONE_SIDED_STEP = 1e-6
MIN_STEP = 1e-9


def _resonant_coupling(params: SystemParams) -> float:
    if not params.resonant:
        raise OffResonanceError(
            f"closed-form rates require eps_a == eps_b, got {params.eps_a} and {params.eps_b}"
        )
    return params.coupling


def rate_free(t: float, params: SystemParams | None = None) -> float:
    """dP10/dt under free evolution from |1,0>: -2c cos(ct) sin(ct).

    Zero at t = 0 and grows from there, which is what lets the transition
    proceed at all between kicks.
    """
    c = _resonant_coupling(params or SystemParams())
    return -2.0 * c * math.cos(c * t) * math.sin(c * t)


def rate_after_one_kick(t_m: float, g: float, params: SystemParams | None = None) -> float:
    """One-sided dP10/dt just after a kick of strength g at time t_m.

    Equals the free rate scaled by cos(g): unchanged at g = 0, zero after a
    complete measurement (g = pi/2), sign-inverted with reduced magnitude for
    pi/2 < g < pi, and purely sign-inverted at g = pi.
    """
    return rate_free(t_m, params) * math.cos(g)


def rate_super_zeno(t_m: float, t: float, params: SystemParams | None = None) -> float:
    """dP10/dt a time t after a mirror kick (g = pi) at t_m: c sin(2c (t_m - t)).

    Positive exactly while the elapsed time after the kick is shorter than the
    time before it (t < t_m), i.e. while the survival probability climbs back
    toward 1; the sign claim holds on the principal window c|t_m - t| < pi/2.
    """
    c = _resonant_coupling(params or SystemParams())
    return c * math.sin(2.0 * c * (t_m - t))


def rate_after_n_kicks(
    t1: float, g: float, n: int, params: SystemParams | None = None
) -> float:
    """One-sided dP10/dt after n back-to-back kicks following free evolution t1.

    The free rate at t1 times cos(g)**n, computed by repeated multiplication
    so consecutive n differ by exactly one factor of cos(g).  For |cos g| < 1
    the magnitude is bounded by 2c |cos g|**n and vanishes as n grows, however
    weak each individual kick is.
    """
    if n < 0:
        raise ValueError(f"kick count must be >= 0, got {n}")
    rate = rate_free(t1, params)
    cg = math.cos(g)
    for _ in range(n):
        rate *= cg
    return rate


def zeno_loss(
    n: int, g: float, total_time: float, params: SystemParams | None = None
) -> float:
    """Leading-order loss 1 - P10 after n equally spaced kicks in a run of total_time.

    (cT)^2 (1 + cos g) / ((1 - cos g) n), the 1/n Zeno law: each period tau
    loses (c tau)^2 (1 + cos g) / (1 - cos g), and n periods fill the run.
    Corrections are smaller by a further factor of order 1/n.  The law needs
    kicks that record which-way information, so g must not be a multiple of
    2 pi.
    """
    c = _resonant_coupling(params or SystemParams())
    if n < 1:
        raise ValueError(f"kick count must be >= 1, got {n}")
    half = math.sin(0.5 * g) ** 2  # (1 - cos g) / 2 without cancellation
    if half == 0.0:
        raise ValueError(f"the Zeno law needs 1 - cos g > 0, got g = {g}")
    return (c * total_time) ** 2 * (1.0 - half) / (half * n)


def survival_function(
    kicks: Iterable[tuple[float, float]],
    params: SystemParams | None = None,
) -> Callable[[float], float]:
    """P10 as a function of time for a fixed kick sequence.

    Each evaluation runs the reduced path fresh, applying the kicks with time
    <= t (ties included; P10 is continuous at kick instants so the boundary
    choice is invisible): the fold and guard of ``engine.final_state``, on
    plain scalars.  Repeated kick times mean back-to-back kicks.
    A non-finite kick time or strength raises ValueError here, not at the
    first evaluation.
    """
    p = params or SystemParams()
    sequence = tuple(sorted(((float(t), float(g)) for t, g in kicks), key=lambda k: k[0]))
    if not all(math.isfinite(t) and math.isfinite(g) for t, g in sequence):
        raise ValueError("kick times and strengths must be finite")

    def p10(t: float) -> float:
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        included = [(tm, g) for tm, g in sequence if tm <= t]
        a, _, _ = engine._final(included, t, p)
        return a.real**2 + a.imag**2  # ``ReducedState.p10``

    return p10


def finite_difference_rate(
    p10: Callable[[float], float],
    t: float,
    side: str = "central",
    step: float | None = None,
) -> float:
    """Numerical dP10/dt of a survival curve at time t.

    side "central" has O(step^2) truncation error and defaults to step 1e-5;
    "left"/"right" are O(step) one-sided differences (defaulting to 1e-6) for
    probing the kinks at kick instants.  Steps below 1e-9 are rejected because
    round-off would dominate the quotient.
    """
    if side not in ("central", "left", "right"):
        raise ValueError(f"side must be 'central', 'left' or 'right', got {side!r}")
    h = step if step is not None else (CENTRAL_STEP if side == "central" else ONE_SIDED_STEP)
    if not math.isfinite(h) or h < MIN_STEP:
        raise ValueError(f"step must be >= {MIN_STEP}, got {h}")
    if side == "central":
        return (p10(t + h) - p10(t - h)) / (2.0 * h)
    if side == "right":
        return (p10(t + h) - p10(t)) / h
    return (p10(t) - p10(t - h)) / h
