"""Closed-form transition rates and the finite-difference instrument that checks them.

All closed forms below hold on resonance (eps_a == eps_b), where the free
amplitudes are cos(c t) and sin(c t) with c the coupling; detuned parameters
raise ``OffResonanceError`` instead of wrong numbers.  Times, strengths and
steps are read by ``core._real``, counts by ``core._count``.  The rate of
interest is dP10/dt; ``zeno_loss`` gives the leading-order loss 1 - P10 after
many equally spaced kicks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable

from . import engine
from .core import OffResonanceError, SystemParams, _check_free_step, _count, _real

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
#: Most kicks ``rate_after_n_kicks`` multiplies in, one at a time: the cap
#: takes about 0.085 s on a 2-CPU x86_64 host with Python 3.11.
MAX_BURST_KICKS = 10**6


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
    c, t = _resonant_coupling(params or SystemParams()), _real(t, "t")
    return -2.0 * c * math.cos(c * t) * math.sin(c * t)


def rate_after_one_kick(t_m: float, g: float, params: SystemParams | None = None) -> float:
    """One-sided dP10/dt just after a kick of strength g at time t_m.

    Equals the free rate scaled by cos(g): unchanged at g = 0, zero after a
    complete measurement (g = pi/2), sign-inverted with reduced magnitude for
    pi/2 < g < pi, and purely sign-inverted at g = pi.
    """
    return rate_free(_real(t_m, "t_m"), params) * math.cos(_real(g))


def rate_super_zeno(t_m: float, t: float, params: SystemParams | None = None) -> float:
    """dP10/dt a time t after a mirror kick (g = pi) at t_m: c sin(2c (t_m - t)).

    Positive exactly while the elapsed time after the kick is shorter than the
    time before it (t < t_m), i.e. while the survival probability climbs back
    toward 1; the sign claim holds on the principal window c|t_m - t| < pi/2.
    """
    c = _resonant_coupling(params or SystemParams())
    return c * math.sin(2.0 * c * (_real(t_m, "t_m") - _real(t, "t")))


def rate_after_n_kicks(
    t1: float, g: float, n: int, params: SystemParams | None = None
) -> float:
    """One-sided dP10/dt after n back-to-back kicks following free evolution t1.

    The free rate at t1 times cos(g)**n, computed by repeated multiplication
    so consecutive n differ by exactly one factor of cos(g).  For |cos g| < 1
    the magnitude is bounded by 2c |cos g|**n and vanishes as n grows, however
    weak each individual kick is.  n is read by ``core._count`` and refused
    past ``MAX_BURST_KICKS``, which bounds the loop's work.
    """
    n = _count(n, "kick counts")
    if n > MAX_BURST_KICKS:
        raise ValueError(f"rate_after_n_kicks takes at most {MAX_BURST_KICKS} kicks, got {n}")
    rate = rate_free(_real(t1, "t1"), params)
    cg = math.cos(_real(g))
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
    2 pi.  n is a count read by ``core._count``, and the law needs n >= 1.
    """
    n = _count(n, "kick counts")
    c = _resonant_coupling(params or SystemParams())
    if n < 1:
        raise ValueError(f"kick count must be >= 1, got {n}")
    half = math.sin(0.5 * _real(g)) ** 2  # (1 - cos g) / 2 without cancellation
    if half == 0.0:
        raise ValueError(f"the Zeno law needs 1 - cos g > 0, got g = {g}")
    return (c * _real(total_time, "total_time")) ** 2 * (1.0 - half) / (half * n)


def survival_function(
    kicks: Iterable[tuple[float, float]],
    params: SystemParams | None = None,
) -> Callable[[float], float]:
    """P10 as a function of time for a fixed kick sequence.

    The kicks are folded once, when the curve is built.  An evaluation at t
    carries the latest anchor at or before t (ties included; P10 is
    continuous at kick instants) to t, so it is bit for bit the P10 of
    ``engine.final_state`` over the kicks with time <= t, with its guard.
    Repeated kick times mean back-to-back kicks.  A bad kick value, or a
    kick time that is negative or whose free step overflows, raises
    ValueError here; an evaluation time is read as ``final_state``'s total_time.
    """
    p = params or SystemParams()
    sequence = sorted(((_real(t), _real(g)) for t, g in kicks), key=lambda k: k[0])
    for t, _ in sequence:  # no kick time is negative, and no step of the fold overflows
        _check_free_step(t, p, "kick times")
    anchors = list(engine._fold(sequence, math.inf, p))
    times = [anchor[0] for anchor in anchors]

    def p10(t: float) -> float:
        _check_free_step(t, p, "total_time")
        a, _, _ = engine._step_from(anchors[bisect_right(times, t) - 1], t, p)
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
    probing the kinks at kick instants.  ``t`` and ``step`` are read by
    ``core._real``; steps below 1e-9 are refused, as round-off would dominate.
    """
    if side not in ("central", "left", "right"):
        raise ValueError(f"side must be 'central', 'left' or 'right', got {side!r}")
    t = _real(t, "t")
    default = CENTRAL_STEP if side == "central" else ONE_SIDED_STEP
    h = default if step is None else _real(step, "step")
    if h < MIN_STEP:
        raise ValueError(f"step must be >= {MIN_STEP}, got {h}")
    if side == "central":
        return (p10(t + h) - p10(t - h)) / (2.0 * h)
    if side == "right":
        return (p10(t + h) - p10(t)) / h
    return (p10(t) - p10(t - h)) / h
