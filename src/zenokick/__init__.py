"""Kicked two-qubit dynamics: reduced engine, dense cross-check, closed-form rates.

Two coupled qubits share one excitation; instantaneous probe kicks of
adjustable strength partially record (or merely mirror) the transition and
thereby slow, freeze or reverse it.  Three computation paths cover the same
model and validate each other: a reduced engine whose sweeps cost O(log N)
per cell, a dense full-space simulation as ground truth, and closed-form
transition rates with a finite-difference instrument.
"""

from . import analytics, cli, core, engine, oracle
from .analytics import (
    finite_difference_rate,
    rate_after_n_kicks,
    rate_after_one_kick,
    rate_free,
    rate_super_zeno,
    survival_function,
)
from .core import (
    CapacityError,
    KickSchedule,
    OffResonanceError,
    ReducedState,
    SystemParams,
    Trajectory,
    apply_kick,
    free_propagate,
    which_way_information,
)
from .engine import SweepRow, SweepSpec, run_equally_spaced, sweep

__version__ = "0.1.0"

__all__ = [
    "analytics",
    "cli",
    "core",
    "engine",
    "oracle",
    "CapacityError",
    "OffResonanceError",
    "SystemParams",
    "KickSchedule",
    "ReducedState",
    "Trajectory",
    "apply_kick",
    "free_propagate",
    "which_way_information",
    "SweepRow",
    "SweepSpec",
    "run_equally_spaced",
    "sweep",
    "rate_free",
    "rate_after_one_kick",
    "rate_super_zeno",
    "rate_after_n_kicks",
    "survival_function",
    "finite_difference_rate",
    "__version__",
]
