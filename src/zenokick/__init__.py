"""Kicked two-qubit dynamics: reduced engine, dense cross-check, closed-form rates.

Two coupled qubits share one excitation; instantaneous probe kicks of
adjustable strength partially record (or merely mirror) the transition and
thereby slow, freeze or reverse it.  Three computation paths cover the same
model and validate each other: a reduced engine, whose ``sweep`` returns one
record per (g, N) cell at O(log N) cost each, a dense full-space simulation
as ground truth, and closed-form transition rates with a finite-difference
instrument.
"""

import importlib

from . import analytics, core, engine, oracle
from .core import (
    CapacityError,
    KickSchedule,
    OffResonanceError,
    ReducedState,
    SystemParams,
    Trajectory,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``cli`` (and argparse with it) loads on first use, so that
    # ``python -m zenokick.cli`` runs a module the package has not imported.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "__version__",
]
