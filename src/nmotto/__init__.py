"""Finite-time quantum Otto engine of a two-level system in Ohmic baths.

The isochoric strokes are solved with the exact solution of the
second-order time-convolutionless master equation (non-Markovian) or
with the Born-Markov closed forms; the repeated protocol is reduced to
an affine stroboscopic map whose fixed point is the limit cycle; and
all work and heat bookkeeping, including the system-reservoir
interaction energy from counting statistics, is evaluated on that
cycle.  An exact few-mode diagonalization serves as a brute-force
reference.  Units: k_B = hbar = 1.
"""

from .energetics import (
    CycleEvaluation,
    EnergyLedger,
    StrokeDynamics,
    energy_flow,
    evaluate_cycle,
    evaluate_grid,
    stroke_balance,
)
from .engine import EngineParams
from .errors import ConfigError, DegenerateCycle, PositivityViolation
from .kernels import ReservoirSpec, d1, d2, ohmic_j
from .markov import bose_n, positive_work_condition, relaxation_rate, stationary_rho00
from .oracle import DiscretizedBath, OracleResult, discretize_bath, exact_evolve
from .tcl2 import evolve_branch_pair

__version__ = "0.1.0"

__all__ = [
    "CycleEvaluation",
    "ConfigError",
    "DegenerateCycle",
    "DiscretizedBath",
    "EnergyLedger",
    "EngineParams",
    "OracleResult",
    "PositivityViolation",
    "ReservoirSpec",
    "StrokeDynamics",
    "bose_n",
    "d1",
    "d2",
    "discretize_bath",
    "energy_flow",
    "evaluate_cycle",
    "evaluate_grid",
    "evolve_branch_pair",
    "exact_evolve",
    "ohmic_j",
    "positive_work_condition",
    "relaxation_rate",
    "stationary_rho00",
    "stroke_balance",
]
