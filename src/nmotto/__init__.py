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

from .cycle import LimitCycle, StrokeMap, iterate_cycle, limit_cycle
from .energetics import (
    CycleEvaluation,
    EnergyLedger,
    StrokeDynamics,
    effective_temperature,
    energy_flow,
    evaluate_cycle,
    interaction_energy,
    reservoir_energy_change,
    stroke_dynamics,
    system_energy_change,
    work_adiabatic,
    work_net_I,
    work_net_II,
)
from .engine import DiagonalState, EngineParams
from .errors import ConfigError, DegenerateCycle, PositivityViolation, TruncationWarning
from .kernels import ReservoirSpec, d1, d2, ohmic_j, trigamma
from .markov import bose_n, positive_work_condition, relaxation_rate, stationary_rho00
from .oracle import DiscretizedBath, OracleResult, discretize_bath, exact_evolve
from .tcl2 import Trajectory, evolve_branch_pair

__version__ = "0.1.0"

__all__ = [
    "CycleEvaluation",
    "ConfigError",
    "DegenerateCycle",
    "DiagonalState",
    "DiscretizedBath",
    "EnergyLedger",
    "EngineParams",
    "LimitCycle",
    "OracleResult",
    "PositivityViolation",
    "ReservoirSpec",
    "StrokeDynamics",
    "StrokeMap",
    "Trajectory",
    "TruncationWarning",
    "bose_n",
    "d1",
    "d2",
    "discretize_bath",
    "effective_temperature",
    "energy_flow",
    "evaluate_cycle",
    "evolve_branch_pair",
    "exact_evolve",
    "interaction_energy",
    "iterate_cycle",
    "limit_cycle",
    "ohmic_j",
    "positive_work_condition",
    "relaxation_rate",
    "reservoir_energy_change",
    "stationary_rho00",
    "stroke_dynamics",
    "system_energy_change",
    "trigamma",
    "work_adiabatic",
    "work_net_I",
    "work_net_II",
]
