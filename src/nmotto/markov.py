"""Born-Markov baseline: closed-form relaxation and the work criterion.

The long-time limit of the time-local generator gives exponential
relaxation of the ground population,

    rho00(t) = rho_inf + (rho00(0) - rho_inf) exp(-Gamma t),

with stationary value rho_inf = (1 + n) / (1 + 2 n) and rate
Gamma = 2 pi J(omega) (1 + 2 n(omega)), n the Bose occupation of the
reservoir at the level splitting.  In this limit the reservoir absorbs
exactly what the system releases, so the interaction stores no energy
and both net-work definitions coincide.

``evolve_branch_pair`` and ``family_ends`` answer as their ``tcl2``
namesakes do, with the constant generator a = -Gamma, b = -Gamma rho_inf.
"""

from __future__ import annotations

import numpy as np

from .engine import EngineParams
from .kernels import ReservoirSpec, ohmic_j
from .tcl2 import StrokeDynamics, time_grid

__all__ = [
    "bose_n",
    "stationary_rho00",
    "relaxation_rate",
    "branch_pair",
    "evolve_branch_pair",
    "family_ends",
    "positive_work_condition",
]


def bose_n(omega: float, temperature: float) -> float:
    """Bose occupation n = 1 / (exp(omega / T) - 1); diverges as omega/T -> 0."""
    if not omega > 0 or not temperature > 0:
        raise ValueError("bose_n needs omega > 0 and temperature > 0")
    return 1.0 / np.expm1(omega / temperature)


def stationary_rho00(omega: float, temperature: float) -> float:
    """Ground population of the Gibbs state at splitting omega: (1+n)/(1+2n)."""
    n = bose_n(omega, temperature)
    return (1.0 + n) / (1.0 + 2.0 * n)


def relaxation_rate(omega: float, reservoir: ReservoirSpec) -> float:
    """Decay rate 2 pi J(omega) (1 + 2 n(omega))."""
    n = bose_n(omega, reservoir.temperature)
    return 2.0 * np.pi * ohmic_j(omega, reservoir) * (1.0 + 2.0 * n)


def branch_pair(reservoir: ReservoirSpec, omega: float, t):
    """Both pure-start branches of one stroke at time(s) t >= 0.

    Returns (rho00 from |0>, rho00 from |1>, flow from |0>, flow from
    |1>), arrays or floats like t.  Each population relaxes
    monotonically to rho_inf, and the reservoir takes up exactly the
    energy the system gives off, at the rate omega Gamma (rho_inf - rho00).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    rho_inf = stationary_rho00(omega, reservoir.temperature)
    gamma = relaxation_rate(omega, reservoir)
    e = np.exp(-gamma * t)
    rho0 = rho_inf + (1.0 - rho_inf) * e
    rho1 = rho_inf * (1.0 - e)
    return rho0, rho1, omega * gamma * (rho_inf - rho0), omega * gamma * (rho_inf - rho1)


def evolve_branch_pair(
    reservoir: ReservoirSpec, omega: float, t_end: float, h: float | None = None
) -> StrokeDynamics:
    """Both pure-start branches of one stroke on ``tcl2.time_grid(t_end, h)``,
    the record ``tcl2.evolve_branch_pair`` returns: the decay exponent
    is -Gamma t, and no correction integral builds up."""
    times = time_grid(t_end, h)
    rho0, rho1, flow0, flow1 = branch_pair(reservoir, omega, times)
    gamma = relaxation_rate(omega, reservoir)
    rho_inf = stationary_rho00(omega, reservoir.temperature)
    zero = np.zeros_like(times)  # no interaction storage
    return StrokeDynamics(
        omega=omega, times=times, rho00_0=rho0, rho00_1=rho1, cum_a=-gamma * times,
        a_vals=np.full_like(times, -gamma), b_vals=np.full_like(times, -gamma * rho_inf),
        corr_0=zero, corr_1=zero, flow_0=flow0, flow_1=flow1)


def family_ends(reservoir: ReservoirSpec, omegas, durations, h: float | None = None):
    """Stroke ends (r0, r1, 0, 0) of shape (4, len(omegas), len(durations)),
    as ``tcl2.family_ends``; ``h`` is ignored, as the closed form needs no grid."""
    out = np.zeros((4, len(omegas), len(durations)))
    for i, omega in enumerate(omegas):
        out[0, i], out[1, i], _, _ = branch_pair(reservoir, omega, durations)
    return out


def positive_work_condition(params: EngineParams) -> bool:
    """True iff omega_c / omega_h > T_c / T_h (strictly).

    Under Markovian dynamics this is equivalent to positive net work
    extraction, and to the Otto efficiency staying below Carnot.  The
    boundary case of equality yields zero work, hence False.
    """
    return params.omega_c / params.omega_h > params.T_c / params.T_h
