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
from .kernels import ReservoirSpec, check_range, ohmic_j
from .tcl2 import StrokeDynamics, StrokeEnds, lattice, time_grid

__all__ = [
    "bose_n",
    "stationary_rho00",
    "relaxation_rate",
    "branch_pair",
    "evolve_branch_pair",
    "family_ends",
    "positive_work_condition",
]


def bose_n(omega: float | np.ndarray, temperature: float):
    """Bose occupation n = 1 / (exp(omega / T) - 1), a float or an array like
    omega; diverges as omega/T -> 0."""
    check_range("omega", omega)
    check_range("temperature", temperature)
    with np.errstate(over="ignore"):  # past omega/T ~ 709.8, n = 1/inf = 0
        return 1.0 / np.expm1(omega / temperature)


def stationary_rho00(omega: float | np.ndarray, temperature: float):
    """Gibbs ground population (1+n)/(1+2n), a float or an array like omega."""
    n = bose_n(omega, temperature)
    return (1.0 + n) / (1.0 + 2.0 * n)


def relaxation_rate(omega: float | np.ndarray, reservoir: ReservoirSpec):
    """Decay rate 2 pi J(omega) (1 + 2 n(omega)), a float or an array like omega."""
    n = bose_n(omega, reservoir.temperature)
    return 2.0 * np.pi * ohmic_j(omega, reservoir) * (1.0 + 2.0 * n)


def branch_pair(reservoir: ReservoirSpec, omega: float | np.ndarray, t):
    """Both pure-start branches (rho00 from |0>, rho00 from |1>) at splitting(s)
    omega and time(s) t >= 0, floats or arrays that broadcast: a (k, 1) column of
    omegas against n times gives (k, n).  Each relaxes monotonically to rho_inf."""
    t = np.asarray(t, dtype=float)
    check_range("t", t, low=0.0)
    rho_inf = stationary_rho00(omega, reservoir.temperature)
    gamma = relaxation_rate(omega, reservoir)
    rho0 = rho_inf + (1.0 - rho_inf) * np.exp(-gamma * t)
    rho1 = -rho_inf * np.expm1(-gamma * t)  # keeps its digits as gamma t -> 0
    return rho0, rho1


def evolve_branch_pair(
    reservoir: ReservoirSpec, omega: float, t_end: float, h: float | None = None
) -> StrokeDynamics:
    """One stroke's contact map on ``tcl2.time_grid(t_end, h)``, the
    record ``tcl2.evolve_branch_pair`` returns: the decay exponent is
    -Gamma t, and no correction integral builds up."""
    times = time_grid(t_end, h)
    gamma = relaxation_rate(omega, reservoir)
    rho_inf = stationary_rho00(omega, reservoir.temperature)
    zero = np.zeros_like(times)  # no interaction storage
    return StrokeDynamics(
        omega=omega, times=times, rho00_1=branch_pair(reservoir, omega, times)[1],
        cum_a=-gamma * times, a_vals=np.full_like(times, -gamma),
        b_vals=np.full_like(times, -gamma * rho_inf),
        corr_0=zero, corr_1=zero, dcorr_0=zero, dcorr_1=zero)


def family_ends(reservoir: ReservoirSpec, omegas, durations, h: float | None = None):
    """``StrokeEnds`` (r1, A = -Gamma t, 0, 0) of (len(omegas), len(durations))
    arrays, ``omegas`` an array with one element per pair, as ``tcl2.family_ends``,
    rejecting the same durations and ``h``: one broadcast of the column of omegas
    against the row of ends, each where ``tcl2.lattice`` says, as in ``time_grid``."""
    ends = lattice(durations, h)[2]
    omega = np.asarray(omegas, dtype=float)[:, None]
    r1 = branch_pair(reservoir, omega, ends)[1]
    zero = np.zeros_like(r1)  # no interaction storage
    return StrokeEnds(r1, -relaxation_rate(omega, reservoir) * ends, zero, zero)


def positive_work_condition(params: EngineParams) -> bool | np.ndarray:
    """True iff omega_c / omega_h > T_c / T_h (strictly), for splittings that
    are a float, or an array with one element per pair (then a bool per pair).

    Under Markovian dynamics this is equivalent to positive net work extraction,
    and to the Otto efficiency staying below Carnot; equality yields zero work.
    """
    return params.omega_c / params.omega_h > params.T_c / params.T_h
