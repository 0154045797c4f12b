"""Energy bookkeeping on the limit cycle.

Per stroke, three balances are tracked as functions of the contact
time: the system energy change dE_S, the reservoir energy change dE_B
obtained from the first cumulant of the two-point-measurement
statistics of the reservoir energy, and the interaction energy E_I
fixed by conservation

    dE_S(t) + dE_B(t) + E_I(t) = 0.

For the time-convolutionless backend the counting-field result reduces
to dE_B = -dE_S + C(t) with the correction integral

    C(t) = Int_0^t [ (2 rho00(s) - 1) D1(s) sin(omega s)
                     + D2(s) cos(omega s) ] ds,

so E_I(t) = -C(t); an exact few-mode reference run (see ``oracle``)
confirms this sign, E_I < 0 at the documented operating point.  In the
Markovian limit the correction vanishes identically and E_I = 0: both
net-work definitions then coincide.

All quantities are affine in the pre-stroke ground probability P, so
each stroke is solved once for the two pure starts and mixed
afterwards.  The energy flow theta = d(dE_B)/dt is assembled from the
analytic integrands, never by numerical differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import markov, tcl2
from .cycle import LimitCycle, StrokeMap, limit_cycle
from .engine import EngineParams
from .kernels import ReservoirSpec

__all__ = [
    "StrokeDynamics",
    "StrokeEnds",
    "EnergyLedger",
    "CycleEvaluation",
    "stroke_dynamics",
    "work_adiabatic",
    "work_net_I",
    "work_net_II",
    "cycle_ledger",
    "system_energy_change",
    "reservoir_energy_change",
    "interaction_energy",
    "energy_flow",
    "effective_temperature",
    "effective_temperature_profile",
    "evaluate_cycle",
]

TEMPERATURE_DEGENERACY_TOL = 1e-12


def _mixed(p, branch_0, branch_1):
    """P-mixture of the two pure-start branches, elementwise."""
    return p * branch_0 + (1.0 - p) * branch_1


class StrokeEnds(NamedTuple):
    """End-of-stroke values of both branches, all the cycle ledger reads.

    r0 / r1 are the final ground populations and corr_0 / corr_1 the
    final correction integrals C(t_end).  Floats for one stroke, or
    arrays that broadcast over a grid of strokes.
    """

    r0: float
    r1: float
    corr_0: float
    corr_1: float


@dataclass(frozen=True, eq=False)
class StrokeDynamics:
    """Everything the energy bookkeeping needs from one stroke.

    Arrays are indexed by the grid ``times``; the _0 / _1 suffixes are
    the branches started from the pure lower / upper state.  ``corr``
    holds the running counting-field correction integral C(t) (zero for
    the Markov backend) and ``flow`` the analytic reservoir energy flow
    of each branch.
    """

    which: str
    backend: str
    omega: float
    reservoir: ReservoirSpec
    times: np.ndarray
    rho00_0: np.ndarray
    rho00_1: np.ndarray
    corr_0: np.ndarray
    corr_1: np.ndarray
    flow_0: np.ndarray
    flow_1: np.ndarray

    def rho00_mixed(self, p: float) -> np.ndarray:
        return _mixed(p, self.rho00_0, self.rho00_1)

    @property
    def ends(self) -> StrokeEnds:
        return StrokeEnds(r0=float(self.rho00_0[-1]), r1=float(self.rho00_1[-1]),
                          corr_0=float(self.corr_0[-1]), corr_1=float(self.corr_1[-1]))

    @property
    def as_map(self) -> StrokeMap:
        ends = self.ends
        return StrokeMap(r0=ends.r0, r1=ends.r1)

    def index_of(self, t: float) -> int:
        """Grid index of time t (must lie on the grid to 1e-9 relative)."""
        dx = self.times[1] - self.times[0]
        k = int(round(t / dx))
        if k < 0 or k >= len(self.times) or abs(self.times[k] - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"t = {t} is not on the stroke grid")
        return k


def stroke_dynamics(
    engine: EngineParams,
    which: str,
    backend: str = "tcl2",
    h: float | None = None,
) -> StrokeDynamics:
    """Solve one stroke of the engine with full energetic diagnostics.

    Every call solves afresh; a sweep asks once per distinct stroke.
    """
    if which == "hot":
        reservoir, omega, t_end = engine.hot_reservoir, engine.omega_h, engine.t1
    elif which == "cold":
        reservoir, omega, t_end = engine.cold_reservoir, engine.omega_c, engine.t2
    else:
        raise ValueError(f"which must be 'hot' or 'cold', got {which!r}")
    if backend == "tcl2":
        traj0, traj1 = tcl2.evolve_branch_pair(reservoir, omega, t_end, h)
        times = traj0.times
        dx = times[1] - times[0]
        # the kernel samples of the coefficient integrals, not recomputed
        d1v, d2v = traj0.d1_vals, traj0.d2_vals
        sin_wt, cos_wt = traj0.sin_wt, traj0.cos_wt
        integrand0 = (2.0 * traj0.rho00 - 1.0) * d1v * sin_wt + d2v * cos_wt
        integrand1 = (2.0 * traj1.rho00 - 1.0) * d1v * sin_wt + d2v * cos_wt
        corr0 = tcl2.cumulative_simpson(integrand0, dx)
        corr1 = tcl2.cumulative_simpson(integrand1, dx)
        # theta = -d(dE_S)/dt + dC/dt, with d rho00/dt = a rho00 - b
        flow0 = omega * (traj0.a_vals * traj0.rho00 - traj0.b_vals) + integrand0
        flow1 = omega * (traj1.a_vals * traj1.rho00 - traj1.b_vals) + integrand1
        return StrokeDynamics(
            which=which, backend=backend, omega=omega, reservoir=reservoir,
            times=times, rho00_0=traj0.rho00, rho00_1=traj1.rho00,
            corr_0=corr0, corr_1=corr1, flow_0=flow0, flow_1=flow1,
        )
    if backend == "markov":
        times = tcl2.time_grid(t_end, h)
        rho0, rho1, flow0, flow1 = markov.branch_pair(reservoir, omega, times)
        zero = np.zeros_like(times)  # no interaction storage
        return StrokeDynamics(
            which=which, backend=backend, omega=omega, reservoir=reservoir,
            times=times, rho00_0=rho0, rho00_1=rho1,
            corr_0=zero, corr_1=zero, flow_0=flow0, flow_1=flow1,
        )
    raise ValueError(f"unknown dynamics backend {backend!r}")


def _at(profile: np.ndarray, stroke: StrokeDynamics, t):
    return profile if t is None else float(profile[stroke.index_of(t)])


def system_energy_change(p: float, stroke: StrokeDynamics, t=None):
    """dE_S(t) = omega (rho11(t) - rho11(0)) for the P-mixed stroke.

    t = None returns the whole profile on the stroke grid.
    """
    mixed = stroke.rho00_mixed(p)
    profile = stroke.omega * (mixed[0] - mixed)
    return _at(profile, stroke, t)


def interaction_energy(p: float, stroke: StrokeDynamics, t=None):
    """E_I(t) = -C(t), the conservation-consistent interaction energy.

    Zero at t = 0 (factorized start) and identically zero for the
    Markov backend.
    """
    profile = -_mixed(p, stroke.corr_0, stroke.corr_1)
    return _at(profile, stroke, t)


def reservoir_energy_change(p: float, stroke: StrokeDynamics, t=None):
    """dE_B(t) = -dE_S(t) - E_I(t), the first counting-statistics cumulant."""
    profile = -system_energy_change(p, stroke) - interaction_energy(p, stroke)
    return _at(profile, stroke, t)


def energy_flow(p: float, stroke: StrokeDynamics):
    """Energy flow theta(t) = d(dE_B)/dt on the stroke grid.

    Positive when energy is flowing into the reservoir; a negative
    stretch is energy backflow (only the non-Markovian backend shows
    one).  Returns (times, theta).
    """
    theta = _mixed(p, stroke.flow_0, stroke.flow_1)
    return stroke.times, theta


def effective_temperature(rho00: float, rho11: float, omega: float) -> float:
    """T_eff = omega / ln(rho00 / rho11).

    Positive for a normal population distribution, negative when
    inverted, +-inf when the populations are degenerate to 1e-12; zero
    populations have no defined temperature and raise ``ValueError``.
    """
    if rho00 <= 0.0 or rho11 <= 0.0:
        raise ValueError("effective temperature needs strictly positive populations")
    if abs(rho00 - rho11) < TEMPERATURE_DEGENERACY_TOL:
        return math.inf
    return omega / math.log(rho00 / rho11)


def effective_temperature_profile(rho00: np.ndarray, omega: float) -> np.ndarray:
    """Vectorized effective temperature along a population profile."""
    rho11 = 1.0 - rho00
    with np.errstate(divide="ignore"):
        out = omega / np.log(rho00 / rho11)
    return np.where(np.abs(rho00 - rho11) < TEMPERATURE_DEGENERACY_TOL, np.inf, out)


def work_adiabatic(engine: EngineParams, P_h: float, P_c: float,
                   hot: StrokeDynamics, cold: StrokeDynamics):
    """Work of the two adiabatic strokes.

    The populations are frozen while the splitting moves between
    omega_h and omega_c, so each work is (omega_h - omega_c) times the
    excited population left at the end of the preceding contact:
    expansion work W_ad1 after the hot stroke, compression work W_ad2
    after the cold stroke.  Both nonnegative.
    """
    gap = engine.omega_h - engine.omega_c
    return cycle_ledger(gap, P_h, P_c, hot.ends, cold.ends)[:2]


def work_net_I(w_ad1: float, w_ad2: float) -> float:
    """Net extracted work ignoring the detachment cost."""
    return w_ad1 - w_ad2


def work_net_II(w_net_1: float, e_int_hot: float, e_int_cold: float) -> float:
    """Net extracted work including the cost of detaching against the
    end-of-stroke interaction energies."""
    return w_net_1 + e_int_hot + e_int_cold


def cycle_ledger(gap, P_h, P_c, hot: StrokeEnds, cold: StrokeEnds):
    """Works and detachment energies at the limit cycle (P_h, P_c).

    gap is omega_h - omega_c.  Elementwise over floats or arrays that
    broadcast against each other, such as a column of hot-stroke ends
    against a row of cold-stroke ends.  Returns (W_ad1, W_ad2, W_I,
    W_II, E_I_h, E_I_c) with E_I = -C(t_end), as ``interaction_energy``.
    """
    w_ad1 = gap * (1.0 - _mixed(P_h, hot.r0, hot.r1))
    w_ad2 = gap * (1.0 - _mixed(P_c, cold.r0, cold.r1))
    e_i_h = -_mixed(P_h, hot.corr_0, hot.corr_1)
    e_i_c = -_mixed(P_c, cold.corr_0, cold.corr_1)
    w_1 = work_net_I(w_ad1, w_ad2)
    return w_ad1, w_ad2, w_1, work_net_II(w_1, e_i_h, e_i_c), e_i_h, e_i_c


@dataclass(frozen=True)
class EnergyLedger:
    """Per-cycle energy balance at the limit cycle."""

    W_ad1: float
    W_ad2: float
    W_I: float
    W_II: float
    E_I_h: float
    E_I_c: float
    dES_h: float
    dES_c: float
    dEB_h: float
    dEB_c: float
    eta_O: float
    eta_C: float


@dataclass(frozen=True, eq=False)
class CycleEvaluation:
    """Limit cycle plus ledger plus the two solved strokes."""

    engine: EngineParams
    backend: str
    cycle: LimitCycle
    ledger: EnergyLedger
    hot: StrokeDynamics
    cold: StrokeDynamics


def evaluate_cycle(
    engine: EngineParams, backend: str = "tcl2", h: float | None = None
) -> CycleEvaluation:
    """Solve both strokes, find the limit cycle, and close the books.

    Raises ``PositivityViolation`` or ``DegenerateCycle`` from the
    underlying layers; a coupling of exactly zero is degenerate (the
    stroke maps are the identity).
    """
    hot = stroke_dynamics(engine, "hot", backend, h)
    cold = stroke_dynamics(engine, "cold", backend, h)
    cyc = limit_cycle(hot.as_map, cold.as_map)

    w_ad1, w_ad2, w_1, w_2, e_i_h, e_i_c = cycle_ledger(
        engine.omega_h - engine.omega_c, cyc.P_h, cyc.P_c, hot.ends, cold.ends)
    des_h = system_energy_change(cyc.P_h, hot, engine.t1)
    des_c = system_energy_change(cyc.P_c, cold, engine.t2)
    ledger = EnergyLedger(
        W_ad1=w_ad1,
        W_ad2=w_ad2,
        W_I=w_1,
        W_II=w_2,
        E_I_h=e_i_h,
        E_I_c=e_i_c,
        dES_h=des_h,
        dES_c=des_c,
        dEB_h=-des_h - e_i_h,
        dEB_c=-des_c - e_i_c,
        eta_O=engine.eta_otto,
        eta_C=engine.eta_carnot,
    )
    return CycleEvaluation(engine=engine, backend=backend, cycle=cyc,
                           ledger=ledger, hot=hot, cold=cold)
