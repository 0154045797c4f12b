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

The limit cycle and its whole ``EnergyLedger`` follow from the stroke
end values in one function, ``_close_cycle``, which both evaluators
call: ``evaluate_cycle`` for one engine and ``evaluate_grid`` over a
duration grid, bit for bit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import markov, tcl2
from .cycle import fixed_point
from .engine import EngineParams
from .errors import DegenerateCycle, PositivityViolation
from .kernels import ReservoirSpec

__all__ = [
    "StrokeDynamics",
    "StrokeEnds",
    "EnergyLedger",
    "CycleEvaluation",
    "stroke_dynamics",
    "system_energy_change",
    "reservoir_energy_change",
    "interaction_energy",
    "energy_flow",
    "effective_temperature_profile",
    "evaluate_cycle",
    "evaluate_grid",
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

    omega: float
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
        pair = tcl2.evolve_branch_pair(reservoir, omega, t_end, h)
        rho0, rho1 = pair.rho00_0, pair.rho00_1
        # theta = -d(dE_S)/dt + dC/dt, with d rho00/dt = a rho00 - b
        flow0 = omega * (pair.a_vals * rho0 - pair.b_vals) + pair.dcorr_0
        flow1 = omega * (pair.a_vals * rho1 - pair.b_vals) + pair.dcorr_1
        return StrokeDynamics(
            omega=omega, times=pair.times, rho00_0=rho0, rho00_1=rho1,
            corr_0=pair.corr_0, corr_1=pair.corr_1, flow_0=flow0, flow_1=flow1,
        )
    if backend == "markov":
        times = tcl2.time_grid(t_end, h)
        rho0, rho1, flow0, flow1 = markov.branch_pair(reservoir, omega, times)
        zero = np.zeros_like(times)  # no interaction storage
        return StrokeDynamics(
            omega=omega, times=times, rho00_0=rho0, rho00_1=rho1,
            corr_0=zero, corr_1=zero, flow_0=flow0, flow_1=flow1,
        )
    raise ValueError(f"unknown dynamics backend {backend!r}")


def system_energy_change(p: float, stroke: StrokeDynamics) -> np.ndarray:
    """dE_S(t) = omega (rho11(t) - rho11(0)) for the P-mixed stroke, as a
    profile on the stroke grid."""
    mixed = stroke.rho00_mixed(p)
    return stroke.omega * (mixed[0] - mixed)


def interaction_energy(p: float, stroke: StrokeDynamics) -> np.ndarray:
    """E_I(t) = -C(t), the conservation-consistent interaction energy.

    Zero at t = 0 (factorized start) and identically zero for the
    Markov backend.
    """
    return -_mixed(p, stroke.corr_0, stroke.corr_1)


def reservoir_energy_change(p: float, stroke: StrokeDynamics) -> np.ndarray:
    """dE_B(t) = -dE_S(t) - E_I(t), the first counting-statistics cumulant."""
    return -system_energy_change(p, stroke) - interaction_energy(p, stroke)


def energy_flow(p: float, stroke: StrokeDynamics):
    """Energy flow theta(t) = d(dE_B)/dt on the stroke grid.

    Positive when energy is flowing into the reservoir; a negative
    stretch is energy backflow (only the non-Markovian backend shows
    one).  Returns (times, theta).
    """
    theta = _mixed(p, stroke.flow_0, stroke.flow_1)
    return stroke.times, theta


def effective_temperature_profile(rho00: np.ndarray, omega: float) -> np.ndarray:
    """T_eff = omega / ln(rho00 / rho11) along a population profile,
    rho11 = 1 - rho00.

    Positive for a normal population distribution, negative when
    inverted, +inf where the populations are degenerate to 1e-12.
    """
    rho11 = 1.0 - rho00
    with np.errstate(divide="ignore"):
        out = omega / np.log(rho00 / rho11)
    return np.where(np.abs(rho00 - rho11) < TEMPERATURE_DEGENERACY_TOL, np.inf, out)


@dataclass(frozen=True)
class EnergyLedger:
    """Per-cycle energy balance at the limit cycle, formed by
    ``_close_cycle``: floats for one engine, arrays over a grid."""

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
    """Limit cycle plus ledger plus the two solved strokes.

    P_h / P_c are the ground-state probabilities just before the hot /
    cold contact, p0 the per-cycle contraction factor.
    """

    engine: EngineParams
    P_h: float
    P_c: float
    p0: float
    ledger: EnergyLedger
    hot: StrokeDynamics
    cold: StrokeDynamics


# Zero coupling freezes the populations and makes the cycle map the
# identity, so no unique limit cycle exists; the symmetric mixture is
# reported by convention, for which every energy column vanishes.
_FROZEN_P = 0.5


def _close_cycle(engine: EngineParams, hot: StrokeEnds, cold: StrokeEnds):
    """Limit cycle and its ``EnergyLedger`` from the stroke ends, elementwise.

    The ends are floats or arrays that broadcast against each other,
    such as a column of hot-stroke ends against a row of cold-stroke
    ends; every ledger field broadcasts the same way.  Returns (p0,
    degenerate, P_h, P_c, ledger); P_h, P_c and ledger carry no meaning
    where ``degenerate`` is set or a stroke end is nan.  Zero coupling
    takes the frozen symmetric mixture and is never degenerate.

    * the populations are frozen while the splitting moves between
      omega_h and omega_c, so each adiabatic work is the gap times the
      excited population left by the preceding contact: expansion work
      W_ad1 after the hot stroke, compression work W_ad2 after the cold
      one, both nonnegative;
    * E_I = -C(t_end) at the end of each contact, as
      ``interaction_energy``;
    * W_I = W_ad1 - W_ad2 ignores the detachment cost, and
      W_II = W_I + E_I_h + E_I_c includes the cost of detaching against
      the end-of-stroke interaction energies;
    * dE_S = omega (P - r(P)) over a contact that starts at ground
      population P and ends at r(P), and dE_B = -dE_S - E_I.
    """
    # failed and degenerate points carry nan or inf here
    with np.errstate(invalid="ignore", over="ignore"):
        p0, degenerate, p_h, p_c = fixed_point(hot.r0, hot.r1, cold.r0, cold.r1)
        if engine.lam == 0.0:
            degenerate, p_h, p_c = np.zeros_like(degenerate), _FROZEN_P, _FROZEN_P
        r_h, r_c = _mixed(p_h, hot.r0, hot.r1), _mixed(p_c, cold.r0, cold.r1)
        gap = engine.omega_h - engine.omega_c
        w_ad1, w_ad2 = gap * (1.0 - r_h), gap * (1.0 - r_c)
        e_i_h = -_mixed(p_h, hot.corr_0, hot.corr_1)
        e_i_c = -_mixed(p_c, cold.corr_0, cold.corr_1)
        w_1 = w_ad1 - w_ad2
        des_h, des_c = engine.omega_h * (p_h - r_h), engine.omega_c * (p_c - r_c)
        ledger = EnergyLedger(
            W_ad1=w_ad1, W_ad2=w_ad2, W_I=w_1, W_II=w_1 + e_i_h + e_i_c,
            E_I_h=e_i_h, E_I_c=e_i_c, dES_h=des_h, dES_c=des_c,
            dEB_h=-des_h - e_i_h, dEB_c=-des_c - e_i_c,
            eta_O=engine.eta_otto, eta_C=engine.eta_carnot)
    return p0, degenerate, p_h, p_c, ledger


def evaluate_cycle(
    engine: EngineParams, backend: str = "tcl2", h: float | None = None
) -> CycleEvaluation:
    """Solve both strokes, find the limit cycle, and close the books.

    Raises ``PositivityViolation`` or ``DegenerateCycle`` from the
    underlying layers.
    """
    hot = stroke_dynamics(engine, "hot", backend, h)
    cold = stroke_dynamics(engine, "cold", backend, h)
    p0, degenerate, p_h, p_c, ledger = _close_cycle(engine, hot.ends, cold.ends)
    if degenerate:
        raise DegenerateCycle(
            f"cycle map is (nearly) the identity, |p0| = {abs(p0):.17g}", p0=p0
        )
    ledger = EnergyLedger(*(float(v) for v in vars(ledger).values()))
    return CycleEvaluation(engine=engine, P_h=float(p_h), P_c=float(p_c), p0=p0,
                           ledger=ledger, hot=hot, cold=cold)


def _side_ends(backend: str, reservoir: ReservoirSpec, omegas, values, h):
    """Stroke ends of one side for every omega: (r0, r1, corr_0, corr_1)
    stacked on the leading axis of a (4, len(omegas), len(values))
    array.  Markov ends come from one closed-form call per omega, TCL2
    ends from one ``tcl2.family_ends`` call.  A stroke that violates
    positivity has nan ends, and only such a stroke does."""
    if backend == "tcl2":
        return tcl2.family_ends(reservoir, omegas, values, h)
    ends = np.zeros((4, len(omegas), len(values)))
    for i, omega in enumerate(omegas):
        ends[0, i], ends[1, i], _, _ = markov.branch_pair(reservoir, omega, values)
    return ends


def evaluate_grid(engine: EngineParams, t1_values, t2_values, backend: str = "tcl2",
                  h: float | None = None, omega_pairs=None):
    """Cycle ledger over a (t1, t2) grid, one block per omega pair.

    The hot strokes (one per t1) and the cold strokes (one per t2) are
    solved once per side for every omega pair (see ``_side_ends``).
    The limit cycle and ledger of every grid point then follow from the
    stroke ends by broadcasting, bit for bit as ``evaluate_cycle`` point
    by point.  ``omega_pairs`` lists (omega_h, omega_c) splittings, None
    meaning the engine's own.  Returns one (engine, ledger, errors) per
    pair: engine carries the pair's splittings, ledger an
    ``EnergyLedger`` whose every field is an array of shape
    (len(t1_values), len(t2_values)), nan at failed points, and errors
    the failure labels ("" where the point succeeded).
    """
    if backend not in ("tcl2", "markov"):
        raise ValueError(f"unknown dynamics backend {backend!r}")
    if h is not None and not h > 0:
        raise ValueError("grid step must be positive")
    pairs = omega_pairs or ((engine.omega_h, engine.omega_c),)
    engines = [replace(engine, omega_h=hi, omega_c=lo) for hi, lo in pairs]
    for pick in (np.min, np.max):  # nan propagates: every duration is validated
        replace(engine, t1=float(pick(t1_values)), t2=float(pick(t2_values)))
    hot_ends = _side_ends(backend, engine.hot_reservoir,
                          [e.omega_h for e in engines], t1_values, h)
    cold_ends = _side_ends(backend, engine.cold_reservoir,
                           [e.omega_c for e in engines], t2_values, h)

    blocks = []
    for k, eng in enumerate(engines):
        # hot ends down a column, cold ends along a row: they broadcast
        hot = StrokeEnds._make(hot_ends[:, k, :, None])
        cold = StrokeEnds._make(cold_ends[:, k, None, :])
        _, degenerate, _, _, ledger = _close_cycle(eng, hot, cold)
        errors = np.full(degenerate.shape, "", dtype=object)
        errors[degenerate] = DegenerateCycle.__name__
        errors[np.isnan(hot.r0) | np.isnan(cold.r0)] = PositivityViolation.__name__
        failed_points = errors != ""
        ledger = EnergyLedger(*(np.where(failed_points, np.nan, v)
                                for v in vars(ledger).values()))
        blocks.append((eng, ledger, errors))
    return blocks
