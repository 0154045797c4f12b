"""Energy bookkeeping on the limit cycle.

Per stroke, three balances are tracked as functions of the contact
time: the system energy change dE_S, the reservoir energy change dE_B
obtained from the first cumulant of the two-point-measurement
statistics of the reservoir energy, and the interaction energy E_I
fixed by conservation

    dE_S(t) + dE_B(t) + E_I(t) = 0.

``_balance`` forms all three, at the stroke ends for the ledger and on
whole profiles for ``stroke_balance``.

For the time-convolutionless backend the counting-field result reduces
to dE_B = -dE_S + C(t) with the correction integral

    C(t) = Int_0^t [ (2 rho00(s) - 1) D1(s) sin(omega s)
                     + D2(s) cos(omega s) ] ds,

so E_I(t) = -C(t); an exact few-mode reference run (see ``oracle``)
confirms this sign, E_I < 0 at the documented operating point.  In the
Markovian limit the correction vanishes identically and E_I = 0: both
net-work definitions then coincide.

Between strokes the state is projectively measured, so all quantities
are affine in the ground probability P before each contact.  A backend
returns a stroke as its contact map P -> r1 + exp(A) P, r1 the final
ground population from |1><1| and A the decay exponent, with a, b and
both pure starts' C and dC/dt; this module alone derives from them
every population, balance, flow and work.  A contact moves the
population by r1 + P expm1(A), no difference of near-equal numbers, so
the balances keep their digits at weak coupling.  The fixed point of
the composed hot and cold maps is the limit cycle; it and the whole
``EnergyLedger`` follow from the stroke end values in one function,
``_close_cycle``, which both evaluators call: ``evaluate_cycle`` for
one engine and ``evaluate_grid`` over a (pair, t1, t2) grid at once,
bit for bit alike.  ``BACKENDS`` picks the module, ``tcl2`` or
``markov``, that returns a stroke's ``StrokeDynamics`` or many strokes'
``StrokeEnds``.  ``energy_flow`` assembles theta = d(dE_B)/dt from the
analytic integrands, never by numerical differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import markov, tcl2
from .engine import EngineParams
from .errors import DegenerateCycle, PositivityViolation
from .tcl2 import StrokeDynamics, StrokeEnds

__all__ = [
    "BACKENDS",
    "StrokeDynamics",
    "StrokeEnds",
    "StrokeBalance",
    "EnergyLedger",
    "CycleEvaluation",
    "stroke_balance",
    "energy_flow",
    "effective_temperature_profile",
    "evaluate_cycle",
    "evaluate_grid",
]

TEMPERATURE_DEGENERACY_TOL = 1e-12

def _mixed(p, branch_0, branch_1):
    """P-mixture of the two pure-start branches, elementwise."""
    return p * branch_0 + (1.0 - p) * branch_1


# each backend answers ``evolve_branch_pair`` and ``family_ends``
BACKENDS = {"tcl2": tcl2, "markov": markov}


def _solver(backend: str):
    if backend not in BACKENDS:
        raise ValueError(f"unknown dynamics backend {backend!r}")
    return BACKENDS[backend]


class StrokeBalance(NamedTuple):
    """A contact started at ground population p, elementwise: its ground
    population rho00, the system energy change dES = omega (p - rho00),
    the interaction energy E_I = -C (zero at t = 0 and under Markov) and
    the first counting-statistics cumulant dEB = -dES - E_I."""

    rho00: np.ndarray
    dES: np.ndarray
    E_I: np.ndarray
    dEB: np.ndarray


def _balance(p, omega, ends: StrokeEnds) -> StrokeBalance:
    """``StrokeBalance`` from the contact map and both branches' C values."""
    moved = ends.r1 + p * np.expm1(ends.cum_a)  # rho00 - p, formed without cancellation
    d_es = -omega * moved
    e_i = -_mixed(p, ends.corr_0, ends.corr_1)
    return StrokeBalance(rho00=p + moved, dES=d_es, E_I=e_i, dEB=-d_es - e_i)


def stroke_balance(p: float, stroke: StrokeDynamics) -> StrokeBalance:
    """``StrokeBalance`` profiles on the stroke grid: the first sample
    of each balance is exactly 0, the last the ledger's value bit for bit."""
    return _balance(p, stroke.omega, stroke.ends_at(slice(None)))


def energy_flow(p: float, stroke: StrokeDynamics):
    """Energy flow theta(t) = d(dE_B)/dt = omega (a rho00 - b) + dC/dt
    on the stroke grid, from d rho00/dt = a rho00 - b.

    Positive when energy is flowing into the reservoir; a negative
    stretch is energy backflow (only the non-Markovian backend shows
    one).  Returns (times, theta).
    """
    rho00 = stroke_balance(p, stroke).rho00
    theta = (stroke.omega * (stroke.a_vals * rho00 - stroke.b_vals)
             + _mixed(p, stroke.dcorr_0, stroke.dcorr_1))
    return stroke.times, theta


def effective_temperature_profile(rho00: np.ndarray, omega: float) -> np.ndarray:
    """T_eff = omega / ln(rho00 / rho11) along a population profile,
    rho11 = 1 - rho00.

    Positive for a normal population distribution, negative when
    inverted, +inf where the populations are degenerate to 1e-12, and
    nan where one lies below 0 (within the positivity tolerance).
    """
    rho11 = 1.0 - rho00
    with np.errstate(divide="ignore", invalid="ignore"):
        out = omega / np.log(rho00 / rho11)
    return np.where(np.abs(rho00 - rho11) < TEMPERATURE_DEGENERACY_TOL, np.inf, out)


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Per-cycle energy balance at the limit cycle, formed by ``_close_cycle``:
    floats for one engine, (pair, t1, t2) arrays over a grid.  The
    efficiencies are the engine's own, ``eta_otto`` and ``eta_carnot``."""

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


@dataclass(frozen=True, eq=False)
class CycleEvaluation:
    """Limit cycle plus ledger plus the two solved strokes.

    P_h / P_c are the ground-state probabilities just before the hot /
    cold contact, p0 the per-cycle contraction factor.
    """

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


def _close_cycle(lam: float, omega_h, omega_c, hot: StrokeEnds, cold: StrokeEnds):
    """Limit cycle and its ``EnergyLedger`` from the stroke ends, elementwise.

    Splittings and ends are floats or arrays that broadcast together,
    such as (pair, t1, t2) arrays: splittings per pair, hot ends down
    axis 1, cold ends along axis 2; every ledger field broadcasts alike.
    Returns (1 - p0, degenerate, P_h, P_c, ledger); P_h, P_c and every
    ledger field are nan where ``degenerate`` is set or a stroke end is
    nan.  Zero coupling (lam = 0) takes the frozen symmetric mixture:
    never degenerate.

    * the cycle contracts by p0 = exp(A_h + A_c), and 1 - p0, read as
      -expm1(A_h + A_c), keeps its digits at weak coupling; a map that
      does not contract (1 - p0 <= 0, or nan where a stroke end is nan)
      is degenerate: no unique fixed point;
    * the populations are frozen while the splitting moves between
      omega_h and omega_c, so each adiabatic work is the gap times the
      excited population left by the preceding contact: expansion work
      W_ad1 after the hot stroke, compression work W_ad2 after the cold
      one, both nonnegative;
    * each contact's dE_S, E_I and dE_B are ``_balance`` at its end;
    * W_I = W_ad1 - W_ad2 = dE_S,h + dE_S,c (the first law, which keeps
      its digits at weak coupling) ignores the detachment cost, and
      W_II = W_I + E_I_h + E_I_c includes the cost of detaching against
      the end-of-stroke interaction energies.
    """
    # failed points carry nan here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        one_minus_p0 = -np.expm1(hot.cum_a + cold.cum_a)
        degenerate = ~(one_minus_p0 > 0.0)
        divisor = np.where(degenerate, np.nan, one_minus_p0)  # no unique fixed point
        # P_h = r1_c + exp(A_c) (r1_h + exp(A_h) P_h), and P_c the mirror image
        p_h = (cold.r1 + np.exp(cold.cum_a) * hot.r1) / divisor
        p_c = (hot.r1 + np.exp(hot.cum_a) * cold.r1) / divisor
        if lam == 0.0:
            degenerate = np.zeros_like(degenerate)
            p_h, p_c = np.full_like(p_h, _FROZEN_P), np.full_like(p_c, _FROZEN_P)
        bal_h = _balance(p_h, omega_h, hot)
        bal_c = _balance(p_c, omega_c, cold)
        gap = omega_h - omega_c
        w_ad1, w_ad2 = gap * (1.0 - bal_h.rho00), gap * (1.0 - bal_c.rho00)
        w_1 = bal_h.dES + bal_c.dES
        ledger = EnergyLedger(
            W_ad1=w_ad1, W_ad2=w_ad2, W_I=w_1, W_II=w_1 + bal_h.E_I + bal_c.E_I,
            E_I_h=bal_h.E_I, E_I_c=bal_c.E_I, dES_h=bal_h.dES, dES_c=bal_c.dES,
            dEB_h=bal_h.dEB, dEB_c=bal_c.dEB)
    return one_minus_p0, degenerate, p_h, p_c, ledger


def evaluate_cycle(
    engine: EngineParams, backend: str = "tcl2", h: float | None = None
) -> CycleEvaluation:
    """Solve both strokes, find the limit cycle, and close the books.

    Raises ``PositivityViolation`` or ``DegenerateCycle`` from the
    underlying layers, and ``ValueError`` for an engine of many omega pairs.
    """
    if np.ndim(engine.omega_h):
        raise ValueError("evaluate_cycle takes one omega pair; evaluate_grid takes many")
    solver = _solver(backend)
    hot = solver.evolve_branch_pair(engine.hot_reservoir, engine.omega_h, engine.t1, h)
    cold = solver.evolve_branch_pair(engine.cold_reservoir, engine.omega_c, engine.t2, h)
    one_minus_p0, degenerate, p_h, p_c, ledger = _close_cycle(
        engine.lam, engine.omega_h, engine.omega_c, hot.ends, cold.ends)
    if degenerate:
        raise DegenerateCycle(f"cycle map does not contract, 1 - p0 = {one_minus_p0:.17g}",
                              one_minus_p0=float(one_minus_p0))
    ledger = EnergyLedger(*(float(v) for v in vars(ledger).values()))
    return CycleEvaluation(P_h=float(p_h), P_c=float(p_c), p0=float(1.0 - one_minus_p0),
                           ledger=ledger, hot=hot, cold=cold)


def evaluate_grid(engine: EngineParams, t1_values, t2_values, backend: str = "tcl2",
                  h: float | None = None):
    """Cycle ledger over a (pair, t1, t2) grid, axis 0 the omega pairs: the
    engine's splittings, a float, or an array with one element per pair.

    Each side's strokes are solved once for all pairs by ``family_ends``,
    and every point's limit cycle and ledger follow from the stroke ends in
    one broadcast, bit for bit as ``evaluate_cycle`` point by point.  Returns
    (ledger, errors): ``_close_cycle``'s ``EnergyLedger`` of (pair, t1, t2)
    arrays, nan where a point failed, and the failure labels ("" where none).
    ``tcl2.lattice`` refuses a step or duration with ``ValueError``, as for a point.
    """
    solver = _solver(backend)
    omega_h, omega_c = np.atleast_1d(engine.omega_h, engine.omega_c)
    hot_ends = solver.family_ends(engine.hot_reservoir, omega_h, t1_values, h)
    cold_ends = solver.family_ends(engine.cold_reservoir, omega_c, t2_values, h)
    # pairs down axis 0, hot ends down axis 1, cold ends along axis 2
    hot = StrokeEnds._make(end[:, :, None] for end in hot_ends)
    cold = StrokeEnds._make(end[:, None, :] for end in cold_ends)
    _, degenerate, _, _, ledger = _close_cycle(
        engine.lam, *np.reshape([omega_h, omega_c], (2, -1, 1, 1)), hot, cold)
    errors = np.full(degenerate.shape, "", dtype=object)
    errors[degenerate] = DegenerateCycle.__name__
    errors[np.isnan(hot.r1) | np.isnan(cold.r1)] = PositivityViolation.__name__
    return ledger, errors
