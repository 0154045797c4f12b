"""Second-order time-convolutionless dynamics of the diagonal.

For a two-level system with splitting ``omega`` coupled through sigma_x
to one Ohmic reservoir, the ground population obeys the time-local
equation

    d rho00 / dt = a(t) rho00(t) - b(t)

with time-dependent coefficients built from the bath kernels,

    a(t) = -2 Int_0^t D1(s) cos(omega s) ds,
    b(t) = a(t) / 2 - Int_0^t D2(s) sin(omega s) ds,

and the exact solution

    rho00(t) = e^{A(t)} ( rho00(0) - Int_0^t b(s) e^{-A(s)} ds ),
    A(t) = Int_0^t a(s) ds.

Everything is evaluated on a uniform grid with cumulative composite
Simpson rules, so a full stroke costs O(N) after O(N) kernel
evaluations.  The excited population is 1 - rho00 by construction.

Populations leaving [0, 1] beyond ``POSITIVITY_TOL`` raise
``PositivityViolation``: that is the regime where the second-order map
is no longer a valid quantum channel, and clamping would silently
corrupt the energy bookkeeping downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityViolation
from .kernels import ReservoirSpec, d1, d2

__all__ = [
    "POSITIVITY_TOL",
    "BranchPair",
    "default_step",
    "time_grid",
    "cumulative_simpson",
    "evolve_branch_pair",
]

POSITIVITY_TOL = 1e-9


def default_step(t_end: float) -> float:
    """Default grid step: resolves the kernel decay and the level
    oscillation with plenty of margin (>= 2000 points per stroke)."""
    return min(0.01, t_end / 2000.0)


def time_grid(t_end: float, h: float | None = None) -> np.ndarray:
    """Uniform grid on [0, t_end]; the step is shrunk (never grown) so
    that it divides t_end exactly."""
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if h is None:
        h = default_step(t_end)
    if not h > 0:
        raise ValueError("grid step must be positive")
    n = max(2, int(np.ceil(t_end / h - 1e-12)))
    return np.linspace(0.0, t_end, n + 1)


@dataclass(frozen=True, eq=False)
class BranchPair:
    """Both pure-start branches of one stroke on their shared grid.

    rho00_0 / rho00_1 start from ground population 1 / 0.  cum_a is
    the running integral A(t) of the decay coefficient; the kernel
    samples d1_vals, d2_vals and the level phases sin_wt, cos_wt the
    coefficients were built from are kept because the energy
    bookkeeping reuses them.
    """

    times: np.ndarray
    rho00_0: np.ndarray
    rho00_1: np.ndarray
    cum_a: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    d1_vals: np.ndarray
    d2_vals: np.ndarray
    sin_wt: np.ndarray
    cos_wt: np.ndarray


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of y on a uniform grid of step dx (len(y) >= 3),
    starting from 0 at the first sample.

    Subinterval k is integrated over the parabola through samples k to
    k + 2 for even k, and through k - 1 to k + 1 for odd k and for the
    last one.  Keep the operation order: the tests hold the result bit
    for bit to their reference quadrature.
    """
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    ahead = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    back = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = back[::2]
    pieces[-1] = back[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _check_positivity(rho00: np.ndarray, times: np.ndarray):
    finite = np.isfinite(rho00)
    if not finite.all():
        k = int(np.argmin(finite))
        raise PositivityViolation(
            f"second-order propagator diverged at t = {times[k]:g}; "
            "the time-local generator is outside its regime of validity",
            worst=float("nan"),
        )
    lo, hi = float(rho00.min()), float(rho00.max())
    if lo < -POSITIVITY_TOL or hi > 1.0 + POSITIVITY_TOL:
        worst = lo if -lo > hi - 1.0 else hi
        k = int(np.argmin(rho00) if -lo > hi - 1.0 else np.argmax(rho00))
        raise PositivityViolation(
            f"population left [0, 1] (worst {worst:.6g} at t = {times[k]:g}); "
            "second-order dynamics is not positive for these parameters",
            worst=worst,
        )


def evolve_branch_pair(
    reservoir: ReservoirSpec, omega: float, t_end: float, h: float | None = None
):
    """Both pure-state branches of one stroke in a single pass.

    Returns one ``BranchPair``: the branches from |0> and |1>, i.e.
    initial ground population 1 and 0, and the shared coefficient
    samples.  Sharing the coefficient integrals is what makes a full
    cycle evaluation cheap; the solution is affine in the initial
    condition so no generality is lost.
    """
    times = time_grid(t_end, h)
    dx = times[1] - times[0]
    d1_vals, d2_vals = d1(times, reservoir), d2(times, reservoir)
    sin_wt, cos_wt = np.sin(omega * times), np.cos(omega * times)
    a = -2.0 * cumulative_simpson(d1_vals * cos_wt, dx)
    b = 0.5 * a - cumulative_simpson(d2_vals * sin_wt, dx)
    cum_a = cumulative_simpson(a, dx)
    # rho00(t) = decay(t) * (rho00(0) - inner(t))
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(cum_a)
        inner = cumulative_simpson(b * np.exp(-cum_a), dx)
    rho_from0 = decay * (1.0 - inner)
    rho_from1 = decay * (0.0 - inner)
    _check_positivity(rho_from0, times)
    _check_positivity(rho_from1, times)
    return BranchPair(times=times, rho00_0=rho_from0, rho00_1=rho_from1, cum_a=cum_a,
                      a_vals=a, b_vals=b, d1_vals=d1_vals, d2_vals=d2_vals,
                      sin_wt=sin_wt, cos_wt=cos_wt)
