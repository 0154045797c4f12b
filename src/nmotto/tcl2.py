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
The counting-field correction integral C(t) of the energy bookkeeping
(see ``energetics``) is accumulated in the same pass.

A stroke on a grid that is a prefix of a longer stroke's grid is read
off the longer solve (``family_ends``), bit for bit as its own solve.

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
    "family_ends",
]

POSITIVITY_TOL = 1e-9


def default_step(t_end: float) -> float:
    """Default grid step: at most 0.01, and >= 2000 points per stroke.

    At weak coupling this resolves the kernel decay and the level
    oscillation with margin: halving it moves the stroke ends by about
    1e-11 at the paper's operating point.  At strong coupling and high
    temperature it does not: at T = 30, lam = 0.2 halving it moves the
    rho00 ends by up to 1e-5 and the C(t) ends by up to 1e-3, so pass a
    smaller ``h`` there when that matters.
    """
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
    the running integral A(t) of the decay coefficient a_vals.
    corr_0 / corr_1 are each branch's running correction integral C(t)
    and dcorr_0 / dcorr_1 its integrand dC/dt.
    """

    times: np.ndarray
    rho00_0: np.ndarray
    rho00_1: np.ndarray
    cum_a: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    corr_0: np.ndarray
    corr_1: np.ndarray
    dcorr_0: np.ndarray
    dcorr_1: np.ndarray


def _back_piece(f1, f2, f3, dx):
    """Integral over [x2, x3] of the parabola through (x1, f1), (x2, f2),
    (x3, f3) on a uniform grid of step dx; with the samples reversed,
    the integral over [x1, x2]."""
    return dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of y on a uniform grid of step dx (len(y) >= 3),
    starting from 0 at the first sample.

    Subinterval k is integrated over the parabola through samples k to
    k + 2 for even k, and through k - 1 to k + 1 for odd k and for the
    last one.  Keep the operation order: the tests hold the result bit
    for bit to their reference quadrature.
    """
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    ahead = _back_piece(f3, f2, f1, dx)
    back = _back_piece(f1, f2, f3, dx)
    pieces = np.empty(len(y) - 1)
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = back[::2]
    pieces[-1] = back[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _inside(rho00: np.ndarray) -> np.ndarray:
    """Where a population is finite and within [0, 1] up to POSITIVITY_TOL."""
    return (rho00 >= -POSITIVITY_TOL) & (rho00 <= 1.0 + POSITIVITY_TOL)


def _check_positivity(rho00: np.ndarray, times: np.ndarray):
    if _inside(rho00).all():
        return
    finite = np.isfinite(rho00)
    if not finite.all():
        k = int(np.argmin(finite))
        raise PositivityViolation(
            f"second-order propagator diverged at t = {times[k]:g}; "
            "the time-local generator is outside its regime of validity",
            worst=float("nan"),
        )
    lo, hi = float(rho00.min()), float(rho00.max())
    worst = lo if -lo > hi - 1.0 else hi
    k = int(np.argmin(rho00) if -lo > hi - 1.0 else np.argmax(rho00))
    raise PositivityViolation(
        f"population left [0, 1] (worst {worst:.6g} at t = {times[k]:g}); "
        "second-order dynamics is not positive for these parameters",
        worst=worst,
    )


def _solve(times, d1_vals, d2_vals, omega, integrate) -> BranchPair:
    """The stroke solution from kernel samples; never raises.

    ``integrate(y)`` returns the running integral of samples ``y`` taken
    at ``times``; every other operation is elementwise.  Past a
    positivity failure the values may overflow to inf or nan.
    """
    sin_wt, cos_wt = np.sin(omega * times), np.cos(omega * times)
    with np.errstate(over="ignore", invalid="ignore"):
        a = -2.0 * integrate(d1_vals * cos_wt)
        b = 0.5 * a - integrate(d2_vals * sin_wt)
        cum_a = integrate(a)
        # rho00(t) = decay(t) * (rho00(0) - inner(t))
        decay = np.exp(cum_a)
        inner = integrate(b * np.exp(-cum_a))
        rho_from0 = decay * (1.0 - inner)
        rho_from1 = decay * (0.0 - inner)
        # dC/dt, the integrand of the correction integral C(t)
        dcorr0 = (2.0 * rho_from0 - 1.0) * d1_vals * sin_wt + d2_vals * cos_wt
        dcorr1 = (2.0 * rho_from1 - 1.0) * d1_vals * sin_wt + d2_vals * cos_wt
        corr0, corr1 = integrate(dcorr0), integrate(dcorr1)
    return BranchPair(times=times, rho00_0=rho_from0, rho00_1=rho_from1, cum_a=cum_a,
                      a_vals=a, b_vals=b, corr_0=corr0, corr_1=corr1,
                      dcorr_0=dcorr0, dcorr_1=dcorr1)


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
    pair = _solve(times, d1(times, reservoir), d2(times, reservoir), omega,
                  lambda y: cumulative_simpson(y, dx))
    _check_positivity(pair.rho00_0, times)
    _check_positivity(pair.rho00_1, times)
    return pair


def family_ends(reservoir: ReservoirSpec, omegas, times: np.ndarray, steps):
    """End values of every stroke on a prefix ``times[:k + 1]``, k in
    ``steps``, one solve per omega over the whole of ``times``.

    Equal bit for bit to ``evolve_branch_pair`` on each prefix grid.
    For even k, and for the whole grid, its end is the prefix value.
    For odd k inside the grid the prefix solve closes its last
    subinterval over the parabola through k - 2 .. k, where the long
    solve used k - 1 .. k + 1; those closed values ride along as extra
    samples appended after the grid, so every nested integral is closed
    in the same pass.  The kernels are sampled once for all omegas.

    Returns ``(r0, r1, corr_0, corr_1, ok)``, arrays of shape
    (len(omegas), len(steps)): the end ground populations and
    correction integrals of both branches, and whether the stroke
    stayed positive.  Ends carry no meaning where ``ok`` is False.
    """
    steps = np.asarray(steps)
    n = len(times)
    dx = times[1] - times[0]
    closing = (steps % 2 == 1) & (steps < n - 1)
    odd = steps[closing]
    # where each stroke's end sits in the extended sample arrays
    at = steps.copy()
    at[closing] = n + np.arange(len(odd))
    # the last sample each stroke shares with the long solve
    shared = np.where(closing, steps - 1, steps)
    before, before2 = odd - 1, odd - 2

    def integrate(y):
        if not len(odd):
            return cumulative_simpson(y, dx)
        head = y[:n]
        cum = cumulative_simpson(head, dx)
        closed = cum[before] + _back_piece(head[before2], head[before], y[n:], dx)
        return np.concatenate((cum, closed))

    def extend(samples):
        return np.concatenate((samples, samples[odd])) if len(odd) else samples

    ext_times = extend(times)
    d1_vals, d2_vals = extend(d1(times, reservoir)), extend(d2(times, reservoir))
    ends = np.empty((4, len(omegas), len(steps)))
    ok = np.empty((len(omegas), len(steps)), dtype=bool)
    for i, omega in enumerate(omegas):
        pair = _solve(ext_times, d1_vals, d2_vals, omega, integrate)
        inside = _inside(pair.rho00_0) & _inside(pair.rho00_1)
        # index of the first grid sample that left [0, 1]
        first_out = n if inside[:n].all() else int(np.argmin(inside[:n]))
        ends[:, i] = [v[at] for v in (pair.rho00_0, pair.rho00_1, pair.corr_0, pair.corr_1)]
        ok[i] = (shared < first_out) & inside[at]
    return (*ends, ok)
