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

Everything is evaluated on the lattice 0, h, 2h, ... with cumulative
composite Simpson rules, so a full stroke costs O(N) after O(N) kernel
evaluations.  A stroke of duration t runs to its last lattice point
m h <= t and closes the remaining partial step t - m h with one
three-point step (see ``lattice``).  The excited population is
1 - rho00 by construction.  The counting-field correction integral C(t)
of the energy bookkeeping (see ``energetics``) is accumulated in the
same pass.

``evolve_branch_pair`` returns one stroke's ``StrokeDynamics`` and
``family_ends`` the ends of many: durations on one lattice are read
off one solve of the longest, bit for bit as their own solves.

Populations leaving [0, 1] beyond ``POSITIVITY_TOL`` raise
``PositivityViolation``: that is the regime where the second-order map
is no longer a valid quantum channel, and clamping would silently
corrupt the energy bookkeeping downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PositivityViolation
from .kernels import ReservoirSpec, d1, d2

__all__ = [
    "POSITIVITY_TOL",
    "StrokeEnds",
    "StrokeDynamics",
    "default_step",
    "lattice",
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


# an end this close to a lattice point, relative to the duration, ends on it
_LATTICE_TOL = 1e-12


def lattice(t_end: float, h: float | None = None):
    """The grid rule of a stroke of duration t_end at step h.

    Returns ``(h, m, delta)``: the stroke runs m whole steps of h and
    then a partial step delta = t_end - m h, 0 <= delta < h.  An end
    within ``_LATTICE_TOL * t_end`` of a lattice point ends on it
    (delta = 0, and the last grid point is t_end itself).  A stroke
    shorter than two steps runs two steps of t_end / 2.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if h is None:
        h = default_step(t_end)
    if not h > 0:
        raise ValueError("grid step must be positive")
    tol = _LATTICE_TOL * t_end
    m = round(t_end / h)
    delta = t_end - m * h
    if delta < -tol:
        m -= 1
        delta = t_end - m * h
    if abs(delta) <= tol:
        delta = 0.0
    if m < 2:
        return t_end / 2, 2, 0.0
    return h, m, delta


def time_grid(t_end: float, h: float | None = None) -> np.ndarray:
    """The grid of a stroke of duration t_end: the lattice points
    0, h, ..., m h of ``lattice(t_end, h)``, then t_end.  Where h
    divides t_end (delta = 0) t_end replaces m h, so the grid is
    ``np.linspace(0, t_end, m + 1)`` when t_end / m == h, as at every
    default step below t_end = 20."""
    h, m, delta = lattice(t_end, h)
    times = np.arange(m + 1) * h
    if delta:
        return np.append(times, t_end)
    times[-1] = t_end
    return times


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
    """Both pure-start branches of one stroke on their shared grid.

    The _0 / _1 branches start from ground population 1 / 0 and obey
    d rho00/dt = a rho00 - b; cum_a is A(t) = Int a, so rho00_0 -
    rho00_1 = exp(A).  corr is the correction integral C(t) (zero under
    Markov) and flow the reservoir energy flow omega (a rho00 - b) + dC/dt.
    """

    omega: float
    times: np.ndarray
    rho00_0: np.ndarray
    rho00_1: np.ndarray
    cum_a: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    corr_0: np.ndarray
    corr_1: np.ndarray
    flow_0: np.ndarray
    flow_1: np.ndarray

    def rho00_mixed(self, p: float) -> np.ndarray:
        """rho00 of the stroke started from ground population p."""
        return p * self.rho00_0 + (1.0 - p) * self.rho00_1

    @property
    def ends(self) -> StrokeEnds:
        return StrokeEnds(r0=float(self.rho00_0[-1]), r1=float(self.rho00_1[-1]),
                          corr_0=float(self.corr_0[-1]), corr_1=float(self.corr_1[-1]))


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
    n = len(y)
    c = (n - 1) // 2  # pairs of subintervals before the last one of an even n
    f1, f2, f3 = y[0:2 * c:2], y[1:2 * c:2], y[2::2]
    pieces = np.empty(n - 1)
    pieces[0:2 * c:2] = _back_piece(f3, f2, f1, dx)
    pieces[1:2 * c:2] = _back_piece(f1, f2, f3, dx)
    if n % 2 == 0:
        pieces[-1] = _back_piece(y[-3], y[-2], y[-1], dx)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    return out


def _closing_weights(h, delta):
    """Weights on the samples at x - h, x and x + delta of the integral
    over [x, x + delta] of the parabola through them.  At delta = h they
    are ``_back_piece``'s."""
    hd = h + delta
    return (-delta * delta * delta / (6.0 * h * hd),
            delta * delta / (6.0 * h) + delta / 2.0,
            (delta * delta / 3.0 + h * delta / 2.0) / hd)


def _integrator(n, h, steps, deltas):
    """Running integrals of the strokes on one lattice of n samples.

    The stroke with step count k and partial step delta owns the
    lattice samples before k, its own sample at k and, where delta > 0,
    its end sample at k h + delta.  Its sample at k is the lattice's,
    except for odd k inside the lattice: its own solve closes its last
    whole step over the parabola through k - 2 .. k, where the lattice
    used k - 1 .. k + 1, so that sample is appended after the lattice.
    The end samples follow, each closed from its stroke's samples at
    k - 1 and k by ``_closing_weights``.  Every nested integral is
    closed in the same pass.

    Returns ``(integrate, odd, at_k, at_end)``: ``integrate(y)`` is the
    running integral of samples ``y`` in that layout, ``odd`` the step
    counts with an appended sample, and ``at_k`` / ``at_end`` where each
    stroke's sample at k and its end sit in the layout.
    """
    steps, deltas = np.asarray(steps), np.asarray(deltas)
    closing = (steps % 2 == 1) & (steps < n - 1)
    odd = steps[closing]
    partial = deltas > 0
    at_k = steps.copy()
    at_k[closing] = n + np.arange(len(odd))
    at_end = at_k.copy()
    at_end[partial] = n + len(odd) + np.arange(np.count_nonzero(partial))
    k_part, at_k_part = steps[partial], at_k[partial]
    w0, w1, w2 = _closing_weights(h, deltas[partial])

    def integrate(y):
        cum = cumulative_simpson(y[:n], h)
        if len(odd):
            closed = cum[odd - 1] + _back_piece(y[odd - 2], y[odd - 1],
                                                y[n:n + len(odd)], h)
            cum = np.concatenate((cum, closed))
        if len(k_part):
            ends = cum[at_k_part] + (w0 * y[k_part - 1] + w1 * y[at_k_part]
                                     + w2 * y[len(cum):])
            cum = np.concatenate((cum, ends))
        return cum

    return integrate, odd, at_k, at_end


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


def _solve(times, d1_vals, d2_vals, omega, integrate):
    """The stroke solution from kernel samples; never raises.

    ``integrate(y)`` returns the running integral of samples ``y`` taken
    at ``times``; every other operation is elementwise.  Past a
    positivity failure the values may overflow to inf or nan.  Returns
    (rho00_0, rho00_1, corr_0, corr_1, cum_a, a, b, dcorr_0, dcorr_1):
    the ends read the first four, ``dcorr`` is the integrand dC/dt.
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
    return rho_from0, rho_from1, corr0, corr1, cum_a, a, b, dcorr0, dcorr1


def evolve_branch_pair(
    reservoir: ReservoirSpec, omega: float, t_end: float, h: float | None = None
) -> StrokeDynamics:
    """Both pure-state branches of one stroke in a single pass.

    Returns one ``StrokeDynamics``: the branches from |0> and |1>, i.e.
    initial ground population 1 and 0, the shared coefficient samples
    and each branch's energy flow.  Sharing the coefficient integrals is
    what makes a full cycle evaluation cheap; the solution is affine in
    the initial condition so no generality is lost.
    """
    h, m, delta = lattice(t_end, h)
    times = time_grid(t_end, h)
    integrate = _integrator(m + 1, h, [m], [delta])[0]
    rho0, rho1, corr0, corr1, cum_a, a, b, dcorr0, dcorr1 = _solve(
        times, d1(times, reservoir), d2(times, reservoir), omega, integrate)
    _check_positivity(rho0, times)
    _check_positivity(rho1, times)
    # theta = -d(dE_S)/dt + dC/dt, with d rho00/dt = a rho00 - b
    return StrokeDynamics(
        omega=omega, times=times, rho00_0=rho0, rho00_1=rho1, cum_a=cum_a,
        a_vals=a, b_vals=b, corr_0=corr0, corr_1=corr1,
        flow_0=omega * (a * rho0 - b) + dcorr0, flow_1=omega * (a * rho1 - b) + dcorr1)


def _stroke_groups(durations, h: float | None):
    """Durations split into solve groups.

    Returns [(times, ends, columns)]: one solve on the lattice ``times``
    yields the strokes ending at ``ends``, at ``columns`` of
    ``durations``.  Durations at one step (every t >= 20 at the default
    step, every duration under a user ``h``) share that step's lattice,
    of which each one's own ``time_grid`` is a prefix followed by at
    most its end.  An end that rounds onto a lattice point without
    equalling it keeps its own grid.
    """
    groups = {}
    for j, t in enumerate(durations):
        t = float(t)
        step, m, delta = lattice(t, h)
        key = (step,) if delta or m * step == t else (step, t)
        steps, ends, columns = groups.setdefault(key, ([], [], []))
        steps.append(m)
        ends.append(t)
        columns.append(j)
    return [(time_grid(max(ends), h)[:max(steps) + 1], np.array(ends), columns)
            for steps, ends, columns in groups.values()]


def family_ends(reservoir: ReservoirSpec, omegas, durations, h: float | None = None):
    """End values of the strokes of the given durations, for every omega.

    Returns an array of shape (4, len(omegas), len(durations)): the end
    ground populations r0, r1 and correction integrals corr_0, corr_1
    of both branches, nan where the stroke left [0, 1].  Each column
    equals ``evolve_branch_pair(reservoir, omega, t, h)`` bit for bit:
    a solve group (see ``_stroke_groups``) is read off one solve per
    omega through the same ``_integrator``, and the samples a stroke
    does not share with the lattice (an odd-step closing, an end past
    the lattice) ride along after it.  The kernels are sampled once per
    group for all omegas.  A column is the record's ``ends``.
    """
    out = np.empty((4, len(omegas), len(durations)))
    for times, ends, columns in _stroke_groups(durations, h):
        n, step = len(times), times[1] - times[0]
        steps, deltas = zip(*(lattice(t, step)[1:] for t in ends))
        integrate, odd, at_k, at_end = _integrator(n, step, steps, deltas)
        steps = np.asarray(steps)
        # the last lattice sample each stroke shares with the long solve
        shared = np.where(at_k < n, steps, steps - 1)
        sampled = np.concatenate((times, ends[at_end != at_k]))
        # the integrator's layout: the lattice, odd-step closings, ends past it
        layout = np.concatenate((np.arange(n), odd, np.arange(n, len(sampled))))
        ext_times = sampled[layout]
        d1_vals, d2_vals = d1(sampled, reservoir)[layout], d2(sampled, reservoir)[layout]
        for i, omega in enumerate(omegas):
            values = _solve(ext_times, d1_vals, d2_vals, omega, integrate)[:4]
            inside = _inside(values[0]) & _inside(values[1])
            # index of the first lattice sample that left [0, 1]
            first_out = n if inside[:n].all() else int(np.argmin(inside[:n]))
            ok = (shared < first_out) & inside[at_k] & inside[at_end]
            out[:, i, columns] = [np.where(ok, v[at_end], np.nan) for v in values]
    return out
