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
evaluations.  A stroke runs to its last lattice point m h and closes
the remaining partial step to its end, which ``lattice`` sets, with
one three-point step.  The excited population is 1 - rho00 by
construction.  The counting-field correction integral C(t) of the
energy bookkeeping (see ``energetics``) is accumulated in the same
pass.

``evolve_branch_pair`` returns one stroke's ``StrokeDynamics`` and
``family_ends`` the ends of many: durations on one lattice are read
off one solve of the longest, bit for bit as their own solves.  Each
solve, shared or not, runs from one plan of ``_solve_plans``: its
sample times, running integral and positivity mask, ``kept``, the one
judge of whether a stroke stayed inside [0, 1].

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
from .kernels import ReservoirSpec, check_range, d1, d2

__all__ = [
    "POSITIVITY_TOL",
    "MAX_STEPS",
    "StrokeEnds",
    "StrokeDynamics",
    "lattice",
    "time_grid",
    "cumulative_simpson",
    "evolve_branch_pair",
    "family_ends",
]

POSITIVITY_TOL = 1e-9

# Steps per stroke that ``lattice`` allows.  At this bound a TCL2 sweep,
# which keeps stroke ends only, peaks at about 175 MB resident, and
# ``nmotto dynamics``, which keeps and prints every sample, at about 515 MB.
MAX_STEPS = 10**6


# an end this close to a lattice point, relative to the duration, ends on it
_LATTICE_TOL = 1e-12


def lattice(t_end, h: float | None = None):
    """The grid rule of the strokes of durations t_end at step h, and the
    one judge of where each stroke ends.

    ``t_end`` is a duration or a sequence of them.  Returns arrays ``(h,
    m, end)`` like ``t_end``: a stroke runs m whole steps of h, then
    closes a partial step end - m h, 0 <= end - m h < h, on its end
    sample.  The end is t_end, except that an end within ``_LATTICE_TOL
    * t_end`` of a lattice point m h ends on it (end = m h, no partial
    step), even where m h misses t_end by an ulp.  A stroke shorter than
    two steps runs two steps of t_end / 2 and ends on t_end.  Raises
    ``ValueError`` for a t_end or a given h outside [1 / SCALE, SCALE]
    (``kernels.SCALE``), naming the first such duration, and then for
    the first stroke of more than ``MAX_STEPS`` steps.

    The default step, min(0.01, t_end / 2000), resolves the kernel decay
    and the level oscillation at weak coupling: halving it moves the
    stroke ends by about 1e-11 at the paper's operating point.  At
    T = 30, lam = 0.2 it moves the rho00 ends by up to 1e-5 and the C(t)
    ends by up to 1e-3, so pass a smaller ``h`` there when that matters.
    It misses the kernel peak, 1 / cutoff wide, at cutoff >~ 50: at cutoff
    56.23, T = 0.01, omega = 0.01 a 60-long stroke ends at A = +254 lam, not
    -34.9 lam, so pass ``h`` <= 0.02 / cutoff there.
    """
    t_end = np.asarray(t_end, dtype=float)
    check_range("stroke duration", t_end)
    if h is not None:
        check_range("grid step", h)
    h = np.minimum(0.01, t_end / 2000.0) if h is None else np.full_like(t_end, h)
    too_long = np.flatnonzero(~(t_end / h <= MAX_STEPS))
    if too_long.size:
        t, step = t_end.flat[too_long[0]], h.flat[too_long[0]]
        raise ValueError(f"a stroke of duration {t:g} at step {step:g} "
                         f"needs more than {MAX_STEPS} steps")
    tol = _LATTICE_TOL * t_end
    m = np.rint(t_end / h)
    m -= t_end - m * h < -tol
    on_lattice = np.abs(t_end - m * h) <= tol
    short = m < 2
    h, m = np.where(short, t_end / 2, h), np.where(short, 2, m).astype(int)
    return h, m, np.where(on_lattice, m * h, t_end)


def time_grid(t_end: float, h: float | None = None) -> np.ndarray:
    """The samples of the solve of one stroke of duration t_end (see
    ``_plan``): the lattice points 0, h, ..., m h of ``lattice(t_end,
    h)``, then its end where that lies past m h."""
    return _solve_plans([t_end], h)[0][1]


class StrokeEnds(NamedTuple):
    """A stroke's contact map at its end, all the cycle ledger reads.

    A contact started at ground population P ends at r1 + exp(cum_a) P:
    r1 is the final ground population from |1> and cum_a = A(t_end) the
    decay exponent.  corr_0 / corr_1 are the final correction integrals
    C(t_end) from |0> and |1>.  Floats for one stroke, or arrays: over a
    stroke's samples (``StrokeDynamics.ends_at``), over omegas and
    durations (``family_ends``), or broadcast over a grid of strokes.
    """

    r1: float
    cum_a: float
    corr_0: float
    corr_1: float


@dataclass(frozen=True, eq=False)
class StrokeDynamics:
    """One stroke's contact map and coefficients on the stroke grid.

    A start at ground population P evolves to rho00_1 + exp(cum_a) P:
    rho00_1 is the branch from |1> (ground population 0) and cum_a is
    A(t) = Int a, both obeying d rho00/dt = a rho00 - b.  corr_0 /
    corr_1 are the correction integrals C(t) from |0> and |1>, and
    dcorr_0 / dcorr_1 their integrands dC/dt (all zero under Markov).
    ``energetics`` derives every population, balance and flow from them.
    """

    omega: float
    times: np.ndarray
    rho00_1: np.ndarray
    cum_a: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    corr_0: np.ndarray
    corr_1: np.ndarray
    dcorr_0: np.ndarray
    dcorr_1: np.ndarray

    def ends_at(self, samples) -> StrokeEnds:
        """The contact map of the stroke cut short at ``samples``, an index
        or an index array into ``times``."""
        return StrokeEnds(r1=self.rho00_1[samples], cum_a=self.cum_a[samples],
                          corr_0=self.corr_0[samples], corr_1=self.corr_1[samples])

    @property
    def ends(self) -> StrokeEnds:
        return StrokeEnds._make(map(float, self.ends_at(-1)))


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
    ends = y[0:2 * c + 1:2]  # each sample's terms formed once, as _back_piece forms them
    five, quarter, two = 5 * ends / 4, ends / 4, 2 * y[1:2 * c:2]
    pieces = np.empty(n - 1)
    for k, near, far in ((0, five[:-1], quarter[1:]), (1, five[1:], quarter[:-1])):
        np.subtract(np.add(near, two, out=pieces[k:2 * c:2]), far, out=pieces[k:2 * c:2])
    pieces[:2 * c] *= dx / 3
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


def _violation(times, rho0, rho1) -> PositivityViolation:
    """The violation naming the sample farthest outside [0, 1] over both
    branches; a non-finite value counts as farthest, and a tie goes to
    the earliest sample."""
    rho = np.stack((rho0, rho1), axis=1)  # row k holds both branches at times[k]
    excess = np.where(np.isfinite(rho), np.maximum(-rho, rho - 1.0), np.inf)
    k = int(np.argmax(excess))
    worst = float(rho.flat[k])
    return PositivityViolation(
        f"population left [0, 1] (worst {worst:.6g} at t = {times[k // 2]:g}); "
        "second-order dynamics is not positive for these parameters",
        worst=worst,
    )


def _solve(times, d1_vals, d2_vals, omega, integrate):
    """The stroke solution from kernel samples; never raises.

    ``integrate(y)`` returns the running integral of samples ``y`` taken
    at ``times``; every other operation is elementwise.  Past a
    positivity failure the values may overflow to inf or nan.  Returns
    ``(rho0, stroke)``: the branch from |0>, which ``kept`` judges beside
    ``stroke.rho00_1``, and the stroke's ``StrokeDynamics``.
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
    return rho_from0, StrokeDynamics(
        omega=omega, times=times, rho00_1=rho_from1, cum_a=cum_a, a_vals=a, b_vals=b,
        corr_0=corr0, corr_1=corr1, dcorr_0=dcorr0, dcorr_1=dcorr1)


def evolve_branch_pair(
    reservoir: ReservoirSpec, omega: float, t_end: float, h: float | None = None
) -> StrokeDynamics:
    """Both pure-state branches of one stroke in a single pass.

    Returns one ``StrokeDynamics``: the contact map read off the
    branches from |0> and |1>, i.e. initial ground population 1 and 0,
    the shared coefficient samples and each branch's C and dC/dt.
    Sharing the coefficient integrals is what makes a full cycle
    evaluation cheap; the solution is affine in the initial condition
    so no generality is lost.
    """
    [(_, times, integrate, kept, _)] = _solve_plans([t_end], h)
    check_range("omega", omega)
    rho0, stroke = _solve(times, d1(times, reservoir), d2(times, reservoir), omega,
                          integrate)
    if not kept(rho0, stroke.rho00_1)[0]:
        raise _violation(times, rho0, stroke.rho00_1)
    return stroke


def _solve_plans(durations, h: float | None):
    """The solves that yield the strokes of the given durations.

    Durations at one step of ``lattice`` (every t >= 20 at the default
    step, every duration under a user ``h``) share one solve on that
    step's lattice, of which each one's own ``time_grid`` is a prefix
    followed by at most its end.  Returns one ``(columns, times,
    integrate, kept, at_end)`` per solve (see ``_plan``) for the strokes
    at ``columns`` of ``durations``.
    """
    steps, counts, ends = lattice(durations, h)
    return [_plan(step, columns, ends[columns], counts[columns])
            for step in dict.fromkeys(steps.tolist())
            for columns in [np.flatnonzero(steps == step)]]


def _plan(h, columns, ends, steps):
    """The sample layout of one solve at step h of the strokes ending at
    ``ends`` (see ``lattice``) after ``steps`` whole steps.

    The stroke with step count k owns the lattice samples before k, its
    own sample at k and, where its end lies past k h, its end sample.
    Its sample at k is the lattice's, except for odd k inside the
    lattice: its own solve closes its last whole step over the parabola
    through k - 2 .. k, where the lattice used k - 1 .. k + 1, so that
    sample is appended after the lattice.  The end samples follow, each
    closed from its stroke's samples at k - 1 and k by
    ``_closing_weights``.  Every nested integral is closed in the same
    pass.

    Returns ``(columns, times, integrate, kept, at_end)``: ``times``
    are the samples in that layout, ``integrate(y)`` the running
    integral of samples ``y`` at ``times``, ``kept(rho0, rho1)`` which
    strokes kept both branches, sampled at ``times``, inside [0, 1], and
    ``at_end`` where each stroke's end sits in the layout.
    """
    deltas = ends - steps * h
    n = int(steps.max()) + 1
    partial = deltas > 0
    closing = (steps % 2 == 1) & (steps < n - 1)
    odd = steps[closing]
    lattice_times = np.arange(n) * h
    times = np.concatenate((lattice_times, lattice_times[odd], ends[partial]))
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
            closed = cum[at_k_part] + (w0 * y[k_part - 1] + w1 * y[at_k_part]
                                       + w2 * y[len(cum):])
            cum = np.concatenate((cum, closed))
        return cum

    def kept(rho0, rho1):
        # where both branches are finite and within [0, 1] up to POSITIVITY_TOL
        inside = ((rho0 >= -POSITIVITY_TOL) & (rho0 <= 1.0 + POSITIVITY_TOL)
                  & (rho1 >= -POSITIVITY_TOL) & (rho1 <= 1.0 + POSITIVITY_TOL))
        # every lattice sample before k, the sample at k and the end
        return (np.logical_and.accumulate(inside[:n])[steps - 1]
                & inside[at_k] & inside[at_end])

    return columns, times, integrate, kept, at_end


def family_ends(reservoir: ReservoirSpec, omegas, durations, h: float | None = None):
    """End values of the strokes of the given durations, for each omega of
    ``omegas``, an array with one element per pair.

    Returns ``StrokeEnds`` whose fields are arrays of shape
    (len(omegas), len(durations)), nan where either branch left [0, 1].
    Element (i, j) equals ``evolve_branch_pair(reservoir, omegas[i],
    durations[j], h).ends`` bit for bit: each solve of ``_solve_plans``
    runs once per omega, and the samples a stroke does not share with
    the lattice (an odd-step closing, an end past the lattice) ride
    along after it.  The kernels are sampled once per solve for all omegas.
    """
    plans = _solve_plans(durations, h)  # the durations first, as under markov
    check_range("omega", omegas)
    out = StrokeEnds._make(np.empty((4, len(omegas), len(durations))))
    for columns, times, integrate, kept, at_end in plans:
        d1_vals, d2_vals = d1(times, reservoir), d2(times, reservoir)
        for i, omega in enumerate(omegas):
            rho0, stroke = _solve(times, d1_vals, d2_vals, omega, integrate)
            ok = kept(rho0, stroke.rho00_1)
            for field, end in zip(out, stroke.ends_at(at_end)):
                field[i, columns] = np.where(ok, end, np.nan)
            del rho0, stroke  # its profiles, before the next omega's solve
    return out
