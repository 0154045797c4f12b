"""Bath correlation kernels for an Ohmic spectral density.

The system-bath coupling weight is J(w) = lam * w * exp(-w / cutoff)
with dimensionless coupling ``lam`` and cutoff frequency ``cutoff``.
Units are k_B = hbar = 1 throughout the package.

The noise and dissipation kernels

    D1(tau) = 2 * Int_0^inf J(w) coth(w / 2T) cos(w tau) dw
    D2(tau) = 2 * Int_0^inf J(w) sin(w tau) dw

are evaluated in closed form; D1 requires the trigamma function at a
complex argument, implemented here by upward recurrence plus the
asymptotic Bernoulli series (no external special-function dependency,
and it vectorizes over numpy arrays).  The defining frequency integrals
are used only in the test suite, as an independent quadrature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SCALE", "check_range", "ReservoirSpec", "ohmic_j", "trigamma", "d1", "d2"]

# Every input lies in [1 / SCALE, SCALE] (a coupling or a time may also be
# 0).  No expression multiplies more than about ten inputs, and ten factors
# of 2**+-100 stay normal floats, so no closed form overflows or underflows.
SCALE = 2.0**100


def check_range(name: str, value, low: float = 1 / SCALE, high: float = SCALE):
    """Raise ``ValueError`` naming ``name`` unless ``value``, or each of its
    elements, lies in [low, high]; nan never does."""
    values = np.asarray(value, dtype=float)
    outside = values[~((low <= values) & (values <= high))]
    if outside.size:
        raise ValueError(f"{name} must lie in [{low!r}, {high!r}], "
                         f"got {float(outside[0])!r}")


@dataclass(frozen=True)
class ReservoirSpec:
    """One bosonic reservoir: temperature, coupling and spectral cutoff.

    ``lam`` may be zero, which makes every kernel vanish.  Each value lies
    in [1 / SCALE, SCALE], ``lam`` in [0, SCALE].
    """

    temperature: float
    lam: float
    cutoff: float

    def __post_init__(self):
        check_range("temperature", self.temperature)
        check_range("lam", self.lam, low=0.0)
        check_range("cutoff", self.cutoff)


def ohmic_j(omega, spec: ReservoirSpec):
    """Ohmic spectral density J(w) = lam * w * exp(-w / cutoff), w >= 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("spectral density is defined for omega >= 0")
    out = spec.lam * omega * np.exp(-omega / spec.cutoff)
    return out if out.ndim else float(out)


# Bernoulli numbers B_2 .. B_12; the asymptotic trigamma series is
# truncated after B_12, giving < 1e-14 relative error once Re z >= 10.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)
_ASYMPTOTIC_EDGE = 10.0


def trigamma(z):
    """Trigamma function psi'(z) for complex argument.

    Upward recurrence psi'(z) = psi'(z + 1) + 1/z^2 shifts every element
    until the least Re z >= 10, then the asymptotic series

        psi'(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k + 1)

    is summed through k = 6.  Accurate to at least 12 significant
    digits for Re z > 0, |Im z| < 1e4.  A real part outside
    [1 / SCALE**2, SCALE**2] (the poles and nan among them) raises
    ``ValueError``; ``d1`` passes T / cutoff >= 1 / SCALE**2.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zz = np.atleast_1d(z).copy()

    # from Re z <= 0 the recurrence would take about |Re z| steps, and far
    # below 1 / SCALE**2 its z**2 underflows to 0
    check_range("trigamma's real part", zz.real, low=SCALE**-2, high=SCALE**2)

    shifted = np.zeros_like(zz)
    while zz.size and zz.real.min() < _ASYMPTOTIC_EDGE:
        shifted += 1.0 / zz**2
        zz += 1.0

    u = 1.0 / zz
    u2 = u * u
    tail = np.zeros_like(zz)
    for b in reversed(_BERNOULLI):
        tail = tail * u2 + b
    result = shifted + u + 0.5 * u2 + u2 * u * tail
    return complex(result[0]) if scalar else result.reshape(z.shape)


def d1(tau, spec: ReservoirSpec):
    """Noise kernel D1(tau) in closed form.

    D1(tau) = 2 lam ( cutoff^2 ((cutoff tau)^2 - 1) / (1 + (cutoff tau)^2)^2
                      + 2 T^2 Re psi'[T (1 + i cutoff tau) / cutoff] ).

    Grows with T^2, which is what eventually breaks positivity of the
    second-order dynamical map at high temperature.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("kernel argument tau must be nonnegative")
    x = spec.cutoff * tau
    x2 = x * x
    zeta = (spec.temperature / spec.cutoff) * (1.0 + 1j * x)
    alg = spec.cutoff**2 * (x2 - 1.0) / (1.0 + x2) ** 2
    thermal = 2.0 * spec.temperature**2 * np.real(trigamma(zeta))
    out = 2.0 * spec.lam * (alg + thermal)
    return out if out.ndim else float(out)


def d2(tau, spec: ReservoirSpec):
    """Dissipation kernel D2(tau) = 4 lam tau cutoff^3 / (1 + (cutoff tau)^2)^2.

    Temperature independent; odd in tau, nonnegative for tau >= 0 with a
    single interior maximum.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("kernel argument tau must be nonnegative")
    x2 = (spec.cutoff * tau) ** 2
    out = 4.0 * spec.lam * spec.cutoff**3 * tau / (1.0 + x2) ** 2
    return out if out.ndim else float(out)
