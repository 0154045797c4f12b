"""Bath correlation kernels for an Ohmic spectral density.

The system-bath coupling weight is J(w) = lam * w * exp(-w / cutoff)
with dimensionless coupling ``lam`` and cutoff frequency ``cutoff``.
Units are k_B = hbar = 1 throughout the package.

The noise and dissipation kernels

    D1(tau) = 2 * Int_0^inf J(w) coth(w / 2T) cos(w tau) dw
    D2(tau) = 2 * Int_0^inf J(w) sin(w tau) dw

are evaluated in closed form; D1 requires psi', the derivative of the
digamma function, on the line T (1 + i cutoff tau) / cutoff, which
``d1`` sums there by upward recurrence plus the asymptotic Bernoulli
series (no external special-function dependency, and it vectorizes over
numpy arrays).  The defining frequency integrals are used only in the
test suite, as an independent quadrature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SCALE", "check_range", "ReservoirSpec", "ohmic_j", "d1", "d2"]

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
    check_range("omega", omega, low=0.0)
    out = spec.lam * omega * np.exp(-omega / spec.cutoff)
    return out if out.ndim else float(out)


# Bernoulli numbers B_2 .. B_12; the asymptotic series of psi' is
# truncated after B_12, giving < 1e-14 relative error once Re z >= 10.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)
_ASYMPTOTIC_EDGE = 10.0


def d1(tau, spec: ReservoirSpec):
    """Noise kernel D1(tau) in closed form.

    D1(tau) = 2 lam ( cutoff^2 (x^2 - 1) / (1 + x^2)^2 + 2 T^2 Re psi'(z) ),
    x = cutoff tau, on the line z = a (1 + i x), a = T / cutoff.

    The sum of psi' runs on that line alone: upward recurrence
    psi'(z) = psi'(z + 1) + 1/z^2 shifts every element together, since
    all share the real part a, until a >= 10, then the asymptotic series

        psi'(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k + 1)

    is summed through k = 6, to at least 12 significant digits.  A
    range-checked ``spec`` keeps a >= 1 / SCALE**2, so at most 10 shifts.

    Grows with T^2, which is what eventually breaks positivity of the
    second-order dynamical map at high temperature.
    """
    tau = np.asarray(tau, dtype=float)
    check_range("kernel argument tau", tau, low=0.0)
    x = spec.cutoff * tau
    x2 = x * x
    alg = spec.cutoff**2 * (x2 - 1.0) / (1.0 + x2) ** 2
    a = spec.temperature / spec.cutoff
    # an array even for a scalar tau, which then takes the array loops' bits
    z = a * (1.0 + 1j * np.atleast_1d(x))
    psi = np.zeros_like(z)
    while a < _ASYMPTOTIC_EDGE:
        psi += 1.0 / z**2
        z += 1.0
        a += 1.0
    u = 1.0 / z
    u2 = u * u
    tail = np.zeros_like(z)
    for b in reversed(_BERNOULLI):
        tail = tail * u2 + b
    psi = psi + u + 0.5 * u2 + u2 * u * tail
    thermal = 2.0 * spec.temperature**2 * psi.real.reshape(x.shape)
    out = 2.0 * spec.lam * (alg + thermal)
    return out if out.ndim else float(out)


def d2(tau, spec: ReservoirSpec):
    """Dissipation kernel D2(tau) = 4 lam tau cutoff^3 / (1 + (cutoff tau)^2)^2.

    Temperature independent; odd in tau, nonnegative for tau >= 0 with a
    single interior maximum.
    """
    tau = np.asarray(tau, dtype=float)
    check_range("kernel argument tau", tau, low=0.0)
    x2 = (spec.cutoff * tau) ** 2
    out = 4.0 * spec.lam * spec.cutoff**3 * tau / (1.0 + x2) ** 2
    return out if out.ndim else float(out)
