"""Kernel closed forms against independent quadrature and known values."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from nmotto import EngineParams, ReservoirSpec, d1, d2, ohmic_j, trigamma
from nmotto.kernels import SCALE

REF_SPEC = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=0.4)
REF_ENGINE = EngineParams(omega_h=1.0, omega_c=0.18, T_h=5.0, T_c=1.0,
                          lam=0.01, cutoff=0.4, t1=5.0, t2=60.0)


def d1_by_quadrature(tau, spec):
    """Defining integral 2 Int J(w) coth(w/2T) cos(w tau) dw.

    Independent oracle: adaptive Gauss-Kronrod with an oscillatory
    cosine weight on [0, 50 cutoff]; the integrand beyond is bounded by
    lam * w * (1 + 2T/w) * e^{-w/cutoff}, i.e. below 1e-18 here.
    """
    def base(w):
        if w < 1e-10:
            # w -> 0 limit of 2 J(w) coth(w/2T) is 4 lam T
            return 4.0 * spec.lam * spec.temperature
        return 2.0 * ohmic_j(w, spec) / np.tanh(w / (2.0 * spec.temperature))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(base, 0.0, 50.0 * spec.cutoff, weight="cos", wvar=tau,
                      limit=400)
    return val


def d2_by_quadrature(tau, spec):
    """Defining integral 2 Int J(w) sin(w tau) dw (same oracle scheme)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(lambda w: 2.0 * ohmic_j(w, spec), 0.0, 50.0 * spec.cutoff,
                      weight="sin", wvar=tau, limit=400)
    return val


class TestOhmicJ:
    def test_zero_frequency(self):
        assert ohmic_j(0.0, REF_SPEC) == 0.0

    def test_at_cutoff(self):
        # lam * cutoff * e^{-1}
        expected = 0.01 * 0.4 * np.exp(-1.0)
        assert ohmic_j(0.4, REF_SPEC) == pytest.approx(expected, rel=1e-14)
        assert ohmic_j(0.4, REF_SPEC) == pytest.approx(1.4715e-3, rel=1e-4)

    def test_zero_coupling(self):
        spec = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)
        assert np.all(ohmic_j(np.linspace(0, 10, 50), spec) == 0.0)

    def test_decays(self):
        w = np.linspace(0.0, 40.0, 200)
        j = ohmic_j(w, REF_SPEC)
        assert np.all(j >= 0.0)
        assert j[-1] < 1e-12

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            ohmic_j(-0.1, REF_SPEC)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=-1.0, lam=0.01, cutoff=0.4)
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=1.0, lam=-0.01, cutoff=0.4)
        with pytest.raises(ValueError):
            ReservoirSpec(temperature=1.0, lam=0.01, cutoff=0.0)

    def test_kernel_powers_finite(self):
        # every value lies in [1 / SCALE, SCALE], lam in [0, SCALE], where no
        # power or product the closed forms take can overflow or underflow;
        # values far outside, whose powers would overflow, are refused too
        above = SCALE * (1 + 2**-52)
        for field, inside, outside in (
                ("temperature", [SCALE, 1 / SCALE],
                 [above, 1 / SCALE / 2, 1.35e154, 1.34e154, 7.5e-155, 7.4e-155]),
                ("cutoff", [SCALE, 1 / SCALE], [above, 1 / SCALE / 2, 5.65e102, 5.64e102]),
                ("lam", [SCALE, 1 / SCALE / 2, 0.0], [above, 4.5e307, 4.4e307, -5e-324])):
            for value in inside:
                replace(REF_SPEC, **{field: value})
            for value in outside:
                with pytest.raises(ValueError, match=rf"{field} must lie in \["):
                    replace(REF_SPEC, **{field: value})


class TestFiniteParameters:
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("base, field", [
        (REF_SPEC, "temperature"), (REF_SPEC, "lam"), (REF_SPEC, "cutoff"),
        (REF_ENGINE, "lam"), (REF_ENGINE, "T_h"), (REF_ENGINE, "omega_h"),
        (REF_ENGINE, "cutoff"), (REF_ENGINE, "t1"),
    ], ids=lambda x: type(x).__name__ if hasattr(x, "lam") else x)
    def test_non_finite_rejected(self, base, field, value):
        with pytest.raises(ValueError, match=r"must lie in \["):
            replace(base, **{field: value})


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-14)
        assert trigamma(0.5) == pytest.approx(np.pi**2 / 2.0, rel=1e-14)
        assert trigamma(2.0) == pytest.approx(np.pi**2 / 6.0 - 1.0, rel=1e-12)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.05, 20.0, 200) + 1j * rng.uniform(-50.0, 50.0, 200)
        lhs = trigamma(z)
        rhs = trigamma(z + 1.0) + 1.0 / z**2
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    def test_against_mpmath(self):
        rng = np.random.default_rng(12)
        re = rng.uniform(1e-3, 50.0, 150)
        im = np.concatenate([
            rng.uniform(-1e4, 1e4, 75), rng.uniform(-5.0, 5.0, 75),
        ])
        z = re + 1j * im
        ours = trigamma(z)
        for zi, oi in zip(z, ours):
            ref = complex(mpmath.polygamma(1, mpmath.mpc(zi)))
            assert abs(oi - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("temperature", [1.0, 5.0, 30.0])
    def test_shared_real_part_shifts_as_each_element_alone(self, temperature):
        # every argument of d1 has real part T / cutoff, so shifting all
        # elements together takes each exactly as far as its own call does
        spec = ReservoirSpec(temperature=temperature, lam=0.01, cutoff=0.4)
        tau = np.linspace(0.0, 60.0, 601)
        assert np.array_equal(d1(tau, spec), [d1(t, spec) for t in tau])

    def test_poles_rejected(self):
        # and every real part that is not a finite positive number: upward
        # from -1e9 the recurrence would take about 1e9 steps, and far below
        # 1 / SCALE**2 its z**2 underflows to 0
        for bad in (0.0, -1.0, -7.0, -0.5, -1e9 - 0.5, np.nan, 1e-200, 5e-324):
            with pytest.raises(ValueError):
                trigamma(bad)
        assert np.isfinite(trigamma(SCALE**-2))  # the least T / cutoff d1 passes

    def test_scalar_and_array_shapes(self):
        assert isinstance(trigamma(1.5 + 0.5j), complex)
        out = trigamma(np.full((3, 2), 2.0 + 1.0j))
        assert out.shape == (3, 2)


class TestNoiseKernel:
    def test_value_at_zero(self):
        # frozen from the quadrature oracle at the reference reservoir
        assert d1(0.0, REF_SPEC) == pytest.approx(0.0800852246015784, rel=1e-9)
        assert d1_by_quadrature(0.0, REF_SPEC) == pytest.approx(
            d1(0.0, REF_SPEC), rel=1e-9)

    def test_zero_coupling(self):
        spec = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)
        assert np.all(d1(np.linspace(0, 20, 40), spec) == 0.0)

    def test_matches_defining_integral(self):
        taus = np.logspace(-3, 2, 40)
        closed = d1(taus, REF_SPEC)
        for tau, c in zip(taus, closed):
            q = d1_by_quadrature(tau, REF_SPEC)
            assert abs(c - q) <= 1e-6 * abs(q) + 1e-12

    def test_negative_tau_rejected(self):
        for kernel in (d1, d2):
            with pytest.raises(ValueError, match="tau must be nonnegative"):
                kernel(-1.0, REF_SPEC)


class TestDissipationKernel:
    def test_odd_at_zero(self):
        assert d2(0.0, REF_SPEC) == 0.0

    def test_peak_value(self):
        # denominator is exactly 4 at cutoff * tau = 1
        assert d2(1.0 / 0.4, REF_SPEC) == pytest.approx(0.01 * 0.4**2, rel=1e-14)

    def test_matches_defining_integral(self):
        taus = np.logspace(-3, 2, 40)
        closed = d2(taus, REF_SPEC)
        for tau, c in zip(taus, closed):
            q = d2_by_quadrature(tau, REF_SPEC)
            assert abs(c - q) <= 1e-6 * abs(q) + 1e-12

    def test_nonnegative_single_maximum(self):
        taus = np.linspace(0.0, 100.0, 4001)
        vals = d2(taus, REF_SPEC)
        assert np.all(vals >= 0.0)
        rising = np.diff(vals) > 0
        # one contiguous rising stretch then one falling stretch
        assert np.sum(np.diff(rising.astype(int)) != 0) == 1
        assert 0 < np.argmax(vals) < len(taus) - 1

    def test_temperature_independent(self):
        hot = ReservoirSpec(temperature=50.0, lam=0.01, cutoff=0.4)
        taus = np.linspace(0.0, 10.0, 20)
        assert np.array_equal(d2(taus, hot), d2(taus, REF_SPEC))
