"""Born-Markov closed forms and the positive-work criterion."""

import numpy as np
import pytest

from nmotto import (
    EngineParams,
    ReservoirSpec,
    bose_n,
    evaluate_cycle,
    positive_work_condition,
    relaxation_rate,
    stationary_rho00,
)
from nmotto.kernels import SCALE
from nmotto.markov import branch_pair, evolve_branch_pair, family_ends

COLD = ReservoirSpec(temperature=1.0, lam=0.01, cutoff=0.4)


def markov_rho00(p, reservoir, omega, t):
    """Ground population at time(s) t of the stroke started from p."""
    rho0, rho1 = branch_pair(reservoir, omega, t)
    return p * rho0 + (1.0 - p) * rho1


class TestBose:
    def test_log2_point(self):
        # omega = T ln 2 gives exp(omega/T) - 1 = 1
        assert bose_n(np.log(2.0) * 3.0, 3.0) == pytest.approx(1.0, rel=1e-14)

    def test_large_gap_limit(self):
        assert bose_n(100.0, 1.0) < 1e-40
        assert bose_n(1.0, 1e-3) == 0.0  # exp(1000) overflows to n = 0, silently

    def test_reference_value(self):
        assert bose_n(0.18, 1.0) == pytest.approx(5.0705474617990705, rel=1e-13)
        assert bose_n(0.18, 1.0) == pytest.approx(5.0705, abs=1e-4)

    def test_domain(self):
        for omega, temp, name in ((0.0, 1.0, "omega"), (-1.0, 1.0, "omega"),
                                  (float("nan"), 1.0, "omega"), (float("inf"), 1.0, "omega"),
                                  (1.0, 0.0, "temperature")):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \["):
                bose_n(omega, temp)


class TestRelaxation:
    def test_identity_at_zero_time(self):
        assert markov_rho00(0.37, COLD, 0.18, 0.0) == pytest.approx(0.37, rel=1e-15)

    def test_stationary_value(self):
        assert markov_rho00(0.0, COLD, 0.18, 1e6) == pytest.approx(0.54487889237358,
                                                                    rel=1e-12)
        assert stationary_rho00(0.18, 1.0) == pytest.approx(0.5449, abs=1e-4)

    def test_ground_state_saturation(self):
        # omega / T >> 1: the stationary state is the ground state
        assert stationary_rho00(50.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(21)
        t = np.linspace(0.0, 200.0, 400)
        for _ in range(25):
            omega = rng.uniform(0.1, 3.0)
            temp = rng.uniform(0.2, 10.0)
            r0 = rng.uniform(0.0, 1.0)
            res = ReservoirSpec(temperature=temp, lam=0.01, cutoff=0.4)
            rho = markov_rho00(r0, res, omega, t)
            d = np.diff(rho)
            assert np.all(d >= -1e-15) or np.all(d <= 1e-15)
            rinf = stationary_rho00(omega, temp)
            lo, hi = min(r0, rinf), max(r0, rinf)
            assert np.all(rho >= lo - 1e-12) and np.all(rho <= hi + 1e-12)

    def test_rate_positive(self):
        assert relaxation_rate(1.0, COLD) > 0.0

    def test_negative_time_rejected(self):
        # unjudged, inf would give the stationary population and nan a nan pair
        for bad in (-1.0, float("nan"), float("inf"), 2.0**101):
            with pytest.raises(ValueError) as err:
                branch_pair(COLD, 0.18, [0.0, bad])
            assert str(err.value) == f"t must lie in [0.0, {SCALE!r}], got {bad!r}"


def bits(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestSplittingArrays:
    # 800 / T = 800 > 709.8: exp overflows there, so n = 0 and J = 0
    OMEGAS = (0.05, 0.18, 1.0, 2.5, 800.0)

    def test_column_matches_scalar_calls_bit_for_bit(self):
        column, t = np.array(self.OMEGAS)[:, None], np.array([0.0, 0.3, 5.0, 60.0])
        for call in (lambda w: bose_n(w, COLD.temperature),
                     lambda w: stationary_rho00(w, COLD.temperature),
                     lambda w: relaxation_rate(w, COLD)):
            assert bits(call(column)) == bits([call(w) for w in self.OMEGAS])
        for got, want in zip(branch_pair(COLD, column, t),
                             zip(*(branch_pair(COLD, w, t) for w in self.OMEGAS))):
            assert got.shape == (len(self.OMEGAS), len(t))
            assert bits(got) == bits(want)
        assert bose_n(column, COLD.temperature)[-1, 0] == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 2.0**101])
    def test_column_with_one_bad_splitting_refused(self, bad):
        with pytest.raises(ValueError) as err:
            bose_n(np.array([[0.18], [bad], [1.0]]), COLD.temperature)
        assert str(err.value) == f"omega must lie in [{1 / SCALE!r}, {SCALE!r}], got {bad!r}"


class TestStrokeCalls:
    @pytest.mark.parametrize("t, h", [
        (float("nan"), None), (0.0, None), (float("inf"), None),
        (5.0, 0.0), (5.0, -1.0), (5.0, 1e-6),
    ])
    def test_family_ends_rejects_what_a_stroke_rejects(self, t, h):
        # the closed form needs no grid, but each stroke passes tcl2.lattice
        with pytest.raises(ValueError) as point:
            evolve_branch_pair(COLD, 0.18, t, h)
        with pytest.raises(ValueError) as grid:
            family_ends(COLD, [0.18], [1.0, t], h)
        assert str(grid.value) == str(point.value)


class TestPositiveWorkCondition:
    def test_reference_point_false(self, ref_engine):
        # eta_O = 0.82 > eta_C = 0.8: no positive work
        assert positive_work_condition(ref_engine) is False

    def test_true_case(self, ref_engine):
        from dataclasses import replace
        assert positive_work_condition(replace(ref_engine, omega_c=0.25)) is True

    def test_equal_splittings(self):
        good = EngineParams(1.0, 1.0, 5.0, 1.0, 0.01, 0.4, 5.0, 5.0)
        assert positive_work_condition(good) is True
        flat = EngineParams(1.0, 1.0, 2.0, 2.0, 0.01, 0.4, 5.0, 5.0)
        assert positive_work_condition(flat) is False

    def test_boundary_is_false(self):
        # omega_c/omega_h == T_c/T_h yields exactly zero work
        eng = EngineParams(1.0, 0.2, 5.0, 1.0, 0.01, 0.4, 5.0, 5.0)
        assert positive_work_condition(eng) is False

    def test_no_positive_work_when_false(self, ref_engine):
        from dataclasses import replace
        for t1 in (2.0, 10.0, 40.0):
            for t2 in (2.0, 10.0, 40.0):
                eng = replace(ref_engine, t1=t1, t2=t2)
                ledger = evaluate_cycle(eng, "markov").ledger
                assert ledger.W_I <= 0.0
