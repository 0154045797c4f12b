"""Energy bookkeeping: conservation, works, temperatures, flows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, trapezoid

from nmotto import (
    EngineParams,
    ReservoirSpec,
    bose_n,
    energetics,
    energy_flow,
    evaluate_cycle,
    evaluate_grid,
    markov,
    stroke_balance,
)
from nmotto.energetics import StrokeEnds, _close_cycle, effective_temperature_profile
from nmotto.markov import branch_pair
from nmotto.tcl2 import cumulative_simpson as simpson


def t_eff(rho00, omega):
    """Effective temperature of one population through the profile form."""
    return float(effective_temperature_profile(np.array([rho00]), omega)[0])


class TestConservation:
    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_every_grid_time_both_strokes(self, ref_engine, backend):
        ev = evaluate_cycle(ref_engine, backend)
        led = ev.ledger
        for stroke, p, ends in ((ev.hot, ev.P_h, (led.dES_h, led.E_I_h, led.dEB_h)),
                                (ev.cold, ev.P_c, (led.dES_c, led.E_I_c, led.dEB_c))):
            bal = stroke_balance(p, stroke)
            residual = bal.dES + bal.dEB + bal.E_I
            assert np.max(np.abs(residual)) < 1e-8 * stroke.omega
            # the ledger forms its balances from the stroke ends, bit for bit
            # as the profile's last sample
            assert [v.hex() for v in ends] == [
                float(bal.dES[-1]).hex(), float(bal.E_I[-1]).hex(),
                float(bal.dEB[-1]).hex()]

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_first_law_of_the_cycle_on_the_grid(self, ref_engine, backend):
        # the system returns to its start each cycle, so the work taken
        # out is what the two reservoirs lose: W_II = -(dE_B,h + dE_B,c)
        durations = np.linspace(1.0, 60.0, 60)
        swept = replace(ref_engine, omega_h=np.array([1.0, 1.0, 0.9]),
                        omega_c=np.array([0.18, 0.25, 0.2]))
        ledger, errors = evaluate_grid(swept, durations, durations, backend)
        assert np.all(errors == "")
        residual = ledger.W_II + ledger.dEB_h + ledger.dEB_c
        assert np.max(np.abs(residual)) <= 1e-14

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    @pytest.mark.parametrize("which", ["hot", "cold"])
    def test_branch_gap_is_the_decay_factor(self, ref_engine, backend, which):
        # both records carry the decay exponent A(t): the start from |0>,
        # the map at p = 1, rho00_1 + exp(A), is that branch's own
        # solution on the whole profile: e^A (1 - Int b e^-A) from the
        # record's coefficients, or the Markov closed form
        stroke = getattr(evaluate_cycle(ref_engine, backend), which)
        if backend == "tcl2":
            inner = simpson(stroke.b_vals * np.exp(-stroke.cum_a), stroke.times[1])
            want = np.exp(stroke.cum_a) * (1.0 - inner)
        else:
            reservoir = (ref_engine.hot_reservoir if which == "hot"
                         else ref_engine.cold_reservoir)
            want = branch_pair(reservoir, stroke.omega, stroke.times)[0]
        assert np.max(np.abs(stroke_balance(1.0, stroke).rho00 - want)) <= 1e-15

    def test_all_balances_zero_at_start(self, ref_tcl2):
        bal = stroke_balance(ref_tcl2.P_h, ref_tcl2.hot)
        assert bal.rho00[0] == ref_tcl2.P_h
        assert bal.dES[0] == 0.0
        assert bal.E_I[0] == 0.0
        assert bal.dEB[0] == 0.0


class TestSweptEngine:
    """An engine whose splittings are arrays, one element per omega pair."""

    def test_first_pair_out_of_order_named(self, ref_engine):
        with pytest.raises(ValueError) as exc:
            replace(ref_engine, omega_h=np.array([1.0, 0.1, 0.2, 2.0]),
                    omega_c=np.array([0.18, 0.5, 0.3, 0.5]))
        assert str(exc.value) == ("need omega_h >= omega_c > 0, "
                                  "got omega_h = 0.1, omega_c = 0.5")

    @pytest.mark.parametrize("omega_h, omega_c", [
        (np.array([1.0, 0.9]), np.array([0.18, 0.2, 0.3])),
        (np.array([1.0, 0.9]), np.array([0.18])),
        (np.array([1.0, 0.9]), 0.18),
        (1.0, np.array([0.18])),
    ], ids=["2-3", "2-1", "2-float", "float-1"])
    def test_splittings_of_two_shapes_refused(self, ref_engine, omega_h, omega_c):
        with pytest.raises(ValueError, match="omega_h and omega_c need one shape"):
            replace(ref_engine, omega_h=omega_h, omega_c=omega_c)

    def test_equal_engines_compare_equal_and_hash_alike(self, ref_engine):
        def swept(his, los):
            return replace(ref_engine, omega_h=np.array(his), omega_c=np.array(los))
        one, other = swept([1.0, 0.9], [0.18, 0.2]), swept([1.0, 0.9], [0.18, 0.2])
        assert one == other and hash(one) == hash(other)
        assert one != swept([1.0, 0.9], [0.18, 0.3]) and one != ref_engine
        assert swept([1.0], [0.18]) != ref_engine  # one pair is not the float engine
        copy = replace(ref_engine)
        assert ref_engine == copy and hash(ref_engine) == hash(copy)

    def test_engine_keeps_its_reservoirs(self, ref_engine):
        # built once by the check, read as the same object, outside the key
        for engine in (ref_engine, replace(ref_engine, omega_h=np.array([1.0, 0.9]),
                                           omega_c=np.array([0.18, 0.2]))):
            for spec, T in ((engine.hot_reservoir, engine.T_h),
                            (engine.cold_reservoir, engine.T_c)):
                assert spec == ReservoirSpec(T, engine.lam, engine.cutoff)
            assert engine.hot_reservoir is engine.hot_reservoir
            assert engine.cold_reservoir is engine.cold_reservoir
            copy = replace(engine)
            assert copy == engine and hash(copy) == hash(engine)

    def test_engine_keeps_its_own_splittings(self, ref_engine):
        his = np.array([1.0, 0.9])
        swept = replace(ref_engine, omega_h=his, omega_c=np.array([0.18, 0.2]))
        his[0] = 0.1  # the caller's array, after the ordering check passed
        assert swept.omega_h.tolist() == [1.0, 0.9]
        assert swept.eta_otto[0] == ref_engine.eta_otto
        with pytest.raises(ValueError, match="read-only"):
            swept.omega_c[0] = 2.0

    def test_grid_ledgers_compare_by_identity(self, ref_engine):
        durations = np.array([4.0, 5.0])
        one, other = (evaluate_grid(ref_engine, durations, durations, "markov")[0]
                      for _ in range(2))
        assert one == one and one != other and hash(one) != hash(other)

    def test_positivity_label_overrides_degenerate(self, ref_engine, monkeypatch):
        # hot ends at three durations against one cold end: a contracting
        # pair, a failed (nan) hot end, which the degenerate mask also
        # covers, and a pair with A_h + A_c = 0.3 that does not contract
        hot = StrokeEnds(np.array([[0.1, np.nan, 0.1]]), np.array([[-1.0, np.nan, 0.5]]),
                         np.zeros((1, 3)), np.zeros((1, 3)))
        cold = StrokeEnds(*np.array([0.2, -0.2, 0.0, 0.0]).reshape(4, 1, 1))
        sides = iter([hot, cold])
        monkeypatch.setattr(markov, "family_ends", lambda *args: next(sides))
        closings = []
        close = energetics._close_cycle

        def spy(*args):
            closings.append(close(*args))
            return closings[-1]

        monkeypatch.setattr(energetics, "_close_cycle", spy)
        ledger, errors = evaluate_grid(ref_engine, [1.0, 2.0, 3.0], [4.0], "markov")
        [(_, degenerate, p_h, p_c, _)] = closings
        assert errors[0, :, 0].tolist() == ["", "PositivityViolation", "DegenerateCycle"]
        assert degenerate[0, :, 0].tolist() == [False, True, True]
        values = np.array([p_h, p_c, *vars(ledger).values()])[:, 0, :, 0]
        assert np.isfinite(values[:, 0]).all() and np.isnan(values[:, 1:]).all()

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    @pytest.mark.parametrize("pairs", [1, 2001])
    def test_evaluate_cycle_refuses_many_pairs(self, ref_engine, backend, pairs):
        # 2001 pairs are as many as the samples of both strokes at t = 5,
        # where the splittings would broadcast against the times
        swept = replace(ref_engine, omega_h=np.linspace(1.0, 2.0, pairs),
                        omega_c=np.full(pairs, 0.18), t2=5.0)
        with pytest.raises(ValueError, match="evaluate_grid"):
            evaluate_cycle(swept, backend)


class TestWorks:
    def test_degenerate_splitting_gives_zero(self):
        eng = EngineParams(1.0, 1.0, 5.0, 1.0, 0.01, 0.4, 5.0, 5.0)
        ev = evaluate_cycle(eng, "markov")
        assert ev.ledger.W_ad1 == 0.0 and ev.ledger.W_ad2 == 0.0

    def test_full_thermalization_closed_form(self, ref_engine):
        # long Markov strokes land on the Gibbs populations, so the
        # adiabatic works reduce to the equilibrium excited populations
        eng = replace(ref_engine, t1=1000.0, t2=1000.0)
        ledger = evaluate_cycle(eng, "markov", h=1.0).ledger
        n_h = bose_n(eng.omega_h, eng.T_h)
        n_c = bose_n(eng.omega_c, eng.T_c)
        gap = eng.omega_h - eng.omega_c
        assert ledger.W_ad1 == pytest.approx(gap * n_h / (1 + 2 * n_h), abs=1e-10)
        assert ledger.W_ad2 == pytest.approx(gap * n_c / (1 + 2 * n_c), abs=1e-10)

    def test_nonnegative_adiabatic_works(self, ref_tcl2):
        assert ref_tcl2.ledger.W_ad1 >= 0.0 and ref_tcl2.ledger.W_ad2 >= 0.0

    def test_net_work_algebra(self):
        # fully thermalizing contacts leave excited populations 0.4 after
        # the hot and 0.3 after the cold one; E_I = -C(t_end) charges the
        # detachment; lam = 0.01, omega_h = 2 and omega_c = 1
        hot = StrokeEnds(r1=0.6, cum_a=-np.inf, corr_0=0.03, corr_1=0.03)
        cold = StrokeEnds(r1=0.7, cum_a=-np.inf, corr_0=0.02, corr_1=0.02)
        one_minus_p0, degenerate, p_h, p_c, ledger = _close_cycle(0.01, 2.0, 1.0, hot, cold)
        assert one_minus_p0 == 1.0 and not degenerate
        assert (p_h, p_c) == pytest.approx((0.7, 0.6))
        assert (ledger.W_ad1, ledger.W_ad2) == pytest.approx((0.4, 0.3))
        assert (ledger.E_I_h, ledger.E_I_c) == pytest.approx((-0.03, -0.02))
        # the first law forms W_I; it equals the adiabatic works' balance
        assert ledger.W_I == ledger.dES_h + ledger.dES_c
        assert abs(ledger.W_I - (ledger.W_ad1 - ledger.W_ad2)) <= 1e-15
        assert ledger.W_II == ledger.W_I + ledger.E_I_h + ledger.E_I_c
        # the system gains 2 (0.7 - 0.6) in the hot contact and loses 0.1 in the cold
        assert (ledger.dES_h, ledger.dES_c) == pytest.approx((0.2, -0.1))
        assert ledger.dEB_h == -ledger.dES_h - ledger.E_I_h
        assert ledger.dEB_c == -ledger.dES_c - ledger.E_I_c

    def test_positive_conventional_work_at_reference(self, ref_tcl2):
        # short hot contact rides the backflow: W_I > 0 even though
        # eta_O exceeds eta_C (the apparent conflict the second
        # definition removes)
        assert ref_tcl2.ledger.W_I > 0.0
        assert ref_tcl2.ledger.W_II < 0.0

    def test_markov_work_negative_at_reference(self, ref_markov):
        assert ref_markov.ledger.W_I <= 0.0
        assert ref_markov.ledger.W_II == ref_markov.ledger.W_I

    def test_w2_below_w1_for_attractive_interaction(self, ref_tcl2):
        ledger = ref_tcl2.ledger
        assert ledger.E_I_h <= 0.0 and ledger.E_I_c <= 0.0
        assert ledger.W_II <= ledger.W_I


class TestInteractionEnergy:
    def test_markov_identically_zero(self, ref_markov):
        for stroke, p in ((ref_markov.hot, ref_markov.P_h),
                          (ref_markov.cold, ref_markov.P_c)):
            assert np.max(np.abs(stroke_balance(p, stroke).E_I)) < 1e-10 * stroke.omega

    def test_negative_during_hot_contact(self, ref_tcl2):
        e_i = stroke_balance(ref_tcl2.P_h, ref_tcl2.hot).E_I
        times = ref_tcl2.hot.times
        assert np.all(e_i[times >= 1.0] < 0.0)

    def test_system_heated_by_hot_bath(self, ref_tcl2):
        # the stroke grid ends at t1
        assert stroke_balance(ref_tcl2.P_h, ref_tcl2.hot).dES[-1] > 0.0

    def test_markov_equilibrium_start_no_change(self, ref_engine):
        # starting on the stationary population, nothing moves
        from nmotto.markov import stationary_rho00
        hot = evaluate_cycle(ref_engine, "markov").hot
        p_star = stationary_rho00(ref_engine.omega_h, ref_engine.T_h)
        profile = stroke_balance(p_star, hot).dES
        # p mixes the two pure branches; at p = rho_inf the mixture sits
        # on the fixed point of the relaxation for all times
        assert np.max(np.abs(profile)) < 1e-12


class TestEnergyFlow:
    def test_markov_flow_never_negative(self, ref_markov):
        _, theta = energy_flow(ref_markov.P_h, ref_markov.hot)
        assert np.all(theta >= -1e-12)

    def test_backflow_at_reference(self, ref_tcl2):
        _, theta = energy_flow(ref_tcl2.P_h, ref_tcl2.hot)
        assert theta.min() < 0.0

    def test_zero_coupling_flow_vanishes(self):
        eng = EngineParams(1.0, 0.18, 5.0, 1.0, 0.0, 0.4, 5.0, 60.0)
        hot = evaluate_cycle(eng, "tcl2").hot
        _, theta = energy_flow(0.5, hot)
        assert np.all(theta == 0.0)

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_flow_integrates_back_to_reservoir_change(self, ref_engine, backend):
        ev = evaluate_cycle(ref_engine, backend)
        p = ev.P_h
        times, theta = energy_flow(p, ev.hot)
        integral = cumulative_simpson(theta, dx=times[1] - times[0], initial=0.0)
        d_eb = stroke_balance(p, ev.hot).dEB
        scale = max(np.max(np.abs(d_eb)), 1e-30)
        assert np.max(np.abs(integral - d_eb)) < 1e-8 * scale

    def test_backflow_accounts_for_the_rise_of_w2(self, ref_engine):
        # finding (2): at t2 = 36, TCL2's W_II rises with t1 over about
        # [2.20, 4.05], and a hot stroke of such a t1 ends in backflow,
        # theta_h < 0 at its limit-cycle P_h, for t1 in about [1.90, 3.50]
        engine = replace(ref_engine, t2=36.0)
        t1 = np.linspace(1.0, 6.0, 101)
        for backend in ("tcl2", "markov"):
            w2 = evaluate_grid(engine, t1, [36.0], backend)[0].W_II[0, :, 0]
            theta = np.array([energy_flow(ev.P_h, ev.hot)[1][-1] for ev in (
                evaluate_cycle(replace(engine, t1=t), backend) for t in t1)])
            rising = np.flatnonzero(np.diff(w2) > 0.0)
            if backend == "markov":
                assert rising.size == 0 and theta.min() > 0.0
                continue
            start, end = rising[0], rising[-1] + 1
            assert theta[start] < 0.0  # the rise starts inside the backflow window
            backflow = trapezoid(np.maximum(-theta[start:end + 1], 0.0), t1[start:end + 1])
            assert backflow >= 0.5 * (w2[end] - w2[start])  # 78 % measured


    def test_analytic_rise_of_w2_matches_central_differences(self, ref_engine):
        # dW_II/dt1 at t2 = 36 from the hot stroke's end rates, by complex
        # step through _close_cycle: d rho00_1/dt = a rho00_1 - b, dA/dt = a
        # and dC/dt = dcorr.  Measured: at most 5.0e-8 relative from central
        # differences at delta = 1e-4; at t1 = 2.5, dW_II/dt1 = 2.58e-4 and
        # theta_h = -3.73e-4, so F = dW_II/dt1 + theta_h = -1.16e-4
        engine = replace(ref_engine, t2=36.0)
        t1, step, delta = np.arange(1.5, 5.01, 0.25), 1e-30, 1e-4
        slopes, theta = [], []
        for t in t1:
            ev = evaluate_cycle(replace(engine, t1=t), "tcl2")
            hot = ev.hot
            rates = (hot.a_vals[-1] * hot.rho00_1[-1] - hot.b_vals[-1], hot.a_vals[-1],
                     hot.dcorr_0[-1], hot.dcorr_1[-1])
            probe = StrokeEnds._make(end + 1j * step * rate
                                     for end, rate in zip(map(np.complex128, hot.ends), rates))
            ledger = _close_cycle(engine.lam, engine.omega_h, engine.omega_c, probe,
                                  ev.cold.ends)[4]
            slopes.append(ledger.W_II.imag / step)
            theta.append(energy_flow(ev.P_h, hot)[1][-1])
        slopes, theta = np.array(slopes), np.array(theta)
        w2 = evaluate_grid(engine, np.ravel([t1 - delta, t1 + delta], "F"), [36.0])[0].W_II
        central = np.diff(w2[0, :, 0].reshape(-1, 2), axis=1)[:, 0] / (2 * delta)
        np.testing.assert_allclose(slopes, central, rtol=1e-6, atol=0.0)
        turns = np.flatnonzero((slopes[:-1] <= 0.0) & (slopes[1:] > 0.0))[0] + 1
        assert theta[turns] < 0.0  # W_II starts to rise inside the backflow window
        at = np.flatnonzero(t1 == 2.5)[0]
        assert slopes[at] + theta[at] == pytest.approx(-1.16e-4, rel=0.01)


class TestStepError:
    """Richardson's estimate |X_h - X_2h| / 15 of the fourth-order rule's
    step error in ``W_I`` and ``W_II``, against a finer reference."""

    @staticmethod
    def errors(engine, durations, h, refine):
        """(actual, estimated) step error at h of W_I, then of W_II."""
        fine, coarse, ref = (evaluate_grid(engine, durations, durations, "tcl2", step)[0]
                             for step in (h, 2 * h, h / refine))
        return [(np.abs(getattr(fine, name) - getattr(ref, name)),
                 np.abs(getattr(fine, name) - getattr(coarse, name)) / 15)
                for name in ("W_I", "W_II")]

    def test_estimate_bounds_the_error_where_every_end_is_on_the_lattice(self, ref_engine):
        # integer durations end on both lattices; actual / estimated measured
        # W_I median 0.999, max 1.191, W_II median 1.000, max 1.009
        for actual, estimate in self.errors(ref_engine, np.arange(1.0, 61.0), 0.01, 16):
            assert np.all(actual <= 1.25 * estimate)

    def test_estimate_bounds_the_largest_error_off_the_lattice(self, ref_engine):
        # most ends fall between lattice points; where the estimate nearly
        # vanishes a point's error can exceed it many times, but the largest
        # error stays under the largest estimate: W_I 8.96e-13 <= 1.05e-12,
        # W_II 7.40e-13 <= 8.65e-13 measured
        for actual, estimate in self.errors(ref_engine, np.linspace(1.0, 60.0, 120), 0.005,
                                            8):
            assert actual.max() <= estimate.max()


class TestEffectiveTemperature:
    def test_euler_ratio(self):
        assert t_eff(math.e / (1 + math.e), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_thermal_state_recovers_temperature(self):
        temp, omega = 2.5, 0.7
        r00 = 1.0 / (1.0 + math.exp(-omega / temp))
        assert t_eff(r00, omega) == pytest.approx(temp, rel=1e-12)

    def test_inverted_population_negative(self):
        assert t_eff(0.3, 1.0) < 0.0

    def test_degenerate_flagged_infinite(self):
        assert t_eff(0.5, 1.0) == math.inf
        assert t_eff(0.5 + 4e-13, 1.0) == math.inf

    def test_overshoot_above_hot_temperature(self, ref_tcl2):
        rho00 = stroke_balance(ref_tcl2.P_h, ref_tcl2.hot).rho00
        t_eff = effective_temperature_profile(rho00, ref_tcl2.hot.omega)
        assert t_eff.max() > 5.0
        # the overshoot grows beyond the compression value it starts at
        assert t_eff.max() > t_eff[0]
