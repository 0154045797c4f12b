"""Energy bookkeeping: conservation, works, temperatures, flows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from nmotto import (
    EngineParams,
    bose_n,
    energy_flow,
    evaluate_cycle,
    evaluate_grid,
    interaction_energy,
    reservoir_energy_change,
    stroke_dynamics,
    system_energy_change,
)
from nmotto.energetics import StrokeEnds, _close_cycle, effective_temperature_profile


def t_eff(rho00, omega):
    """Effective temperature of one population through the profile form."""
    return float(effective_temperature_profile(np.array([rho00]), omega)[0])


class TestConservation:
    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_every_grid_time_both_strokes(self, ref_engine, backend):
        ev = evaluate_cycle(ref_engine, backend)
        for stroke, p, d_es in ((ev.hot, ev.P_h, ev.ledger.dES_h),
                                (ev.cold, ev.P_c, ev.ledger.dES_c)):
            residual = (system_energy_change(p, stroke)
                        + reservoir_energy_change(p, stroke)
                        + interaction_energy(p, stroke))
            assert np.max(np.abs(residual)) < 1e-8 * stroke.omega
            # the ledger forms dE_S(t_end) from the stroke ends, bit for bit
            assert d_es == system_energy_change(p, stroke)[-1]

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_first_law_of_the_cycle_on_the_grid(self, ref_engine, backend):
        # the system returns to its start each cycle, so the work taken
        # out is what the two reservoirs lose: W_II = -(dE_B,h + dE_B,c)
        durations = np.linspace(1.0, 60.0, 60)
        blocks = evaluate_grid(ref_engine, durations, durations, backend,
                               omega_pairs=[(1.0, 0.18), (1.0, 0.25), (0.9, 0.2)])
        for _, ledger, errors in blocks:
            assert np.all(errors == "")
            residual = ledger.W_II + ledger.dEB_h + ledger.dEB_c
            assert np.max(np.abs(residual)) <= 1e-14

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    @pytest.mark.parametrize("which", ["hot", "cold"])
    def test_branch_gap_is_the_decay_factor(self, ref_engine, backend, which):
        # both records carry the decay exponent A(t): rho00_0 - rho00_1 =
        # exp(A) on the whole profile, exp(-Gamma t) under Markov
        stroke = stroke_dynamics(ref_engine, which, backend)
        gap = stroke.rho00_0 - stroke.rho00_1
        assert np.max(np.abs(gap - np.exp(stroke.cum_a))) <= 1e-15

    def test_all_balances_zero_at_start(self, ref_tcl2):
        p = ref_tcl2.P_h
        assert system_energy_change(p, ref_tcl2.hot)[0] == 0.0
        assert interaction_energy(p, ref_tcl2.hot)[0] == 0.0
        assert reservoir_energy_change(p, ref_tcl2.hot)[0] == 0.0


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
        # detachment
        eng = EngineParams(2.0, 1.0, 5.0, 1.0, 0.01, 0.4, 5.0, 5.0)
        hot = StrokeEnds(r0=0.6, r1=0.6, corr_0=0.03, corr_1=0.03)
        cold = StrokeEnds(r0=0.7, r1=0.7, corr_0=0.02, corr_1=0.02)
        p0, degenerate, p_h, p_c, ledger = _close_cycle(eng, hot, cold)
        assert p0 == 0.0 and not degenerate
        assert (p_h, p_c) == pytest.approx((0.7, 0.6))
        assert (ledger.W_ad1, ledger.W_ad2) == pytest.approx((0.4, 0.3))
        assert (ledger.E_I_h, ledger.E_I_c) == pytest.approx((-0.03, -0.02))
        assert ledger.W_I == ledger.W_ad1 - ledger.W_ad2
        assert ledger.W_II == ledger.W_I + ledger.E_I_h + ledger.E_I_c
        # the system gains 2 (0.7 - 0.6) in the hot contact and loses 0.1 in the cold
        assert (ledger.dES_h, ledger.dES_c) == pytest.approx((0.2, -0.1))
        assert ledger.dEB_h == -ledger.dES_h - ledger.E_I_h
        assert ledger.dEB_c == -ledger.dES_c - ledger.E_I_c
        assert (ledger.eta_O, ledger.eta_C) == (eng.eta_otto, eng.eta_carnot)

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

    def test_efficiency_identities(self, ref_tcl2, ref_markov):
        for ev in (ref_tcl2, ref_markov):
            assert ev.ledger.eta_O == ev.engine.eta_otto
            assert ev.ledger.eta_C == ev.engine.eta_carnot


class TestInteractionEnergy:
    def test_markov_identically_zero(self, ref_markov):
        for stroke, p in ((ref_markov.hot, ref_markov.P_h),
                          (ref_markov.cold, ref_markov.P_c)):
            assert np.max(np.abs(interaction_energy(p, stroke))) < 1e-10 * stroke.omega

    def test_negative_during_hot_contact(self, ref_tcl2):
        e_i = interaction_energy(ref_tcl2.P_h, ref_tcl2.hot)
        times = ref_tcl2.hot.times
        assert np.all(e_i[times >= 1.0] < 0.0)

    def test_system_heated_by_hot_bath(self, ref_tcl2):
        # the stroke grid ends at t1
        assert system_energy_change(ref_tcl2.P_h, ref_tcl2.hot)[-1] > 0.0

    def test_markov_equilibrium_start_no_change(self, ref_engine):
        # starting on the stationary population, nothing moves
        from nmotto.markov import stationary_rho00
        hot = stroke_dynamics(ref_engine, "hot", "markov")
        p_star = stationary_rho00(ref_engine.omega_h, ref_engine.T_h)
        profile = system_energy_change(p_star, hot)
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
        hot = stroke_dynamics(eng, "hot", "tcl2")
        _, theta = energy_flow(0.5, hot)
        assert np.all(theta == 0.0)

    @pytest.mark.parametrize("backend", ["tcl2", "markov"])
    def test_flow_integrates_back_to_reservoir_change(self, ref_engine, backend):
        ev = evaluate_cycle(ref_engine, backend)
        p = ev.P_h
        times, theta = energy_flow(p, ev.hot)
        integral = cumulative_simpson(theta, dx=times[1] - times[0], initial=0.0)
        d_eb = reservoir_energy_change(p, ev.hot)
        scale = max(np.max(np.abs(d_eb)), 1e-30)
        assert np.max(np.abs(integral - d_eb)) < 1e-8 * scale


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
        rho00 = ref_tcl2.hot.rho00_mixed(ref_tcl2.P_h)
        t_eff = effective_temperature_profile(rho00, ref_tcl2.hot.omega)
        assert t_eff.max() > 5.0
        # the overshoot grows beyond the compression value it starts at
        assert t_eff.max() > t_eff[0]
