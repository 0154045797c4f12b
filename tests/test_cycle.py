"""Stroboscopic-map algebra: fixed point, iteration, degeneracy."""

from dataclasses import replace

import numpy as np
import pytest

from nmotto import DegenerateCycle, EngineParams, evaluate_cycle, stroke_dynamics
from nmotto.cycle import DEGENERACY_TOL, fixed_point
from nmotto.markov import branch_pair, stationary_rho00


def apply(stroke, p):
    """One contact of the stroboscopic map; ``stroke`` starts with (r0, r1)."""
    return p * stroke[0] + (1.0 - p) * stroke[1]


def contraction(stroke):
    return stroke[0] - stroke[1]


def composed(hot, cold, p):
    return apply(cold, apply(hot, p))


def closed_form(hot, cold):
    """(P_h, P_c, p0) of the limit cycle of a non-degenerate map pair."""
    p0, degenerate, p_h, p_c = fixed_point(hot[0], hot[1], cold[0], cold[1])
    assert not degenerate
    return p_h, p_c, p0


def iterate_cycle(hot, cold, p_start, n):
    """Reference iteration of the stroboscopic map, the explicit n-cycle
    orbit [(P_h_1, P_c_1), ..., (P_h_n, P_c_n)] with P_h_1 = p_start and
    P_c_k the probability after the k-th hot contact."""
    orbit = []
    ph = p_start
    for _ in range(n):
        pc = apply(hot, ph)
        orbit.append((ph, pc))
        ph = apply(cold, pc)
    return orbit


class TestLimitCycle:
    def test_identity_maps_degenerate(self, ref_engine):
        p0, degenerate, _, _ = fixed_point(1.0, 0.0, 1.0, 0.0)
        assert p0 == 1.0 and degenerate
        # a coupling too weak to move the populations within the strokes
        with pytest.raises(DegenerateCycle) as info:
            evaluate_cycle(replace(ref_engine, lam=1e-16), "markov")
        assert abs(info.value.p0) >= 1.0 - DEGENERACY_TOL

    def test_full_thermalization(self):
        # both strokes forget their start: p0 = 0 and each pre-contact
        # probability is the other reservoir's Gibbs population
        rinf_h = stationary_rho00(1.0, 5.0)
        rinf_c = stationary_rho00(0.18, 1.0)
        p_h, p_c, p0 = closed_form((rinf_h, rinf_h), (rinf_c, rinf_c))
        assert p0 == 0.0
        assert p_h == pytest.approx(rinf_c, rel=1e-15)
        assert p_c == pytest.approx(rinf_h, rel=1e-15)

    def test_fixed_point_consistency(self, ref_tcl2):
        hot, cold = ref_tcl2.hot.ends, ref_tcl2.cold.ends
        assert composed(hot, cold, ref_tcl2.P_h) == pytest.approx(ref_tcl2.P_h, abs=1e-12)
        # one-step relation ties the two probabilities together
        assert apply(hot, ref_tcl2.P_h) == pytest.approx(ref_tcl2.P_c, abs=1e-12)

    def test_random_maps_give_probabilities(self):
        rng = np.random.default_rng(33)
        # one row per draw: hot r0, r1, then cold r0, r1
        hot_r0, hot_r1, cold_r0, cold_r1 = rng.uniform(0.0, 1.0, (500, 4)).T
        _, degenerate, p_h, p_c = fixed_point(hot_r0, hot_r1, cold_r0, cold_r1)
        for p in (p_h[~degenerate], p_c[~degenerate]):
            assert np.all((0.0 <= p) & (p <= 1.0))

    def test_backend_independence_of_algebra(self, ref_engine, ref_tcl2, ref_markov):
        # identical relations hold for maps from either backend
        for ev in (ref_tcl2, ref_markov):
            hot, cold = ev.hot.ends, ev.cold.ends
            p_h, p_c, p0 = closed_form(hot, cold)
            assert (p_h, p_c, p0) == (ev.P_h, ev.P_c, ev.p0)
            assert composed(hot, cold, p_h) == pytest.approx(p_h, abs=1e-12)
            assert p0 == pytest.approx(contraction(hot) * contraction(cold))

    def test_weak_coupling_residual(self, ref_engine):
        # p0 = 1 - O(lambda): the slowest contraction the closed form
        # still has to pin down to a fixed point
        for backend in ("tcl2", "markov"):
            ev = evaluate_cycle(replace(ref_engine, lam=1e-6), backend)
            assert abs(composed(ev.hot.ends, ev.cold.ends, ev.P_h) - ev.P_h) <= 1e-12


class TestIterateCycle:
    def test_fixed_point_is_fixed(self, ref_tcl2):
        orbit = iterate_cycle(ref_tcl2.hot.ends, ref_tcl2.cold.ends, ref_tcl2.P_h, 1)
        assert orbit[0][0] == pytest.approx(ref_tcl2.P_h, abs=1e-14)
        assert orbit[0][1] == pytest.approx(ref_tcl2.P_c, abs=1e-14)

    @pytest.mark.parametrize("maps", [
        ((0.9, 0.2), (0.7, 0.4)),
        ((0.55, 0.45), (0.8, 0.1)),
    ])
    def test_iteration_oracle_matches_closed_form(self, maps):
        hot, cold = maps
        p_h, _, _ = closed_form(hot, cold)
        for start in (0.0, 1.0):
            orbit = iterate_cycle(hot, cold, start, 200)
            assert orbit[-1][0] == pytest.approx(p_h, abs=1e-10)

    def test_contraction_bound(self, ref_tcl2):
        orbit = iterate_cycle(ref_tcl2.hot.ends, ref_tcl2.cold.ends, 0.0, 20)
        for k, (ph, _) in enumerate(orbit):
            assert abs(ph - ref_tcl2.P_h) <= abs(ref_tcl2.p0) ** k + 1e-15

    def test_two_orbits_approach_geometrically(self):
        hot, cold = (0.9, 0.2), (0.7, 0.4)
        p0 = contraction(hot) * contraction(cold)
        lo = iterate_cycle(hot, cold, 0.0, 12)  # gaps underflow beyond ~25 cycles
        hi = iterate_cycle(hot, cold, 1.0, 12)
        gaps = np.array([h[0] - l[0] for h, l in zip(hi, lo)])
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, p0, rtol=1e-10)


class TestStrokeMap:
    def test_zero_coupling_is_identity(self):
        eng = EngineParams(1.0, 0.18, 5.0, 1.0, 0.0, 0.4, 5.0, 60.0)
        ends = stroke_dynamics(eng, "hot", backend="tcl2").ends
        assert ends.r0 == 1.0 and ends.r1 == 0.0
        # no unique limit cycle: the closure takes the frozen mixture
        for backend in ("tcl2", "markov"):
            ev = evaluate_cycle(eng, backend)
            assert ev.P_h == ev.P_c == 0.5

    def test_markov_long_contact_forgets_start(self, ref_engine):
        r0, r1 = branch_pair(ref_engine.hot_reservoir, 1.0, 1e5)[:2]
        rinf = stationary_rho00(1.0, 5.0)
        assert r0 == pytest.approx(rinf, abs=1e-12)
        assert r1 == pytest.approx(rinf, abs=1e-12)

    def test_short_contact_near_identity(self, ref_engine):
        eng = replace(ref_engine, t1=1e-3)
        ends = stroke_dynamics(eng, "hot", backend="tcl2").ends
        assert ends.r0 > 0.999 and ends.r1 < 1e-3

    def test_bad_selector(self, ref_engine):
        with pytest.raises(ValueError):
            stroke_dynamics(ref_engine, "tepid")
        with pytest.raises(ValueError):
            stroke_dynamics(ref_engine, "hot", backend="exact")
