"""Stroboscopic-map algebra: fixed point, iteration, degeneracy."""

from dataclasses import replace

import numpy as np
import pytest

from nmotto import (
    DegenerateCycle,
    EngineParams,
    StrokeMap,
    evaluate_cycle,
    iterate_cycle,
    limit_cycle,
    stroke_dynamics,
)
from nmotto.markov import branch_pair, stationary_rho00


def composed(hot, cold, p):
    return cold.apply(hot.apply(p))


class TestLimitCycle:
    def test_identity_maps_degenerate(self):
        identity = StrokeMap(r0=1.0, r1=0.0)
        with pytest.raises(DegenerateCycle):
            limit_cycle(identity, identity)

    def test_full_thermalization(self):
        # both strokes forget their start: p0 = 0 and each pre-contact
        # probability is the other reservoir's Gibbs population
        rinf_h = stationary_rho00(1.0, 5.0)
        rinf_c = stationary_rho00(0.18, 1.0)
        lc = limit_cycle(StrokeMap(rinf_h, rinf_h), StrokeMap(rinf_c, rinf_c))
        assert lc.p0 == 0.0
        assert lc.P_h == pytest.approx(rinf_c, rel=1e-15)
        assert lc.P_c == pytest.approx(rinf_h, rel=1e-15)

    def test_fixed_point_consistency(self, ref_tcl2):
        hot = ref_tcl2.hot.as_map
        cold = ref_tcl2.cold.as_map
        lc = ref_tcl2.cycle
        assert composed(hot, cold, lc.P_h) == pytest.approx(lc.P_h, abs=1e-12)
        # one-step relation ties the two probabilities together
        assert hot.apply(lc.P_h) == pytest.approx(lc.P_c, abs=1e-12)

    def test_random_maps_give_probabilities(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            hot = StrokeMap(*rng.uniform(0.0, 1.0, 2))
            cold = StrokeMap(*rng.uniform(0.0, 1.0, 2))
            if abs(cold.contraction * hot.contraction) >= 1.0 - 1e-12:
                continue
            lc = limit_cycle(hot, cold)
            assert 0.0 <= lc.P_h <= 1.0
            assert 0.0 <= lc.P_c <= 1.0

    def test_backend_independence_of_algebra(self, ref_engine, ref_tcl2, ref_markov):
        # identical relations hold for maps from either backend
        for ev in (ref_tcl2, ref_markov):
            hot, cold = ev.hot.as_map, ev.cold.as_map
            lc = limit_cycle(hot, cold)
            assert composed(hot, cold, lc.P_h) == pytest.approx(lc.P_h, abs=1e-12)
            assert lc.p0 == pytest.approx(hot.contraction * cold.contraction)

    def test_weak_coupling_residual(self, ref_engine):
        # p0 = 1 - O(lambda): the slowest contraction the closed form
        # still has to pin down to a fixed point
        for backend in ("tcl2", "markov"):
            ev = evaluate_cycle(replace(ref_engine, lam=1e-6), backend)
            hot, cold, lc = ev.hot.as_map, ev.cold.as_map, ev.cycle
            assert abs(composed(hot, cold, lc.P_h) - lc.P_h) <= 1e-12


class TestIterateCycle:
    def test_fixed_point_is_fixed(self, ref_tcl2):
        hot, cold = ref_tcl2.hot.as_map, ref_tcl2.cold.as_map
        lc = ref_tcl2.cycle
        orbit = iterate_cycle(hot, cold, lc.P_h, 1)
        assert orbit[0][0] == pytest.approx(lc.P_h, abs=1e-14)
        assert orbit[0][1] == pytest.approx(lc.P_c, abs=1e-14)

    @pytest.mark.parametrize("maps", [
        (StrokeMap(0.9, 0.2), StrokeMap(0.7, 0.4)),
        (StrokeMap(0.55, 0.45), StrokeMap(0.8, 0.1)),
    ])
    def test_iteration_oracle_matches_closed_form(self, maps):
        hot, cold = maps
        lc = limit_cycle(hot, cold)
        for start in (0.0, 1.0):
            orbit = iterate_cycle(hot, cold, start, 200)
            assert orbit[-1][0] == pytest.approx(lc.P_h, abs=1e-10)

    def test_contraction_bound(self, ref_tcl2):
        hot, cold = ref_tcl2.hot.as_map, ref_tcl2.cold.as_map
        lc = ref_tcl2.cycle
        orbit = iterate_cycle(hot, cold, 0.0, 20)
        for k, (ph, _) in enumerate(orbit):
            assert abs(ph - lc.P_h) <= abs(lc.p0) ** k + 1e-15

    def test_two_orbits_approach_geometrically(self):
        hot, cold = StrokeMap(0.9, 0.2), StrokeMap(0.7, 0.4)
        p0 = hot.contraction * cold.contraction
        lo = iterate_cycle(hot, cold, 0.0, 12)  # gaps underflow beyond ~25 cycles
        hi = iterate_cycle(hot, cold, 1.0, 12)
        gaps = np.array([h[0] - l[0] for h, l in zip(hi, lo)])
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, p0, rtol=1e-10)

    def test_input_validation(self):
        hot, cold = StrokeMap(0.9, 0.2), StrokeMap(0.7, 0.4)
        with pytest.raises(ValueError):
            iterate_cycle(hot, cold, -0.1, 5)
        with pytest.raises(ValueError):
            iterate_cycle(hot, cold, 0.5, 0)


class TestStrokeMap:
    def test_zero_coupling_is_identity(self):
        eng = EngineParams(1.0, 0.18, 5.0, 1.0, 0.0, 0.4, 5.0, 60.0)
        m = stroke_dynamics(eng, "hot", backend="tcl2").as_map
        assert m.r0 == 1.0 and m.r1 == 0.0

    def test_markov_long_contact_forgets_start(self, ref_engine):
        r0, r1 = branch_pair(ref_engine.hot_reservoir, 1.0, 1e5)[:2]
        rinf = stationary_rho00(1.0, 5.0)
        assert r0 == pytest.approx(rinf, abs=1e-12)
        assert r1 == pytest.approx(rinf, abs=1e-12)

    def test_short_contact_near_identity(self, ref_engine):
        eng = replace(ref_engine, t1=1e-3)
        m = stroke_dynamics(eng, "hot", backend="tcl2").as_map
        assert m.r0 > 0.999 and m.r1 < 1e-3

    def test_bad_selector(self, ref_engine):
        with pytest.raises(ValueError):
            stroke_dynamics(ref_engine, "tepid")
        with pytest.raises(ValueError):
            stroke_dynamics(ref_engine, "hot", backend="exact")

    def test_map_range_validated(self):
        with pytest.raises(ValueError):
            StrokeMap(r0=1.5, r1=0.0)
