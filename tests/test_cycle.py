"""Limit-cycle algebra of ``_close_cycle``: fixed point, iteration, degeneracy,
and the first-order references at vanishing coupling."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nmotto import (
    DegenerateCycle,
    EngineParams,
    ReservoirSpec,
    energy_flow,
    evaluate_cycle,
    evolve_branch_pair,
    stroke_balance,
)
from nmotto.energetics import StrokeEnds, _close_cycle
from nmotto.kernels import d1, d2
from nmotto.markov import branch_pair, stationary_rho00

# (lam, omega_h, omega_c): the fixed point reads only the stroke ends;
# any nonzero coupling leaves the frozen zero-coupling mixture out of it
CYCLE = (0.01, 1.0, 0.18)


def ends(r0, r1):
    """Stroke ends without correction integrals of the contact ending at
    r0 from |0> and at r1 from |1>: it contracts by r0 - r1 = exp(cum_a)
    > 0, and a fully thermalizing one (r0 = r1) has cum_a = -inf."""
    with np.errstate(divide="ignore"):
        return StrokeEnds(r1, np.log(np.subtract(r0, r1)), 0.0, 0.0)


def apply(stroke, p):
    """One contact of the stroboscopic map, P -> r1 + exp(cum_a) P."""
    return stroke.r1 + contraction(stroke) * p


def contraction(stroke):
    return np.exp(stroke.cum_a)


def composed(hot, cold, p):
    return apply(cold, apply(hot, p))


def closed_form(hot, cold):
    """(P_h, P_c, p0) of the limit cycle of a contracting map pair."""
    one_minus_p0, degenerate, p_h, p_c, _ = _close_cycle(*CYCLE, hot, cold)
    assert not degenerate
    return p_h, p_c, 1.0 - one_minus_p0


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
        one_minus_p0, degenerate, _, _, _ = _close_cycle(*CYCLE, ends(1.0, 0.0),
                                                         ends(1.0, 0.0))
        assert one_minus_p0 == 0.0 and degenerate
        # exp(-omega / cutoff) underflows at omega = 800 and 1000, and with
        # it both Markov decay rates: the strokes freeze the populations
        frozen = replace(ref_engine, omega_h=1000.0, omega_c=800.0, cutoff=1.0)
        with pytest.raises(DegenerateCycle, match="does not contract") as info:
            evaluate_cycle(frozen, "markov")
        assert info.value.one_minus_p0 == 0.0

    def test_degenerate_cycle_is_nan(self):
        # A_h + A_c >= 0 with r1 != 0: the closed form alone would give an
        # infinite P_h, or a negative one
        cold = StrokeEnds(0.0, 0.0, 0.0, 0.0)
        for cum_a in (0.0, 5e-13):
            hot = StrokeEnds(3e-13, cum_a, 1e-3, 2e-3)
            one_minus_p0, degenerate, p_h, p_c, ledger = _close_cycle(*CYCLE, hot, cold)
            assert degenerate and one_minus_p0 == -np.expm1(cum_a)
            assert np.isnan([p_h, p_c, *vars(ledger).values()]).all()

    def test_slow_contraction_closes(self):
        # p0 = 1 - 5e-13 still contracts, to the fixed point P_h = 0.6
        hot = StrokeEnds(3e-13, np.log1p(-5e-13), 1e-3, 2e-3)
        p_h, p_c, _ = closed_form(hot, StrokeEnds(0.0, 0.0, 0.0, 0.0))
        assert p_h == pytest.approx(0.6, rel=1e-12) and p_c == pytest.approx(0.6, rel=1e-12)

    def test_zero_coupling_fills_the_grid(self):
        # frozen strokes over a (2, 1) x (1, 3) grid: the mixture at every point
        frozen = StrokeEnds(0.0, 0.0, 0.0, 0.0)
        hot = StrokeEnds(*np.zeros((4, 2, 1)))
        cold = StrokeEnds(*np.zeros((4, 1, 3)))
        for h, c, shape in ((hot, cold, (2, 3)), (frozen, frozen, ())):
            _, degenerate, p_h, p_c, ledger = _close_cycle(0.0, 1.0, 0.18, h, c)
            assert not degenerate.any() and np.shape(p_h) == np.shape(p_c) == shape
            assert np.all(p_h == 0.5) and np.all(p_c == 0.5)
            assert all(np.shape(v) == shape for v in vars(ledger).values())

    def test_full_thermalization(self):
        # both strokes forget their start: p0 = 0 and each pre-contact
        # probability is the other reservoir's Gibbs population
        rinf_h = stationary_rho00(1.0, 5.0)
        rinf_c = stationary_rho00(0.18, 1.0)
        p_h, p_c, p0 = closed_form(ends(rinf_h, rinf_h), ends(rinf_c, rinf_c))
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
        # one row per draw: hot r1 <= r0, then cold r1 <= r0
        hot_r1, hot_r0, cold_r1, cold_r0 = np.sort(
            rng.uniform(0.0, 1.0, (500, 2, 2)), axis=2).reshape(500, 4).T
        _, degenerate, p_h, p_c, _ = _close_cycle(*CYCLE, ends(hot_r0, hot_r1),
                                                  ends(cold_r0, cold_r1))
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


def markov_cycle(engine):
    """(P_h, W_I) of the Markov limit cycle in 40-digit arithmetic, from
    the closed-form branches: r1 = rho_inf (1 - e) and r0 - r1 = e =
    exp(-Gamma t)."""
    with mpmath.workdps(40):
        strokes = []
        for omega, temp, t in ((engine.omega_h, engine.T_h, engine.t1),
                               (engine.omega_c, engine.T_c, engine.t2)):
            omega, temp, t = mpmath.mpf(omega), mpmath.mpf(temp), mpmath.mpf(t)
            n = 1 / mpmath.expm1(omega / temp)
            j = engine.lam * omega * mpmath.exp(-omega / engine.cutoff)
            decay = mpmath.exp(-2 * mpmath.pi * j * (1 + 2 * n) * t)
            strokes.append(((1 + n) / (1 + 2 * n) * (1 - decay), decay))
        (r1_h, e_h), (r1_c, e_c) = strokes
        p_h = (r1_c + r1_h * e_c) / (1 - e_h * e_c)
        p_c = r1_h + e_h * p_h
        gap = mpmath.mpf(engine.omega_h) - mpmath.mpf(engine.omega_c)
        return float(p_h), float(gap * (p_h - p_c))


def difference_ratios(values):
    """Ratios of successive differences of a sequence."""
    steps = np.diff(values)
    return steps[:-1] / steps[1:]


WEAK_LAMS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


def stroke_integrals(reservoir, omega, t):
    """(A, B, S, K) of one stroke from the kernels by weighted
    quadrature: A = Int a = -2 Int_0^t (t - u) D1 cos(omega u) du,
    B = -Int b = -A/2 + Int_0^t (t - u) D2 sin(omega u) du,
    S = Int_0^t D1 sin(omega u) du and K = Int_0^t D2 cos(omega u) du."""
    def weighted(f, weight):
        return quad(f, 0.0, t, weight=weight, wvar=omega, limit=200)[0]

    a_int = -2.0 * weighted(lambda u: (t - u) * d1(u, reservoir), "cos")
    b_int = -a_int / 2 + weighted(lambda u: (t - u) * d2(u, reservoir), "sin")
    return (a_int, b_int, weighted(lambda u: d1(u, reservoir), "sin"),
            weighted(lambda u: d2(u, reservoir), "cos"))


def first_order_ledger(engine):
    """lim W / lam as lam -> 0 at the engine's durations, (W_I, W_II, E_I):
    every kernel is linear in lam, so the cycle to first order closes on
    the stroke integrals at unit coupling; no stroke is solved."""
    unit = replace(engine, lam=1.0)
    a_h, b_h, s_h, k_h = stroke_integrals(unit.hot_reservoir, unit.omega_h, unit.t1)
    a_c, b_c, s_c, k_c = stroke_integrals(unit.cold_reservoir, unit.omega_c, unit.t2)
    p = -(b_h + b_c) / (a_h + a_c)  # the zero-coupling P_h = P_c
    w_i = -(unit.omega_h - unit.omega_c) * (a_h * p + b_h)
    e_i = -(k_h + (2 * p - 1) * s_h) - (k_c + (2 * p - 1) * s_c)
    return w_i, w_i + e_i, e_i


def two_point_measurement(reservoir, omega, p, t):
    """(dE_S, dE_B, E_I, theta) / lam as lam -> 0 of a stroke of duration(s)
    t from ground population p, from the two-point measurement's definition:
    second-order transition probabilities of the Hamiltonian, with no
    kernel, counting field or time lattice.  A boson of energy nu is
    absorbed from |0> (k = nu - omega) or emitted while exciting (k = nu +
    omega), and the mirror processes from |1>, each weighted by
    F(k) = (1 - cos kt) / k^2 = 2 sin^2(kt/2) / k^2; the flow theta =
    d(dE_B)/dt weighs them by dF/dt = sin(kt) / k.  Composite
    Gauss-Legendre, 400 panels of 40 nodes on [0, 45 cutoff]; each value
    has the shape of t."""
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.0, 45.0 * reservoir.cutoff, 401)
    half = np.diff(edges)[:, None] / 2
    nu = (edges[:-1, None] + half * (1 + x)).ravel()
    two_j = 2 * nu * np.exp(-nu / reservoir.cutoff) * (half * w).ravel()  # with the weights
    n = 1 / np.expm1(nu / reservoir.temperature)
    # each process's weight in dE_S and dE_B, rotating then counter-rotating
    rot_s = omega * two_j * (p * n - (1 - p) * (n + 1))
    counter_s = omega * two_j * (p * (n + 1) - (1 - p) * n)
    rot_b = two_j * nu * ((1 - p) * (n + 1) - p * n)
    counter_b = two_j * nu * (p * (n + 1) - (1 - p) * n)
    t = np.asarray(t, dtype=float)[..., None]
    k_rot, k_counter = nu - omega, nu + omega
    f_rot, f_counter = (2 * np.sin(k * t / 2) ** 2 / k**2 for k in (k_rot, k_counter))
    d_es = f_rot @ rot_s + f_counter @ counter_s
    d_eb = f_rot @ rot_b + f_counter @ counter_b
    g_rot, g_counter = (np.sin(k * t) / k for k in (k_rot, k_counter))
    return d_es, d_eb, -(d_es + d_eb), g_rot @ rot_b + g_counter @ counter_b


def two_point_ledger(engine, t1_values, t2_values):
    """(P, W_I, W_II, Sigma_I, Sigma_II) of the limit cycle as lam -> 0 on
    the (t1, t2) grid, each but P per unit lam, from the two-point
    measurement alone.  A stroke moves the ground population by
    -dE_S / omega = B + A p to first order, so the cycle closes at
    P_h = P_c = -(B_h + B_c) / (A_h + A_c).  Lam-scaled ends fed to
    ``_close_cycle`` would mix in lam^2 terms."""
    def side(reservoir, omega, t):
        """(dE_S, dE_B) from |1>, and their slope in the start p: both
        are affine in p."""
        from_1, from_0 = (np.array(two_point_measurement(reservoir, omega, p, t)[:2])
                          for p in (0.0, 1.0))
        return from_1, from_0 - from_1

    (hot, d_hot), (cold, d_cold) = (side(engine.hot_reservoir, engine.omega_h, t1_values[:, None]),
                                    side(engine.cold_reservoir, engine.omega_c, t2_values[None]))
    w_h, w_c = engine.omega_h, engine.omega_c
    p = -(hot[0] / w_h + cold[0] / w_c) / (d_hot[0] / w_h + d_cold[0] / w_c)
    (es_h, eb_h), (es_c, eb_c) = hot + p * d_hot, cold + p * d_cold
    return (p, es_h + es_c, -(eb_h + eb_c), -es_h / engine.T_h - es_c / engine.T_c,
            eb_h / engine.T_h + eb_c / engine.T_c)


class TestTwoPointMeasurement:
    """The counting-field balances of ``stroke_balance`` and the flow of
    ``energy_flow`` against the two-point measurement from first
    principles: they agree to first order in lam, each deviation shrinking
    with lam."""

    DURATIONS = (0.5, 2.0, 3.5, 60.0)

    def deviations(self, reservoir, omega, p, lam):
        """Per duration, the deviation of (dE_S, dE_B, E_I) relative to
        each, and of the end's theta relative to the largest |theta| of the
        stroke, since theta crosses zero."""
        coupled = replace(reservoir, lam=lam)
        out = []
        for t in self.DURATIONS:
            stroke = evolve_branch_pair(coupled, omega, t)
            bal, (_, theta) = stroke_balance(p, stroke), energy_flow(p, stroke)
            got = np.array([bal.dES[-1], bal.dEB[-1], bal.E_I[-1], theta[-1]]) / lam
            want = np.array(two_point_measurement(reservoir, omega, p, t))
            scale = np.abs(np.append(want[:3], np.abs(theta).max() / lam))
            out.append(np.abs(got - want) / scale)
        return np.array(out)

    @pytest.mark.parametrize("p", [1.0, 0.0])
    @pytest.mark.parametrize("reservoir, omega", [
        (ReservoirSpec(5.0, 1.0, 0.4), 1.0), (ReservoirSpec(1.0, 1.0, 0.4), 0.18),
    ], ids=["hot", "cold"])
    def test_balances_agree_to_first_order(self, reservoir, omega, p):
        # deviations reach 2.6e-4 at lam = 1e-6 (cold, t = 60) and scale
        # with lam: the 1e-9 ones are a thousandth of them.  theta's reach
        # 4.7e-4 there, near the relaxation's own second-order term: the
        # decay exponent Gamma t is 482 lam on the cold side at t = 60
        weak, weaker = (self.deviations(reservoir, omega, p, lam) for lam in (1e-6, 1e-9))
        bound = np.array([300, 300, 300, 600])
        assert np.all(weak <= bound * 1e-6) and np.all(weaker <= bound * 1e-9)
        ratio = weaker / weak
        assert np.all((3e-4 <= ratio) & (ratio <= 3e-3)), ratio

    def test_interaction_energy_is_negative_from_the_ground_state(self):
        # the paper's "finite and negative" E_I follows from the definition
        hot = ReservoirSpec(5.0, 1.0, 0.4)
        e_i = two_point_measurement(hot, 1.0, 1.0, self.DURATIONS)[2]
        assert e_i == pytest.approx([-0.990, -9.137, -11.226, -8.774], abs=1e-3)


class TestWeakCoupling:
    """The closure keeps its digits as the coupling, and with it 1 - p0,
    goes to zero."""

    @pytest.mark.parametrize("t1, t2", [(5.0, 60.0), (3.0, 36.0)])
    @pytest.mark.parametrize("lam", [1e-8, 1e-10, 1e-12])
    def test_markov_p_h_against_extended_precision(self, ref_engine, lam, t1, t2):
        eng = replace(ref_engine, lam=lam, t1=t1, t2=t2)
        want = markov_cycle(eng)[0]
        assert evaluate_cycle(eng, "markov").P_h == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("t1, t2", [(5.0, 60.0), (3.0, 36.0)])
    @pytest.mark.parametrize("lam", [1e-8, 1e-10, 1e-12])
    def test_markov_w_i_against_extended_precision(self, ref_engine, lam, t1, t2):
        # W_I = O(lam) is not formed as a difference of the two adiabatic
        # works, each near half the gap
        eng = replace(ref_engine, lam=lam, t1=t1, t2=t2)
        want = markov_cycle(eng)[1]
        got = evaluate_cycle(eng, "markov").ledger.W_I
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t1, t2", [(3.0, 36.0), (5.0, 60.0), (20.0, 10.0)])
    def test_tcl2_p_h_linear_in_coupling(self, ref_engine, t1, t2):
        # P_h = P_h(0) + c lam + O(lam^2): each hundredfold step in lam
        # shrinks the change in P_h a hundredfold
        p_h = [evaluate_cycle(replace(ref_engine, lam=lam, t1=t1, t2=t2)).P_h
               for lam in WEAK_LAMS]
        ratios = difference_ratios(p_h)
        assert np.all((95.0 <= ratios) & (ratios <= 105.0)), ratios

    @pytest.mark.parametrize("t1, t2", [(3.0, 36.0), (5.0, 60.0), (20.0, 10.0)])
    def test_tcl2_works_linear_in_coupling(self, ref_engine, t1, t2):
        # W = c1 lam + c2 lam^2 + O(lam^3): W / lam changes a hundredfold
        # less with each hundredfold step in lam, down to lam = 1e-14
        ledgers = [evaluate_cycle(replace(ref_engine, lam=lam, t1=t1, t2=t2)).ledger
                   for lam in WEAK_LAMS]
        for field in ("W_I", "W_II"):
            scaled = [getattr(led, field) / lam for led, lam in zip(ledgers, WEAK_LAMS)]
            ratios = difference_ratios(scaled)
            assert np.all((95.0 <= ratios) & (ratios <= 105.0)), (field, ratios)

    def test_tcl2_ledger_approaches_its_first_order_limit(self, ref_engine):
        # every kernel is linear in lam, so W / lam has a finite limit as
        # lam -> 0, read off here at lam = 1e-12; the second-order slopes
        # at (3, 36) are 9.50 for W_I and 1.54 for W_II
        eng = replace(ref_engine, t1=3.0, t2=36.0)
        limit = evaluate_cycle(replace(eng, lam=1e-12)).ledger
        lim_i, lim_ii = limit.W_I / 1e-12, limit.W_II / 1e-12
        assert lim_i == pytest.approx(0.6194395873, abs=1e-9)
        assert lim_ii == pytest.approx(-0.9962075706, abs=1e-9)
        # the interaction energy keeps a nonzero share of the work as the
        # coupling vanishes: E_I / W_I -> -2.608
        assert (limit.E_I_h + limit.E_I_c) / limit.W_I == pytest.approx(-2.608, abs=1e-3)
        for lam in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10):
            led = evaluate_cycle(replace(eng, lam=lam)).ledger
            assert abs(led.W_I / lam - lim_i) <= 10 * lam
            assert abs(led.W_II / lam - lim_ii) <= 2 * lam

    @pytest.mark.parametrize("t1, t2", [(1.0, 1.0), (1.0, 5.0), (3.0, 36.0), (60.0, 60.0)])
    def test_tcl2_ledger_at_vanishing_coupling(self, ref_engine, t1, t2):
        # at lam = 1e-20 p0 rounds to 1, yet 1 - p0 = -expm1(A_h + A_c)
        # keeps its digits: W / lam stays as close to its first-order limit
        # as at lam = 1e-12, the solver's step floor (from 1.3e-15 at (1, 1),
        # which is rounding, hence the 1e-14, to 2.7e-10 at (60, 60))
        eng = replace(ref_engine, t1=t1, t2=t2)
        floor, tiny = (evaluate_cycle(replace(eng, lam=lam)).ledger for lam in (1e-12, 1e-20))
        for field, want in zip(("W_I", "W_II"), first_order_ledger(eng)):
            off_floor = abs(getattr(floor, field) / 1e-12 - want)
            assert abs(getattr(tiny, field) / 1e-20 - want) <= 2 * off_floor + 1e-14, field

    @pytest.mark.parametrize("T_h", [5.0, 2.0])
    @pytest.mark.parametrize("t1, t2", [(1.0, 5.0), (3.0, 36.0), (5.0, 60.0), (20.0, 20.0)])
    def test_tcl2_ledger_against_the_first_order_ledger(self, ref_engine, T_h, t1, t2):
        # W / lam = W1 + O(lam), with second-order slopes up to 9.5 at
        # (3, 36); the 1e-9 floor is the solver's own step error, 2.9e-10
        # at lam = 1e-12.  At lam = 1e-2, W_II at (20, 20) is up to 13 lam off.
        eng = replace(ref_engine, T_h=T_h, t1=t1, t2=t2)
        w_i, w_ii, _ = first_order_ledger(eng)
        for lam in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            led = evaluate_cycle(replace(eng, lam=lam)).ledger
            assert abs(led.W_I / lam - w_i) <= 10 * lam + 1e-9, lam
            assert abs(led.W_II / lam - w_ii) <= 10 * lam + 1e-9, lam

    def test_first_order_ledger_at_the_operating_pair(self, ref_engine):
        # the interaction energy keeps a nonzero share of the work as the
        # coupling vanishes
        w_i, w_ii, e_i = first_order_ledger(replace(ref_engine, t1=3.0, t2=36.0))
        assert w_i == pytest.approx(0.619439587261, abs=1e-11)
        assert w_ii == pytest.approx(-0.996207570606, abs=1e-11)
        assert e_i / w_i == pytest.approx(-2.608, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(backend=st.sampled_from(["tcl2", "markov"]),
           log_lam=st.floats(-20.0, np.log10(0.02)), T_h=st.floats(1.0, 5.0),
           temp_ratio=st.floats(0.05, 1.0), freq_ratio=st.floats(0.05, 1.0),
           t1=st.floats(0.5, 60.0), t2=st.floats(0.5, 60.0))
    def test_closure_properties(self, backend, log_lam, T_h, temp_ratio, freq_ratio,
                                t1, t2):
        eng = EngineParams(1.0, freq_ratio, T_h, T_h * temp_ratio, 10.0 ** log_lam,
                           0.4, t1, t2)
        ev = evaluate_cycle(eng, backend)
        hot, cold, led = ev.hot.ends, ev.cold.ends, ev.ledger
        assert abs(composed(hot, cold, ev.P_h) - ev.P_h) <= 1e-12
        # the first law forms W_I, equal to the adiabatic works' balance
        assert led.W_I == led.dES_h + led.dES_c
        assert abs(led.W_I - (led.W_ad1 - led.W_ad2)) <= 1e-15
        assert 0.0 <= ev.P_h <= 1.0 and 0.0 <= ev.P_c <= 1.0
        for d_es, d_eb, e_i in ((led.dES_h, led.dEB_h, led.E_I_h),
                                (led.dES_c, led.dEB_c, led.E_I_c)):
            assert abs(d_es + d_eb + e_i) <= 1e-15
        assert abs(led.W_II + led.dEB_h + led.dEB_c) <= 1e-13
        if backend == "markov":
            assert led.E_I_h == led.E_I_c == 0.0


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
        hot, cold = (ends(*m) for m in maps)
        p_h, _, _ = closed_form(hot, cold)
        for start in (0.0, 1.0):
            orbit = iterate_cycle(hot, cold, start, 200)
            assert orbit[-1][0] == pytest.approx(p_h, abs=1e-10)

    def test_contraction_bound(self, ref_tcl2):
        orbit = iterate_cycle(ref_tcl2.hot.ends, ref_tcl2.cold.ends, 0.0, 20)
        for k, (ph, _) in enumerate(orbit):
            assert abs(ph - ref_tcl2.P_h) <= abs(ref_tcl2.p0) ** k + 1e-15

    def test_two_orbits_approach_geometrically(self):
        hot, cold = ends(0.9, 0.2), ends(0.7, 0.4)
        p0 = contraction(hot) * contraction(cold)
        lo = iterate_cycle(hot, cold, 0.0, 12)  # gaps underflow beyond ~25 cycles
        hi = iterate_cycle(hot, cold, 1.0, 12)
        gaps = np.array([h[0] - l[0] for h, l in zip(hi, lo)])
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, p0, rtol=1e-10)


class TestStrokeMap:
    def test_zero_coupling_is_identity(self):
        eng = EngineParams(1.0, 0.18, 5.0, 1.0, 0.0, 0.4, 5.0, 60.0)
        ends = evaluate_cycle(eng, "tcl2").hot.ends
        assert ends.cum_a == 0.0 and ends.r1 == 0.0
        # no unique limit cycle: the closure takes the frozen mixture
        for backend in ("tcl2", "markov"):
            ev = evaluate_cycle(eng, backend)
            assert ev.P_h == ev.P_c == 0.5

    def test_markov_long_contact_forgets_start(self, ref_engine):
        r0, r1 = branch_pair(ref_engine.hot_reservoir, 1.0, 1e5)
        rinf = stationary_rho00(1.0, 5.0)
        assert r0 == pytest.approx(rinf, abs=1e-12)
        assert r1 == pytest.approx(rinf, abs=1e-12)

    def test_short_contact_near_identity(self, ref_engine):
        eng = replace(ref_engine, t1=1e-3)
        ends = evaluate_cycle(eng, "tcl2").hot.ends
        assert ends.r1 + np.exp(ends.cum_a) > 0.999 and ends.r1 < 1e-3

    def test_bad_selector(self, ref_engine):
        with pytest.raises(ValueError):
            evaluate_cycle(ref_engine, backend="exact")
