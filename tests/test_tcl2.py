"""Time-convolutionless stroke solver: coefficients, solution, regime."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nmotto import (
    PositivityViolation,
    ReservoirSpec,
    energy_flow,
    evaluate_cycle,
    evolve_branch_pair,
    markov,
    stroke_balance,
    tcl2,
)
from nmotto.kernels import SCALE, d1, d2
from nmotto.markov import branch_pair, stationary_rho00
from nmotto.tcl2 import (
    POSITIVITY_TOL,
    StrokeEnds,
    cumulative_simpson,
    family_ends,
    lattice,
    time_grid,
)

HOT = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=0.4)
COLD = ReservoirSpec(temperature=1.0, lam=0.01, cutoff=0.4)
OFF = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)


def mixed(p, reservoir, omega, t_end, h=None):
    """rho00 of the stroke started from ground population p."""
    return stroke_balance(p, evolve_branch_pair(reservoir, omega, t_end, h)).rho00


def closed_form(p, pair):
    """rho00(t) = e^A (p - Int b e^-A) rebuilt from the branch pair's own
    coefficient samples."""
    dx = pair.times[1] - pair.times[0]
    inner = cumulative_simpson(pair.b_vals * np.exp(-pair.cum_a), dx)
    return np.exp(pair.cum_a) * (p - inner)


def lattice_one(t, h):
    """``lattice``'s rule for one duration, in Python floats: m whole steps,
    one fewer where m h overshoots t by more than 1e-12 t, and the end on
    m h within 1e-12 t of it."""
    h = min(0.01, t / 2000.0) if h is None else h
    m = round(t / h)
    if t - m * h < -1e-12 * t:
        m -= 1
    end = m * h if abs(t - m * h) <= 1e-12 * t else t
    return (t / 2, 2, t) if m < 2 else (h, m, end)


def quad_coefficient(kind, t, reservoir, omega):
    """Gauss-Kronrod evaluation of the coefficient integrals (second,
    independent quadrature scheme)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if kind == "a":
            val, _ = quad(lambda s: d1(s, reservoir), 0.0, t,
                          weight="cos", wvar=omega, limit=400)
            return -2.0 * val
        val, _ = quad(lambda s: d2(s, reservoir), 0.0, t,
                      weight="sin", wvar=omega, limit=400)
        return quad_coefficient("a", t, reservoir, omega) / 2.0 - val


class TestGrid:
    def test_default_step(self):
        assert lattice(60.0)[0] == 0.01
        assert lattice(1.0)[0] == pytest.approx(0.0005)

    def test_grid_endpoints(self):
        t = time_grid(5.0)
        assert t[0] == 0.0 and t[-1] == 5.0
        assert len(t) == 2001

    def test_step_never_grows(self):
        t = time_grid(1.0, h=0.3)
        assert len(t) >= 5
        assert t[1] - t[0] <= 0.3 + 1e-15

    # 2000 * (3.9747899159663866 / 2000), a sweep-map duration, is one ulp below it
    @pytest.mark.parametrize("t_end", [0.7, 1.0, 5.0, 7.3, 15.75, 19.99, 20.0,
                                       3.9747899159663866])
    def test_default_grid_is_linspace_below_20(self, t_end):
        # h = t_end / 2000 divides t_end: no partial step, the grid ends on 2000 h
        assert lattice(t_end)[1:] == (2000, 2000 * (t_end / 2000))
        assert np.array_equal(time_grid(t_end), np.arange(2001) * (t_end / 2000))

    def test_partial_step_ends_the_grid(self):
        t = time_grid(20.005)
        assert len(t) == 2002 and t[-1] == 20.005
        assert np.array_equal(t[:-1], np.arange(2001) * 0.01)
        assert lattice(20.005)[:2] == (0.01, 2000)
        assert lattice(20.005)[2] - 2000 * 0.01 == pytest.approx(0.005, rel=1e-9)

    @pytest.mark.parametrize("t_end", [20.15, 64.07, 100.07, 159.42])
    def test_end_a_rounding_off_the_lattice_ends_on_it(self, t_end):
        # m * 0.01 misses these decimals by about one ulp of t_end
        m = round(t_end * 100)
        assert m * 0.01 != t_end
        assert lattice(t_end) == (0.01, m, m * 0.01)
        assert time_grid(t_end)[-1] == m * 0.01 and len(time_grid(t_end)) == m + 1

    @pytest.mark.parametrize("t_end", [0.1, 0.2, 0.3, 0.5, 0.59])
    def test_shorter_than_two_steps_runs_two(self, t_end):
        # a user step longer than half the stroke: two steps of t_end / 2
        assert lattice(t_end, 0.3) == (t_end / 2, 2, t_end)
        assert np.array_equal(time_grid(t_end, 0.3), np.linspace(0.0, t_end, 3))
        pair = evolve_branch_pair(HOT, 1.0, t_end, 0.3)
        assert np.array_equal(pair.times, np.linspace(0.0, t_end, 3))


    def test_step_count_bounded(self):
        # lattice only counts steps, so its bound is safe to probe at the edge
        assert lattice(0.5 * tcl2.MAX_STEPS, 0.5)[1] == tcl2.MAX_STEPS
        with pytest.raises(ValueError, match="needs more than 1000000 steps"):
            lattice(0.5 * tcl2.MAX_STEPS + 0.5, 0.5)
        with pytest.raises(ValueError, match="needs more than 1000000 steps"):
            lattice(60.0, 1 / SCALE)  # the least step in range
        with pytest.raises(ValueError, match=r"grid step must lie in \["):
            lattice(60.0, 1e-320)

    def test_step_whose_square_underflows_refused(self):
        # a duration and a given step lie in [1 / SCALE, SCALE], so each
        # h (h + delta) that _closing_weights divides by is a normal float;
        # the default step and a short stroke's t_end / 2 are not checked
        assert lattice(1 / SCALE)[0] == 1 / SCALE / 2000
        assert lattice(4 / SCALE, 1 / SCALE)[:2] == (1 / SCALE, 4)
        assert lattice(1 / SCALE, SCALE)[:2] == (1 / SCALE / 2, 2)
        assert lattice(SCALE, SCALE / 1000)[1] == 1000
        above = SCALE * (1 + 2**-52)
        for t_end, h, name in ((3e-151, None, "stroke duration"),
                               (2.9e-151, None, "stroke duration"),
                               (2.5e-200, 1e-200, "stroke duration"),
                               (1e-160, 0.01, "stroke duration"),
                               (1 / SCALE / 2, None, "stroke duration"),
                               (above, SCALE, "stroke duration"),
                               (1.0, 1 / SCALE / 2, "grid step"),
                               (1.0, above, "grid step")):
            with pytest.raises(ValueError, match=rf"{name} must lie in \["):
                lattice(t_end, h)

    @pytest.mark.parametrize("h", [None, 1 / 8, 0.05])
    def test_grid_ends_where_lattice_says(self, h):
        # random durations, decimals of which m * 0.01 misses some by an ulp,
        # a sweep's linspace values (2000 * (t / 2000) misses some by an ulp),
        # the rounding ends named above and strokes shorter than two steps of 1/8
        rng = np.random.default_rng(7)
        durations = np.concatenate((rng.uniform(0.2, 60.0, 30),
                                    np.round(rng.uniform(20.0, 60.0, 30), 2),
                                    np.linspace(1.0, 60.0, 120)[::6],
                                    [20.15, 64.07, 3.9747899159663866, 20.915966386554622,
                                     0.1, 0.2]))
        for t, side in zip(durations.tolist(), zip(*lattice(durations, h)), strict=True):
            assert side == lattice(t, h) == lattice_one(t, h)
            assert time_grid(t, h)[-1] == side[2]


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 2001, 2002, 6000, 6001])
    def test_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        y, dx = rng.standard_normal(n), rng.uniform(1e-3, 1.0)
        ref = scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)
        assert np.array_equal(cumulative_simpson(y, dx), ref)


class TestCoefficients:
    def test_zero_time(self):
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        assert pair.a_vals[0] == 0.0
        assert pair.b_vals[0] == 0.0

    def test_zero_coupling(self):
        pair = evolve_branch_pair(OFF, 1.0, 5.0)
        assert pair.a_vals[-1] == 0.0
        assert pair.b_vals[-1] == 0.0

    def test_cross_scheme_agreement(self):
        ours = evolve_branch_pair(HOT, 1.0, 5.0).a_vals[-1]
        ref = quad_coefficient("a", 5.0, HOT, 1.0)
        assert ours == pytest.approx(ref, rel=1e-8)

    def test_cross_scheme_agreement_b(self):
        ours = evolve_branch_pair(HOT, 1.0, 5.0).b_vals[-1]
        ref = quad_coefficient("b", 5.0, HOT, 1.0)
        assert ours == pytest.approx(ref, rel=1e-8)


class TestEvolveDiagonal:
    """The stroke solution, through ``evolve_branch_pair``."""

    def test_initial_condition_exact(self):
        for p in (0.0, 0.25, 1.0):
            assert mixed(p, HOT, 1.0, 5.0)[0] == p
        assert evolve_branch_pair(HOT, 1.0, 5.0).cum_a[0] == 0.0

    def test_zero_coupling_frozen(self):
        assert np.all(mixed(0.7, OFF, 1.0, 10.0) == 0.7)

    def test_grid_convergence(self):
        coarse = mixed(1.0, HOT, 1.0, 5.0, h=0.0025)
        fine = mixed(1.0, HOT, 1.0, 5.0, h=0.00125)
        assert abs(coarse[-1] - fine[-1]) < 1e-7

    def test_deterministic(self):
        a = evolve_branch_pair(HOT, 1.0, 5.0)
        b = evolve_branch_pair(HOT, 1.0, 5.0)
        assert np.array_equal(a.rho00_1, b.rho00_1)
        assert np.array_equal(a.cum_a, b.cum_a)

    def test_markovian_limit_large_cutoff(self):
        # correlation time ~ 1/cutoff: growing the cutoff at weak
        # coupling drives the stroke onto the exponential baseline and
        # the long-time population onto the Gibbs value
        diffs = []
        for cutoff in (1.0, 5.0, 10.0):
            res = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=cutoff)
            end = mixed(1.0, res, 1.0, 20.0)[-1]
            baseline = branch_pair(res, 1.0, 20.0)[0]
            diffs.append(abs(end - baseline))
            assert abs(end - stationary_rho00(1.0, 5.0)) < 2e-2
        assert diffs[0] > diffs[1] > diffs[2]

    @pytest.mark.parametrize("temperature, omega",
                             [(5.0, 1.0), (1.0, 0.18), (1.0, 1.0), (5.0, 0.18), (30.0, 1.0)])
    def test_long_stroke_rate_approaches_markov(self, temperature, omega):
        # once the kernels have decayed, a(t) -> -Gamma, the Markov rate;
        # the tail oscillates (successive ratios 2.4 to 14), so only
        # bounds at three times are asserted, no convergence rate
        res = ReservoirSpec(temperature=temperature, lam=0.01, cutoff=0.4)
        pair = evolve_branch_pair(res, omega, 400.0)
        gamma = markov.relaxation_rate(omega, res)
        for t, bound in ((100.0, 2e-3), (200.0, 1e-3), (400.0, 2.5e-4)):
            k = int(np.searchsorted(pair.times, t))
            assert pair.times[k] == t
            assert abs(pair.a_vals[k] + gamma) / gamma < bound, t

    def test_transient_population_overshoot(self, ref_tcl2):
        # non-Markovian heating: the excited population passes above its
        # end-of-stroke value during the hot contact
        rho11 = 1.0 - stroke_balance(ref_tcl2.P_h, ref_tcl2.hot).rho00
        assert rho11.max() > rho11[-1]

    def test_positivity_violation_raised(self):
        # high temperature inflates the noise kernel until the
        # second-order map stops being positive
        hot = ReservoirSpec(temperature=50.0, lam=0.3, cutoff=0.4)
        with pytest.raises(PositivityViolation):
            evolve_branch_pair(hot, 4.0, 10.0)

    @pytest.mark.parametrize("temperature, lam, omega, t_end, named", [
        (50.0, 0.3, 4.0, 10.0, "worst 1.3024 at t = 1.595"),
        # the branches overflow: a non-finite sample is the farthest out
        (30.0, 0.3, 0.5, 60.0, "worst inf at t = 21.12"),
    ], ids=["finite", "diverging"])
    def test_violation_names_the_farthest_sample(self, monkeypatch, temperature, lam,
                                                 omega, t_end, named):
        solved, solve = [], tcl2._solve

        def recording(times, *args):
            values = solve(times, *args)
            solved.append((times, values[0], values[1].rho00_1))
            return values

        monkeypatch.setattr(tcl2, "_solve", recording)
        res = ReservoirSpec(temperature=temperature, lam=lam, cutoff=0.4)
        with pytest.raises(PositivityViolation) as exc:
            evolve_branch_pair(res, omega, t_end)
        [(times, rho0, rho1)] = solved

        def distance(x):  # how far outside [0, 1]; non-finite is farthest
            return max(-x, x - 1.0) if np.isfinite(x) else np.inf

        # the earliest sample of either branch at the largest distance
        farthest = max(distance(x) for x in (*rho0, *rho1))
        k, worst = next((k, x) for k in range(len(times)) for x in (rho0[k], rho1[k])
                        if distance(x) == farthest)
        assert exc.value.worst == worst
        assert f"worst {worst:.6g} at t = {times[k]:g}" in str(exc.value)
        assert named in str(exc.value)


class TestStrokeProperties:
    @settings(max_examples=200, deadline=None)
    @given(temperature=st.floats(1.0, 40.0), lam=st.floats(0.005, 0.3),
           omega=st.floats(0.5, 3.0), t_end=st.floats(0.5, 60.0),
           h=st.sampled_from([None, 0.05, 0.03]))
    def test_stroke_raises_or_stays_positive(self, temperature, lam, omega, t_end, h):
        # a stroke that returns keeps both branches in [0, 1] at every sample
        res = ReservoirSpec(temperature=temperature, lam=lam, cutoff=0.4)
        try:
            pair = evolve_branch_pair(res, omega, t_end, h)
        except PositivityViolation:
            return
        for branch in (pair.rho00_1, pair.rho00_1 + np.exp(pair.cum_a)):
            assert np.all(np.isfinite(branch))
            assert branch.min() >= -POSITIVITY_TOL and branch.max() <= 1.0 + POSITIVITY_TOL

    @settings(max_examples=60, deadline=None)
    @given(temperature=st.floats(1.0, 5.0), lam=st.floats(0.005, 0.02),
           omega=st.floats(0.18, 1.0), t_end=st.floats(0.5, 60.0))
    def test_halving_the_step_keeps_the_ends(self, temperature, lam, omega, t_end):
        res = ReservoirSpec(temperature=temperature, lam=lam, cutoff=0.4)
        h = lattice(t_end)[0]
        coarse, fine = (evolve_branch_pair(res, omega, t_end, step).ends
                        for step in (h, h / 2))
        for field, a, b in zip(StrokeEnds._fields, coarse, fine):
            assert abs(a - b) <= 1e-8 * lam, field


class TestSolutionFormula:
    def test_against_direct_ode_integration(self):
        # fully independent route: coefficients from Gauss-Kronrod
        # quadrature (splined), trajectory from an adaptive ODE solver;
        # checks the closed-form solution path end to end
        from scipy.integrate import solve_ivp
        from scipy.interpolate import CubicSpline

        tgrid = np.linspace(0.0, 5.0, 201)
        a_pts, b_pts = [0.0], [0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in tgrid[1:]:
                va, _ = quad(lambda s: d1(s, HOT), 0.0, t,
                             weight="cos", wvar=1.0, limit=300)
                vb, _ = quad(lambda s: d2(s, HOT), 0.0, t,
                             weight="sin", wvar=1.0, limit=300)
                a_pts.append(-2.0 * va)
                b_pts.append(-va - vb)
        a_sp = CubicSpline(tgrid, a_pts)
        b_sp = CubicSpline(tgrid, b_pts)
        sol = solve_ivp(lambda t, y: a_sp(t) * y - b_sp(t), (0.0, 5.0), [1.0],
                        rtol=1e-11, atol=1e-13, t_eval=[5.0])
        assert abs(mixed(1.0, HOT, 1.0, 5.0)[-1] - sol.y[0, -1]) < 1e-9


class TestBranchPair:
    def test_matches_single_branch(self):
        # each branch is the closed-form solution for its own start: the
        # one from |1> stored, the one from |0> the map at p = 1
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        assert np.array_equal(pair.rho00_1, closed_form(0.0, pair))
        from_ground = stroke_balance(1.0, pair).rho00
        assert np.allclose(from_ground, closed_form(1.0, pair), rtol=0.0, atol=1e-15)

    def test_affine_mixture(self):
        # the solution is affine in the initial population
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        combo = stroke_balance(0.3, pair).rho00
        assert np.allclose(combo, closed_form(0.3, pair), rtol=0.0, atol=1e-15)

    def test_interaction_energy_remembers_the_start(self):
        # E_I = -C(t) pairs rho00(s) with the kernel at lag s, so it is set
        # near s = 0 by the start: long after both branches reach the same
        # state, their C(t) still differ by 16.472 lam (see the README)
        for h in (None, 0.005):
            for t in (300.0, 1000.0):
                ends = evolve_branch_pair(HOT, 1.0, t, h).ends
                slope = (ends.corr_0 - ends.corr_1) / HOT.lam
                assert slope == pytest.approx(16.472, rel=0.0, abs=1e-3)
            assert ends.r1 + np.exp(ends.cum_a) == pytest.approx(ends.r1, rel=0.0,
                                                                 abs=1e-12)


class TestBackflowWitnesses:
    def test_energy_backflow_is_not_information_backflow(self, ref_engine):
        # the trace distance of the starts |0> and |1> is exp(A(t)), which
        # grows only where a(t) > 0 (BLP information backflow); energy
        # backflow is theta = d(dE_B)/dt < 0 (see the README)
        lam = HOT.lam
        a = evolve_branch_pair(HOT, 1.0, 60.0).a_vals / lam
        assert a[0] == a.max() == 0.0 and a.min() == pytest.approx(-14.98, abs=5e-3)
        assert a[-1] == pytest.approx(-5.167, abs=5e-4)
        assert -markov.relaxation_rate(1.0, HOT) / lam == pytest.approx(-5.175, abs=5e-4)
        ev = evaluate_cycle(replace(ref_engine, t1=5.0, t2=36.0))
        back = np.flatnonzero(energy_flow(ev.P_h, ev.hot)[1] < 0)
        assert np.array_equal(back, np.arange(back[0], back[-1] + 1))
        assert ev.hot.times[[back[0], back[-1]]] == pytest.approx([1.877, 3.560], abs=1e-3)
        window = ev.hot.a_vals[back] / lam
        assert [window.min(), window.max()] == pytest.approx([-14.48, -4.79], abs=5e-3)
        for temperature, omega in ((1.0, 0.18), (30.0, 1.0)):
            res = ReservoirSpec(temperature=temperature, lam=lam, cutoff=0.4)
            assert evolve_branch_pair(res, omega, 60.0).a_vals.max() <= 0.0
        # at omega = 2 the starts do grow apart, in three stretches
        fast = evolve_branch_pair(HOT, 2.0, 60.0)
        grows = fast.times[fast.a_vals > 0]
        assert [grows[0], grows[-1]] == pytest.approx([1.72, 9.04], abs=5e-3)
        assert fast.a_vals.max() / lam == pytest.approx(3.62, abs=5e-3)


class TestFamilyEnds:
    """One solve over a long grid gives every stroke on a prefix of it."""

    @staticmethod
    def counting_solves(monkeypatch):
        """The list that gets one entry per ``tcl2._solve`` call."""
        calls, solve = [], tcl2._solve

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(tcl2, "_solve", counting)
        return calls

    # at T = 50, lam = 0.3, omega = 4 the strokes leave [0, 1] from k = 92
    # on this grid; omega = 1 stays positive throughout.  Markov answers
    # the same two calls without a solve; its closed form never leaves
    # [0, 1], so it has no positivity-failure case
    @pytest.mark.parametrize("backend, reservoir, omegas, h, steps", [
        (tcl2, HOT, [1.0, 0.18], 1 / 8, range(2, 41)),
        (tcl2, ReservoirSpec(temperature=50.0, lam=0.3, cutoff=0.4), [4.0, 1.0], 1 / 64,
         [*range(2, 41), *range(85, 100)]),
        (markov, HOT, [1.0, 0.18], 1 / 8, range(2, 41)),
    ], ids=["positive", "positivity-failure", "markov"])
    def test_ends_match_each_prefix_solve_bit_for_bit(self, monkeypatch, backend, reservoir,
                                                      omegas, h, steps):
        # a power-of-two step makes every prefix exactly its own time_grid
        times = time_grid(h * max(steps), h)
        solves = self.counting_solves(monkeypatch)
        ends = np.array(backend.family_ends(reservoir, omegas, times[list(steps)], h))
        assert ends.shape == (4, len(omegas), len(steps))
        assert len(solves) == (len(omegas) if backend is tcl2 else 0)
        failures = 0
        for i, omega in enumerate(omegas):
            for j, k in enumerate(steps):
                assert np.array_equal(time_grid(times[k], h), times[:k + 1])
                try:
                    pair = backend.evolve_branch_pair(reservoir, omega, times[k], h)
                except PositivityViolation:
                    # nan exactly where the stroke's own solve raises
                    assert np.isnan(ends[:, i, j]).all(), (omega, k)
                    failures += 1
                    continue
                got = ends[:, i, j]
                assert [float(v).hex() for v in got] == [v.hex() for v in pair.ends], k
        assert (failures > 0) == (reservoir is not HOT)

    @pytest.mark.parametrize("backend", [tcl2, markov])
    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1e-200])
    def test_range_fault_named_before_a_too_long_stroke(self, backend, bad):
        # 60 at step 1e-5 needs 6e6 steps; the side's out-of-range duration
        # is reported whichever of the two comes first
        for durations in ([60.0, bad], [bad, 60.0]):
            with pytest.raises(ValueError, match=rf"stroke duration .* got {bad!r}"):
                backend.family_ends(COLD, [0.18], durations, 1e-5)

    @pytest.mark.parametrize("backend", [tcl2, markov])
    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("inf"), 2.0**101])
    def test_splitting_out_of_range_is_refused_not_a_violation(self, backend, bad):
        # a nan splitting must not reach the TCL2 solve, where it reads as a
        # positivity failure; PositivityViolation is no ValueError, so it escapes
        message = rf"omega must lie in \[.*\], got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            backend.evolve_branch_pair(COLD, bad, 1.0)
        with pytest.raises(ValueError, match=message):
            backend.family_ends(COLD, np.array([0.18, bad]), [1.0])
        # with a bad duration as well, both backends name the duration
        with pytest.raises(ValueError, match="stroke duration must lie in"):
            backend.evolve_branch_pair(COLD, bad, 0.0)
        with pytest.raises(ValueError, match="stroke duration must lie in"):
            backend.family_ends(COLD, np.array([bad]), [1.0, 0.0])

    def test_own_closing_sample_outside_marks_only_its_stroke(self, monkeypatch):
        # the odd-step stroke 3 h + h/2 closes its last whole step on a
        # sample of its own, appended at index len(lattice) = 9 of the
        # solve; no physical input was found that puts only that sample
        # outside [0, 1], so the test puts it there
        h, ends = 1 / 8, [3.5 / 8, 8 / 8]
        omegas = [1.0, 0.18]
        want = np.array(family_ends(HOT, omegas, ends, h))
        solve = tcl2._solve

        def pushed_out(times, *args):
            assert len(times) == 11 and times[9] == 3 * h
            values = solve(times, *args)
            values[0][9] = -1e-6
            return values

        monkeypatch.setattr(tcl2, "_solve", pushed_out)
        got = np.array(family_ends(HOT, omegas, ends, h))
        assert np.isnan(got[:, :, 0]).all()
        assert [v.hex() for v in got[:, :, 1].ravel()] == [v.hex() for v in want[:, :, 1].ravel()]

    # ends k h + delta past the lattice, for odd and even k, delta from
    # 1e-9 h to h - 1e-9 h; the user step 0.05 is not a power of two, and
    # the default step puts every t >= 20 on the 0.01 lattice.  The mixed
    # durations are unsorted with a repeat: below 20 each distinct one has
    # its own step, and 20.15 rounds onto the 0.01 lattice without
    # equalling 2015 * 0.01, so it ends on 2015 * 0.01 in the 0.01 solve
    @pytest.mark.parametrize("h, ends, groups", [
        (1 / 8, [k / 8 + d / 8 for k in (2, 3, 10, 11) for d in (1e-9, 0.5, 1 - 1e-9)]
         + [12 / 8], 1),
        (0.05, [0.1234, 0.17, 1.0, 1.234, 1.2999999, 2.0000001], 1),
        (None, [20.0, 20.005, 20.915966386554622, 21.37, 21.3749999], 1),
        (None, [25.37, 3.3, 20.15, 59.5041, 3.3, 19.99, 21.3749999, 20.005], 3),
    ], ids=["step-1/8", "step-0.05", "default-step", "mixed"])
    def test_partial_steps_match_own_solves_bit_for_bit(self, monkeypatch, h, ends,
                                                        groups):
        steps, counts, stroke_ends = lattice(ends, h)
        assert set(counts[stroke_ends > counts * steps] % 2) == {0, 1}
        omegas = [1.0, 0.18]
        solves = self.counting_solves(monkeypatch)
        got = np.array(family_ends(HOT, omegas, ends, h))
        assert len(solves) == groups * len(omegas)
        for i, omega in enumerate(omegas):
            for j, t in enumerate(ends):
                pair = evolve_branch_pair(HOT, omega, t, h)
                assert pair.times[-1] == lattice(t, h)[2]
                want = [pair.rho00_1[-1], pair.cum_a[-1], pair.corr_0[-1], pair.corr_1[-1]]
                assert [float(v).hex() for v in got[:, i, j]] == [v.hex() for v in want], t

    @pytest.mark.parametrize("reservoir, omega", [(HOT, 1.0), (COLD, 0.18)],
                             ids=["hot", "cold"])
    @pytest.mark.parametrize("t_end", [20.915966386554622, 33.333, 59.5041])
    def test_partial_step_error_below_step_halving(self, reservoir, omega, t_end):
        # at the operating point the closing step moves the ends (against
        # a grid of whole steps just under 0.01) less than halving 0.01 does
        def ends(h):
            pair = evolve_branch_pair(reservoir, omega, t_end, h)
            return np.array([stroke_balance(1.0, pair).rho00[-1], pair.rho00_1[-1],
                             pair.corr_0[-1], pair.corr_1[-1]])

        step, m, end = lattice(t_end)
        assert end > m * step
        closed = ends(None)
        whole_steps = ends(t_end / np.ceil(t_end / 0.01))
        halved = ends(0.005)
        assert np.abs(closed - whole_steps).max() < np.abs(closed - halved).max()


@pytest.mark.xfail(strict=True, raises=PositivityViolation, reason=(
    "exp(-A) in _solve overflows once A(t) falls below about -706 (here at "
    "t = 42.58), so both branches turn non-finite although every finite "
    "sample lies in [0, 1]; ROADMAP item 24"))
def test_strong_damping_is_not_a_positivity_failure():
    # a sweep-edge hot stroke: the branch from |0> stays in [0.5005, 1] and
    # the one from |1> in [0, 0.5064] for as long as they are finite
    stroke = evolve_branch_pair(ReservoirSpec(30.0, 0.2, 0.4), 0.615815, 60.0)
    for rho in (stroke.rho00_1 + np.exp(stroke.cum_a), stroke.rho00_1):
        assert np.all((rho >= -POSITIVITY_TOL) & (rho <= 1.0 + POSITIVITY_TOL))


# a reservoir whose kernel peak, 1 / cutoff wide, the default step 0.01 misses
WIDE_BAND = ReservoirSpec(temperature=0.01, lam=1e-12, cutoff=56.23)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the default step 0.01 is wider than the 1/cutoff-wide kernel peak at "
    "cutoff >= 50, so A(60) reads +254.23 lam where a resolving step gives "
    "-34.936 lam; ROADMAP item 9"))
def test_default_step_resolves_a_wide_band_kernel():
    assert evolve_branch_pair(WIDE_BAND, 0.01, 60.0).cum_a[-1] < 0


@pytest.mark.parametrize("h", [0.001, 0.0005])
def test_step_within_the_kernel_peak_contracts(h):
    # a step of at most 0.02 / cutoff resolves the peak: the stroke contracts
    # and the branch from |1> stays above 0
    stroke = evolve_branch_pair(WIDE_BAND, 0.01, 60.0, h)
    assert stroke.cum_a[-1] / WIDE_BAND.lam == pytest.approx(-34.936, rel=1e-4)
    assert stroke.rho00_1[-1] > 0
