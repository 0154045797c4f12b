"""Time-convolutionless stroke solver: coefficients, solution, regime."""

import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from nmotto import PositivityViolation, ReservoirSpec, evolve_branch_pair, markov, tcl2
from nmotto.kernels import d1, d2
from nmotto.markov import branch_pair, stationary_rho00
from nmotto.tcl2 import cumulative_simpson, default_step, family_ends, lattice, time_grid

HOT = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=0.4)
COLD = ReservoirSpec(temperature=1.0, lam=0.01, cutoff=0.4)
OFF = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)


def mixed(p, reservoir, omega, t_end, h=None):
    """rho00 of the stroke started from ground population p."""
    pair = evolve_branch_pair(reservoir, omega, t_end, h)
    return p * pair.rho00_0 + (1.0 - p) * pair.rho00_1


def closed_form(p, pair):
    """rho00(t) = e^A (p - Int b e^-A) rebuilt from the branch pair's own
    coefficient samples."""
    dx = pair.times[1] - pair.times[0]
    inner = cumulative_simpson(pair.b_vals * np.exp(-pair.cum_a), dx)
    return np.exp(pair.cum_a) * (p - inner)


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
        assert default_step(60.0) == 0.01
        assert default_step(1.0) == pytest.approx(0.0005)

    def test_grid_endpoints(self):
        t = time_grid(5.0)
        assert t[0] == 0.0 and t[-1] == 5.0
        assert len(t) == 2001

    def test_step_never_grows(self):
        t = time_grid(1.0, h=0.3)
        assert len(t) >= 5
        assert t[1] - t[0] <= 0.3 + 1e-15

    @pytest.mark.parametrize("t_end", [0.7, 1.0, 5.0, 7.3, 15.75, 19.99, 20.0])
    def test_default_grid_is_linspace_below_20(self, t_end):
        # h = t_end / 2000 divides t_end: no partial step
        assert lattice(t_end)[1:] == (2000, 0.0)
        assert np.array_equal(time_grid(t_end), np.linspace(0.0, t_end, 2001))

    def test_partial_step_ends_the_grid(self):
        t = time_grid(20.005)
        assert len(t) == 2002 and t[-1] == 20.005
        assert np.array_equal(t[:-1], np.arange(2001) * 0.01)
        assert lattice(20.005)[:2] == (0.01, 2000)
        assert lattice(20.005)[2] == pytest.approx(0.005, rel=1e-9)

    @pytest.mark.parametrize("t_end", [20.15, 64.07, 100.07, 159.42])
    def test_end_a_rounding_off_the_lattice_ends_on_it(self, t_end):
        # m * 0.01 misses these decimals by about one ulp of t_end
        m = round(t_end * 100)
        assert m * 0.01 != t_end
        assert lattice(t_end) == (0.01, m, 0.0)
        assert time_grid(t_end)[-1] == t_end and len(time_grid(t_end)) == m + 1

    @pytest.mark.parametrize("t_end", [0.1, 0.2, 0.3, 0.5, 0.59])
    def test_shorter_than_two_steps_runs_two(self, t_end):
        # a user step longer than half the stroke: two steps of t_end / 2
        assert lattice(t_end, 0.3) == (t_end / 2, 2, 0.0)
        assert np.array_equal(time_grid(t_end, 0.3), np.linspace(0.0, t_end, 3))
        pair = evolve_branch_pair(HOT, 1.0, t_end, 0.3)
        assert np.array_equal(pair.times, np.linspace(0.0, t_end, 3))


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
        for r0 in (0.0, 0.25, 1.0):
            assert mixed(r0, HOT, 1.0, 5.0)[0] == r0
        assert evolve_branch_pair(HOT, 1.0, 5.0).cum_a[0] == 0.0

    def test_zero_coupling_frozen(self):
        assert np.all(mixed(0.7, OFF, 1.0, 10.0) == 0.7)

    def test_grid_convergence(self):
        coarse = evolve_branch_pair(HOT, 1.0, 5.0, h=0.0025)
        fine = evolve_branch_pair(HOT, 1.0, 5.0, h=0.00125)
        assert abs(coarse.rho00_0[-1] - fine.rho00_0[-1]) < 1e-7

    def test_deterministic(self):
        a = evolve_branch_pair(HOT, 1.0, 5.0)
        b = evolve_branch_pair(HOT, 1.0, 5.0)
        assert np.array_equal(a.rho00_0, b.rho00_0)

    def test_markovian_limit_large_cutoff(self):
        # correlation time ~ 1/cutoff: growing the cutoff at weak
        # coupling drives the stroke onto the exponential baseline and
        # the long-time population onto the Gibbs value
        diffs = []
        for cutoff in (1.0, 5.0, 10.0):
            res = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=cutoff)
            end = evolve_branch_pair(res, 1.0, 20.0).rho00_0[-1]
            baseline = branch_pair(res, 1.0, 20.0)[0]
            diffs.append(abs(end - baseline))
            assert abs(end - stationary_rho00(1.0, 5.0)) < 2e-2
        assert diffs[0] > diffs[1] > diffs[2]

    def test_transient_population_overshoot(self, ref_tcl2):
        # non-Markovian heating: the excited population passes above its
        # end-of-stroke value during the hot contact
        rho11 = 1.0 - ref_tcl2.hot.rho00_mixed(ref_tcl2.P_h)
        assert rho11.max() > rho11[-1]

    def test_positivity_violation_raised(self):
        # high temperature inflates the noise kernel until the
        # second-order map stops being positive
        hot = ReservoirSpec(temperature=50.0, lam=0.3, cutoff=0.4)
        with pytest.raises(PositivityViolation):
            evolve_branch_pair(hot, 4.0, 10.0)


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
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        assert abs(pair.rho00_0[-1] - sol.y[0, -1]) < 1e-9


class TestBranchPair:
    def test_matches_single_branch(self):
        # each branch is the closed-form solution for its own start
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        assert np.array_equal(pair.rho00_0, closed_form(1.0, pair))
        assert np.array_equal(pair.rho00_1, closed_form(0.0, pair))

    def test_affine_mixture(self):
        # the solution is affine in the initial population
        pair = evolve_branch_pair(HOT, 1.0, 5.0)
        combo = 0.3 * pair.rho00_0 + 0.7 * pair.rho00_1
        assert np.allclose(combo, closed_form(0.3, pair), rtol=0.0, atol=1e-15)


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
        ends = backend.family_ends(reservoir, omegas, times[list(steps)], h)
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

    def test_own_closing_sample_outside_marks_only_its_stroke(self, monkeypatch):
        # the odd-step stroke 3 h + h/2 closes its last whole step on a
        # sample of its own, appended at index len(lattice) = 9 of the
        # solve; no physical input was found that puts only that sample
        # outside [0, 1], so the test puts it there
        h, ends = 1 / 8, [3.5 / 8, 8 / 8]
        omegas = [1.0, 0.18]
        want = family_ends(HOT, omegas, ends, h)
        solve = tcl2._solve

        def pushed_out(times, *args):
            assert len(times) == 11 and times[9] == 3 * h
            values = solve(times, *args)
            values[0][9] = -1e-6
            return values

        monkeypatch.setattr(tcl2, "_solve", pushed_out)
        got = family_ends(HOT, omegas, ends, h)
        assert np.isnan(got[:, :, 0]).all()
        assert [v.hex() for v in got[:, :, 1].ravel()] == [v.hex() for v in want[:, :, 1].ravel()]

    # ends k h + delta past the lattice, for odd and even k, delta from
    # 1e-9 h to h - 1e-9 h; the user step 0.05 is not a power of two, and
    # the default step puts every t >= 20 on the 0.01 lattice.  The mixed
    # durations are unsorted with a repeat: below 20 each distinct one has
    # its own step, and 20.15 rounds onto the 0.01 lattice without
    # equalling 2015 * 0.01, so it keeps its own grid
    @pytest.mark.parametrize("h, ends, groups", [
        (1 / 8, [k / 8 + d / 8 for k in (2, 3, 10, 11) for d in (1e-9, 0.5, 1 - 1e-9)]
         + [12 / 8], 1),
        (0.05, [0.1234, 0.17, 1.0, 1.234, 1.2999999, 2.0000001], 1),
        (None, [20.0, 20.005, 20.915966386554622, 21.37, 21.3749999], 1),
        (None, [25.37, 3.3, 20.15, 59.5041, 3.3, 19.99, 21.3749999, 20.005], 4),
    ], ids=["step-1/8", "step-0.05", "default-step", "mixed"])
    def test_partial_steps_match_own_solves_bit_for_bit(self, monkeypatch, h, ends,
                                                        groups):
        assert {k % 2 for _, k, d in (lattice(t, h) for t in ends) if d} == {0, 1}
        omegas = [1.0, 0.18]
        solves = self.counting_solves(monkeypatch)
        got = family_ends(HOT, omegas, ends, h)
        assert len(solves) == groups * len(omegas)
        for i, omega in enumerate(omegas):
            for j, t in enumerate(ends):
                pair = evolve_branch_pair(HOT, omega, t, h)
                assert pair.times[-1] == t
                want = [pair.rho00_0[-1], pair.rho00_1[-1], pair.corr_0[-1], pair.corr_1[-1]]
                assert [float(v).hex() for v in got[:, i, j]] == [v.hex() for v in want], t

    @pytest.mark.parametrize("reservoir, omega", [(HOT, 1.0), (COLD, 0.18)],
                             ids=["hot", "cold"])
    @pytest.mark.parametrize("t_end", [20.915966386554622, 33.333, 59.5041])
    def test_partial_step_error_below_step_halving(self, reservoir, omega, t_end):
        # at the operating point the closing step moves the ends (against
        # a grid of whole steps just under 0.01) less than halving 0.01 does
        def ends(h):
            pair = evolve_branch_pair(reservoir, omega, t_end, h)
            return np.array([pair.rho00_0[-1], pair.rho00_1[-1],
                             pair.corr_0[-1], pair.corr_1[-1]])

        assert lattice(t_end)[2] > 0
        closed = ends(None)
        whole_steps = ends(t_end / np.ceil(t_end / 0.01))
        halved = ends(0.005)
        assert np.abs(closed - whole_steps).max() < np.abs(closed - halved).max()
