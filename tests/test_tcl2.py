"""Time-convolutionless stroke solver: coefficients, solution, regime."""

import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from nmotto import PositivityViolation, ReservoirSpec, evolve_branch_pair
from nmotto.kernels import d1, d2
from nmotto.markov import branch_pair, stationary_rho00
from nmotto.tcl2 import cumulative_simpson, default_step, time_grid

HOT = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=0.4)
OFF = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)


def mixed(p, reservoir, omega, t_end, h=None):
    """rho00 of the stroke started from ground population p."""
    traj0, traj1 = evolve_branch_pair(reservoir, omega, t_end, h)
    return p * traj0.rho00 + (1.0 - p) * traj1.rho00


def closed_form(p, traj):
    """rho00(t) = e^A (p - Int b e^-A) rebuilt from the trajectory's own
    coefficient samples."""
    dx = traj.times[1] - traj.times[0]
    inner = cumulative_simpson(traj.b_vals * np.exp(-traj.cum_a), dx)
    return np.exp(traj.cum_a) * (p - inner)


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


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 2001, 6001])
    def test_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        y, dx = rng.standard_normal(n), rng.uniform(1e-3, 1.0)
        ref = scipy.integrate.cumulative_simpson(y, dx=dx, initial=0.0)
        assert np.array_equal(cumulative_simpson(y, dx), ref)


class TestCoefficients:
    def test_zero_time(self):
        traj = evolve_branch_pair(HOT, 1.0, 5.0)[0]
        assert traj.a_vals[0] == 0.0
        assert traj.b_vals[0] == 0.0

    def test_zero_coupling(self):
        traj = evolve_branch_pair(OFF, 1.0, 5.0)[0]
        assert traj.a_vals[-1] == 0.0
        assert traj.b_vals[-1] == 0.0

    def test_cross_scheme_agreement(self):
        ours = evolve_branch_pair(HOT, 1.0, 5.0)[0].a_vals[-1]
        ref = quad_coefficient("a", 5.0, HOT, 1.0)
        assert ours == pytest.approx(ref, rel=1e-8)

    def test_cross_scheme_agreement_b(self):
        ours = evolve_branch_pair(HOT, 1.0, 5.0)[0].b_vals[-1]
        ref = quad_coefficient("b", 5.0, HOT, 1.0)
        assert ours == pytest.approx(ref, rel=1e-8)


class TestEvolveDiagonal:
    """The stroke solution, through ``evolve_branch_pair``."""

    def test_initial_condition_exact(self):
        for r0 in (0.0, 0.25, 1.0):
            assert mixed(r0, HOT, 1.0, 5.0)[0] == r0
        for traj in evolve_branch_pair(HOT, 1.0, 5.0):
            assert traj.cum_a[0] == 0.0

    def test_population_conservation(self):
        for traj in evolve_branch_pair(HOT, 1.0, 5.0):
            assert np.all(traj.rho00 + traj.rho11 == 1.0)

    def test_zero_coupling_frozen(self):
        assert np.all(mixed(0.7, OFF, 1.0, 10.0) == 0.7)

    def test_grid_convergence(self):
        coarse = evolve_branch_pair(HOT, 1.0, 5.0, h=0.0025)[0]
        fine = evolve_branch_pair(HOT, 1.0, 5.0, h=0.00125)[0]
        assert abs(coarse.rho00[-1] - fine.rho00[-1]) < 1e-7

    def test_deterministic(self):
        a = evolve_branch_pair(HOT, 1.0, 5.0)[0]
        b = evolve_branch_pair(HOT, 1.0, 5.0)[0]
        assert np.array_equal(a.rho00, b.rho00)

    def test_markovian_limit_large_cutoff(self):
        # correlation time ~ 1/cutoff: growing the cutoff at weak
        # coupling drives the stroke onto the exponential baseline and
        # the long-time population onto the Gibbs value
        diffs = []
        for cutoff in (1.0, 5.0, 10.0):
            res = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=cutoff)
            traj = evolve_branch_pair(res, 1.0, 20.0)[0]
            baseline = branch_pair(res, 1.0, 20.0)[0]
            diffs.append(abs(traj.rho00[-1] - baseline))
            assert abs(traj.rho00[-1] - stationary_rho00(1.0, 5.0)) < 2e-2
        assert diffs[0] > diffs[1] > diffs[2]

    def test_transient_population_overshoot(self, ref_tcl2):
        # non-Markovian heating: the excited population passes above its
        # end-of-stroke value during the hot contact
        rho11 = 1.0 - ref_tcl2.hot.rho00_mixed(ref_tcl2.cycle.P_h)
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
        traj = evolve_branch_pair(HOT, 1.0, 5.0)[0]
        assert abs(traj.rho00[-1] - sol.y[0, -1]) < 1e-9


class TestBranchPair:
    def test_matches_single_branch(self):
        # each branch is the closed-form solution for its own start
        traj0, traj1 = evolve_branch_pair(HOT, 1.0, 5.0)
        assert np.array_equal(traj0.rho00, closed_form(1.0, traj0))
        assert np.array_equal(traj1.rho00, closed_form(0.0, traj1))

    def test_affine_mixture(self):
        # the solution is affine in the initial population
        traj0, traj1 = evolve_branch_pair(HOT, 1.0, 5.0)
        combo = 0.3 * traj0.rho00 + 0.7 * traj1.rho00
        assert np.allclose(combo, closed_form(0.3, traj0), rtol=0.0, atol=1e-15)
