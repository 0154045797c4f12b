"""Acceptance suite: one check per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  All checks run at the documented operating point (omega_h = 1,
omega_c = 0.18, T_h = 5, T_c = 1, lam = 0.01, cutoff = 0.4) unless a
criterion says otherwise.

Criteria 3 and 6 state the short-time, non-Markovian signatures of the
hot stroke in the form the model predicts at this point, where
eta_O = 0.82 exceeds eta_C = 0.8:

* criterion 3: the working substance enters the hot stroke after
  compression at T_eff ~ omega_h T_c / omega_c ~ 5.55, above T_h, so a
  fixed bound T_eff <= T_h cannot hold and T_eff > T_h proves nothing.
  The overshoot is measured against the Markov relaxation envelope:
  Markov T_eff moves monotonically from its start toward T_h and never
  leaves the interval they span, while TCL2 T_eff rises above both its
  own start and T_h.  The bound as first worded (TCL2 above T_h, Markov
  at most T_h) is checked at (omega_h, omega_c) = (1, 0.25), a
  below-Carnot pair where the stroke starts below T_h.
* criterion 6: W_II < 0 on the whole grid and W_II -> 0- as both
  contact durations shrink, so the global argmax sits at the (1, 1)
  corner.  The backflow-induced maximum is local: TCL2 W_II has a
  strict interior local maximum in the short-time regime t1 <= 5, and
  Markov W_II, non-increasing in both durations, has none.
"""

from dataclasses import replace

import numpy as np
import pytest

from nmotto import (
    EngineParams,
    discretize_bath,
    energy_flow,
    evaluate_cycle,
    evaluate_grid,
    exact_evolve,
    positive_work_condition,
    stationary_rho00,
    stroke_balance,
)
from nmotto.energetics import StrokeEnds, _close_cycle, effective_temperature_profile
from nmotto.kernels import d1, d2
from test_cycle import two_point_ledger, two_point_measurement
from test_kernels import REF_SPEC, d1_by_quadrature, d2_by_quadrature

ENGINE = EngineParams(
    omega_h=1.0, omega_c=0.18, T_h=5.0, T_c=1.0,
    lam=0.01, cutoff=0.4, t1=5.0, t2=60.0,
)

T_GRID = np.linspace(1.0, 60.0, 60)


def _criterion(num, description, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


@pytest.fixture(scope="module")
def tcl2_eval():
    return evaluate_cycle(ENGINE, "tcl2")


@pytest.fixture(scope="module")
def markov_eval():
    return evaluate_cycle(ENGINE, "markov")


def _ledger_grids(t1_values, t2_values, backend, omega_pairs=None, engine=ENGINE):
    """The ``EnergyLedger`` of a (pair, t1, t2) grid.  Every point must
    succeed, as the per-point ``evaluate_cycle`` would raise otherwise."""
    if omega_pairs is not None:
        his, los = np.transpose(omega_pairs)
        engine = replace(engine, omega_h=his, omega_c=los)
    ledger, errors = evaluate_grid(engine, t1_values, t2_values, backend)
    assert np.all(errors == ""), set(errors.flat)
    return ledger


def _work_grids(backend):
    """(W_I, W_II) over the T_GRID x T_GRID duration grid."""
    ledger = _ledger_grids(T_GRID, T_GRID, backend)
    return ledger.W_I[0], ledger.W_II[0]


@pytest.fixture(scope="module")
def tcl2_sweep():
    return _work_grids("tcl2")


@pytest.fixture(scope="module")
def markov_sweep():
    return _work_grids("markov")


@pytest.fixture(scope="module")
def oracle_run(tcl2_eval):
    times = np.arange(0.0, 5.25, 0.25)
    bath = discretize_bath(ENGINE.hot_reservoir, 4, 2.0, 4)
    p_h = tcl2_eval.P_h
    result = exact_evolve(p_h, ENGINE.omega_h, bath, times)
    return result, bath


def test_criterion_01_efficiency_identities():
    ok = abs(ENGINE.eta_otto - 0.82) < 1e-15 and abs(ENGINE.eta_carnot - 0.8) < 1e-15
    _criterion(1, "eta_O = 0.82 and eta_C = 0.8 to 1e-15", ok,
               f"eta_O={ENGINE.eta_otto!r}, eta_C={ENGINE.eta_carnot!r}")


def test_criterion_02_energy_backflow(tcl2_eval, markov_eval):
    _, theta_nm = energy_flow(tcl2_eval.P_h, tcl2_eval.hot)
    _, theta_m = energy_flow(markov_eval.P_h, markov_eval.hot)
    ok = (theta_nm.min() < 0.0) and np.all(theta_m >= -1e-12)
    _criterion(2, "backflow in TCL2 hot stroke, none under Markov", ok,
               f"min theta: tcl2 {theta_nm.min():.3e}, markov {theta_m.min():.3e}")


def _hot_t_eff(ev):
    """T_eff along the hot stroke of an evaluated limit cycle."""
    return effective_temperature_profile(
        stroke_balance(ev.P_h, ev.hot).rho00, ev.hot.omega)


def test_criterion_03_effective_temperature_overshoot(tcl2_eval, markov_eval):
    t_nm = _hot_t_eff(tcl2_eval)
    t_m = _hot_t_eff(markov_eval)
    # Each profile starts at its own post-compression temperature, above
    # T_h here, so the overshoot is measured against the larger of the two.
    tcl2_ok = t_nm.max() > max(t_nm[0], ENGINE.T_h)
    steps = np.diff(t_m)
    monotone = steps.max() <= 1e-6 or steps.min() >= -1e-6
    low, high = sorted((t_m[0], ENGINE.T_h))
    markov_ok = monotone and low - 1e-6 <= t_m.min() and t_m.max() <= high + 1e-6

    # The literal bound, at a pair whose stroke starts below T_h.
    below = replace(ENGINE, omega_h=1.0, omega_c=0.25)
    lit_nm = _hot_t_eff(evaluate_cycle(below, "tcl2"))
    lit_m = _hot_t_eff(evaluate_cycle(below, "markov"))
    literal_ok = lit_nm.max() > below.T_h and lit_m.max() <= below.T_h + 1e-6

    _criterion(3, "T_eff overshoot: TCL2 above max(T_eff(0), T_h), Markov "
                  "monotone within [T_eff(0), T_h]; at (1, 0.25) TCL2 above "
                  "T_h, Markov bounded by T_h",
               tcl2_ok and markov_ok and literal_ok,
               f"tcl2 {t_nm[0]:.4f} -> max {t_nm.max():.4f}, markov range "
               f"[{t_m.min():.4f}, {t_m.max():.4f}]; at (1, 0.25): tcl2 max "
               f"{lit_nm.max():.4f}, markov max {lit_m.max():.4f}")


def test_criterion_04_interaction_energy_sign():
    t1_values = np.arange(1.0, 5.5, 0.5)
    # E_I_h over one column at t2 = 60
    e_nm, e_m = (_ledger_grids(t1_values, [ENGINE.t2], backend).E_I_h
                 for backend in ("tcl2", "markov"))
    e_m = np.abs(e_m)
    ok = bool(np.all(e_nm < 0.0)) and bool(np.all(e_m < 1e-10))
    _criterion(4, "E_I^h(t1) < 0 under TCL2 and vanishes under Markov, t1 in [1,5]",
               ok, f"tcl2 max {e_nm.max():.3e}, markov max {e_m.max():.3e}")


def test_criterion_05_w2_negative_everywhere(tcl2_sweep):
    _, w_2 = tcl2_sweep
    ok = bool(np.all(w_2 < 0.0))
    _criterion(5, "W_II < 0 on the whole 60x60 duration grid", ok,
               f"max W_II = {w_2.max():.3e}")


def _strict_interior_maxima(grid):
    """(i, j) of every interior cell above all eight of its neighbours."""
    rows, cols = grid.shape
    centre = grid[1:-1, 1:-1]
    is_max = np.ones(centre.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_max &= centre > grid[1 + di:rows - 1 + di, 1 + dj:cols - 1 + dj]
    return [(i + 1, j + 1) for i, j in zip(*np.nonzero(is_max))]


def test_criterion_06_w2_interior_maximum(tcl2_sweep, markov_sweep):
    tcl2_max = _strict_interior_maxima(tcl2_sweep[1])
    markov_max = _strict_interior_maxima(markov_sweep[1])
    # The global argmax is the (1, 1) corner, where W_II -> 0-; the
    # backflow maximum is local and belongs to the short-time regime.
    tcl2_ok = bool(tcl2_max) and all(T_GRID[i] <= 5.0 for i, _ in tcl2_max)
    ok = tcl2_ok and not markov_max
    at = ", ".join(f"({T_GRID[i]:g}, {T_GRID[j]:g})" for i, j in tcl2_max)
    _criterion(6, "W_II has a strict interior local maximum, all at t1 <= 5, "
                  "under TCL2 and none under Markov", ok,
               f"tcl2 maxima at (t1, t2) = [{at}], "
               f"{len(markov_max)} under Markov")


def test_criterion_07_w1_sign_structure(tcl2_sweep):
    w_1, _ = tcl2_sweep
    short = w_1[T_GRID <= 5.0]
    late = w_1[T_GRID >= 20.0]
    ok = bool((short > 0.0).any()) and bool(np.all(late <= 0.0))
    _criterion(7, "W_I > 0 somewhere at t1 <= 5 and W_I <= 0 for all t1 >= 20",
               ok, f"max early {short.max():.3e}, max late {late.max():.3e}")


def test_criterion_08_markov_monotone_negative(markov_sweep):
    w_1, w_2 = markov_sweep
    coincide = np.max(np.abs(w_2 - w_1)) == 0.0
    nonpositive = bool(np.all(w_1 <= 0.0))
    along_t1 = np.diff(w_1, axis=0).max() <= 1e-12
    along_t2 = np.diff(w_1, axis=1).max() <= 1e-12
    ok = coincide and nonpositive and along_t1 and along_t2
    _criterion(8, "Markov work nonpositive and non-increasing in t1 and t2", ok,
               f"max W {w_1.max():.3e}, max diffs "
               f"{np.diff(w_1, axis=0).max():.2e}/{np.diff(w_1, axis=1).max():.2e}")


def _full_thermalization_w1(engine):
    # each stroke forgets its start and stores no interaction energy
    r_h = stationary_rho00(engine.omega_h, engine.T_h)
    r_c = stationary_rho00(engine.omega_c, engine.T_c)
    hot = StrokeEnds(r_h, -np.inf, 0.0, 0.0)
    cold = StrokeEnds(r_c, -np.inf, 0.0, 0.0)
    _, degenerate, _, _, ledger = _close_cycle(
        engine.lam, engine.omega_h, engine.omega_c, hot, cold)
    assert not degenerate
    return ledger.W_I


def test_criterion_09_positive_work_classifier():
    rng = np.random.default_rng(20260810)
    misclassified = 0
    n_checked = 0
    while n_checked < 100:
        freq_ratio = rng.uniform(0.05, 0.95)
        temp_ratio = rng.uniform(0.05, 0.95)
        if abs(freq_ratio - temp_ratio) < 1e-9:
            continue
        n_checked += 1
        eng = EngineParams(1.0, freq_ratio, 5.0, 5.0 * temp_ratio,
                           0.01, 0.4, 5.0, 5.0)
        w_1 = _full_thermalization_w1(eng)
        if (w_1 > 0.0) != positive_work_condition(eng):
            misclassified += 1
    _criterion(9, "full-thermalization work sign matches the frequency/"
                  "temperature-ratio criterion on 100 random points",
               misclassified == 0, f"{misclassified} misclassified")


# criterion 10's (omega_h, omega_c) pairs, on its 12x12 duration grid
SPLIT_GRID = np.linspace(1.0, 60.0, 12)
BELOW_CARNOT = [(0.9, 0.2), (0.9, 0.25), (1.0, 0.25)]    # eta_O < eta_C
ABOVE_CARNOT = [(1.0, 0.18), (1.25, 0.18), (1.25, 0.2)]  # eta_O > eta_C
AT_CARNOT = [(0.9, 0.18), (1.0, 0.2), (1.25, 0.25)]      # eta_O = eta_C


def test_criterion_10_splitting_dependence():
    grid, below, above, equal = SPLIT_GRID, BELOW_CARNOT, ABOVE_CARNOT, AT_CARNOT

    # each pair's maximum over its durations, axis 0 the pairs
    w_1 = _ledger_grids(grid, grid, "tcl2", below).W_I.max(axis=(1, 2))
    w_2 = _ledger_grids(grid, grid, "tcl2", above).W_II.max(axis=(1, 2))
    ok_below, ok_above = bool(np.all(w_1 > 0.0)), bool(np.all(w_2 < 0.0))
    ok_equal = all(
        abs(_full_thermalization_w1(replace(ENGINE, omega_h=wh, omega_c=wc))) <= 1e-10
        for wh, wc in equal
    )
    _criterion(10, "splitting dependence: positive W_I below Carnot, all "
                   "W_II < 0 above, zero work at equality",
               ok_below and ok_above and ok_equal,
               f"below={ok_below}, above={ok_above}, equal={ok_equal}")


def test_criterion_11_kernel_quadrature():
    taus = np.logspace(-3, 2, 200)
    closed_1 = d1(taus, REF_SPEC)
    closed_2 = d2(taus, REF_SPEC)
    worst = 0.0
    for tau, c1, c2 in zip(taus, closed_1, closed_2):
        q1 = d1_by_quadrature(tau, REF_SPEC)
        q2 = d2_by_quadrature(tau, REF_SPEC)
        worst = max(worst,
                    abs(c1 - q1) / (abs(q1) + 1e-12 / 1e-6),
                    abs(c2 - q2) / (abs(q2) + 1e-12 / 1e-6))
        assert abs(c1 - q1) <= 1e-6 * abs(q1) + 1e-12
        assert abs(c2 - q2) <= 1e-6 * abs(q2) + 1e-12
    _criterion(11, "closed-form kernels match defining integrals to 1e-6 "
                   "over 200 log-spaced lags", True, f"worst rel {worst:.2e}")


def test_criterion_12_conservation(tcl2_eval, markov_eval):
    worst = 0.0
    for ev in (tcl2_eval, markov_eval):
        for stroke, p in ((ev.hot, ev.P_h), (ev.cold, ev.P_c)):
            bal = stroke_balance(p, stroke)
            residual = bal.dES + bal.dEB + bal.E_I
            worst = max(worst, np.max(np.abs(residual)) / stroke.omega)
    _criterion(12, "dE_S + dE_B + E_I balances to 1e-8 omega at every "
                   "grid time, both strokes, both backends",
               worst < 1e-8, f"worst residual {worst:.2e} omega")


def _grid_indices(grid, times):
    """Indices of ``times`` on the uniform ``grid`` that starts at 0."""
    idx = np.rint(times / grid[1]).astype(int)
    assert np.allclose(grid[idx], times, rtol=1e-9, atol=1e-9)
    return idx


def test_criterion_13_oracle_adjudication(tcl2_eval, oracle_run):
    result, bath = oracle_run
    late = result.times > 0.5
    negative = bool(np.all(result.interaction[late] < 0.0))
    scale = ENGINE.omega_h / 2.0 + float(
        np.sum(bath.frequencies) * bath.fock_cutoff)
    conserved = np.max(np.abs(result.conservation_residual)) < 1e-10 * scale
    e_i_solver = stroke_balance(tcl2_eval.P_h, tcl2_eval.hot).E_I
    idx = _grid_indices(tcl2_eval.hot.times, result.times[late])
    signs_agree = bool(np.all(np.sign(e_i_solver[idx])
                              == np.sign(result.interaction[late])))
    ok = negative and conserved and signs_agree
    _criterion(13, "exact few-mode run: E_I < 0 on (0.5, 5], conservation "
                   "to 1e-10, sign agreement with the solver", ok,
               f"max E_I {result.interaction[late].max():.3e}, residual "
               f"{np.max(np.abs(result.conservation_residual)):.2e}")


def test_criterion_14_grid_convergence():
    coarse = evaluate_cycle(ENGINE, "tcl2", h=0.01).ledger.W_II
    fine = evaluate_cycle(ENGINE, "tcl2", h=0.005).ledger.W_II
    ok = abs(coarse - fine) < 1e-7
    _criterion(14, "halving the quadrature step moves W_II(5, 60) by < 1e-7",
               ok, f"|delta| = {abs(coarse - fine):.2e}")


def _entropy_productions(ledger):
    """(Sigma_I, Sigma_II) per cycle: the heat taken on the system side,
    -dE_S, and on the reservoir side, dE_B, each over its reservoir's
    temperature."""
    sigma_1 = -ledger.dES_h / ENGINE.T_h - ledger.dES_c / ENGINE.T_c
    sigma_2 = ledger.dEB_h / ENGINE.T_h + ledger.dEB_c / ENGINE.T_c
    return sigma_1, sigma_2


def test_criterion_15_second_law_with_interaction_energy():
    # the operating pair on the 60x60 grid, then criterion 10's nine pairs
    unequal = BELOW_CARNOT + ABOVE_CARNOT
    sigmas = {backend: [_entropy_productions(ledger) for ledger in (
        _ledger_grids(T_GRID, T_GRID, backend),
        _ledger_grids(SPLIT_GRID, SPLIT_GRID, backend, unequal + AT_CARNOT))]
              for backend in ("tcl2", "markov")}
    # Markov Sigma_II vanishes where eta_O = eta_C, up to roundoff
    min_2 = min(s_2.min() for grids in sigmas.values() for _, s_2 in grids)
    ok_2 = min_2 >= -1e-15
    # each pair's minimum over its durations: the operating pair, then the unequal ones
    (operating_1, _), (split_1, _) = sigmas["tcl2"]
    tcl2_min_1 = [operating_1.min(), *split_1[:len(unequal)].min(axis=(1, 2))]
    ok_1 = max(tcl2_min_1) < 0.0
    ok_markov = all(np.array_equal(s_1, s_2) for s_1, s_2 in sigmas["markov"])
    _criterion(15, "second law with interaction energy: Sigma_II >= 0 under "
                   "both backends, TCL2 Sigma_I < 0 somewhere at every unequal "
                   "pair, Sigma_I == Sigma_II under Markov",
               ok_2 and ok_1 and ok_markov,
               f"min Sigma_II {min_2:.2e}, TCL2 min Sigma_I/lam at the "
               f"operating pair {tcl2_min_1[0] / ENGINE.lam:.3e}, "
               f"Markov equal={ok_markov}")


def test_criterion_17_second_law_split_at_weak_coupling():
    # finding (1) does not fade with the coupling: Sigma_I / lam and
    # Sigma_II / lam tend to nonzero limits, about -1.68e-2 at
    # (t1, t2) = (3, 60) and 0.1305
    lams = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-16, 1e-20)
    scaled = [[sigma / lam for sigma in _entropy_productions(
        _ledger_grids(T_GRID, T_GRID, "tcl2", engine=replace(ENGINE, lam=lam)))]
              for lam in lams]
    min_1 = [s_1.min() for s_1, _ in scaled]
    min_2 = [s_2.min() for _, s_2 in scaled]
    ok = max(min_1) < 0.0 and min(min_2) >= 0.0
    _criterion(17, "Sigma_II >= 0 everywhere and Sigma_I < 0 somewhere on the "
                   "60x60 TCL2 grid at every lam in 1e-2 .. 1e-20", ok,
               f"min Sigma_I/lam in [{min(min_1):.4e}, {max(min_1):.4e}], "
               f"min Sigma_II/lam {min(min_2):.4f}")


def test_criterion_19_findings_survive_vanishing_coupling(tcl2_sweep):
    # lam -> 0 by the two-point measurement alone: no kernel, no TCL2
    # solve, the cycle closed on its own first-order contact map
    p, _, w_2, sigma_1, sigma_2 = two_point_ledger(ENGINE, T_GRID, T_GRID)
    ok_sigma = sigma_2.min() > 0.0 and sigma_1.min() < 0.0
    # W_II / lam along t1 at t2 = 36: -0.9087, -1.0229, -0.9962, -0.9551,
    # -0.9624 at t1 = 1 to 5
    at_36 = w_2[:, T_GRID == 36.0][:, 0]
    mid = at_36[1:-1]
    peaks = T_GRID[1:-1][(at_36[:-2] < mid) & (mid > at_36[2:])].tolist()
    ok_peak = [t for t in peaks if t <= 5.0] == [4.0]
    # the hot stroke of the (5, 36) cycle from its own P_h
    p_h = p[T_GRID == 5.0, T_GRID == 36.0][0]
    times = np.linspace(0.0, 5.0, 101)
    back = np.flatnonzero(two_point_measurement(
        ENGINE.hot_reservoir, ENGINE.omega_h, p_h, times)[3] < 0.0)
    window = times[back[[0, -1]]] if back.size else np.array([np.nan, np.nan])
    ok_window = (back.size > 0 and np.all(np.diff(back) == 1)
                 and 1.8 <= window[0] and window[1] <= 3.8)
    weak = _ledger_grids(T_GRID, T_GRID, "tcl2", engine=replace(ENGINE, lam=1e-6))
    off_weak = np.abs(weak.W_II[0] / 1e-6 - w_2).max()
    # lam = 0.01 is not first order at long strokes: lam Gamma t is 3 to 5 at t = 60
    off_paper = np.abs(tcl2_sweep[1] / ENGINE.lam - w_2).max()
    _criterion(19, "as lam -> 0 by the two-point measurement: Sigma_II > 0 "
                   "everywhere and Sigma_I < 0 somewhere on the 60x60 grid, "
                   "W_II has an interior maximum at t1 = 4 at t2 = 36, the hot "
                   "stroke of (5, 36) has a backflow window inside [1.8, 3.8], "
                   "and TCL2 W_II/lam at lam = 1e-6 lies within 1e-4 of it",
               ok_sigma and ok_peak and ok_window and off_weak <= 1e-4,
               f"min Sigma_II/lam {sigma_2.min():.4f}, min Sigma_I/lam "
               f"{sigma_1.min():.4e}, W_II/lam maxima at t1 = {peaks}, window "
               f"[{window[0]:g}, {window[1]:g}] at P_h {p_h:.6f}, TCL2 off by "
               f"{off_weak:.1e} at lam = 1e-6 and {off_paper:.3f} at lam = 0.01 "
               f"of a largest |W_II/lam| {np.abs(w_2).max():.2f}")
