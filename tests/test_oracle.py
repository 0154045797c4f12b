"""Exact few-mode reference: construction, conservation, agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nmotto import (
    ReservoirSpec,
    discretize_bath,
    evaluate_cycle,
    exact_evolve,
)
from nmotto import oracle
from nmotto.energetics import stroke_balance
from nmotto.kernels import SCALE
from nmotto.oracle import WEIGHT_CUTOFF, DiscretizedBath

REF_SPEC = ReservoirSpec(temperature=5.0, lam=0.01, cutoff=0.4)
# truncation-converged comparison bath: low temperature, deep Fock space
COLDISH = ReservoirSpec(temperature=0.25, lam=0.01, cutoff=0.4)


def spectral_weight(upper, spec):
    x = upper / spec.cutoff
    return spec.lam * spec.cutoff**2 * (1.0 - np.exp(-x) * (1.0 + x))


class TestDiscretizeBath:
    def test_single_bin(self):
        bath = discretize_bath(REF_SPEC, 1, 0.8, 3)
        assert bath.frequencies[0] == pytest.approx(0.4)
        assert bath.couplings[0] ** 2 == pytest.approx(
            spectral_weight(0.8, REF_SPEC), rel=1e-14)

    def test_total_weight_reproduced(self):
        bath = discretize_bath(REF_SPEC, 4, 2.0, 4)
        assert np.sum(bath.couplings**2) == pytest.approx(
            spectral_weight(2.0, REF_SPEC), rel=1e-12)

    def test_zero_coupling(self):
        off = ReservoirSpec(temperature=5.0, lam=0.0, cutoff=0.4)
        bath = discretize_bath(off, 4, 2.0, 4)
        assert np.all(bath.couplings == 0.0)

    def test_dimension_bound_enforced(self):
        with pytest.raises(ValueError):
            DiscretizedBath(
                frequencies=np.ones(8), couplings=np.ones(8),
                fock_cutoff=4, temperature=1.0)
        above = SCALE * (1 + 2**-52)
        for bad, message in (({"couplings": np.ones(3)}, "equal length"),
                             ({"fock_cutoff": 0}, "at least two Fock levels"),
                             ({"temperature": 0.0}, r"temperature must lie in \["),
                             ({"temperature": above}, r"temperature must lie in \["),
                             ({"temperature": 1 / SCALE / 2}, r"temperature must lie in \["),
                             ({"couplings": [1.0, SCALE**2 * (1 + 2**-52)]},
                              r"couplings must lie in \[0.0, "),
                             ({"couplings": [1.0, -5e-324]}, r"couplings must lie in \[0.0, ")):
            kwargs = {"frequencies": np.ones(2), "couplings": np.ones(2),
                      "fock_cutoff": 2, "temperature": 1.0, **bad}
            with pytest.raises(ValueError, match=message):
                DiscretizedBath(**kwargs)
        for edge in ({"temperature": SCALE}, {"temperature": 1 / SCALE},
                     {"couplings": [0.0, SCALE**2]}):
            DiscretizedBath(**{"frequencies": np.ones(2), "couplings": np.ones(2),
                               "fock_cutoff": 2, "temperature": 1.0, **edge})

    @pytest.mark.parametrize("eps", [-0.5, 0.0, np.nan, SCALE * (1 + 2**-52)])
    def test_mode_frequencies_positive(self, eps):
        # frequencies lie in (0, SCALE]
        DiscretizedBath(frequencies=np.array([SCALE, math.ulp(0.0)]),
                        couplings=np.ones(2), fock_cutoff=2, temperature=1.0)
        with pytest.raises(ValueError, match=r"mode frequencies must lie in \[5e-324, "):
            DiscretizedBath(frequencies=np.array([1.0, eps]),
                            couplings=np.ones(2), fock_cutoff=2, temperature=1.0)

    def test_mode_count_bounded_before_allocating(self):
        # every mode at least doubles the dimension
        with pytest.raises(ValueError, match="16 modes exceed composite dimension 8192"):
            discretize_bath(REF_SPEC, 16, 2.0, 1)
        with pytest.raises(ValueError, match="at least one mode"):
            discretize_bath(REF_SPEC, 0, 2.0, 1)
        for omega_max in (0.0, 1e308, SCALE * (1 + 2**-52), 1 / SCALE / 2):
            with pytest.raises(ValueError, match=r"omega_max must lie in \["):
                discretize_bath(REF_SPEC, 2, omega_max, 1)
        for omega_max in (SCALE, 1 / SCALE):
            discretize_bath(REF_SPEC, 2, omega_max, 1)


def brute_force_energies(p, omega, bath, times):
    """Independent check: build the Hamiltonian from scratch, evolve the
    full density matrix from qubit ground probability p with expm,
    trace against each energy piece.

    Columns: E_S, E_B, E_I, trace, non-hermiticity, then the top-Fock
    population of each mode."""
    m = bath.fock_cutoff
    dim_b = (m + 1) ** bath.n_modes
    ident = np.eye(m + 1)
    low = np.diag(np.sqrt(np.arange(1.0, m + 1)), 1)
    num = np.diag(np.arange(m + 1, dtype=float))

    def chain(k, op):
        out = np.eye(1)
        for i in range(bath.n_modes):
            out = np.kron(out, op if i == k else ident)
        return out

    h_b = sum(bath.frequencies[k] * chain(k, num) for k in range(bath.n_modes))
    x_b = sum(bath.couplings[k] * chain(k, low + low.T) for k in range(bath.n_modes))
    h_s = omega / 2.0 * np.kron(np.diag([-1.0, 1.0]), np.eye(dim_b))
    h_bf = np.kron(np.eye(2), h_b)
    h_i = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), x_b)
    h = h_s + h_bf + h_i
    top = np.zeros((m + 1, m + 1))
    top[m, m] = 1.0
    tops = [np.kron(np.eye(2), chain(k, top)) for k in range(bath.n_modes)]

    w_b = np.eye(1)
    for eps in bath.frequencies:
        wk = np.exp(-eps * np.arange(m + 1) / bath.temperature)
        w_b = np.kron(w_b, wk / wk.sum())
    w_b = np.where(w_b < WEIGHT_CUTOFF, 0.0, w_b)  # the documented weight cutoff
    rho0 = np.diag(np.kron([p, 1.0 - p], w_b.ravel() / w_b.sum()))

    rows = []
    for t in times:
        u = expm(-1j * h * t)
        rho_t = u @ rho0 @ u.conj().T
        rows.append([
            np.real(np.trace(rho_t @ h_s)),
            np.real(np.trace(rho_t @ h_bf)),
            np.real(np.trace(rho_t @ h_i)),
            np.real(np.trace(rho_t)),
            np.max(np.abs(rho_t - rho_t.conj().T)),
            *(np.real(np.trace(rho_t @ p)) for p in tops),
        ])
    return np.array(rows)


class TestExactEvolve:
    def test_factorized_start_all_zero(self):
        bath = discretize_bath(COLDISH, 2, 1.0, 3)
        res = exact_evolve(0.8, 1.0, bath, [0.0])
        assert abs(res.d_system[0]) < 1e-13
        assert abs(res.d_bath[0]) < 1e-13
        assert abs(res.interaction[0]) < 1e-13

    def test_zero_coupling_stays_zero(self):
        off = ReservoirSpec(temperature=1.0, lam=0.0, cutoff=0.4)
        bath = discretize_bath(off, 2, 1.0, 3)
        res = exact_evolve(0.7, 1.0, bath, np.linspace(0, 5, 6))
        assert np.max(np.abs(res.d_system)) < 1e-14
        assert np.max(np.abs(res.d_bath)) < 1e-14
        assert np.max(np.abs(res.interaction)) < 1e-14

    def test_conservation_exact(self):
        bath = discretize_bath(REF_SPEC, 3, 1.5, 3)
        res = exact_evolve(0.5, 1.0, bath, np.linspace(0, 5, 11))
        scale = 1.0 + np.sum(bath.frequencies * bath.fock_cutoff)
        assert np.max(np.abs(res.conservation_residual)) < 1e-10 * scale

    def test_matches_expm_density_matrix(self):
        # independent route: dense propagator and explicit rho(t);
        # the tiny deliberately-unconverged bath flags truncation
        bath = discretize_bath(COLDISH, 1, 0.8, 2)
        times = np.array([0.0, 0.7, 1.9, 3.3])
        res = exact_evolve(0.62, 1.1, bath, times)
        ref = brute_force_energies(0.62, 1.1, bath, times)
        assert np.allclose(res.d_system, ref[:, 0] - ref[0, 0], atol=1e-12)
        assert np.allclose(res.d_bath, ref[:, 1] - ref[0, 1], atol=1e-12)
        assert np.allclose(res.interaction, ref[:, 2] - ref[0, 2], atol=1e-12)
        # trace preservation and hermiticity of the evolved state
        assert np.allclose(ref[:, 3], 1.0, atol=1e-10)
        assert np.max(ref[:, 4]) < 1e-10

    @pytest.mark.parametrize("n_modes, fock", [(2, 2), (1, 1)])
    @pytest.mark.parametrize("start", [0.62, 1.0, 0.0],
                             ids=["start0", "start1", "start2"])
    def test_parity_blocks_match_dense(self, n_modes, fock, start):
        # the unblocked space evolved with expm; at Fock cutoff 1 with one
        # mode each parity block has two states
        spec = ReservoirSpec(temperature=1.0, lam=0.3, cutoff=0.4)
        bath = discretize_bath(spec, n_modes, 1.0, fock)
        times = np.array([0.0, 0.4, 1.3, 2.9, 6.1])
        res = exact_evolve(start, 1.1, bath, times)
        ref = brute_force_energies(start, 1.1, bath, times)
        np.testing.assert_allclose(res.d_system, ref[:, 0] - ref[0, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.d_bath, ref[:, 1] - ref[0, 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.interaction, ref[:, 2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.top_level_population, ref[:, 5:].max(axis=1),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n_modes=st.integers(1, 3), fock=st.integers(1, 3),
           lam=st.floats(0.0, 0.3), temperature=st.floats(0.2, 5.0),
           omega=st.floats(0.3, 2.0), p=st.floats(0.0, 1.0))
    def test_matches_dense_kronecker_hamiltonian(self, n_modes, fock, lam,
                                                 temperature, omega, p):
        # the ladder product against the full Kronecker-product Hamiltonian,
        # on every mode layout up to bath dimension 64
        spec = ReservoirSpec(temperature=temperature, lam=lam, cutoff=0.4)
        bath = discretize_bath(spec, n_modes, 1.5, fock)
        times = np.array([0.0, 0.4, 1.3, 2.9])
        res = exact_evolve(p, omega, bath, times)
        ref = brute_force_energies(p, omega, bath, times)
        atol = 1e-12 * (1.0 + np.sum(bath.frequencies * bath.fock_cutoff))
        for got, want in [(res.d_system, ref[:, 0] - ref[0, 0]),
                          (res.d_bath, ref[:, 1] - ref[0, 1]),
                          (res.interaction, ref[:, 2]),
                          (res.top_level_population, ref[:, 5:].max(axis=1))]:
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    def test_truncation_flagged_at_high_temperature(self):
        bath = discretize_bath(REF_SPEC, 2, 1.0, 3)
        res = exact_evolve(0.5, 1.0, bath, [0.0, 1.0])
        assert res.truncation_flagged.any()

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_ground_probability_validated(self, p):
        bath = discretize_bath(COLDISH, 1, 0.8, 2)
        message = r"^ground probability p must lie in \[0\.0, 1\.0\], got "
        with pytest.raises(ValueError, match=message):
            exact_evolve(p, 1.0, bath, [0.0])

    def test_level_splitting_validated(self):
        bath = discretize_bath(COLDISH, 1, 0.8, 2)
        for omega in (0.0, SCALE * (1 + 2**-52), 1 / SCALE / 2):
            with pytest.raises(ValueError, match=r"level splitting must lie in \["):
                exact_evolve(0.5, omega, bath, [0.0])
        for omega in (SCALE, 1 / SCALE):
            exact_evolve(0.5, omega, bath, [0.0, 1.0])

    @pytest.mark.parametrize("times, message", [
        ([], "times must be nonempty"), ([float("nan"), 1.0], r"times must lie in \["),
        ([float("inf")], r"times must lie in \["), ([-1.0], r"times must lie in \["),
        ([0.0, 1.5e308], r"times must lie in \[0.0, "),
        ([0.0, SCALE * (1 + 2**-52)], r"times must lie in \[0.0, "),
        # times in [0, SCALE] pass the checks and reach the eigensolver
        ([0.0, SCALE], "eigh reached"),
    ], ids=["empty", "nan", "inf", "negative", "overflowing", "above-range", "range-edges"])
    def test_times_validated_before_any_eigensolve(self, monkeypatch, times, message):
        bath = discretize_bath(COLDISH, 1, 0.8, 2)

        def unreachable(*args, **kwargs):
            raise ValueError("eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", unreachable)
        with pytest.raises(ValueError, match=message):
            exact_evolve(0.5, 1.0, bath, times)

    def test_nothing_flagged_when_converged(self):
        bath = discretize_bath(COLDISH, 2, 1.0, 10)
        res = exact_evolve(0.5, 1.0, bath, [0.0, 1.0])
        assert not res.truncation_flagged.any()

    def test_fock_convergence_where_representable(self):
        # at low temperature the cutoff is converged: one more level
        # moves the interaction energy by well under 5 percent
        times = np.array([0.0, 2.0])
        vals = {}
        for m in (3, 4):
            bath = discretize_bath(COLDISH, 3, 1.5, m)
            res = exact_evolve(0.8, 1.0, bath, times)
            vals[m] = res.interaction[-1]
        assert abs(vals[4] - vals[3]) < 0.05 * abs(vals[4])


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during call()."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    def run(self, bath, times):
        exact_evolve(0.6, 1.0, bath, times)

    def test_bench_bath_within_five_block_matrices(self):
        # one parity block alive at a time and no dense coupling matrix
        bath = discretize_bath(REF_SPEC, 3, 2.0, 8)
        dim_b = bath.bath_dimension
        assert dim_b == 729
        peak = traced_peak(lambda: self.run(bath, np.linspace(0.0, 5.0, 51)))
        assert peak <= 5 * dim_b**2 * 8

    def test_sample_count_walked_in_chunks(self):
        # 20 000 samples on a 64-state bath take ten chunks: the peak is a
        # few chunk-sized arrays of phases and products, plus sample rows
        bath = discretize_bath(REF_SPEC, 2, 2.0, 7)
        n_t = 20_000
        assert n_t * bath.bath_dimension >= 8 * oracle._PHASE_ELEMENTS
        peak = traced_peak(lambda: self.run(bath, np.linspace(0.0, 100.0, n_t)))
        assert peak <= 8 * (5 * oracle._PHASE_ELEMENTS + 16 * n_t)


class TestSolverAgreement:
    def test_reservoir_energy_change_short_times(self):
        # truncation-converged bath: the solver tracks the exact
        # reservoir energy change in sign everywhere and to 20 percent
        # once the band discretization has settled
        from nmotto import EngineParams
        eng = EngineParams(omega_h=1.0, omega_c=0.18, T_h=0.25, T_c=0.2,
                           lam=0.01, cutoff=0.4, t1=2.0, t2=2.0)
        hot = evaluate_cycle(eng, "tcl2").hot
        p = 0.8
        times = np.arange(0.25, 2.25, 0.25)
        idx = np.rint(times / hot.times[1]).astype(int)
        assert np.allclose(hot.times[idx], times, rtol=1e-9, atol=1e-9)
        bal = stroke_balance(p, hot)
        d_eb, e_i = bal.dEB[idx], bal.E_I[idx]

        bath = discretize_bath(eng.hot_reservoir, 3, 1.5, 10)
        ref = exact_evolve(p, eng.omega_h, bath, times)

        assert np.all(np.sign(d_eb) == np.sign(ref.d_bath))
        assert np.all(np.sign(e_i) == np.sign(ref.interaction))
        k = -1  # t = 2.0, inside the pre-recurrence window 2 pi / d_eps
        assert abs(d_eb[k] - ref.d_bath[k]) < 0.20 * abs(ref.d_bath[k])
        assert abs(e_i[k] - ref.interaction[k]) < 0.25 * abs(ref.interaction[k])
