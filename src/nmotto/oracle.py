"""Brute-force reference: exact evolution of qubit plus few bath modes.

The continuum reservoir is replaced by N bosonic modes on a frequency
grid, each truncated at M quanta, and the full Hamiltonian

    H = omega/2 sigma_z + sum_k eps_k n_k + sigma_x sum_k g_k (b_k + b_k+)

conserves the parity of qubit excitation plus total bath quanta.  It is
diagonalized in its two parity blocks, each of dimension
dim_b = (M + 1)^N, one block at a time.  The bath starts in the Gibbs
state exp(-H_B / T) of the occupation table's energies, renormalized
without its states below ``WEIGHT_CUTOFF``: the cut bounds the cost and
leaves the rest unbiased.  Expectation values of the three energy
pieces under exact unitary evolution then provide reference
trajectories for dE_S, dE_B and E_I with conservation holding to
linear-algebra precision.  The working memory is about 5 dim_b^2
doubles, plus the eigensolver's workspace and a few MB of phases
whatever the number of sampled times.  A handful of modes cannot mimic
a continuum for long (the discretization recurs on the scale
2 pi / d_eps) and a finite Fock cutoff cannot hold large thermal
occupations, so the reference is used to validate signs and trends, and
quantitative agreement only where the truncation converges.  Truncation
is reported once, by ``OracleResult.truncation_flagged`` at each sampled
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SCALE, ReservoirSpec, check_range

__all__ = [
    "MAX_DIMENSION",
    "TRUNCATION_THRESHOLD",
    "WEIGHT_CUTOFF",
    "DiscretizedBath",
    "OracleResult",
    "discretize_bath",
    "exact_evolve",
]

# dim_b <= 4096: ``nmotto oracle`` at 12 modes of Fock cutoff 1 peaks at about
# 700 MB (60-85 s, 2-core Xeon VM), and each doubling of dim_b takes ~4x the memory
MAX_DIMENSION = 2**13
TRUNCATION_THRESHOLD = 1e-4
# bath states of smaller thermal weight are left out of the mixture
WEIGHT_CUTOFF = 1e-6
# phases held at once (bath dimension x samples): bounds the memory of any sample count
_PHASE_ELEMENTS = 2**17


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Mode frequencies, couplings, Fock cutoff and temperature.

    By construction sum g_k^2 equals the spectral weight integrated
    over the covered band.  Frequencies lie in (0, SCALE], couplings in
    [0, SCALE**2] and the temperature in [1 / SCALE, SCALE].
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    fock_cutoff: int
    temperature: float

    def __post_init__(self):
        if len(self.frequencies) != len(self.couplings):
            raise ValueError("frequencies and couplings must have equal length")
        check_range("mode frequencies", self.frequencies, low=math.ulp(0.0))
        check_range("couplings", self.couplings, low=0.0, high=SCALE**2)
        if self.fock_cutoff < 1:
            raise ValueError("need at least two Fock levels per mode")
        check_range("temperature", self.temperature)
        if self.total_dimension > MAX_DIMENSION:
            raise ValueError(
                f"composite dimension {self.total_dimension} exceeds {MAX_DIMENSION}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    @property
    def bath_dimension(self) -> int:
        return (self.fock_cutoff + 1) ** self.n_modes

    @property
    def total_dimension(self) -> int:
        return 2 * self.bath_dimension


def _band_weight(upper, spec: ReservoirSpec):
    """Int_0^upper J(w) dw = lam cutoff^2 (1 - e^{-x} (1 + x)), x = upper/cutoff."""
    x = np.asarray(upper, dtype=float) / spec.cutoff
    return spec.lam * spec.cutoff**2 * (1.0 - np.exp(-x) * (1.0 + x))


def discretize_bath(
    spec: ReservoirSpec, n_modes: int, omega_max: float, fock_cutoff: int
) -> DiscretizedBath:
    """Bin the spectral density into n_modes equal bins on (0, omega_max].

    Mode k sits at the bin midpoint and carries g_k^2 equal to the
    exact spectral weight of its bin, so the total coupling weight of
    the band is reproduced identically.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if n_modes >= MAX_DIMENSION.bit_length():  # each mode at least doubles it
        raise ValueError(f"{n_modes} modes exceed composite dimension {MAX_DIMENSION}")
    check_range("omega_max", omega_max)
    edges = np.linspace(0.0, omega_max, n_modes + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    g2 = _band_weight(edges[1:], spec) - _band_weight(edges[:-1], spec)
    g2 = np.maximum(g2, 0.0)  # guard roundoff at lam ~ 0
    return DiscretizedBath(
        frequencies=mids,
        couplings=np.sqrt(g2),
        fock_cutoff=fock_cutoff,
        temperature=spec.temperature,
    )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Reference trajectories from one exact run.

    top_level_population[i] is the largest top-Fock-level population of
    any mode at times[i]; truncation_flagged marks times where it
    exceeds the reporting threshold.
    """

    times: np.ndarray
    d_system: np.ndarray
    d_bath: np.ndarray
    interaction: np.ndarray
    top_level_population: np.ndarray

    @property
    def truncation_flagged(self) -> np.ndarray:
        return self.top_level_population > TRUNCATION_THRESHOLD

    @property
    def conservation_residual(self) -> np.ndarray:
        return self.d_system + self.d_bath + self.interaction


def _couple(bath: DiscretizedBath, x: np.ndarray) -> np.ndarray:
    """sum_k g_k (b_k + b_k^+) applied to x, whose rows are bath states.

    Mode k is axis 1 of x viewed as ((M+1)^k, M+1, (M+1)^(N-1-k), columns),
    where b_k takes level q + 1 to q with amplitude sqrt(q + 1): O(N M)
    passes over x in place of a dense product.
    """
    m, n = bath.fock_cutoff, bath.n_modes
    out = np.zeros_like(x)
    for k, g in enumerate(bath.couplings):
        shape = ((m + 1) ** k, m + 1, (m + 1) ** (n - 1 - k), -1)
        src, dst = x.reshape(shape), out.reshape(shape)
        for q in range(m):
            amplitude = g * np.sqrt(q + 1.0)
            dst[:, q] += amplitude * src[:, q + 1]
            dst[:, q + 1] += amplitude * src[:, q]
    return out


def exact_evolve(p: float, omega: float, bath: DiscretizedBath, times) -> OracleResult:
    """Exact energy trajectories for a factorized diagonal start with
    qubit ground probability p.

    H conserves the parity of qubit excitation plus total bath quanta,
    and the start and every observable read here are block-diagonal in
    it.  A parity block holds one state per bath occupation, the qubit
    level being fixed by the parity, so both blocks have dimension
    ``bath_dimension``.  Each block is diagonalized once, and freed
    before the next; every observable is read through its eigenbasis
    phases, one matrix product per chunk of the time axis, and summed
    over the blocks.  Truncation is reported only by the result's
    ``truncation_flagged``; no warning is emitted.
    """
    check_range("ground probability p", p, low=0.0, high=1.0)
    check_range("level splitting", omega)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("times must be nonempty")
    check_range("times", times, low=0.0)

    m, n_modes, dim_b = bath.fock_cutoff, bath.n_modes, bath.bath_dimension
    # row s: the quanta in each mode of bath state s, mode 0 most
    # significant, the order ``_couple`` reads them in
    occupation = np.indices((m + 1,) * n_modes).reshape(n_modes, dim_b).T
    h_bath = occupation @ bath.frequencies
    # the ground state, of weight at least 1 / dim_b, always stays
    w_bath = np.exp(-h_bath / bath.temperature)
    w_bath /= w_bath.sum()
    w_bath[w_bath < WEIGHT_CUTOFF] = 0.0
    w_bath /= w_bath.sum()

    n_t = len(times)
    chunk = max(1, _PHASE_ELEMENTS // dim_b)  # samples per pass over the phases
    # rows: E_I (0 at t = 0: factorized start), qubit excitation, h_bath, top levels
    values = np.zeros((3 + n_modes, n_t))

    def block(parity):
        excited = (occupation.sum(axis=1) + parity) % 2  # qubit level per state
        h = _couple(bath, np.eye(dim_b))
        np.fill_diagonal(h, omega * (excited - 0.5) + h_bath)
        energies, vectors = np.linalg.eigh(h)
        del h
        w = np.where(excited == 1, 1.0 - p, p) * w_bath

        def in_eigenbasis(diag):  # diag >= 0: weights, levels, positive frequencies
            rows = np.flatnonzero(diag)  # the top-level projectors are sparse
            v = vectors[rows]
            v *= np.sqrt(diag[rows])[:, None]
            return v.T @ v

        rho_eig = in_eigenbasis(w)

        def phases():  # per chunk: first sample, samples, [cos | sin] of E_i t
            for start in range(0, n_t, chunk):
                wt = np.outer(energies, times[start:start + chunk])
                yield start, wt.shape[1], np.hstack([np.cos(wt), np.sin(wt)])
                del wt  # before the next chunk's phases

        def accumulate(row, op_t):
            # Re sum_ij rho_ij op_ji e^{-i(E_i - E_j) t} in real products; op_t = op^T
            op_t *= rho_eig
            for start, k, cos_sin in phases():
                both = op_t @ cos_sin
                both *= cos_sin
                values[row, start:start + k] += both[:, :k].sum(0) + both[:, k:].sum(0)
                del cos_sin, both

        # three expectations, none derived from another: their sum checks conservation
        accumulate(0, _couple(bath, vectors).T @ vectors)
        for j, diag in enumerate([excited, h_bath, *(occupation.T == m)], start=1):
            accumulate(j, in_eigenbasis(diag))

    for parity in (0, 1):
        block(parity)

    return OracleResult(
        times=times,
        # h_sys = omega (|1><1| - 1/2), and the trace is conserved; at t = 0
        # the qubit is excited with probability 1 - p, the bath thermal
        d_system=omega * (values[1] - (1.0 - p)),
        d_bath=values[2] - w_bath @ h_bath,
        interaction=values[0],
        top_level_population=values[3:].max(axis=0),
    )
