"""The bath correlation C(t) = (D1 - i D2) / 2 as a sum of decaying
exponentials, fitted by the matrix-pencil method.  A hierarchy of
equations of motion is exact for a bath whose correlation is such a
sum, so these fits are the input a continuum-exact reference needs."""

import numpy as np
import pytest

from nmotto import ReservoirSpec, d1, d2

DT = 0.1
TIMES = np.arange(1201) * DT  # [0, 120]


def matrix_pencil(samples, dt, k):
    """Fit k exponentials to samples taken every dt from t = 0 (Hua and
    Sarkar, IEEE Trans. ASSP 38, 814 (1990)).

    The pencil parameter is L = n // 2.  The Hankel block of the samples
    is truncated to its k leading right singular vectors V; the poles
    z_j are the eigenvalues of pinv(V[:-1]) V[1:], and the amplitudes
    solve z_j**i a = samples by least squares.  Returns c(t) = sum_j
    a_j exp(-nu_j t) as a function of an array of times, and the rates
    nu_j = -ln(z_j) / dt.
    """
    n = len(samples)
    hankel = np.lib.stride_tricks.sliding_window_view(samples, n // 2 + 1)
    v = np.linalg.svd(hankel, full_matrices=False)[2][:k].conj().T
    poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    nu = -np.log(poles.astype(complex)) / dt
    amplitudes = np.linalg.lstsq(poles ** np.arange(n)[:, None], samples.astype(complex),
                                 rcond=None)[0]
    return (lambda t: np.exp(-np.multiply.outer(t, nu)) @ amplitudes), nu


# Re C at the hot and the cold temperature, and Im C, which no temperature enters
CORRELATIONS = {
    "ReC-T5": d1(TIMES, ReservoirSpec(5.0, 1.0, 0.4)) / 2,
    "ReC-T1": d1(TIMES, ReservoirSpec(1.0, 1.0, 0.4)) / 2,
    "ImC": -d2(TIMES, ReservoirSpec(1.0, 1.0, 0.4)) / 2,
}


@pytest.fixture(scope="module")
def fits():
    return {(name, k): matrix_pencil(samples, DT, k)
            for name, samples in CORRELATIONS.items() for k in (6, 8)}


# measured worst relative errors: 1.60e-4, 1.51e-4 and 2.73e-4 at k = 6,
# 1.26e-5, 1.16e-5 and 9.25e-5 at k = 8
@pytest.mark.parametrize("k, bound", [(6, 3e-4), (8, 1e-4)], ids=["k6", "k8"])
@pytest.mark.parametrize("name", CORRELATIONS)
def test_fit_reproduces_the_correlation(fits, name, k, bound):
    samples = CORRELATIONS[name]
    c, _ = fits[name, k]
    assert np.max(np.abs(c(TIMES) - samples)) <= bound * np.max(np.abs(samples))


@pytest.mark.parametrize("k", [6, 8], ids=["k6", "k8"])
@pytest.mark.parametrize("name", CORRELATIONS)
def test_every_term_decays(fits, name, k):
    # the slowest rates measured: 0.0205 at k = 6 and 0.016 at k = 8
    _, nu = fits[name, k]
    assert np.all(nu.real > 0)
