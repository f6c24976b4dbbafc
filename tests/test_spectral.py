"""F-matrix, correlators and averaged curves against independent oracles."""

import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.hermite_e import hermevander
from scipy.special import eval_genlaguerre

from guedyn import spectral
from guedyn.errors import NumericalError
from guedyn.sim import sample_gue, RngStream
from guedyn.spectral import (
    bessel_limit,
    chi_curve,
    chi_mean,
    chi_poisson,
    correlator,
    f_matrix,
    find_extrema,
    purity_curve,
    purity_limit,
    purity_mean,
    purity_poisson,
    rho_curve,
    rho_mean_coeffs,
    rho_poisson_coeffs,
    trace_f,
    xi_curve,
    xi_mean,
    xi_poisson,
)


def f_direct(d, t):
    """Literal monomial-sum definition of F(t); exact but overflow-prone."""
    out = np.zeros((d, d), dtype=complex)
    for mu in range(d):
        for nu in range(d):
            acc = 0j
            for a in range(min(mu, nu) + 1):
                acc += (1j * t) ** (mu + nu - 2 * a) / (
                    math.factorial(a) * math.factorial(mu - a) * math.factorial(nu - a)
                )
            out[mu, nu] = (
                math.exp(-t * t / 2)
                * math.sqrt(math.factorial(mu) * math.factorial(nu))
                * acc
            )
    return out


def quad_oracle(coeffs, d, t, n_nodes=24):
    """Gauss-Hermite quadrature of the determinantal kernel integral."""
    nodes, weights = hermgauss(n_nodes)
    x = np.sqrt(2.0) * nodes
    wts = np.sqrt(2.0) * weights
    vander = hermevander(x, d - 1)
    norms = np.sqrt(2 * np.pi) * np.array([math.factorial(m) for m in range(d)])
    projector = vander / np.sqrt(norms)
    kernel = projector @ projector.T
    n = len(coeffs)
    idx = np.indices((n_nodes,) * n).reshape(n, -1)
    mats = np.moveaxis(kernel[idx[:, None, :], idx[None, :, :]], -1, 0)
    dets = np.linalg.det(mats)
    weight = np.prod(wts[idx], axis=0)
    phase = np.exp(1j * t * np.sum(np.array(coeffs)[:, None] * x[idx], axis=0))
    return complex((weight * dets * phase).sum())


def chi4_closed(t):
    x = t * t
    poly = 12 - 48 * x + 46 * x**2 - 64 / 3 * x**3 + 25 / 6 * x**4 - x**5 / 3
    return poly * math.exp(-x) + 4


def xi4_closed(t):
    x = t * t
    return (
        24
        + (144 - 576 * x + 552 * x**2 - 256 * x**3 + 50 * x**4 - 4 * x**5)
        * math.exp(-x)
        + (24 - 192 * x + 448 * x**2 - 1024 / 3 * x**3 + 256 / 3 * x**4)
        * math.exp(-2 * x)
        + (96 - 1152 * x + 3312 * x**2 - 3328 * x**3 + 1548 * x**4 - 216 * x**5)
        * math.exp(-3 * x)
        + (48 - 768 * x + 2944 * x**2 - 16384 / 3 * x**3 + 12800 / 3 * x**4
           - 4096 / 3 * x**5)
        * math.exp(-4 * x)
    )


class TestFMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(f_matrix(5, 0.0), np.eye(5))

    def test_first_entries(self):
        t = 0.83
        mat = f_matrix(4, t)
        assert abs(mat[0, 0] - math.exp(-t * t / 2)) < 1e-14
        assert abs(mat[0, 1] - 1j * t * math.exp(-t * t / 2)) < 1e-14

    @pytest.mark.parametrize("d,t", [(2, 0.3), (5, 1.7), (9, -2.2), (12, 4.0)])
    def test_matches_monomial_sum(self, d, t):
        got, want = f_matrix(d, t), f_direct(d, t)
        assert np.max(np.abs(got - want)) < 1e-12 * (1 + np.max(np.abs(want)))

    def test_symmetry_and_parity_structure(self):
        mat = f_matrix(7, 1.4)
        assert np.array_equal(mat, mat.T)
        mu = np.arange(7)
        even = (mu[:, None] + mu[None, :]) % 2 == 0
        assert np.max(np.abs(mat.imag[even])) == 0
        assert np.max(np.abs(mat.real[~even])) == 0

    def test_time_reversal_conjugation(self):
        # F(-t) = I+- F(t) I+- with I+- = diag((-1)^mu)
        mat = f_matrix(6, 2.1)
        parity = np.diag((-1.0) ** np.arange(6))
        assert np.max(np.abs(f_matrix(6, -2.1) - parity @ mat @ parity)) < 1e-14

    def test_parity_trace_identity(self):
        d, t = 8, 1.1
        parity = np.diag((-1.0) ** np.arange(d))
        lhs = np.trace(f_matrix(d, t) @ f_matrix(d, -t))
        rhs = np.trace((parity @ f_matrix(d, t)) @ (parity @ f_matrix(d, t)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_large_time_flush(self):
        assert np.max(np.abs(f_matrix(6, 50.0))) == 0.0

    def test_laguerre_route_against_scipy(self):
        d, t = 11, 1.9
        mat = f_matrix(d, t)
        for mu in range(d):
            for nu in range(mu, d):
                k = nu - mu
                ratio = math.sqrt(
                    math.factorial(mu) / math.factorial(nu)
                )
                want = (
                    math.exp(-t * t / 2)
                    * ratio
                    * (1j * t) ** k
                    * eval_genlaguerre(mu, k, t * t)
                )
                assert abs(mat[mu, nu] - want) < 1e-11 * max(1.0, abs(want))


class TestTraceF:
    def test_zero_time(self):
        for d in (1, 3, 9):
            assert trace_f(d, 0.0) == d

    def test_d1_gaussian(self):
        for t in (0.2, 1.5):
            assert abs(trace_f(1, t) - math.exp(-t * t / 2)) < 1e-15

    def test_d4_recurrence_value(self):
        # L^(1)_3(x) = 4 - 6x + 2x^2 - x^3/6 evaluated at x = 1
        want = math.exp(-0.5) * (4 - 6 + 2 - 1 / 6)
        assert abs(trace_f(4, 1.0) - want) < 1e-14

    @pytest.mark.parametrize("d", [2, 8, 17, 40])
    def test_matches_diagonal_sum(self, d):
        for t in (0.0, 0.4, 2.2, 6.0):
            diag = float(np.trace(f_matrix(d, t)).real)
            assert abs(trace_f(d, t) - diag) <= 1e-10 * max(1.0, abs(diag))


class TestCorrelator:
    @pytest.mark.parametrize("coeffs", [(1, -1), (2, -1, -1), (1, 1, -2), (1, 1, -1, -1)])
    @pytest.mark.parametrize("d", [4, 7, 10])
    def test_normalization(self, coeffs, d):
        want = math.factorial(d) / math.factorial(d - len(coeffs))
        assert abs(correlator(coeffs, d, 0.0) - want) <= 1e-9 * want

    def test_three_point_pair_equal(self):
        for d in (4, 6):
            for t in (0.4, 1.3, 3.3):
                a = correlator((2, -1, -1), d, t)
                b = correlator((1, 1, -2), d, t)
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_three_point_trace_expansion(self):
        # Leibniz expansion written out explicitly for (2, -1, -1)
        d, t = 6, 0.9
        f_2t, f_mt = f_matrix(d, 2 * t), f_matrix(d, -t)
        want = (
            np.trace(f_2t) * np.trace(f_mt) ** 2
            - 2 * np.trace(f_2t @ f_mt) * np.trace(f_mt)
            - np.trace(f_2t) * np.trace(f_mt @ f_mt)
            + 2 * np.trace(f_2t @ f_mt @ f_mt)
        ).real
        assert abs(correlator((2, -1, -1), d, t) - want) < 1e-10 * max(1, abs(want))

    def test_four_point_vs_quadrature(self):
        got = correlator((1, 1, -1, -1), 5, 0.7)
        frozen = 6.575748266078646  # 32-node Gauss-Hermite value
        assert abs(got - frozen) < 1e-9
        live = quad_oracle((1, 1, -1, -1), 5, 0.7)
        assert abs(live.imag) < 1e-9
        assert abs(got - live.real) < 1e-9

    def test_two_point_vs_quadrature(self):
        live = quad_oracle((1, -1), 4, 1.3, n_nodes=40)
        assert abs(correlator((1, -1), 4, 1.3) - live.real) < 1e-10

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            correlator((1, 1, -1, -1), 3, 0.5)  # n > d
        with pytest.raises(ValueError):
            correlator((1, 0, -1), 5, 0.5)


class TestChiXi:
    def test_chi_d4_closed_form(self):
        ts = np.arange(0.0, 6.0001, 0.01)
        dev = max(abs(chi_mean(4, t) - chi4_closed(t)) for t in ts)
        assert dev <= 1e-9

    def test_xi_d4_closed_form(self):
        ts = np.arange(0.0, 6.0001, 0.01)
        dev = max(abs(xi_mean(4, t) - xi4_closed(t)) for t in ts)
        assert dev <= 1e-9

    def test_even_in_time(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = rng.uniform(0.1, 4.0)
            assert abs(chi_mean(5, t) - chi_mean(5, -t)) < 1e-12

    @pytest.mark.parametrize("d", range(4, 13))
    def test_boundary_values(self, d):
        assert abs(chi_mean(d, 0.0) - d * d) < 1e-9
        assert abs(xi_mean(d, 0.0) - d * d * (d - 1) * (d + 3)) < 1e-9 * d**4
        assert abs(chi_mean(d, 10.0) - d) <= 1e-9
        assert abs(xi_mean(d, 10.0) - 2 * d * (d - 1)) <= 1e-8

    def test_spectrum_average_oracle(self):
        # 2e5 sampled spectra: pair-averaged e^{i(E1-E2)t} vs the correlator
        d, n = 4, 200_000
        gen = RngStream(55, 0).generator()
        energies = np.linalg.eigvalsh(sample_gue(d, 1.0, gen, size=n))
        for t in np.linspace(0.3, 5.7, 10):
            phases = np.exp(1j * t * energies)
            chi = np.abs(phases.sum(axis=1)) ** 2
            pair_mean = (chi - d) / (d * (d - 1))  # exchangeable-pair estimator
            se = pair_mean.std(ddof=1) / math.sqrt(n)
            want = correlator((1, -1), d, t) / (d * (d - 1))
            assert abs(pair_mean.mean() - want) <= 5 * se

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            chi_mean(1, 0.5)
        with pytest.raises(ValueError):
            xi_mean(3, 0.5)


class TestAveragedState:
    def test_rho_coeffs_boundaries(self):
        p1, pmix = rho_mean_coeffs(2, 2, 0.0)
        assert abs(p1 - 1) < 1e-12 and abs(pmix) < 1e-12
        p1, pmix = rho_mean_coeffs(2, 2, 25.0)
        d = 4
        assert abs(p1 - 1 / (d + 1)) < 1e-10
        assert abs(pmix - d / (d + 1)) < 1e-10

    def test_rho_coeffs_d4_halftime(self):
        p1, _ = rho_mean_coeffs(2, 2, 0.5)
        assert abs(p1 - (chi4_closed(0.5) - 1) / 15) < 1e-12

    def test_rho_coeffs_normalized_on_grid(self):
        for d_a, d_b in [(2, 2), (2, 32), (8, 8)]:
            for t in np.arange(0.0, 10.01, 0.25):
                p1, pmix = rho_mean_coeffs(d_a, d_b, t)
                assert abs(p1 + pmix - 1) < 1e-12
                assert p1 >= -1e-12 and pmix >= -1e-12

    def test_purity_values(self):
        assert abs(purity_mean(2, 2, 0.0) - 1) < 1e-12
        assert purity_mean(1, 7, 2.3) == 1.0
        assert purity_mean(7, 1, 2.3) == 1.0
        assert abs(purity_mean(2, 2, 10.0) - 57 / 70) < 1e-3
        assert purity_mean(2, 3, 1.1) == purity_mean(3, 2, 1.1)

    def test_purity_limit(self):
        assert purity_limit(1, 9) == 1.0
        assert abs(purity_limit(2, 2) - 57 / 70) < 1e-15
        # large d: approaches the trace-measure average
        big = purity_limit(16, 64)
        assert abs(big - (16 + 64) / (16 * 64 + 1)) < 1e-4


class TestPoisson:
    def test_chi_values(self):
        assert abs(chi_poisson(4, 0.0) - 16) < 1e-12
        assert abs(chi_poisson(4, 1.0) - 6.0) < 1e-12
        assert abs(chi_poisson(4, 10.0) - (4 + 12 / 501)) < 1e-12

    def test_chi_monotone_and_limits(self):
        ts = np.linspace(0.0, 20.0, 200)
        vals = [chi_poisson(5, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert abs(vals[0] - 25) < 1e-12

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_xi_boundaries(self, d):
        assert abs(xi_poisson(d, 0.0) - d * d * (d - 1) * (d + 3)) < 1e-9
        assert abs(xi_poisson(d, 1e4) - 2 * d * (d - 1)) < 1e-4

    def test_xi_vs_exponential_sampling(self):
        # Monte Carlo over i.i.d. exponential spectra with the matched rate
        d, n = 4, 200_000
        gen = RngStream(56, 0).generator()
        energies = gen.exponential(math.sqrt(d + 1), size=(n, d))
        for t in (0.5, 1.0, 2.5):
            i1 = np.exp(1j * t * energies).sum(axis=1)
            i2 = np.exp(2j * t * energies).sum(axis=1)
            xi = np.abs(i1 * i1 + i2) ** 2 - 4 * np.abs(i1) ** 2
            se = xi.std(ddof=1) / math.sqrt(n)
            assert abs(xi.mean() - xi_poisson(d, t)) <= 3 * se

    def test_rho_and_purity_wrappers(self):
        p1, pmix = rho_poisson_coeffs(2, 2, 0.0)
        assert abs(p1 - 1) < 1e-12 and abs(pmix) < 1e-12
        assert purity_poisson(1, 4, 1.0) == 1.0
        assert abs(purity_poisson(2, 2, 0.0) - 1) < 1e-12


class TestBessel:
    def test_limit_at_zero(self):
        assert bessel_limit(0.0, 2) == 1.0
        assert bessel_limit(0.0, 4) == 1.0

    def test_vanishes_at_first_bessel_zero(self):
        # bisection on J_1(2 tau) between tau = 1.5 and 2.5
        from scipy.special import j1

        lo, hi = 1.5, 2.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j1(2 * lo) * j1(2 * mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert abs(root - 1.9159) < 1e-3
        assert abs(bessel_limit(root, 2)) < 1e-10

    def test_power4_is_square(self):
        for tau in (0.3, 1.1, 2.7):
            assert abs(bessel_limit(tau, 4) - bessel_limit(tau, 2) ** 2) < 1e-15

    def test_power_validation(self):
        with pytest.raises(ValueError):
            bessel_limit(1.0, 3)


class TestExtrema:
    def test_d2_single_minimum(self):
        extrema = find_extrema(lambda t: chi_mean(2, t), 5.0)
        assert len(extrema) == 1
        t_min, value = extrema[0]
        assert 0 < t_min < 5 and value < chi_mean(2, 0.0)

    def test_quadratic_sanity(self):
        extrema = find_extrema(lambda t: (t - 1.3) ** 2, 3.0)
        assert len(extrema) == 1
        assert abs(extrema[0][0] - 1.3) < 1e-6

    def test_fit_at_d6(self):
        extrema = find_extrema(lambda t: chi_mean(6, t), 2.0)
        fit = 1.93 / math.sqrt(6 + 0.45)
        assert abs(extrema[0][0] - fit) <= 0.05 * fit


# Grid with t = 0, both signs, a point where e^{-t^2/2} underflows and
# irregular spacing.
GRID_POINTS = np.array([0.0, 0.013, 0.31, -0.77, 1.0, 2.45, 3.9, -5.2, 6.0, 40.0])


class TestGrid:
    @pytest.mark.parametrize("d", [2, 7, 30])
    def test_chi_equals_scalar_wrappers(self, d):
        gue, poi = chi_curve("GUE", d, GRID_POINTS), chi_curve("POISSON", d, GRID_POINTS)
        for i, t in enumerate(GRID_POINTS):
            assert gue[i] == chi_mean(d, t)
            assert poi[i] == chi_poisson(d, t)

    @pytest.mark.parametrize("d", [4, 9])
    def test_xi_equals_scalar_wrappers(self, d):
        gue, poi = xi_curve("GUE", d, GRID_POINTS), xi_curve("POISSON", d, GRID_POINTS)
        for i, t in enumerate(GRID_POINTS):
            assert gue[i] == xi_mean(d, t)
            assert poi[i] == xi_poisson(d, t)

    @pytest.mark.parametrize("d_a,d_b", [(1, 5), (2, 2), (2, 3)])
    def test_rho_and_purity_equal_scalar_wrappers(self, d_a, d_b):
        p1, pmix = rho_curve("GUE", d_a, d_b, GRID_POINTS)
        q1, qmix = rho_curve("POISSON", d_a, d_b, GRID_POINTS)
        pur = purity_curve("GUE", d_a, d_b, GRID_POINTS)
        pur_poi = purity_curve("POISSON", d_a, d_b, GRID_POINTS)
        for i, t in enumerate(GRID_POINTS):
            assert (p1[i], pmix[i]) == rho_mean_coeffs(d_a, d_b, t)
            assert (q1[i], qmix[i]) == rho_poisson_coeffs(d_a, d_b, t)
            assert pur[i] == purity_mean(d_a, d_b, t)
            assert pur_poi[i] == purity_poisson(d_a, d_b, t)

    def test_bit_identical_across_chunk_sizes(self, monkeypatch):
        ts = np.arange(0.0, 6.0001, 0.05)
        d_chi, d_xi = 40, 9
        results = []
        # times per chunk (chi, xi): (1, 1), (1, 7), (7, all), (all, all)
        for chunk_bytes in (1, 7 * 16 * d_xi * d_xi, 7 * 16 * d_chi * d_chi,
                            spectral._CHUNK_BYTES):
            monkeypatch.setattr(spectral, "_CHUNK_BYTES", chunk_bytes)
            results.append((chi_curve("GUE", d_chi, ts), xi_curve("GUE", d_xi, ts)))
        for chi, xi in results[1:]:
            assert np.array_equal(chi, results[0][0])
            assert np.array_equal(xi, results[0][1])
        # scaled columns share chunks with unscaled ones: at d = 150 the
        # columns k near d start below 1/_BIG at t = 0.01, and at t = 38.6
        # e^{-t^2/2} itself underflows
        for d, grid in ((150, np.insert(ts, 1, 0.01)),
                        (400, np.array([0.0, 0.01, 2.0, -38.0, 38.6]))):
            stack = spectral._h_stack(d, grid)
            for i in range(grid.size):
                assert np.array_equal(spectral._h_stack(d, grid[i:i + 1])[0], stack[i])
            curves = []
            for times_per_chunk in (1, 3, grid.size):
                monkeypatch.setattr(spectral, "_CHUNK_BYTES", times_per_chunk * 16 * d * d)
                curves.append(chi_curve("GUE", d, grid))
            for chi in curves[1:]:
                assert np.array_equal(chi, curves[0])

    def test_one_chunk_alive_at_a_time(self):
        # 1001 times at d = 60 are 7 chunks of 145; the peak holds one
        # chunk's (145, 60, 60) stack, not two
        d, ts = 60, np.linspace(0.0, 1.0, 1001)
        chunk = spectral._CHUNK_BYTES // (16 * d * d)
        assert ts.size > 2 * chunk
        chi_curve("GUE", d, ts[:2])  # fill the caches of tables and terms
        tracemalloc.start()
        try:
            chi_curve("GUE", d, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * chunk * d * d * 8

    @pytest.mark.parametrize("d", [60, 150])
    def test_chi_agrees_with_matmul_correlator(self, d):
        ts = np.linspace(0.05, 6.0, 24)
        chi = chi_curve("GUE", d, ts)
        for i, t in enumerate(ts):
            want = correlator((1, -1), d, t) + d
            assert abs(chi[i] - want) <= 1e-12 * abs(want)

    def test_statistics_validated(self):
        with pytest.raises(ValueError):
            chi_curve("GOE", 4, GRID_POINTS)
        with pytest.raises(ValueError):
            purity_curve("gue", 2, 2, GRID_POINTS)

    def test_non_finite_raises(self, monkeypatch):
        # whatever makes the stack non-finite, no public return carries it
        monkeypatch.setattr(spectral, "_h_stack",
                            lambda d, times, buf=None: np.full((len(times), d, d), np.nan))
        with pytest.raises(NumericalError):
            chi_mean(6, 1.0)
        with pytest.raises(NumericalError):
            f_matrix(6, 1.0)
        with pytest.raises(NumericalError):
            correlator((1, -1), 6, 1.0)
        with pytest.raises(NumericalError):
            trace_f(6, 1.0)
        with pytest.raises(NumericalError):
            xi_curve("GUE", 6, [0.5, 1.0])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 40), t=st.floats(-8.0, 8.0))
    def test_f_symmetric_and_time_reversal(self, d, t):
        mat = f_matrix(d, t)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(f_matrix(d, -t), mat.conj())

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 60), t=st.floats(0.0, 12.0))
    def test_chi_bounds(self, d, t):
        chi = chi_mean(d, t)
        assert -1e-12 * d * d <= chi <= d * d * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(d_a=st.integers(1, 6), d_b=st.integers(1, 6), t=st.floats(0.0, 12.0))
    def test_purity_bounds(self, d_a, d_b, t):
        purity = purity_mean(d_a, d_b, t)
        assert 1 / min(d_a, d_b) - 1e-12 <= purity <= 1 + 1e-12


class TestExtremaRefinement:
    def test_d4_first_minimum_against_closed_form(self):
        # chi4 = P(x) e^{-x} + 4 with x = t^2: extrema where P'(x) = P(x)
        poly = Polynomial([12, -48, 46, -64 / 3, 25 / 6, -1 / 3])
        roots = (poly.deriv() - poly).roots()
        x_min = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
        t_want = math.sqrt(x_min)
        (t_min, value), = find_extrema(lambda t: chi_mean(4, t), 6.0)
        # the resolution stated in find_extrema's docstring
        assert abs(t_min - t_want) <= 3e-9
        assert abs(value - chi4_closed(t_want)) <= 1e-14

    def test_minimum_and_maximum_of_cosine(self):
        (t_lo, v_lo), (t_hi, v_hi) = find_extrema(math.cos, 7.0)
        assert abs(t_lo - math.pi) <= 1e-7 and v_lo == pytest.approx(-1.0, abs=1e-15)
        assert abs(t_hi - 2 * math.pi) <= 1e-7 and v_hi == pytest.approx(1.0, abs=1e-15)

    def test_non_finite_curve_raises(self):
        with pytest.raises(NumericalError):
            find_extrema(lambda t: math.nan if t > 0.5 else t, 1.0)

    @pytest.mark.parametrize("d,window", [(13, 1.25), (60, 1.0)])
    def test_first_minimum_against_30_digit_reference(self, d, window):
        (t_min, value), *_ = find_extrema(lambda t: chi_mean(d, t), window)
        with mp.workdps(30):
            t_want = mp.findroot(
                lambda s: mp.diff(lambda u: chi_trace_mpf(d, u)[0], s), mp.mpf(t_min))
            v_want = float(chi_trace_mpf(d, t_want)[0])
        # the resolution stated in find_extrema's docstring
        assert abs(t_min - float(t_want)) <= 5e-9
        assert abs(value - v_want) <= 1e-15 * d * d  # chi is a difference of O(d^2) terms

    @pytest.mark.parametrize("fn", [
        lambda t: abs(t - 1.3),  # V-shaped: no curvature at the vertex
        lambda t: np.maximum(abs(t - 1.3), 4e-4),  # equal values across the bracket
    ])
    def test_degenerate_curvature(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a 0/0 or x/0 would warn
            (t_min, value), = find_extrema(fn, 3.0)
        assert math.isfinite(t_min) and math.isfinite(value)
        assert abs(t_min - 1.3) <= 1e-3 and value == fn(t_min)

    def test_zoom_stops_at_the_value_noise(self):
        # the noise floor is 1024 eps 1e6 = 2.3e-7: the scan triple's second
        # difference 2 step^2 = 2e-6 resolves, that of the first round's cells
        # (s = 2e-4, 8e-8) does not, so one round and the vertex follow the
        # scan, one call each
        sizes = []

        def fn(t):
            sizes.append(np.size(t))
            return (t - 1.3) ** 2 + 1e6

        (t_min, _), = find_extrema(fn, 3.0)
        assert sizes == [3001, 8, 1]
        assert abs(t_min - 1.3) <= 1e-6

    @pytest.mark.parametrize("t_max,step,tol", [
        (1.0, 1e-3, 0.0), (1.0, 1e-3, math.nan), (1.0, 1e-3, -1e-8),
        (math.nan, 1e-3, 1e-8), (math.inf, 1e-3, 1e-8), (0.0, 1e-3, 1e-8),
        (1.0, math.nan, 1e-8), (1.0, math.inf, 1e-8), (1.0, -1e-3, 1e-8),
    ])
    def test_invalid_arguments_raise_before_any_call(self, t_max, step, tol):
        calls = []
        with pytest.raises(ValueError, match="t_max, step and tol must be finite and positive"):
            find_extrema(calls.append, t_max, step, tol)
        assert not calls


def scalar_only(fn):
    """fn restricted to one time per call, as find_extrema's fallback sees it."""
    def call(t):
        if np.ndim(t):
            raise TypeError("one time per call")
        return fn(t)
    return call


class TestArrayWrappers:
    TIMES = np.array([0.9, 0.0, 3.1, -0.2, 45.0, 1.7, 6.0])  # unsorted, both signs

    @pytest.mark.parametrize("statistics,chi,xi", [
        ("GUE", chi_mean, xi_mean), ("POISSON", chi_poisson, xi_poisson)])
    def test_chi_xi(self, statistics, chi, xi):
        assert np.array_equal(chi(7, self.TIMES), chi_curve(statistics, 7, self.TIMES))
        assert np.array_equal(xi(5, self.TIMES), xi_curve(statistics, 5, self.TIMES))
        assert type(chi(7, 0.9)) is float and type(xi(5, np.float64(0.9))) is float

    @pytest.mark.parametrize("statistics,rho,purity", [
        ("GUE", rho_mean_coeffs, purity_mean),
        ("POISSON", rho_poisson_coeffs, purity_poisson)])
    @pytest.mark.parametrize("d_a,d_b", [(1, 3), (2, 3)])
    def test_rho_purity(self, statistics, rho, purity, d_a, d_b):
        p1, pmix = rho(d_a, d_b, self.TIMES)
        q1, qmix = rho_curve(statistics, d_a, d_b, self.TIMES)
        assert np.array_equal(p1, q1) and np.array_equal(pmix, qmix)
        assert np.array_equal(purity(d_a, d_b, self.TIMES),
                              purity_curve(statistics, d_a, d_b, self.TIMES))
        assert all(type(v) is float for v in rho(d_a, d_b, 0.9))
        assert type(purity(d_a, d_b, 0.9)) is float

    def test_list_of_times_is_a_grid(self):
        assert np.array_equal(chi_mean(4, [0.5, 1.5]), chi_curve("GUE", 4, [0.5, 1.5]))

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(ValueError):
            chi_mean(4, np.zeros((2, 2)))


# Every spectral entry point that takes times, on a grid `times`.
TIME_ENTRY_POINTS = {
    "f_matrix": lambda times: f_matrix(4, times),
    "trace_f": lambda times: trace_f(4, times),
    "correlator": lambda times: correlator((1, -1), 4, times),
    "chi_curve": lambda times: chi_curve("GUE", 4, times),
    "xi_curve": lambda times: xi_curve("POISSON", 4, times),
    "rho_curve": lambda times: rho_curve("GUE", 2, 2, times),
    "purity_curve": lambda times: purity_curve("GUE", 2, 2, times),
    "purity_curve d_A=1": lambda times: purity_curve("GUE", 1, 4, times),
    "chi_mean": lambda times: chi_mean(4, times),
    "xi_mean": lambda times: xi_mean(4, times),
    "rho_mean_coeffs": lambda times: rho_mean_coeffs(2, 2, times),
    "purity_mean": lambda times: purity_mean(2, 2, times),
    "purity_mean d_A=1": lambda times: purity_mean(1, 4, times),
    "chi_poisson": lambda times: chi_poisson(4, times),
    "xi_poisson": lambda times: xi_poisson(4, times),
    "rho_poisson_coeffs": lambda times: rho_poisson_coeffs(2, 2, times),
    "purity_poisson": lambda times: purity_poisson(2, 2, times),
}


class TestInvalidGrids:
    """A grid that is not 1-d, is empty or is not finite is a ValueError at
    every entry point, from the Monte Carlo's own check, before any work."""

    def test_one_check_for_spectral_and_sim(self):
        from guedyn import sim

        assert spectral._checked_times is sim._checked_times

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times", [[], [math.nan], [math.inf], [[0.5, 1.0], [1.5, 2.0]],
                                       math.nan, -math.inf],
                             ids=["empty", "nan", "inf", "2-d", "scalar-nan", "scalar-inf"])
    @pytest.mark.parametrize("name", TIME_ENTRY_POINTS)
    def test_rejected_before_any_work(self, monkeypatch, name, times):
        def no_stack(*args, **kwargs):
            raise AssertionError("_h_stack called on an invalid grid")

        monkeypatch.setattr(spectral, "_h_stack", no_stack)
        with pytest.raises(ValueError, match="times must be"):
            TIME_ENTRY_POINTS[name](times)


class TestBlockScan:
    # (fn, t_max, step): grids of 25, 6001, 1251 and 1001 points (the last
    # spans 7 chunks of the curve at d = 60), and a quadratic.
    CASES = [
        (lambda t: chi_mean(4, t), 6.0, 0.25),
        (lambda t: chi_mean(4, t), 6.0, 1e-3),
        (lambda t: chi_mean(13, t), 1.25, 1e-3),
        (lambda t: chi_mean(60, t), 1.0, 1e-3),
        (lambda t: (t - 1.3) ** 2, 3.0, 1e-3),
    ]

    @pytest.mark.parametrize("fn,t_max,step", CASES)
    def test_identical_to_per_point_scan(self, fn, t_max, step):
        extrema = find_extrema(fn, t_max, step)
        assert extrema and extrema == find_extrema(scalar_only(fn), t_max, step)

    def test_one_call_per_pass(self):
        sizes = []

        def fn(t):
            sizes.append(np.size(t) if np.ndim(t) else None)
            return chi_mean(13, t)

        m = len(find_extrema(fn, 1.25))
        assert sizes[0] == 1251  # the whole dense grid
        # then one call per zoom round, 8 times per open bracket and brackets
        # only close, and one call with the m vertices
        points = spectral._ZOOM_POINTS
        zoom, vertices = sizes[1:-1], sizes[-1]
        assert zoom and zoom[0] == points * m and vertices == m
        assert all(n % points == 0 for n in zoom) and zoom == sorted(zoom, reverse=True)
        # the bound stated in find_extrema's docstring: R rounds, the scan
        # and the vertices
        rounds = 1 + math.floor(math.log(2 * 1e-3 / 1e-8, points // 2 + 1))
        assert len(sizes) <= rounds + 2

    def test_wrong_shape_falls_back_to_per_point(self):
        calls = []

        def fn(t):
            calls.append(np.ndim(t))
            return float(np.sum((np.asarray(t) - 1.3) ** 2))  # one value per call

        (t_min, value), = find_extrema(fn, 3.0)
        assert abs(t_min - 1.3) < 1e-6 and value < 1e-12
        assert calls[0] == 1 and not any(calls[1:])
        assert find_extrema(fn, 3.0) == find_extrema(scalar_only(fn), 3.0)

    def test_numerical_error_on_a_block_propagates(self):
        def fn(t):
            if np.ndim(t):
                raise NumericalError("non-finite")
            return (t - 1.3) ** 2  # a per-point fallback would succeed

        with pytest.raises(NumericalError):
            find_extrema(fn, 1.0)


class TestLateTime:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 60), u=st.floats(0.0, 30.0))
    def test_chi_tends_to_d(self, d, u):
        # past t = 2 sqrt(d) + 4 the correlator term has decayed below 1e-9 d
        t = 2 * math.sqrt(d) + 4 + u
        assert abs(chi_mean(d, t) - d) <= 1e-9 * d


def cycles_of(perm):
    """The cycles of a permutation of range(n), as lists of positions."""
    seen = set()
    for start in range(len(perm)):
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        if cycle:
            yield cycle


def permutation_expansion(coeffs, mats, trace):
    """sum over S_n of sign * prod over cycles of trace(prod_j mats[c_j]):
    the distinct-index correlator, written out with no memoisation."""
    n = len(coeffs)
    total = 0
    for perm in itertools.permutations(range(n)):
        cycles = list(cycles_of(perm))
        term = (-1) ** (n - len(cycles))
        for cycle in cycles:
            prod = mats[coeffs[cycle[0]]]
            for j in cycle[1:]:
                prod = prod @ mats[coeffs[j]]
            term = term * trace(prod)
        total = total + term
    return total


class TestRealFormAgainstComplexF:
    """correlator works on the real stack H; the oracle multiplies the complex
    F(c t) matrices of f_matrix around every cycle of every permutation."""

    @pytest.mark.parametrize("coeffs", [(1, -1, 1, -1), (3, -1, -1, -1),
                                        (1, 1, 1, -1, -2), (2, 2, -1, -1, -2)])
    @pytest.mark.parametrize("d", [5, 8])
    def test_correlator(self, coeffs, d):
        scale = math.factorial(d) / math.factorial(d - len(coeffs))
        for t in (-1.7, -0.4, 0.6, 2.3):
            mats = {c: f_matrix(d, c * t) for c in set(coeffs)}
            want = permutation_expansion(coeffs, mats, np.trace)
            assert abs(want.imag) <= 1e-12 * scale
            assert abs(correlator(coeffs, d, t) - want.real) <= 1e-12 * scale

    @pytest.mark.parametrize("d", [1, 2, 7, 30, 80])
    def test_trace_f_against_scipy_laguerre(self, d):
        for t in (-2.5, 0.3, 1.0, 4.0, 9.0):
            want = math.exp(-t * t / 2) * eval_genlaguerre(d - 1, 1, t * t)
            assert abs(trace_f(d, t) - want) <= 1e-11 * max(1.0, abs(want))


def f_mp(d, t):
    """F(t) from the explicit sum over a of the module docstring, in mpmath."""
    it = mp.mpc(0, t)
    pref = mp.exp(-mp.mpf(t) ** 2 / 2)
    fac = [mp.factorial(n) for n in range(d)]
    out = mp.matrix(d, d)
    for mu in range(d):
        for nu in range(mu, d):
            acc = mp.fsum(it ** (mu + nu - 2 * a) / (fac[a] * fac[mu - a] * fac[nu - a])
                          for a in range(mu + 1))
            out[mu, nu] = out[nu, mu] = pref * mp.sqrt(fac[mu] * fac[nu]) * acc
    return out


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def xi_mp(d, t):
    """<|iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2> at 50 digits, from the
    definition: each sum over index tuples is split by set partitions of the
    positions into distinct-index correlators, which are expanded over
    permutations with 50-digit F matrices.  Shares no code or decomposition
    with xi_curve."""
    with mp.workdps(50):
        mats = {c: f_mp(d, c * t) for c in range(-2, 3)}

        def trace(m):
            return mp.fsum(m[i, i] for i in range(m.rows))

        def full_sum(coeffs):
            return mp.fsum(
                permutation_expansion(tuple(sum(coeffs[j] for j in b) for b in part), mats, trace)
                for part in set_partitions(list(range(len(coeffs))))
            )

        total = (full_sum((1, 1, -1, -1)) + 2 * full_sum((1, 1, -2)).real
                 + full_sum((2, -2)) - 4 * full_sum((1, -1)))
        return float(total.real)


class TestXiHighPrecision:
    @pytest.mark.parametrize("d", [5, 12])
    def test_xi_against_50_digit_oracle(self, d):
        ts = np.array([-0.8, 1.1, 2.7])
        got = xi_curve("GUE", d, ts)
        for t, value in zip(ts, got):
            want = xi_mp(d, float(t))
            assert abs(value - want) <= 1e-13 * abs(want)


class TestLoopKeys:
    XI_SETS = [(1, -1), (2, -2), (2, -1, -1), (1, 1, -2), (1, 1, -1, -1)]

    def test_sign_flip_shares_one_trace(self):
        from guedyn.spectral import _canonical_loop, _expansion

        keys = {key for cs in self.XI_SETS for _, loops in _expansion(cs) for key in loops}
        for loop in [(1,), (2,), (1, 1), (-2, 1), (-2, 1, 1)]:
            flipped = tuple(-c for c in loop)
            assert _canonical_loop(loop) == _canonical_loop(flipped)
            assert _canonical_loop(loop) in keys
        # 16 keys when (1,) and (-1,), (1, 1) and (-1, -1), ... were apart
        assert len(keys) == 11

    def test_rotation_and_reversal_share_one_trace(self):
        from guedyn.spectral import _canonical_loop

        loop = (3, -1, 2, 2, -1)
        same = {_canonical_loop(loop[r:] + loop[:r]) for r in range(5)}
        same |= {_canonical_loop((loop[r:] + loop[:r])[::-1]) for r in range(5)}
        assert len(same) == 1


def chi_poisson_closed(d, t):
    """d + d(d-1) |phi(t)|^2 with |phi(t)|^2 = 1/(1 + (d+1) t^2)."""
    return d + d * (d - 1) / ((d + 1) * t * t + 1)


def xi_poisson_closed(d, t):
    """The hand-derived Poisson <xi>, with mu^2 = 1/(d+1) the squared rate."""
    m2 = 1.0 / (d + 1)
    t2 = t * t
    p3 = d * (d - 1) * (d - 2)
    p4 = p3 * (d - 3)
    return (
        4 * d * (d - 1) * m2 / (m2 + 4 * t2)
        + 4 * p3 * m2 * m2 * (m2 + 3 * t2) / ((m2 + t2) ** 2 * (m2 + 4 * t2))
        + p4 * (m2 / (m2 + t2)) ** 2
        + 4 * d * (d - 1) ** 2 * m2 / (m2 + t2)
        + 2 * d * (d - 1)
    )


def chi_gue_identity(d, times):
    """<chi> = Tr(S H)^2 - sum_ij H_ij^2 + d, exact because F is symmetric
    and F(-t) = conj F(t): an O(d^2) route through no correlator."""
    h = spectral._h_stack(d, np.asarray(times, dtype=float))
    trace = np.einsum("tii,i->t", h, (-1.0) ** np.arange(d))
    return trace * trace - np.square(h).sum(axis=(1, 2)) + d


# chi = iota(t) iota(-t) and xi = |iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2,
# written out as (weight, multiples) phase monomials.
CHI_MONOMIALS = [(1, (1, -1))]
XI_MONOMIALS = [(1, (1, 1, -1, -1)), (1, (1, 1, -2)), (1, (2, -1, -1)), (1, (2, -2)),
                (-4, (1, -1))]


def poisson_brute(monomials, d, t):
    """sum_w w prod_j iota(m_j t) averaged over i.i.d. exponential levels of
    mean sqrt(d+1), index tuple by index tuple: the d^r tuples of each
    monomial, and per tuple the product over distinct levels v of
    phi(sum_{k: j_k = v} m_k t), phi(s) = 1/(1 - i sqrt(d+1) s)."""
    theta = math.sqrt(d + 1)
    total = 0j
    for weight, multiples in monomials:
        for idx in itertools.product(range(d), repeat=len(multiples)):
            sums = {}
            for j, m in zip(idx, multiples):
                sums[j] = sums.get(j, 0) + m
            total += weight * math.prod(1 / (1 - 1j * theta * c * t) for c in sums.values())
    return total


class TestPhaseMonomials:
    """chi_curve and xi_curve average their phase-monomial definitions; the
    hand-derived formulas they replaced are the references here."""

    @pytest.mark.parametrize("d", range(4, 13))
    def test_xi_distinct_terms(self, d):
        want = {(): 2 * d * (d - 1), (-1, 1): 4 * (d - 1), (-2, 2): 4, (-2, 1, 1): 2,
                (-1, -1, 2): 2, (-1, -1, 1, 1): 1}
        assert dict(spectral._distinct_terms(spectral._XI, d)) == want

    @pytest.mark.parametrize("d", range(2, 13))
    def test_chi_distinct_terms(self, d):
        assert dict(spectral._distinct_terms(spectral._CHI, d)) == {(): d, (-1, 1): 1}

    @pytest.mark.parametrize("d", [4, 9, 60, 150])
    def test_chi_against_closed_forms(self, d):
        want = np.array([chi_poisson_closed(d, t) for t in GRID_POINTS])
        got = chi_curve("POISSON", d, GRID_POINTS)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        want = chi_gue_identity(d, GRID_POINTS)
        assert np.max(np.abs(chi_curve("GUE", d, GRID_POINTS) - want) / want) <= 1e-13

    @pytest.mark.parametrize("d", [4, 9, 60])
    def test_xi_poisson_against_closed_form(self, d):
        want = np.array([xi_poisson_closed(d, t) for t in GRID_POINTS])
        got = xi_curve("POISSON", d, GRID_POINTS)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_poisson_against_index_tuples(self):
        d = 5
        for monomials, curve in ((CHI_MONOMIALS, chi_curve), (XI_MONOMIALS, xi_curve)):
            got = curve("POISSON", d, GRID_POINTS)
            for t, value in zip(GRID_POINTS, got):
                want = poisson_brute(monomials, d, t)
                assert abs(want.imag) <= 1e-12 * abs(want.real)
                assert abs(value - want.real) <= 1e-12 * abs(want.real)


def chi_trace_mp(d, t):
    """(<chi>, Tr F) at 30 digits, as floats (see chi_trace_mpf)."""
    with mp.workdps(30):
        return tuple(float(v) for v in chi_trace_mpf(d, t))


def chi_trace_mpf(d, t):
    """(<chi>, Tr F) at the working precision, all in mpmath: with x = t^2 and
    L = L^(k)_n(x) from its three-term recurrence, |F[n, n+k]|^2 is the product
    e^{-x} x^k n!/(n+k)! L^2 (the square of e^{-x/2} t^k sqrt(n!/(n+k)!) L),
    and F[n, n] = e^{-x/2} L^(0)_n(x).  No float enters."""
    x = mp.mpf(t) ** 2
    trace, squares = 0, 0
    c_k = mp.exp(-x)  # e^{-x} x^k / k!
    for k in range(d):
        if k:
            c_k = c_k * x / k
        lag_prev, lag, c = 0, mp.mpf(1), c_k
        for n in range(d - k):
            if n:
                lag_prev, lag = lag, ((2 * n - 1 + k - x) * lag
                                      - (n - 1 + k) * lag_prev) / n
                c = c * n / (n + k)
            if k:
                squares += 2 * c * lag * lag
            else:
                squares += c * lag * lag
                trace += mp.sqrt(c) * lag
    return trace * trace - squares + d, trace


class TestScaledRecurrence:
    """Large d and t, where e^{-t^2/2} alone underflows and the columns of the
    recurrence carry their own scale."""

    @pytest.mark.parametrize("t", [38.0, 38.6])
    def test_chi_and_trace_against_mpmath(self, t):
        chi_want, tr_want = chi_trace_mp(400, t)
        assert abs(chi_mean(400, t) - chi_want) <= 1e-10 * abs(chi_want)
        assert abs(trace_f(400, t) - tr_want) <= 1e-10 * abs(tr_want)
        assert abs(correlator((1, -1), 400, t) + 400 - chi_want) <= 1e-10 * chi_want

    @pytest.mark.parametrize("d,t", [(800, 52.0), (1000, -60.0)])
    def test_renormalised_trace_against_mpmath(self, d, t):
        # the k = 0 column starts near 2^-(0.72 t^2), two factors of _BIG
        # down, and is renormalised on its way up to O(1) values;
        # Tr F = e^{-x/2} L^(1)_{d-1}(x), the Laguerre value by its recurrence
        with mp.workdps(30):
            x = mp.mpf(t) ** 2
            lag_prev, lag = 0, mp.mpf(1)
            for n in range(1, d):
                lag_prev, lag = lag, ((2 * n - x) * lag - n * lag_prev) / n
            want = float(mp.exp(-x / 2) * lag)
        assert abs(trace_f(d, t) - want) <= 1e-12 * abs(want)

    def test_past_the_band_edge(self):
        # at d = 300 the spectrum ends below t = 38: F is negligible there
        assert chi_mean(300, 38.0) == pytest.approx(300.0, rel=1e-12)
        assert abs(trace_f(300, 38.0)) < 1e-12

    def test_rows_unitary(self):
        # F is a block of the unitary e^{itX}, and at |t| = 38 the first rows
        # put their weight near nu = t^2, well inside 2000 columns
        stack = spectral._h_stack(2000, np.array([38.0, -38.6]))
        norms = np.square(stack[:, :10]).sum(axis=2)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("t", [0.37, 2.5, 11.0])
    def test_chi_from_wider_table(self, t):
        # sum_nu H_mu,nu^2 = 1 over all nu gives <chi> = Tr(S H)^2 +
        # sum_{mu < d <= nu} H_mu,nu^2, a route with no d - |F|^2 cancellation;
        # at t = 11 the rows mu < 60 reach past nu = 3d, so the table is 8d wide
        d = 60
        h = spectral._h_stack(8 * d, np.array([t]))[0]
        want = (np.diag(h)[:d] @ ((-1.0) ** np.arange(d))) ** 2 + np.sum(h[:d, d:] ** 2)
        assert abs(chi_mean(d, t) - want) <= 1e-12 * want


class TestRecurrenceStart:
    """h_0 = e^{-x/2} t^k / sqrt(k!) at t = 0 and t < 0, where log|t| is
    -inf or the sign of t^k is restored."""

    TIMES = np.array([-2.5, -0.37, 0.0, 0.01, 1.3])

    @pytest.mark.parametrize("d", [1, 4, 150])
    def test_no_warning_on_a_grid_through_zero(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if d >= 2:
                chi_curve("GUE", d, self.TIMES)
            if d >= 4:
                xi_curve("GUE", d, self.TIMES)
            for t in self.TIMES:
                f_matrix(d, t)
                trace_f(d, t)

    @pytest.mark.parametrize("d", [1, 4, 150])
    def test_exact_at_zero(self, d):
        # H(0) = S, so F(0) = E S E is exactly the identity
        s = np.diag((-1.0) ** np.arange(d))
        assert np.array_equal(spectral._h_stack(d, np.array([0.0]))[0], s)

    @pytest.mark.parametrize("d", [1, 4, 150])
    def test_negative_time_flips_odd_diagonals(self, d):
        ts = np.abs(self.TIMES[self.TIMES != 0])
        pos = spectral._h_stack(d, ts)
        neg = spectral._h_stack(d, -ts)
        for k in range(d):
            want = (-1) ** k * np.diagonal(pos, offset=k, axis1=1, axis2=2)
            assert np.array_equal(np.diagonal(neg, offset=k, axis1=1, axis2=2), want)
