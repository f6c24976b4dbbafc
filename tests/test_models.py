"""Spin-model ensembles, Majorana algebra, rescaling and the D6 distance."""

import itertools
import math
from math import comb

import numpy as np
import pytest

from guedyn.errors import NumericalError
from guedyn.models import (
    DynamicsTrace,
    ModelSpec,
    SPIN_FAMILIES,
    analytic_gue_trace,
    analytic_poisson_trace,
    build_model,
    cs_hamiltonian,
    distance_d6,
    ensemble_dynamics,
    jordan_wigner_majoranas,
    make_sampler,
    rescale_energies,
    syk_hamiltonian,
    tfim_hamiltonian,
)
from guedyn.sim import RngStream, gap_statistics, mc_average

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


class TestMajoranas:
    def test_single_site(self):
        f = jordan_wigner_majoranas(1)
        assert np.array_equal(f[0], SIGMA_X)
        assert np.array_equal(f[1], SIGMA_Y)

    def test_cross_site_anticommutation_explicit(self):
        # s = 2: f_0 = X x 1, f_2 = Z x X; the Z string flips the sign
        f = jordan_wigner_majoranas(2)
        want_f0 = np.kron(SIGMA_X, np.eye(2))
        want_f2 = np.kron(SIGMA_Z, SIGMA_X)
        assert np.array_equal(f[0], want_f0)
        assert np.array_equal(f[2], want_f2)
        assert np.max(np.abs(f[0] @ f[2] + f[2] @ f[0])) == 0.0

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_clifford_algebra(self, s):
        modes = jordan_wigner_majoranas(s)
        assert len(modes) == 2 * s
        dim = 1 << s
        for a in range(2 * s):
            assert np.max(np.abs(modes[a] - modes[a].conj().T)) <= 1e-12
            assert abs(np.trace(modes[a])) <= 1e-12
            for b in range(a, 2 * s):
                anti = modes[a] @ modes[b] + modes[b] @ modes[a]
                want = 2 * np.eye(dim) if a == b else 0.0
                assert np.max(np.abs(anti - want)) <= 1e-12


class TestBuilders:
    def test_classical_ising_limit(self):
        # J = 0 and identity rotation: H = sum_j X_j X_{j+1}; brute-force
        # spectrum of the 3-site classical chain is {-1 (x6), 3 (x2)}
        h = tfim_hamiltonian(3, 0.0, np.eye(3), 0.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1] * 6 + [3] * 2,
                           atol=1e-12)

    def test_syk_term_count(self):
        with pytest.raises(ValueError):
            syk_hamiltonian(3, 1.0, np.zeros(comb(6, 4) + 1))
        h = syk_hamiltonian(3, 1.0, np.ones(comb(6, 4)))
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_cs_bare_coupling(self):
        # J = 0, B = 0: only central-to-bath Heisenberg-type terms remain
        h = cs_hamiltonian(1, 2, 0.0, 0.0, np.zeros(1), np.zeros((1, 1, 3)),
                           np.ones((1, 2, 3)))
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        want = sum(
            np.kron(np.kron(p, q), np.eye(2)) + np.kron(np.kron(p, np.eye(2)), q)
            for p, q in [(SIGMA_X, SIGMA_X), (SIGMA_Y, SIGMA_Y), (SIGMA_Z, SIGMA_Z)]
        )
        assert np.max(np.abs(h - want)) <= 1e-12

    @pytest.mark.parametrize("family", SPIN_FAMILIES)
    def test_hermitian(self, family):
        spec = ModelSpec(family, 4, 4)
        for i in range(5):
            h = build_model(spec, RngStream(40, i))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    @pytest.mark.parametrize("family", ["SYK", "SG", "CS"])
    def test_zero_mean_ensembles(self, family):
        # families whose couplings are all centred Gaussians: each entrywise
        # mean over n draws must be consistent with zero at its standard
        # error.  (The rotated chains are excluded: their bond terms carry
        # rotation second moments with mean delta_ab / 3.)
        spec = ModelSpec(family, 2, 8)
        n = 1000
        acc = np.zeros((spec.d, spec.d), dtype=complex)
        acc_sq = np.zeros((spec.d, spec.d))
        for i in range(n):
            h = build_model(spec, RngStream(41, i))
            acc += h
            acc_sq += np.abs(h) ** 2
        mean = acc / n
        variance = np.maximum(acc_sq / n - np.abs(mean) ** 2, 0.0)
        stderr = np.sqrt(variance / n)
        z = np.abs(mean) / np.maximum(stderr, 1e-12)
        assert np.max(z[stderr > 1e-12]) < 6.0  # 64 comparisons, 6-sigma bound

    def test_gue_poisson_families(self):
        h = build_model(ModelSpec("GUE", 2, 3), RngStream(42, 0))
        assert h.shape == (6, 6)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        h = build_model(ModelSpec("POISSON", 2, 3), RngStream(42, 1))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-10
        assert np.all(np.linalg.eigvalsh(h) > -1e-10)  # exponential levels

    @pytest.mark.parametrize("family", ["GUE", "POISSON", *SPIN_FAMILIES])
    def test_bad_rng_is_type_error(self, family):
        # an integer is neither an RngStream nor a numpy Generator
        with pytest.raises(TypeError, match="rng must be"):
            build_model(ModelSpec(family, 2, 4), 42)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("BOGUS", 2, 2)
        with pytest.raises(ValueError):
            ModelSpec("TFIM", 3, 2)  # not a power of two
        with pytest.raises(ValueError):
            ModelSpec("SYK", 2, 1)  # fewer than 4 Majorana modes
        with pytest.raises(ValueError):
            ModelSpec("CS", 1, 4)  # no central spin
        ModelSpec("GUE", 3, 5)  # arbitrary dimensions allowed

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, value):
        with pytest.raises(ValueError, match="coupling J must be finite"):
            ModelSpec("XXZ", 2, 2, {"J": value})
        with pytest.raises(ValueError, match="coupling B must be finite"):
            ModelSpec("GUE", 2, 2, {"J": 1.0, "B": value})  # even if unused

    @pytest.mark.parametrize("family", ["TFIM", "DTFIM", "XXZ", "DXXZ", "SG"])
    def test_chains_need_two_spins(self, family):
        # one periodic site would couple the spin to itself (SG: H != H^dag)
        for d_a, d_b in [(2, 1), (1, 2), (1, 1)]:
            with pytest.raises(ValueError):
                ModelSpec(family, d_a, d_b)
        for d_a, d_b in [(2, 2), (1, 4)]:
            h = build_model(ModelSpec(family, d_a, d_b), RngStream(44, 0))
            assert np.array_equal(h, h.conj().T)


class TestRescaleEnergies:
    def test_exact_two_level(self):
        d = 2
        spectrum = np.array([[0.0, math.sqrt(2 * (d + 1))]])
        assert abs(rescale_energies(spectrum) - 1.0) < 1e-12

    def test_gue_scale_near_unity(self):
        spectra = np.linalg.eigvalsh(
            np.stack([build_model(ModelSpec("GUE", 2, 2), RngStream(43, i))
                      for i in range(600)])
        )
        scale = rescale_energies(spectra)
        assert abs(scale - 1.0) < 0.05

    def test_homogeneity(self):
        spectra = RngStream(44, 0).generator().normal(size=(50, 6))
        assert abs(rescale_energies(spectra * 3.0) - rescale_energies(spectra) / 3.0) < 1e-12

    def test_idempotent(self):
        spectra = RngStream(45, 0).generator().normal(size=(50, 6))
        scale = rescale_energies(spectra)
        assert abs(rescale_energies(spectra * scale) - 1.0) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rescale_energies(np.ones((3, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spectrum_raises(self, bad):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            rescale_energies([[1.0, bad]])


class TestDistance:
    times = np.arange(0.0, 6.0001, 0.01)

    def test_zero_on_identical(self):
        trace = analytic_gue_trace(2, 2, self.times)
        assert distance_d6(trace, trace) == 0.0

    def test_constant_offset(self):
        trace = analytic_gue_trace(2, 2, self.times)
        shifted = DynamicsTrace(self.times, trace.rho + 0.25 * np.eye(2))
        assert abs(distance_d6(trace, shifted) - 6 * 0.25) < 1e-12

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(1)
        traces = [
            DynamicsTrace(
                self.times,
                rng.normal(size=(self.times.size, 2, 2))
                + 1j * rng.normal(size=(self.times.size, 2, 2)),
            )
            for _ in range(3)
        ]
        a, b, c = traces
        assert abs(distance_d6(a, b) - distance_d6(b, a)) < 1e-12
        assert distance_d6(a, c) <= distance_d6(a, b) + distance_d6(b, c) + 1e-12

    def test_grid_mismatch(self):
        a = analytic_gue_trace(2, 2, self.times)
        b = analytic_gue_trace(2, 2, self.times[:-1])
        with pytest.raises(ValueError):
            distance_d6(a, b)

    def test_analytic_traces_structure(self):
        for trace in (analytic_gue_trace(2, 3, self.times),
                      analytic_poisson_trace(2, 3, self.times)):
            assert np.allclose(np.trace(trace.rho, axis1=1, axis2=2), 1.0, atol=1e-12)
            assert np.max(np.abs(trace.rho[0] - np.diag([1.0, 0.0]))) < 1e-9


class TestEnsembleDynamics:
    times = np.linspace(0.0, 6.0, 31)

    def test_gue_equals_plain_mc(self):
        spec = ModelSpec("GUE", 2, 2)
        a = ensemble_dynamics(spec, self.times, 24, RngStream(46))
        b = mc_average(make_sampler(spec), 2, 2, self.times, 24, RngStream(46))
        assert np.array_equal(a.rho_mean, b.rho_mean)
        assert a.energy_scale == 1.0

    def test_zero_hamiltonian_constant(self):
        result = mc_average(lambda gen: np.zeros((4, 4)), 2, 2, self.times, 1,
                            RngStream(47))
        assert np.max(np.abs(result.rho_mean - result.rho_mean[0])) < 1e-12

    def test_spin_model_rescaled(self):
        spec = ModelSpec("XXZ", 2, 4)
        result = ensemble_dynamics(spec, self.times, 40, RngStream(48))
        assert result.energy_scale != 1.0
        spectra = [
            np.linalg.eigvalsh(
                result.energy_scale
                * build_model(spec, RngStream(48, i))
            )
            for i in range(40)
        ]
        assert abs(rescale_energies(spectra) - 1.0) < 1e-9

    def test_trace_preserved(self):
        spec = ModelSpec("DTFIM", 2, 4)
        result = ensemble_dynamics(spec, self.times, 20, RngStream(49))
        traces = np.trace(result.rho_mean, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_scramble_flag(self):
        spec = ModelSpec("XXZ", 2, 4)
        plain = ensemble_dynamics(spec, self.times, 16, RngStream(50))
        scrambled = ensemble_dynamics(spec, self.times, 16, RngStream(50),
                                      scramble=True)
        assert not np.allclose(plain.rho_mean, scrambled.rho_mean)

    def test_poisson_baseline_matches_closed_form(self):
        # exponential levels + Haar eigenvectors: the |1_A><1_A| occupation
        # must track the uncorrelated-statistics coefficient curve
        from guedyn.spectral import rho_poisson_coeffs

        spec = ModelSpec("POISSON", 2, 2)
        tpts = np.linspace(0.4, 5.6, 8)
        result = ensemble_dynamics(spec, tpts, 1500, RngStream(52))
        for k, t in enumerate(tpts):
            p1, pmix = rho_poisson_coeffs(2, 2, t)
            want = p1 + pmix / 2
            se = max(result.rho_stderr[k, 0, 0], 1e-12)
            assert abs(result.rho_mean[k, 0, 0].real - want) <= 5 * se, t


class TestGapSeparation:
    def test_disorder_breaks_poissonian_character(self):
        # 6 spins, 300 samples: the disordered twin has level repulsion the
        # integrable chain lacks.  (The quartic Majorana model is checked at
        # the 3+5 partition in the acceptance suite: at 6 spins its
        # 12-mode Clifford algebra forces exact double degeneracies.)
        ratios = {}
        for family in ("XXZ", "DXXZ"):
            spec = ModelSpec(family, 8, 8)
            spectra = [
                np.linalg.eigvalsh(build_model(spec, RngStream(51, i)))
                for i in range(300)
            ]
            ratios[family] = gap_statistics(spectra).mean_ratio
        assert ratios["XXZ"] < ratios["DXXZ"]


# ---------------------------------------------------------------------------
# Table assembly against an independent dense reference: every operator is a
# Kronecker product of 2x2 Pauli matrices, with site 0 the leftmost factor.
# ---------------------------------------------------------------------------

PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _site_op(s, site, mat):
    out = np.ones((1, 1), dtype=complex)
    for k in range(s):
        out = np.kron(out, mat if k == site else np.eye(2))
    return out


def _dot_sigma(s, site, vec):
    return sum(v * _site_op(s, site, p) for v, p in zip(vec, PAULIS))


def _dense_majoranas(s):
    modes = []
    for j in range(s):
        for p in (SIGMA_X, SIGMA_Y):
            op = np.ones((1, 1), dtype=complex)
            for k in range(s):
                op = np.kron(op, SIGMA_Z if k < j else p if k == j else np.eye(2))
            modes.append(op)
    return modes


def _reference(family, s_a, s_b, rng):
    """(table-built H, dense reference H) for one family with random inputs."""
    from guedyn import models

    s = s_a + s_b
    rot = lambda: np.linalg.qr(rng.normal(size=(3, 3)))[0]  # noqa: E731
    J, B, g, h = rng.normal(size=4)
    pair = lambda j, u, v: _dot_sigma(s, j, u) @ _dot_sigma(s, (j + 1) % s, v)  # noqa: E731
    if family == "TFIM":
        r = rot()
        want = sum(pair(j, r[0], r[0]) + J * g * _dot_sigma(s, j, r[2]) for j in range(s))
        return models.tfim_hamiltonian(s, J, r, g), want
    if family == "DTFIM":
        rx, ry, gs = [rot() for _ in range(s)], [rot() for _ in range(s)], rng.normal(size=s)
        want = sum(pair(j, rx[j][0], rx[j][0]) + J * gs[j] * _dot_sigma(s, j, ry[j][2])
                   for j in range(s))
        return models.dtfim_hamiltonian(s, J, rx, ry, gs), want
    if family == "XXZ":
        r = rot()
        want = sum(pair(j, r[0], r[0]) + pair(j, r[1], r[1]) + J * g * pair(j, r[2], r[2])
                   + B * h * _dot_sigma(s, j, r[2]) for j in range(s))
        return models.xxz_hamiltonian(s, B, J, r, g, h), want
    if family == "DXXZ":
        rx, ry = [rot() for _ in range(s)], [rot() for _ in range(s)]
        gs, hs = rng.normal(size=s), rng.normal(size=s)
        want = sum(
            pair(j, rx[j][0], rx[j][0]) + pair(j, rx[j][1], rx[j][1])
            + J * gs[j] * pair(j, rx[j][2], rx[j][2]) + B * hs[j] * _dot_sigma(s, j, ry[j][2])
            for j in range(s)
        )
        return models.dxxz_hamiltonian(s, B, J, rx, ry, gs, hs), want
    if family == "SG":
        J1, J2, J3 = rng.normal(size=3)
        h_diag, h_shared, h_site = (rng.normal(size=3), rng.normal(size=(3, 3)),
                                    rng.normal(size=(s, 3, 3)))
        g_shared, g_site = rng.normal(size=3), rng.normal(size=(s, 3))
        want = 0
        for j in range(s):
            coupling = np.diag(h_diag) + J1 * h_shared + J2 * h_site[j]
            for a in range(3):
                e_a = np.eye(3)[a]
                want = want + pair(j, e_a, coupling[a])
            want = want + _dot_sigma(s, j, g_shared + J3 * g_site[j])
        got = models.sg_hamiltonian(s, J1, J2, J3, h_diag, h_shared, h_site, g_shared, g_site)
        return got, want
    if family == "CS":
        gs = rng.normal(size=s_a)
        h_central, h_bath = rng.normal(size=(s_a, s_a, 3)), rng.normal(size=(s_a, s_b, 3))
        want = sum(B * gs[j] * _site_op(s, j, SIGMA_Z) for j in range(s_a))
        for j in range(s_a):
            for a, p in enumerate(PAULIS):
                want = want + sum(J * h_central[j, k, a] * _site_op(s, j, p) @ _site_op(s, k, p)
                                  for k in range(s_a))
                want = want + sum(h_bath[j, k, a] * _site_op(s, j, p) @ _site_op(s, s_a + k, p)
                                  for k in range(s_b))
        return models.cs_hamiltonian(s_a, s_b, B, J, gs, h_central, h_bath), want
    if family == "SYK":
        f = _dense_majoranas(s)
        subsets = list(itertools.combinations(range(2 * s), 4))
        couplings = rng.normal(size=len(subsets))
        want = sum(J * c * f[i] @ f[j] @ f[k] @ f[l]
                   for c, (i, j, k, l) in zip(couplings, subsets))
        return models.syk_hamiltonian(s, J, couplings), want
    raise AssertionError(family)


class TestTableAssembly:
    @pytest.mark.parametrize("family", SPIN_FAMILIES)
    @pytest.mark.parametrize("s_a,s_b", [(1, 1), (1, 2), (2, 2)])
    def test_matches_dense_kron_reference(self, family, s_a, s_b):
        rng = np.random.default_rng(7 + 10 * s_a + s_b)
        for _ in range(3):
            got, want = _reference(family, s_a, s_b, rng)
            assert got.shape == want.shape == (1 << (s_a + s_b),) * 2
            assert np.max(np.abs(got - want)) <= 1e-13
            assert np.array_equal(got, got.conj().T)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            cs_hamiltonian(1, 2, 1.0, 1.0, np.zeros(1), np.zeros((1, 1, 3)),
                           np.ones((1, 1, 3)))


class TestPilotPass:
    times = np.linspace(0.0, 6.0, 7)

    @pytest.mark.parametrize("family", SPIN_FAMILIES)
    def test_scale_matches_spectra(self, family):
        # the pilot's Tr H, Tr H^2 moments give the rescale_energies factor
        spec = ModelSpec(family, 2, 4)
        result = ensemble_dynamics(spec, self.times, 6, RngStream(60), stream_offset=3)
        spectra = [np.linalg.eigvalsh(build_model(spec, RngStream(60, 3 + i)))
                   for i in range(6)]
        want = rescale_energies(spectra)
        assert abs(result.energy_scale - want) <= 1e-12 * want

    @pytest.mark.parametrize("family", ["SYK", "XXZ"])
    def test_thread_count_invariance(self, family):
        spec = ModelSpec(family, 2, 4)
        one = ensemble_dynamics(spec, self.times, 8, RngStream(61), threads=1)
        three = ensemble_dynamics(spec, self.times, 8, RngStream(61), threads=3)
        for key in ("rho_mean", "rho_stderr", "purity_mean", "purity_stderr"):
            assert np.array_equal(getattr(one, key), getattr(three, key)), key
        assert one.energy_scale == three.energy_scale

    @pytest.mark.parametrize("n_samples,threads,message", [(0, 1, "n_samples"),
                                                           (4, 0, "threads")])
    def test_bad_counts_rejected_before_pilot(self, monkeypatch, n_samples, threads,
                                              message):
        from guedyn import models

        def no_build(spec, rng):
            raise AssertionError("the pilot pass ran")

        monkeypatch.setattr(models, "build_model", no_build)
        with pytest.raises(ValueError, match=message):
            ensemble_dynamics(ModelSpec("XXZ", 2, 4), self.times, n_samples,
                              RngStream(62), threads=threads)
