"""Spin-model ensembles, Majorana algebra, rescaling and the D6 distance."""

import itertools
import math
from math import comb

import numpy as np
import pytest

from guedyn.errors import NumericalError
from guedyn.models import (
    COUPLINGS,
    FAMILIES,
    DynamicsTrace,
    ModelSpec,
    SPIN_FAMILIES,
    analytic_gue_trace,
    analytic_poisson_trace,
    build_model,
    cs_hamiltonian,
    distance_d6,
    dtfim_hamiltonian,
    dxxz_hamiltonian,
    ensemble_dynamics,
    jordan_wigner_majoranas,
    make_sampler,
    rescale_energies,
    sg_hamiltonian,
    syk_hamiltonian,
    tfim_hamiltonian,
    xxz_hamiltonian,
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

    def test_gue_rejects_lambda_coupling(self):
        # GUE is drawn at lambda = 1, the scale of its analytic baseline, and
        # reads no coupling
        with pytest.raises(ValueError,
                           match=r"GUE does not read coupling lambda \(its couplings: none\)"):
            ModelSpec("GUE", 2, 2, {"lambda": 4.0})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unknown_coupling_rejected(self, family):
        # a misspelt name used to run at the default coupling without a word
        reads = ", ".join(COUPLINGS[family]) or "none"
        with pytest.raises(ValueError,
                           match=rf"{family} does not read coupling j \(its couplings: {reads}\)"):
            ModelSpec(family, 2, 4, {"j": 2.0})
        ModelSpec(family, 2, 4, {name: 0.5 for name in COUPLINGS[family]})

    def test_couplings_are_the_ones_read(self):
        # each family's draw changes with every coupling it lists
        for family in SPIN_FAMILIES:
            plain = build_model(ModelSpec(family, 2, 4), RngStream(42, 2))
            for name in COUPLINGS[family]:
                moved = build_model(ModelSpec(family, 2, 4, {name: 0.5}), RngStream(42, 2))
                assert not np.array_equal(plain, moved), (family, name)

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

    @pytest.mark.parametrize("family, d_a, d_b", [
        ("GUE", 2.5, 2),   # used to die in build_model with a bare TypeError
        ("TFIM", 2.0, 4),  # used to raise TypeError in the power-of-two check
        ("TFIM", True, 4),  # used to be accepted as d_a = 1
        ("GUE", 2, "4"),
        ("SYK", 2, None),
    ])
    def test_non_integer_dimension_rejected(self, family, d_a, d_b):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            ModelSpec(family, d_a, d_b)

    @pytest.mark.parametrize("family", ["GUE", "TFIM"])
    def test_numpy_integer_dimensions_accepted(self, family):
        spec = ModelSpec(family, np.int64(2), np.int32(4))
        assert np.array_equal(build_model(spec, RngStream(45, 0)),
                              build_model(ModelSpec(family, 2, 4), RngStream(45, 0)))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectrum_raises_before_any_warning(self, bad):
        with pytest.raises(NumericalError):
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


class TestChainTable:
    """The five chain families share one table: the nine bonds and three
    fields of each site, so a chain coefficient vector is (s, 12) site rows."""

    @pytest.mark.parametrize("family", ["TFIM", "DTFIM", "XXZ", "DXXZ", "SG"])
    def test_twelve_terms_per_site(self, family):
        from guedyn import models

        spec = ModelSpec(family, 8, 32)
        assert models._table(spec) is models._chain_table(8)
        assert models._chain_table(8).z.size == 96
        assert models._coefficients(spec, RngStream(80, 0).generator()).shape == (96,)

    @pytest.mark.parametrize("family", ["XXZ", "DXXZ"])
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_folded_axis_blocks_keep_their_bytes(self, family, s):
        # the reference lists each site's nine bonds once per frame axis, with
        # one coefficient block per axis, and np.add.at sums the three
        from guedyn import models
        from guedyn.sim import sample_so3

        strings = []
        for j in range(s):
            strings += [models._string(s, [(j, a), ((j + 1) % s, b)])
                        for a in models._AXES for b in models._AXES] * 3
            strings += [models._pauli(s, j, a) for a in models._AXES]
        reference = models._PauliTable.from_strings(s, strings)
        for couplings in ({}, {"J": 0.3, "B": -1.7}):
            spec = ModelSpec(family, 2, 1 << (s - 1), couplings)
            J, B = spec.coupling("J"), spec.coupling("B")
            for i in range(3):
                # the draws of models._coefficients, in its order
                gen = RngStream(81, i).generator()
                if family == "XXZ":
                    rx = ry = np.array([sample_so3(gen)] * s)
                    g, h = (np.full(s, gen.normal()) for _ in range(2))
                else:
                    rx = np.array([sample_so3(gen) for _ in range(s)])
                    ry = np.array([sample_so3(gen) for _ in range(s)])
                    g, h = (gen.normal(size=s) for _ in range(2))
                blocks = [models._bonds(rx[:, a], rx[:, a], (J * g)[:, None] if a == 2 else 1.0)
                          for a in range(3)]
                coeffs = np.concatenate(blocks + [(B * h)[:, None] * ry[:, 2]], axis=1).ravel()
                assert np.array_equal(build_model(spec, RngStream(81, i)),
                                      reference.matrix(coeffs))


def _public_build(spec, gen):
    # the family's public builder fed its inputs drawn from gen in the
    # documented order: rotations first, then the scalar coupling blocks in
    # the order of the builder's arguments
    from guedyn.sim import sample_so3

    s, s_a, s_b, c = spec.n_spins, spec.s_a, spec.s_b, spec.coupling
    fam = spec.family
    if fam == "TFIM":
        return tfim_hamiltonian(s, c("J"), sample_so3(gen), gen.normal())
    if fam == "XXZ":
        return xxz_hamiltonian(s, c("B"), c("J"), sample_so3(gen), gen.normal(), gen.normal())
    if fam in ("DTFIM", "DXXZ"):
        rx = [sample_so3(gen) for _ in range(s)]
        ry = [sample_so3(gen) for _ in range(s)]
        if fam == "DTFIM":
            return dtfim_hamiltonian(s, c("J"), rx, ry, gen.normal(size=s))
        return dxxz_hamiltonian(s, c("B"), c("J"), rx, ry, gen.normal(size=s), gen.normal(size=s))
    if fam == "SG":
        return sg_hamiltonian(s, c("J1"), c("J2"), c("J3"), gen.normal(size=3),
                              gen.normal(size=(3, 3)), gen.normal(size=(s, 3, 3)),
                              gen.normal(size=3), gen.normal(size=(s, 3)))
    if fam == "CS":
        return cs_hamiltonian(s_a, s_b, c("B"), c("J"), gen.normal(size=s_a),
                              gen.normal(size=(s_a, s_a, 3)), gen.normal(size=(s_a, s_b, 3)))
    if fam == "SYK":
        return syk_hamiltonian(s, c("J2"), gen.normal(size=comb(2 * s, 4)))
    raise AssertionError(fam)


class TestDrawOrder:
    """build_model draws a family's inputs in the documented order and
    contracts them as its public builder does, to the last bit."""

    @pytest.mark.parametrize("family", SPIN_FAMILIES)
    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 4), (4, 8)])
    def test_build_model_is_the_public_builder(self, family, d_a, d_b):
        values = {"J": 0.3, "B": -1.7, "J1": 0.6, "J2": -0.4, "J3": 1.3}
        for couplings in ({}, {name: values[name] for name in COUPLINGS[family]}):
            spec = ModelSpec(family, d_a, d_b, couplings)
            for i in range(3):
                want = _public_build(spec, RngStream(82, i).generator())
                assert np.array_equal(build_model(spec, RngStream(82, i)), want)


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

    @pytest.mark.parametrize("family", SPIN_FAMILIES)
    @pytest.mark.parametrize("s_a,s_b", [(1, 1), (1, 2), (2, 2)])
    def test_moments_are_the_traces(self, family, s_a, s_b):
        # Tr H and Tr H^2 from the merged coefficients; CS's central block
        # holds the identity strings sigma^a_j sigma^a_j, which merge into one
        from guedyn import models

        spec = ModelSpec(family, 1 << s_a, 1 << s_b)
        table = models._table(spec)
        for i in range(3):
            coeffs = models._coefficients(spec, RngStream(63, i).generator())
            h = table.matrix(coeffs)
            want = (np.trace(h).real, np.vdot(h, h).real)
            got = table.moments(coeffs)
            scale = np.sqrt(want[1] * spec.d)  # bounds |Tr H|
            assert abs(got[0] - want[0]) <= 1e-13 * scale
            assert abs(got[1] - want[1]) <= 1e-13 * want[1]

    @pytest.mark.parametrize("family", ["XXZ", "SYK"])
    def test_each_sample_assembled_once(self, monkeypatch, family):
        # the pilot builds no H; the Monte Carlo builds each sample's H once
        from guedyn import models

        calls = []
        real = models._PauliTable.matrix

        def counting(table, coeffs):
            calls.append(None)
            return real(table, coeffs)

        monkeypatch.setattr(models._PauliTable, "matrix", counting)
        ensemble_dynamics(ModelSpec(family, 2, 4), self.times, 5, RngStream(64), threads=2)
        assert len(calls) == 5

    @pytest.mark.parametrize("family", SPIN_FAMILIES)
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

        def no_draw(spec, gen):
            raise AssertionError("the pilot pass ran")

        monkeypatch.setattr(models, "_coefficients", no_draw)
        with pytest.raises(ValueError, match=message):
            ensemble_dynamics(ModelSpec("XXZ", 2, 4), self.times, n_samples,
                              RngStream(62), threads=threads)

    @pytest.mark.parametrize("family", ["GUE", "XXZ"])
    def test_stream_id_rejected_before_any_draw(self, monkeypatch, family):
        from guedyn import models

        def no_draw(spec, gen):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(models, "_coefficients", no_draw)
        with pytest.raises(ValueError, match="pass stream_offset"):
            ensemble_dynamics(ModelSpec(family, 2, 4), self.times, 4, RngStream(62, 1))


class TestParitySectors:
    """SYK and CS commute with prod_j Z_j and are diagonalised per sector;
    TFIM and XXZ are diagonalised per sector of their frame's H_0."""

    times = np.linspace(0.0, 6.0, 31)

    @staticmethod
    def sectors(spec):
        from guedyn import models

        return models._parity_sectors(spec.n_spins)

    @pytest.mark.parametrize("family, d_a, d_b", [("SYK", 2, 2), ("SYK", 2, 4), ("SYK", 4, 8),
                                                  ("SYK", 8, 8), ("CS", 2, 1), ("CS", 2, 4),
                                                  ("CS", 4, 8), ("CS", 8, 4)])
    def test_off_sector_block_is_zero(self, family, d_a, d_b):
        spec = ModelSpec(family, d_a, d_b)
        even, odd = self.sectors(spec)
        for i in range(3):
            h = build_model(spec, RngStream(90, i))
            assert not h[np.ix_(even, odd)].any()
            assert not h[np.ix_(odd, even)].any()

    def test_parity_property_of_the_tables(self):
        from guedyn import models

        for family, d_a, d_b, want in [("SYK", 2, 4, True), ("SYK", 8, 8, True),
                                       ("CS", 2, 4, True), ("CS", 4, 8, True),
                                       ("XXZ", 2, 4, False), ("TFIM", 2, 4, False),
                                       ("SG", 2, 4, False), ("DXXZ", 4, 8, False)]:
            spec = ModelSpec(family, d_a, d_b)
            assert models._table(spec).conserves_parity is want
            # the sectors of H: a frame's sectors belong to its H_0
            assert (models._sectors(spec) is not None) is want
        assert models._table(ModelSpec("GUE", 2, 2)) is None

    @pytest.mark.parametrize("family, d_a, d_b", [("SYK", 2, 4), ("SYK", 4, 8), ("CS", 2, 1),
                                                  ("CS", 4, 8), ("TFIM", 1, 4), ("TFIM", 2, 4),
                                                  ("XXZ", 4, 1), ("XXZ", 2, 4), ("XXZ", 4, 8)])
    def test_sector_sample_rebuilds_h(self, family, d_a, d_b):
        from guedyn import models

        spec = ModelSpec(family, d_a, d_b)
        sampler = models._spectral_sampler(spec)
        for i in range(3):
            energies, basis = sampler(RngStream(91, i).generator())
            h = build_model(spec, RngStream(91, i))
            rebuilt = (basis * energies) @ basis.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-12 * np.linalg.norm(h)
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(spec.d)) <= 1e-12

    def test_poisson_sample_is_its_draw(self):
        from guedyn import models

        spec = ModelSpec("POISSON", 2, 4)
        energies, basis = models._spectral_sampler(spec)(RngStream(92, 0).generator())
        assert np.array_equal((basis * energies) @ basis.conj().T,
                              build_model(spec, RngStream(92, 0)))

    @pytest.mark.parametrize("family, d_a, d_b", [("POISSON", 2, 4), ("SYK", 2, 4),
                                                  ("SYK", 4, 8), ("CS", 2, 4), ("TFIM", 2, 4),
                                                  ("XXZ", 2, 4), ("XXZ", 4, 8)])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_matches_the_dense_sampler(self, family, d_a, d_b, scramble):
        spec = ModelSpec(family, d_a, d_b)
        got = ensemble_dynamics(spec, self.times, 8, RngStream(93), scramble=scramble)
        want = mc_average(make_sampler(spec), d_a, d_b, self.times, 8, RngStream(93),
                          scramble=scramble, energy_scale=got.energy_scale)
        assert np.max(np.abs(got.rho_mean - want.rho_mean)) <= 1e-13
        assert np.max(np.abs(got.purity_mean - want.purity_mean)) <= 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_finish_gives_one_kind(self, family):
        # a block is dense H for the families diagonalised whole, else the
        # pairs; one call of the sampler gives the first sample of the block
        from guedyn import models

        spec = ModelSpec(family, 2, 4)
        sampler = models._spectral_sampler(spec)
        rows = np.empty((3, sampler.width))
        for k in range(3):
            sampler.read(RngStream(95, k).generator(), rows[k])
        energies, mats = sampler.finish(rows)
        one = sampler(RngStream(95, 0).generator())
        assert mats.shape == (3, spec.d, spec.d)
        if family in ("POISSON", "SYK", "CS", "TFIM", "XXZ"):
            assert energies.shape == (3, spec.d)
            assert np.array_equal(one[0], energies[0]) and np.array_equal(one[1], mats[0])
        else:
            assert energies is None
            assert isinstance(one, np.ndarray) and np.array_equal(one, mats[0])

    def test_dense_families_keep_their_bytes(self):
        # Written by the kernel that diagonalises a block's dense samples
        # first, by one batched eigh, scrambles and rotates their bases
        # alone, as it does for (energies, basis) samples, and takes the
        # phases of its uniform grid as blocked products e^{-iE ts[qB]}
        # e^{-iE r dt}.  The bytes depend on the LAPACK build, so they are
        # compared exactly only under the numpy and OpenBLAS build that wrote
        # them, else to 1e-13.
        import os

        path = os.path.join(os.path.dirname(__file__), "data", "mc_dense_reference.npz")
        ref = np.load(path)
        exact = str(ref["numpy"]) == np.__version__ and str(ref["blas"]) == _blas_config()
        for family, d_a, d_b in (("GUE", 2, 2),):
            for scramble in (False, True):
                got = ensemble_dynamics(ModelSpec(family, d_a, d_b), self.times, 20,
                                        RngStream(71), threads=2, scramble=scramble)
                for name in ("rho_mean", "rho_stderr", "purity_mean", "purity_stderr"):
                    want = ref[f"{family}_{int(scramble)}_{name}"]
                    if exact:
                        assert np.array_equal(getattr(got, name), want), (family, name)
                    else:
                        assert np.max(np.abs(getattr(got, name) - want)) <= 1e-13

    def test_pair_families_keep_their_bytes(self):
        # Written by the kernel that transforms a block's (energies, basis)
        # samples on stacks (Haar basis, scramble, psi_A's completion and
        # the frame rotation) and takes the phases of its uniform grid as
        # blocked products, as above; TFIM and XXZ from the bases of their
        # frame's H_0, rotated by the frame.  Exact under the numpy and
        # OpenBLAS build that wrote it, else to 1e-13, as above.
        import os

        path = os.path.join(os.path.dirname(__file__), "data", "mc_pair_reference.npz")
        ref = np.load(path)
        exact = str(ref["numpy"]) == np.__version__ and str(ref["blas"]) == _blas_config()
        for family, d_a, d_b in (("POISSON", 2, 2), ("SYK", 2, 4), ("CS", 2, 4), ("TFIM", 2, 4),
                                 ("XXZ", 2, 4)):
            for scramble in (False, True):
                got = ensemble_dynamics(ModelSpec(family, d_a, d_b), self.times, 20,
                                        RngStream(72), threads=2, scramble=scramble)
                for name in ("rho_mean", "rho_stderr", "purity_mean", "purity_stderr"):
                    want = ref[f"{family}_{int(scramble)}_{name}"]
                    if exact:
                        assert np.array_equal(getattr(got, name), want), (family, name)
                    else:
                        assert np.max(np.abs(getattr(got, name) - want)) <= 1e-13


class TestFrame:
    """TFIM and XXZ in the frame of their one rotation R: H = W H_0 W^dag,
    with W = u(R)^{x s}, and H_0 real and zero between its sectors."""

    @staticmethod
    def frame_parts(spec, stream):
        # (R, H_0) of one sample, from the row that the sampler reads
        from guedyn import models

        sampler = models._spectral_sampler(spec)
        row = np.empty(sampler.width)
        sampler.read(stream.generator(), row)
        chain = models._SPIN[spec.family].frame.chain
        return row[:9].reshape(3, 3), models._table(spec).matrix(chain(spec, row))

    @staticmethod
    def near_pi(axis, eps):
        # Rodrigues: the rotation by pi - eps about ``axis``
        n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        theta = np.pi - eps
        return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)

    def test_lift_convention(self):
        # u sigma_a u^dag = sum_b R[a, b] sigma_b, also at and near rotations
        # by pi, where the quaternion's scalar part w vanishes
        from guedyn import models
        from guedyn.sim import sample_so3

        gen = RngStream(97, 0).generator()
        rotations = [sample_so3(gen) for _ in range(50)]
        rotations += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
                      np.diag([-1.0, -1.0, 1.0]), self.near_pi([1.0, 2.0, -0.5], 1e-9),
                      self.near_pi([0.0, 1.0, 1.0], 0.0)]
        sigmas = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        for r, u in zip(rotations, models._su2_lifts(np.array(rotations))):
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-14
            for a in range(3):
                want = sum(r[a, b] * sigmas[b] for b in range(3))
                assert np.abs(u @ sigmas[a] @ u.conj().T - want).max() <= 1e-14

    @pytest.mark.parametrize("family", ["TFIM", "XXZ"])
    @pytest.mark.parametrize("s", range(2, 9))
    def test_frame_rebuilds_h(self, family, s):
        import functools

        from guedyn import models

        spec = ModelSpec(family, 2, 1 << (s - 1))
        for i in range(3):
            r, h0 = self.frame_parts(spec, RngStream(98, i))
            w = functools.reduce(np.kron, [models._su2_lifts(r[None])[0]] * s)
            h = build_model(spec, RngStream(98, i))
            assert np.linalg.norm(w @ h0 @ w.conj().T - h) <= 1e-13 * np.linalg.norm(h)

    @pytest.mark.parametrize("family", ["TFIM", "XXZ"])
    @pytest.mark.parametrize("s", range(2, 9))
    def test_h0_is_real_and_zero_between_sectors(self, family, s):
        from guedyn import models

        spec = ModelSpec(family, 2, 1 << (s - 1))
        sectors = models._SPIN[family].frame.sectors(s)
        sizes = [comb(s, k) for k in range(s + 1)] if family == "XXZ" else [spec.d // 2] * 2
        assert [len(sector) for sector in sectors] == sizes
        label = np.empty(spec.d, dtype=int)
        for k, sector in enumerate(sectors):
            label[sector] = k
        between = label[:, None] != label[None, :]
        for i in range(3):
            _, h0 = self.frame_parts(spec, RngStream(99, i))
            assert not h0.imag.any()
            assert not h0[between].any()
            assert h0[~between].any()


def _blas_config() -> str:
    # the configuration string of numpy's bundled OpenBLAS (version and CPU
    # kernel), or "" where it is not loaded
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            get = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        return get().decode()
    return ""


class TestLevelSpectra:
    """Spacing statistics per symmetry sector (Atas et al., PRL 110, 084101)."""

    @staticmethod
    def mean_ratio(family, d_a, d_b, n, seed):
        from guedyn import models

        spec = ModelSpec(family, d_a, d_b)
        spectra = [levels for i in range(n)
                   for levels in models.level_spectra(spec, build_model(spec, RngStream(seed, i)))]
        return gap_statistics(spectra)

    @pytest.mark.parametrize("family, d_a, d_b, n_spectra, size", [
        ("SYK", 2, 8, 2, 8),   # N = 8: both sectors
        ("SYK", 4, 8, 1, 16),  # N = 10: one of two equal sectors
        ("SYK", 8, 8, 2, 16),  # N = 12: one level per Kramers pair
        ("CS", 4, 8, 2, 16),
        ("XXZ", 2, 4, 1, 8),   # a frame's sectors are H_0's, not H's
        ("XXZ", 4, 8, 1, 32),
        ("TFIM", 2, 4, 1, 8),
        ("GUE", 2, 3, 1, 6),
    ])
    def test_sequences(self, family, d_a, d_b, n_spectra, size):
        from guedyn import models

        spec = ModelSpec(family, d_a, d_b)
        h = build_model(spec, RngStream(94, 0))
        spectra = models.level_spectra(spec, h)
        assert len(spectra) == n_spectra
        assert all(s.shape == (size,) and np.all(np.diff(s) >= 0) for s in spectra)

    @pytest.mark.parametrize("family, d_a, d_b, want", [("SYK", 4, 8, 0.5996),
                                                        ("SYK", 8, 8, 0.6744)])
    def test_sector_mean_ratio(self, family, d_a, d_b, want):
        stats = self.mean_ratio(family, d_a, d_b, 300, 95)
        assert abs(stats.mean_ratio - want) <= 5 * stats.mean_ratio_stderr

    @pytest.mark.parametrize("d_a, d_b", [(4, 8), (8, 8)])
    def test_broken_degeneracy_raises(self, d_a, d_b):
        # a block-diagonal H whose parity blocks are unrelated GUE draws has
        # neither equal sectors (N = 10) nor Kramers pairs (N = 12)
        from guedyn import models
        from guedyn.sim import sample_gue

        spec = ModelSpec("SYK", d_a, d_b)
        even, odd = models._parity_sectors(spec.n_spins)
        blocks = sample_gue(spec.d // 2, 1.0, RngStream(96, 0), size=2)
        h = np.zeros((spec.d, spec.d), dtype=complex)
        h[np.ix_(even, even)], h[np.ix_(odd, odd)] = blocks
        with pytest.raises(NumericalError):
            models.level_spectra(spec, h)

    @pytest.mark.parametrize("family, d_a, d_b, shape", [
        ("GUE", 2, 2, (3, 3)),
        ("SYK", 2, 4, (16, 16)),  # used to give the levels of sub-blocks
        ("SYK", 2, 4, (4, 4)),    # used to raise a bare IndexError
        ("TFIM", 2, 4, (8, 4)),
    ])
    def test_wrong_size_h_raises(self, family, d_a, d_b, shape):
        from guedyn import models

        d = d_a * d_b
        with pytest.raises(ValueError, match=f"H must be {d}x{d}"):
            models.level_spectra(ModelSpec(family, d_a, d_b), np.eye(*shape))

    @pytest.mark.parametrize("family", ["TFIM", "SYK"])
    def test_non_finite_h_raises(self, family):
        # an inf entry used to reach eigvalsh, which failed to converge
        from guedyn import models

        spec = ModelSpec(family, 2, 4)
        h = build_model(spec, RngStream(94, 0))
        h[0, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite Hamiltonian"):
            models.level_spectra(spec, h)


class TestTimeGrid:
    @pytest.mark.parametrize("times", [[], [[0.0, 1.0]], [0.0, np.nan], [np.inf]])
    def test_rejected_before_the_pilot(self, monkeypatch, times):
        from guedyn import models

        calls = []
        monkeypatch.setattr(models, "_coefficients", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="times must be"):
            ensemble_dynamics(ModelSpec("XXZ", 2, 4), times, 4, RngStream(0))
        assert calls == []


class TestOverflowingCoupling:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, couplings", [("SYK", {"J2": 1e308}), ("CS", {"J": 1e308}),
                                                   ("CS", {"B": 1e308})])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_numerical_error_without_warning(self, family, couplings, threads):
        # the draw and assembly run under one guard on the worker threads, so
        # the overflow reaches the pilot's check as inf or NaN
        with pytest.raises(NumericalError, match="non-finite Tr H or Tr H"):
            ensemble_dynamics(ModelSpec(family, 2, 4, couplings), [0.0, 1.0], 2, RngStream(0),
                              threads=threads)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, couplings", [("SYK", {"J2": 1e308}), ("XXZ", {"B": 1e308}),
                                                   ("SG", {"J1": 1e308})])
    def test_inf_hamiltonian_reaches_the_level_check(self, family, couplings):
        from guedyn import models

        spec = ModelSpec(family, 2, 4, couplings)
        with pytest.raises(NumericalError, match="non-finite Hamiltonian"):
            models.level_spectra(spec, build_model(spec, RngStream(0, 0)))


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: tfim_hamiltonian(3, 1e308, np.eye(3), 3.0),
        lambda: dtfim_hamiltonian(3, 1e308, [np.eye(3)] * 3, [np.eye(3)] * 3, np.full(3, 3.0)),
        lambda: xxz_hamiltonian(3, 1e308, 1.0, np.eye(3), 0.5, 3.0),
        lambda: dxxz_hamiltonian(3, 1.0, 1e308, [np.eye(3)] * 3, [np.eye(3)] * 3,
                                 np.full(3, 3.0), np.full(3, 0.5)),
        lambda: sg_hamiltonian(3, 1e308, 1.0, 1.0, np.ones(3), np.full((3, 3), 3.0),
                               np.ones((3, 3, 3)), np.ones(3), np.ones((3, 3))),
        lambda: cs_hamiltonian(1, 2, 1e308, 1.0, np.full(1, 3.0), np.ones((1, 1, 3)),
                               np.ones((1, 2, 3))),
        lambda: syk_hamiltonian(3, 1e308, np.full(15, 3.0)),
    ], ids=["TFIM", "DTFIM", "XXZ", "DXXZ", "SG", "CS", "SYK"])
    def test_builder_raises_without_warning(self, build):
        # the coupling times its input overflows in the layout, which used to
        # warn and return an inf H
        with pytest.raises(NumericalError, match="non-finite Hamiltonian"):
            build()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, couplings", [
        ("TFIM", {"J": 1e308}), ("DTFIM", {"J": 1e308}), ("XXZ", {"B": 1e308}),
        ("DXXZ", {"J": 1e308}), ("SG", {"J1": 1e308}), ("CS", {"B": 1e308}),
        ("SYK", {"J2": 1e308})])
    def test_build_model_raises_without_warning(self, family, couplings):
        # build_model used to return an inf H without a word; a draw whose H
        # stays finite is returned as it is
        spec = ModelSpec(family, 2, 4, couplings)
        raised = 0
        for i in range(8):
            try:
                h = build_model(spec, RngStream(0, i))
            except NumericalError as err:
                assert "non-finite Hamiltonian" in str(err)
                raised += 1
            else:
                assert np.isfinite(h).all()
        assert raised


class TestRescaleOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spectra", [[[1e200, 2e200]], [[1e154, 0.0]], [[1e154, -1e154]]])
    def test_overflow_raises_without_warning(self, spectra):
        with pytest.raises(NumericalError):
            rescale_energies(spectra)
