"""Symbolic Haar-average engine against its closed forms and a brute-force
Monte Carlo oracle."""

import itertools
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest

from guedyn.haar import (
    ONE,
    MonomialSpec,
    build_trace_moment_spec,
    chi_of_spectrum,
    compute_Q,
    compute_R,
    haar_average_moment,
    purity_closed_form,
    rho_coefficients_closed_form,
    third_moment_closed_form,
    xi_of_spectrum,
    zeta_of_spectrum,
)
from guedyn.sim import RngStream, sample_haar_unitary
from guedyn.symgroup import Permutation, weingarten

A = lambda m: ("a", m)  # noqa: E731
B = lambda m: ("b", m)  # noqa: E731


class TestMonomialSpec:
    def test_n1_pattern(self):
        spec = build_trace_moment_spec(1)
        assert spec.q == 2
        assert spec.I == ((A(1), B(1)), ONE)
        assert spec.I_prime == (ONE, (A(1), B(1)))
        assert spec.phase_coeffs == (-1, 1)

    def test_n2_pattern(self):
        spec = build_trace_moment_spec(2)
        assert spec.I == ((A(1), B(1)), ONE, (A(2), B(2)), ONE)
        assert spec.I_prime == (ONE, (A(2), B(1)), ONE, (A(1), B(2)))

    def test_n3_closes_cyclically(self):
        spec = build_trace_moment_spec(3)
        assert spec.q == 6
        assert spec.I_prime[5] == (A(1), B(3))
        assert spec.phase_coeffs == (-1, 1, -1, 1, -1, 1)

    @pytest.mark.parametrize("I,I_prime", [
        # A(1) twice in I (and, to balance, twice in I')
        (((A(1), B(1)), ONE, (A(1), B(2)), ONE), (ONE, (A(1), B(1)), ONE, (A(1), B(2)))),
        # A(2) only in I'
        (((A(1), B(1)), ONE, (A(1), B(2)), ONE), (ONE, (A(2), B(1)), ONE, (A(1), B(2)))),
        # A(1) and B(1) change places between I and I'
        (((A(1), B(1)), ONE), (ONE, (B(1), A(1)))),
    ])
    def test_each_symbol_once_per_side(self, I, I_prime):
        with pytest.raises(ValueError, match="once in I and once in I'"):
            MonomialSpec(len(I), I, I_prime, (-1, 1) * (len(I) // 2))


# Table of all 24 outer and internal contractions for the q = 4 pattern.
TABLE_R = {
    (): (0, 0), ((1, 2),): (0, 1), ((1, 3),): (0, 0), ((1, 4),): (1, 0),
    ((2, 3),): (1, 0), ((2, 4),): (0, 0), ((3, 4),): (0, 1),
    ((1, 2, 3),): (0, 1), ((1, 3, 2),): (1, 0), ((1, 2, 4),): (0, 1),
    ((1, 4, 2),): (1, 0), ((1, 3, 4),): (0, 1), ((1, 4, 3),): (1, 0),
    ((2, 3, 4),): (0, 1), ((2, 4, 3),): (1, 0),
    ((1, 2), (3, 4)): (1, 2), ((1, 3), (2, 4)): (0, 0), ((1, 4), (2, 3)): (2, 1),
    ((1, 2, 3, 4),): (1, 2), ((1, 2, 4, 3),): (0, 1), ((1, 3, 2, 4),): (1, 0),
    ((1, 3, 4, 2),): (0, 1), ((1, 4, 2, 3),): (1, 0), ((1, 4, 3, 2),): (2, 1),
}
TABLE_Q = {
    (): (-1, -1, 1, 1), ((1, 2),): (-1, 0, 1), ((1, 3),): (-2, 1, 1),
    ((1, 4),): (-1, 0, 1), ((2, 3),): (-1, 0, 1), ((2, 4),): (-1, -1, 2),
    ((3, 4),): (-1, 0, 1),
    ((1, 2, 3),): (-1, 1), ((1, 3, 2),): (-1, 1), ((1, 2, 4),): (-1, 1),
    ((1, 4, 2),): (-1, 1), ((1, 3, 4),): (-1, 1), ((1, 4, 3),): (-1, 1),
    ((2, 3, 4),): (-1, 1), ((2, 4, 3),): (-1, 1),
    ((1, 2), (3, 4)): (0, 0), ((1, 3), (2, 4)): (-2, 2), ((1, 4), (2, 3)): (0, 0),
    ((1, 2, 3, 4),): (0,), ((1, 2, 4, 3),): (0,), ((1, 3, 2, 4),): (0,),
    ((1, 3, 4, 2),): (0,), ((1, 4, 2, 3),): (0,), ((1, 4, 3, 2),): (0,),
}


class TestContractions:
    def test_r_table_complete(self):
        spec = build_trace_moment_spec(2)
        seen = set()
        for cycles, powers in TABLE_R.items():
            perm = Permutation.from_cycles(4, *cycles)
            seen.add(perm)
            rv = compute_R(spec, perm)
            assert (rv.dA_power, rv.dB_power) == powers, cycles
        assert len(seen) == 24

    def test_q_table_complete(self):
        spec = build_trace_moment_spec(2)
        for cycles, multiples in TABLE_Q.items():
            qv = compute_Q(spec, Permutation.from_cycles(4, *cycles))
            assert qv.iota_multiples == multiples, cycles

    def test_spec_highlighted_entries(self):
        spec = build_trace_moment_spec(2)
        ident = Permutation.identity(4)
        rv = compute_R(spec, ident)
        assert (rv.dA_power, rv.dB_power) == (0, 0)  # scalar 1
        rv = compute_R(spec, Permutation.from_cycles(4, (1, 2)))
        assert (rv.dA_power, rv.dB_power) == (0, 1)  # d_B
        rv = compute_R(spec, Permutation.from_cycles(4, (1, 4), (2, 3)))
        assert (rv.dA_power, rv.dB_power) == (2, 1)  # d * d_A
        assert compute_Q(spec, ident).iota_multiples == (-1, -1, 1, 1)
        four_cycle = Permutation.from_cycles(4, (1, 2, 3, 4))
        assert compute_Q(spec, four_cycle).iota_multiples == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_r_counts_index_assignments(self, n):
        # Brute-force oracle: with d_A = 2 and d_B = 3, R_sigma is the number
        # of assignments of a-symbols to range(2) and b-symbols to range(3)
        # that satisfy delta_{I_l, I'_{sigma(l)}} for every slot l, where ONE
        # is the fixed label 0 of both subsystems.
        spec = build_trace_moment_spec(n)
        a_syms = sorted({slot[0] for slot in spec.I if slot is not ONE})
        b_syms = sorted({slot[1] for slot in spec.I if slot is not ONE})
        grid = np.array([
            va + vb
            for va in itertools.product(range(2), repeat=len(a_syms))
            for vb in itertools.product(range(3), repeat=len(b_syms))
        ])
        column = dict(zip(a_syms + b_syms, grid.T))
        fixed = np.zeros(len(grid), dtype=int)

        def labels(slot):
            return (fixed, fixed) if slot is ONE else (column[slot[0]], column[slot[1]])

        left = [labels(slot) for slot in spec.I]
        right = [labels(slot) for slot in spec.I_prime]
        for sigma in Permutation.all_elements(spec.q):
            ok = np.ones(len(grid), dtype=bool)
            for l in range(spec.q):
                (la, lb), (ra, rb) = left[l], right[sigma(l + 1) - 1]
                ok &= (la == ra) & (lb == rb)
            rv = compute_R(spec, sigma)
            assert ok.sum() == 2**rv.dA_power * 3**rv.dB_power, sigma

    def test_phase_balance_property(self):
        # every cycle-sum multiset balances to zero total phase
        for n in (1, 2, 3):
            spec = build_trace_moment_spec(n)
            for perm in Permutation.all_elements(2 * n):
                assert sum(compute_Q(spec, perm).iota_multiples) == 0


class TestEngineIdentblocks:
    def test_n1_matches_flat_average(self):
        rng = np.random.default_rng(1)
        for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
            avg = haar_average_moment(1, d_a, d_b)
            for _ in range(20):
                energies = rng.normal(size=d_a * d_b)
                t = rng.uniform(0.0, 5.0)
                got = avg.rho_coefficients(energies, t)
                want = rho_coefficients_closed_form(d_a, d_b, energies, t)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
                assert abs(avg.evaluate(energies, t) - 1.0) < 1e-12

    def test_n2_matches_compact_form(self):
        rng = np.random.default_rng(2)
        for d_a, d_b in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            avg = haar_average_moment(2, d_a, d_b)
            for _ in range(20):
                energies = rng.normal(size=d_a * d_b)
                t = rng.uniform(0.0, 5.0)
                want = purity_closed_form(d_a, d_b, energies, t)
                assert abs(avg.evaluate(energies, t) - want) <= 1e-12 * max(
                    1.0, abs(want)
                )

    def test_t0_is_exactly_one(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            avg = haar_average_moment(n, 2, 2)
            assert abs(avg.evaluate(rng.normal(size=4), 0.0) - 1.0) < 1e-12

    def test_coherent_spectrum_stays_pure(self):
        avg = haar_average_moment(2, 2, 2)
        for t in (0.0, 0.7, 3.0):
            assert abs(avg.evaluate(np.zeros(4), t) - 1.0) < 1e-12

    def test_trivial_subsystem(self):
        rng = np.random.default_rng(4)
        avg = haar_average_moment(2, 1, 4)
        for _ in range(5):
            value = avg.evaluate(rng.normal(size=4), rng.uniform(0, 5))
            assert abs(value - 1.0) < 1e-12

    def test_ab_symmetry(self):
        rng = np.random.default_rng(5)
        energies = rng.normal(size=6)
        for n in (2, 3):
            one = haar_average_moment(n, 2, 3)
            other = haar_average_moment(n, 3, 2)
            for t in (0.4, 1.9):
                assert abs(one.evaluate(energies, t) - other.evaluate(energies, t)) < 1e-12

    def test_spectrum_length_checked(self):
        avg = haar_average_moment(2, 2, 2)
        with pytest.raises(ValueError):
            avg.evaluate(np.zeros(5), 1.0)

    def test_rho_coefficients_needs_n1(self):
        avg = haar_average_moment(2, 2, 2)
        with pytest.raises(ValueError):
            avg.rho_coefficients(np.zeros(4), 1.0)

    def test_large_imaginary_residue_raises(self):
        from guedyn.errors import NumericalError
        from guedyn.haar import _real_or_raise

        assert _real_or_raise(2.0 + 1e-12j) == 2.0
        with pytest.raises(NumericalError):
            _real_or_raise(2.0 + 1e-6j)


def reference_terms(n, d_a, d_b):
    """(R, Q) -> coefficient by walking every (sigma, tau) pair of S_2n in
    Python, composing sigma tau^-1 one pair at a time; terms in first-seen
    pair order."""
    spec = build_trace_moment_spec(n)
    elements = Permutation.all_elements(spec.q)
    r_values = [compute_R(spec, s) for s in elements]
    q_values = [compute_Q(spec, t) for t in elements]
    # itemgetter(*tau^-1 images) applied to (0,) + sigma images composes
    # sigma tau^-1 in one-line notation.
    inverses = [itemgetter(*p.inverse().images) for p in elements]
    class_of = {p.images: p.cycle_type() for p in elements}
    counts = {}
    for sigma, rv in zip(elements, r_values):
        padded = (0,) + sigma.images
        for tau_inv, qv in zip(inverses, q_values):
            key = (rv, qv, class_of[tau_inv(padded)])
            counts[key] = counts.get(key, 0) + 1
    terms = {}
    for (rv, qv, mu), mult in counts.items():
        terms[(rv, qv)] = terms.get((rv, qv), Fraction(0)) + mult * weingarten(
            d_a * d_b, mu
        )
    return [(key, value) for key, value in terms.items() if value != 0]


class TestPairCounting:
    @pytest.mark.parametrize(
        "n,d_a,d_b", [(2, 2, 2), (2, 2, 3), (2, 1, 4), (2, 3, 5), (3, 2, 2)]
    )
    def test_terms_match_pairwise_enumeration(self, n, d_a, d_b):
        got = list(haar_average_moment(n, d_a, d_b).terms.items())
        assert got == reference_terms(n, d_a, d_b)
        assert all(type(value) is Fraction for _, value in got)


class TestThirdMoment:
    def test_n3_matches_printed_form(self):
        rng = np.random.default_rng(6)
        avg = haar_average_moment(3, 2, 2)
        for _ in range(20):
            energies = rng.normal(size=4)
            t = rng.uniform(0.0, 5.0)
            want = third_moment_closed_form(2, 2, energies, t)
            assert abs(avg.evaluate(energies, t) - want) <= 1e-9

    def test_n3_at_d6(self):
        rng = np.random.default_rng(7)
        avg = haar_average_moment(3, 2, 3)
        for _ in range(10):
            energies = rng.normal(size=6)
            t = rng.uniform(0.0, 5.0)
            want = third_moment_closed_form(2, 3, energies, t)
            assert abs(avg.evaluate(energies, t) - want) <= 1e-9

    def test_closed_form_consistency_at_t0(self):
        rng = np.random.default_rng(8)
        for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
            energies = rng.normal(size=d_a * d_b)
            assert abs(third_moment_closed_form(d_a, d_b, energies, 0.0) - 1.0) < 1e-12


class TestPhaseSums:
    def test_chi_is_modulus_squared(self):
        rng = np.random.default_rng(9)
        energies = rng.normal(size=5)
        for t in (0.0, 1.3):
            direct = sum(
                np.exp(1j * (ek - ej) * t) for ej in energies for ek in energies
            )
            assert abs(chi_of_spectrum(energies, t) - direct.real) < 1e-12

    def test_zero_time_values(self):
        energies = np.random.default_rng(10).normal(size=4)
        d = 4
        assert abs(chi_of_spectrum(energies, 0) - d * d) < 1e-12
        assert abs(xi_of_spectrum(energies, 0) - d * d * (d - 1) * (d + 3)) < 1e-9
        zeta0 = zeta_of_spectrum(energies, 0)
        want = d * d * (d + 4) * (d - 1) * (d * d + 3 * d + 8)
        assert abs(zeta0 - want) < 1e-8


class TestMonteCarloOracle:
    def test_literal_integrand_agrees(self):
        # Brute force at a fixed spectrum: sample Haar eigenbases, build the
        # literal Tr rho_A^2(t) and compare its mean with the symbolic value.
        d_a = d_b = 2
        d = d_a * d_b
        spectrum = RngStream(77, 0).generator().normal(size=d)
        avg = haar_average_moment(2, d_a, d_b)
        times = np.linspace(0.3, 5.7, 10)
        n_samples = 100_000
        gen = RngStream(78, 0).generator()
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
        acc = np.zeros((n_samples, times.size))
        for i in range(n_samples):
            basis = sample_haar_unitary(d, gen)
            coeff = basis.conj().T @ psi0
            phases = np.exp(-1j * np.outer(spectrum, times))
            psi_t = basis @ (coeff[:, None] * phases)
            blocks = psi_t.reshape(d_a, d_b, times.size)
            rho = np.einsum("aqt,bqt->tab", blocks, blocks.conj())
            acc[i] = np.sum(np.abs(rho) ** 2, axis=(1, 2))
        mc_mean = acc.mean(axis=0)
        mc_se = acc.std(axis=0, ddof=1) / np.sqrt(n_samples)
        for k, t in enumerate(times):
            want = avg.evaluate(spectrum, t)
            assert abs(mc_mean[k] - want) <= 5 * mc_se[k], (t, mc_mean[k], want)
