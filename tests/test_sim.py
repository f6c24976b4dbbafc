"""Monte Carlo engine: samplers, evolution, averaging, reproducibility."""

import math

import numpy as np
import pytest
import scipy.linalg

from guedyn.errors import NumericalError
from guedyn.haar import rho_coefficients_closed_form
from guedyn.sim import (
    GapStats,
    RngStream,
    completion_unitary,
    evolve,
    gap_statistics,
    haar_state,
    mc_average,
    partial_trace,
    purity,
    sample_gue,
    sample_haar_unitary,
    sample_so3,
)
from guedyn.spectral import purity_mean


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(1234, 5).generator().normal(size=8)
        b = RngStream(1234, 5).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(1234, 5).generator().normal(size=8)
        b = RngStream(1234, 6).generator().normal(size=8)
        assert not np.array_equal(a, b)


class TestSampleGue:
    def test_hermitian(self):
        h = sample_gue(6, 1.0, RngStream(1, 0))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_element_statistics(self):
        n = 100_000
        h = sample_gue(4, 1.0, RngStream(2, 0), size=n)
        d00 = h[:, 0, 0].real
        assert abs(d00.mean()) <= 3 * d00.std(ddof=1) / math.sqrt(n)
        assert abs(d00.var(ddof=1) - 1.0) < 0.02
        off = h[:, 0, 1]
        assert abs(off.real.var(ddof=1) - 0.5) < 0.01
        assert abs(off.imag.var(ddof=1) - 0.5) < 0.01

    def test_pair_second_moment(self):
        d, n = 4, 100_000
        energies = np.linalg.eigvalsh(sample_gue(d, 1.0, RngStream(3, 0), size=n))
        per_sample = (
            2 * d * (energies**2).sum(axis=1) - 2 * energies.sum(axis=1) ** 2
        ) / (d * (d - 1))
        se = per_sample.std(ddof=1) / math.sqrt(n)
        assert abs(per_sample.mean() - 2 * (d + 1)) <= 3 * se

    def test_lambda_scaling(self):
        n = 20_000
        e1 = np.linalg.eigvalsh(sample_gue(4, 1.0, RngStream(4, 0), size=n))
        e4 = np.linalg.eigvalsh(sample_gue(4, 4.0, RngStream(4, 0), size=n))
        ratio = e1.std() / e4.std()
        assert abs(ratio - 2.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_gue(0, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_gue(4, -1.0, RngStream(0))


class TestSampleHaar:
    def test_unitarity(self):
        v = sample_haar_unitary(7, RngStream(5, 0))
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) <= 1e-12

    def test_first_moment(self):
        # E|V_00|^2 = 1/d at d = 2
        n = 100_000
        gen = RngStream(6, 0).generator()
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(sample_haar_unitary(2, gen)[0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_q2_weingarten_moment(self):
        # E[V00 V11 V00* V11*] = Wg(d, id-class) = 1/(d^2-1) at d = 4
        from guedyn.symgroup import weingarten

        n = 50_000
        gen = RngStream(7, 0).generator()
        vals = np.empty(n)
        for i in range(n):
            v = sample_haar_unitary(4, gen)
            vals[i] = (v[0, 0] * v[1, 1] * np.conj(v[0, 0]) * np.conj(v[1, 1])).real
        want = float(weingarten(4, (1, 1)))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - want) <= 5 * se


class TestSampleSO3:
    def test_orthogonal_unit_determinant(self):
        for i in range(50):
            r = sample_so3(RngStream(8, i))
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_column_means_vanish(self):
        n = 100_000
        gen = RngStream(9, 0).generator()
        acc = np.zeros((3, 3))
        for _ in range(n):
            acc += sample_so3(gen)
        assert np.max(np.abs(acc / n)) < 0.01


class TestEvolution:
    def test_zero_time_and_zero_hamiltonian(self):
        gen = RngStream(10, 0).generator()
        h = sample_gue(5, 1.0, gen)
        psi = haar_state(5, gen)
        assert np.allclose(evolve(h, psi, 0.0), psi, atol=1e-12)
        assert np.allclose(evolve(np.zeros((5, 5)), psi, 3.7), psi, atol=1e-12)

    def test_norm_preserved(self):
        gen = RngStream(11, 0).generator()
        h = sample_gue(6, 1.0, gen)
        psi = haar_state(6, gen)
        states = evolve(h, psi, np.linspace(0.0, 8.0, 33))
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(np.zeros((3, 3)), np.zeros(4), 1.0)

    @pytest.mark.parametrize("times", [np.nan, np.inf, [0.0, -np.inf]])
    def test_non_finite_time_rejected(self, times):
        # a NaN or inf time used to give NaN states without a word
        with pytest.raises(ValueError, match="finite"):
            evolve(np.eye(2), np.array([1.0, 0.0]), times)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("batch", [False, True])
    def test_non_finite_hamiltonian_raises(self, entry, batch):
        # eigh reads the lower triangle, so a NaN in the upper one was
        # ignored without a word; an inf raised LinAlgError
        gen = RngStream(12, 0).generator()
        h = sample_gue(4, 1.0, gen, size=3 if batch else None)
        psi = haar_state(4, gen)
        (h[-1] if batch else h)[0, 2] = entry
        with pytest.raises(NumericalError, match="evolve got a non-finite Hamiltonian"):
            evolve(h, np.broadcast_to(psi, h.shape[:-1]), [0.0, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_state_raises(self, entry):
        # a NaN state used to evolve into NaN without a word
        with pytest.raises(NumericalError, match="evolve got a non-finite state"):
            evolve(np.eye(2), np.array([entry, 0.0]), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="evolve got a zero state"):
            evolve(np.eye(2), np.zeros(2), [0.0, 1.0])

    def test_uniform_grid_matches_expm(self):
        # the blocked phases against a per-time matrix exponential, to the
        # tolerance of TestBlockKernel's dense reference
        from guedyn import sim

        gen = RngStream(13, 0).generator()
        h = sample_gue(6, 1.0, gen)
        psi = haar_state(6, gen)
        ts = np.linspace(0.0, 12.0, 601)
        assert sim._phase_grid(ts)[1] == 25
        states = evolve(h, psi, ts)
        for k in (0, 1, 24, 25, 26, 333, 599, 600):
            want = scipy.linalg.expm(-1j * ts[k] * h) @ psi
            assert np.max(np.abs(states[k] - want)) <= 1e-12


def _uniform_grids():
    # linspace, arange and scale * arange grids of the lengths the blocks
    # split in every way: T < 6 keeps the direct phases, 7 = 2 * 3 + 1,
    # 31 = 5 * 6 + 1, 601 = 24 * 25 + 1 and 602 = 24 * 25 + 2
    for size in (1, 2, 3, 7, 31, 601, 602):
        yield f"linspace-{size}", np.linspace(0.0, 30.0, size)
        yield f"offset-linspace-{size}", np.linspace(-7.3, 11.9, size)
        yield f"arange-{size}", np.arange(size) * 0.05
        yield f"scaled-arange-{size}", 1.37 * np.arange(0.0, size * 0.05 - 0.025, 0.05)


class TestPhases:
    """e^{-iEt} on a time grid: blocked products on uniform grids."""

    energies = np.random.default_rng(31).normal(scale=1.5, size=(3, 8))

    @staticmethod
    def reference(energies, ts):
        angles = -np.asarray(ts, dtype=np.longdouble)[:, None] * energies[..., None, :]
        return np.cos(angles), np.sin(angles)

    @pytest.mark.parametrize("name, ts", list(_uniform_grids()))
    def test_uniform_grid_within_rounding(self, name, ts):
        from guedyn import sim

        grid = sim._phase_grid(ts)
        # blocks take fewer cos and sin once T >= 6
        assert (grid[1] is None) == (ts.size < 6)
        if grid[1] is not None:
            assert grid[1] == math.isqrt(ts.size - 1) + 1
        got = sim._phases(self.energies, grid)
        assert got.shape == (3, ts.size, 8)
        cos, sin = self.reference(self.energies, ts)
        err = max(np.max(np.abs(got.real - cos)), np.max(np.abs(got.imag - sin)))
        bound = 4 * np.finfo(float).eps * (1 + np.max(np.abs(ts)) * np.max(np.abs(self.energies)))
        assert err <= bound, (name, err, bound)

    @pytest.mark.parametrize("ts", [
        np.array([0.0, 0.3, 0.31, 1.7, 2.0, 5.5, 9.0, 9.1]),
        np.geomspace(0.01, 30.0, 601),
        np.r_[np.linspace(0.0, 6.0, 100), 6.0 + 1e-9],
    ])
    def test_other_grid_keeps_the_direct_bytes(self, ts):
        from guedyn import sim

        grid = sim._phase_grid(ts)
        assert grid[1] is None
        angles = (-ts)[:, None] * self.energies[..., None, :]
        want = np.cos(angles) + 1j * np.sin(angles)
        assert np.array_equal(sim._phases(self.energies, grid), want)

    def test_uniform_to_4_eps_max_t(self):
        # a middle point 1 ulp off its linspace value keeps the grid uniform;
        # 64 ulp of max|t| off, beyond 4 eps max|t|, does not
        from guedyn import sim

        ts = np.linspace(0.0, 30.0, 601)
        ts[300] = np.nextafter(ts[300], np.inf)
        assert sim._phase_grid(ts)[1] == 25
        ts[300] += 64 * np.spacing(30.0)
        assert sim._phase_grid(ts)[1] is None


class TestPartialTrace:
    def test_product_state(self):
        e1 = np.zeros(6, dtype=complex)
        e1[0] = 1.0
        rho = partial_trace(e1, 2, 3)
        assert np.allclose(rho, np.diag([1.0, 0.0]))
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = partial_trace(bell, 2, 2)
        assert np.allclose(rho, np.eye(2) / 2)
        assert abs(purity(rho) - 0.5) < 1e-12

    def test_purities_of_both_sides_agree(self):
        gen = RngStream(12, 0).generator()
        for _ in range(10):
            psi = haar_state(12, gen)
            rho_a = partial_trace(psi, 3, 4)
            rho_b = partial_trace(psi.reshape(3, 4).T.reshape(-1), 4, 3)
            assert abs(purity(rho_a) - purity(rho_b)) < 1e-12

    def test_trace_one(self):
        psi = haar_state(8, RngStream(13, 0))
        assert abs(np.trace(partial_trace(psi, 2, 4)) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.zeros(5), 2, 3)


class TestPurity:
    def test_examples(self):
        assert abs(purity(np.diag([1.0, 0.0])) - 1.0) < 1e-15
        assert abs(purity(np.eye(3) / 3) - 1 / 3) < 1e-15
        assert abs(purity(np.diag([0.75, 0.25])) - 0.625) < 1e-15

    @pytest.mark.parametrize("d_a", [1, 2, 3])
    def test_same_bytes_as_full_reduction(self, d_a):
        gen = RngStream(31, d_a).generator()
        stack = partial_trace(haar_state(d_a * 3, gen) * np.ones((6, 601, 1)), d_a, 3)
        stack = stack + 1e-3 * gen.normal(size=stack.shape)
        for rho in (stack, stack[2, 17]):
            want = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
            assert np.array_equal(purity(rho), want)


class TestStacks:
    def test_partial_trace_and_purity_over_a_time_stack(self):
        gen = RngStream(30, 0).generator()
        h = sample_gue(12, 1.0, gen)
        states = evolve(h, haar_state(12, gen), np.linspace(0.0, 4.0, 9))
        rhos = partial_trace(states, 3, 4)
        purities = purity(rhos)
        assert rhos.shape == (9, 3, 3) and purities.shape == (9,)
        for k, psi in enumerate(states):
            assert np.max(np.abs(rhos[k] - partial_trace(psi, 3, 4))) <= 1e-15
            assert abs(purities[k] - purity(rhos[k])) <= 1e-15
        assert type(purity(rhos[0])) is float

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.zeros((4, 5)), 2, 3)


class TestCompletionUnitary:
    def test_unitary_with_given_first_column(self):
        gen = RngStream(14, 0).generator()
        for d in (2, 3, 5):
            psi = haar_state(d, gen)
            u = completion_unitary(psi)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12
            assert np.allclose(u[:, 0], psi)

    def test_deterministic(self):
        psi = haar_state(4, RngStream(15, 0))
        assert np.array_equal(completion_unitary(psi), completion_unitary(psi))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi", [[[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]],
                                     [[1.0, 0.0, 0.0], [0.0, np.inf, 1.0]],
                                     [1e200, 1e200, 0.0]])
    def test_non_finite_state_or_norm_raises(self, psi):
        # an overflowing norm used to warn and give a zero first column
        with pytest.raises(NumericalError, match="completion_unitary got a non-finite state"):
            completion_unitary(np.array(psi))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi", [np.zeros(3), np.array([1e-170, 0.0, 0.0])])
    def test_zero_state_rejected(self, psi):
        # a zero state used to warn of a division by zero and return NaN;
        # a norm that underflows to 0 is the same
        with pytest.raises(ValueError, match="completion_unitary got a zero state"):
            completion_unitary(psi)


class TestMcAverage:
    times = np.linspace(0.0, 6.0, 61)

    @staticmethod
    def gue_sampler(gen):
        return sample_gue(4, 1.0, gen)

    def test_thread_count_invariance(self):
        r1 = mc_average(self.gue_sampler, 2, 2, self.times, 48, RngStream(16), threads=1)
        r2 = mc_average(self.gue_sampler, 2, 2, self.times, 48, RngStream(16), threads=4)
        assert np.array_equal(r1.rho_mean, r2.rho_mean)
        assert np.array_equal(r1.rho_stderr, r2.rho_stderr)
        assert np.array_equal(r1.purity_mean, r2.purity_mean)

    def test_single_sample_exact_trajectory(self):
        # n = 1: the mean is the single trajectory itself, stderr zero
        result = mc_average(self.gue_sampler, 2, 2, self.times, 1, RngStream(17))
        assert np.max(result.rho_stderr) == 0.0
        stream = RngStream(17, 0)
        gen = stream.generator()
        h = self.gue_sampler(gen)
        psi_a, psi_b = haar_state(2, gen), haar_state(2, gen)
        psi_t = evolve(h, np.kron(psi_a, psi_b), self.times)
        u_a = completion_unitary(psi_a)
        for k in (0, 17, 60):
            rho = u_a.conj().T @ partial_trace(psi_t[k], 2, 2) @ u_a
            assert np.max(np.abs(result.rho_mean[k] - rho)) < 1e-12

    def test_purity_in_physical_range(self):
        result = mc_average(self.gue_sampler, 2, 2, self.times, 100, RngStream(18))
        assert np.all(result.purity_mean <= 1.0 + 1e-10)
        assert np.all(result.purity_mean >= 0.5 - 1e-10)

    def test_purity_converges_to_analytic(self):
        result = mc_average(self.gue_sampler, 2, 2, self.times, 600, RngStream(19))
        analytic = np.array([purity_mean(2, 2, t) for t in self.times])
        z = np.abs(result.purity_mean - analytic) / np.maximum(
            result.purity_stderr, 1e-12
        )
        assert np.max(z[1:]) < 5.0
        assert abs(result.purity_mean[0] - 1.0) < 1e-10

    def test_cross_elements_vanish(self):
        result = mc_average(self.gue_sampler, 2, 2, self.times, 400, RngStream(20))
        cross = np.abs(result.rho_mean[:, 0, 1])
        assert np.max(cross) < 5 / math.sqrt(400)

    def test_fixed_spectrum_matches_flat_average(self):
        # Haar eigenvectors around a pinned spectrum isolate the angular
        # integral: the mean state must follow the fixed-spectrum form.
        spectrum = RngStream(21, 0).generator().normal(size=4)

        def sampler(gen):
            v = sample_haar_unitary(4, gen)
            return (v * spectrum) @ v.conj().T

        tpts = np.linspace(0.3, 5.7, 10)
        result = mc_average(sampler, 2, 2, tpts, 10_000, RngStream(22), initial_state="e1")
        for k, t in enumerate(tpts):
            p1, pmix = rho_coefficients_closed_form(2, 2, spectrum, t)
            want = p1 * np.diag([1.0, 0.0]) + pmix * np.eye(2) / 2
            z = np.abs(result.rho_mean[k] - want) / np.maximum(
                result.rho_stderr[k], 1e-15
            )
            assert z.max() < 5.0

    def test_energy_shift_invariance(self):
        stream = RngStream(23, 0)
        h = sample_gue(4, 1.0, stream)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        for t in (0.7, 2.9):
            a = partial_trace(evolve(h, psi, t), 2, 2)
            b = partial_trace(evolve(h + 5.5 * np.eye(4), psi, t), 2, 2)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_average(self.gue_sampler, 2, 2, self.times, 0, RngStream(0))
        with pytest.raises(ValueError):
            mc_average(self.gue_sampler, 3, 2, self.times, 1, RngStream(0))

    @pytest.mark.parametrize("times, match", [
        ([], "non-empty 1d"),  # used to raise ZeroDivisionError
        (np.zeros((3, 2)), "non-empty 1d"),  # used to be flattened
        ([0.0, np.nan], "finite"),  # used to give NaN means
        ([0.0, np.inf], "finite"),
    ])
    def test_bad_time_grid_rejected_before_any_draw(self, times, match):
        calls = []

        def sampler(gen):
            calls.append(None)
            return self.gue_sampler(gen)

        with pytest.raises(ValueError, match=match):
            mc_average(sampler, 2, 2, times, 4, RngStream(0))
        assert calls == []

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            mc_average(self.gue_sampler, 2, 2, self.times, 4, RngStream(0),
                       threads=threads)

    def test_stream_id_rejected(self):
        # sample i draws from stream stream_offset + i, so a stream id would
        # be ignored
        with pytest.raises(ValueError, match="pass stream_offset"):
            mc_average(self.gue_sampler, 2, 2, self.times, 4, RngStream(7, 3))

    def test_plain_sampler_overflow_names_its_stream(self):
        # build_model raises inside the read, before the kernel's own check
        from guedyn.models import ModelSpec, make_sampler

        sampler = make_sampler(ModelSpec("SYK", 2, 4, {"J2": 1e308}))
        with pytest.raises(NumericalError, match="the sample of stream 0: the couplings give"
                                                 " a non-finite Hamiltonian"):
            mc_average(sampler, 2, 4, self.times, 4, RngStream(0))

    def test_more_threads_than_samples(self):
        one = mc_average(self.gue_sampler, 2, 2, self.times, 2, RngStream(24))
        many = mc_average(self.gue_sampler, 2, 2, self.times, 2, RngStream(24),
                          threads=3)
        assert np.array_equal(one.rho_mean, many.rho_mean)

    def test_rotated_basis_larger_subsystem(self):
        # d_A = 4: U^dag rho_A(t) U against a per-time dense reference
        result = mc_average(lambda gen: sample_gue(8, 1.0, gen), 4, 2, self.times,
                            1, RngStream(25))
        gen = RngStream(25, 0).generator()
        h = sample_gue(8, 1.0, gen)
        psi_a, psi_b = haar_state(4, gen), haar_state(2, gen)
        psi_t = evolve(h, np.kron(psi_a, psi_b), self.times)
        u_a = completion_unitary(psi_a)
        for k in (0, 23, 60):
            rho = u_a.conj().T @ partial_trace(psi_t[k], 4, 2) @ u_a
            assert np.max(np.abs(result.rho_mean[k] - rho)) < 1e-12

class TestStableStderr:
    times = np.array([0.0, 0.01, 0.5, 1.0, 3.0])

    @staticmethod
    def gue_sampler(gen):
        return sample_gue(4, 1.0, gen)

    def test_zero_spread_gives_zero_stderr(self):
        h = sample_gue(4, 1.0, RngStream(31, 0))
        result = mc_average(lambda gen: h, 2, 2, self.times, 5, RngStream(31),
                            initial_state="e1")
        assert np.all(result.rho_stderr == 0.0)
        assert np.all(result.purity_stderr == 0.0)

    def test_pure_start_has_no_roundoff_stderr(self):
        # every sample's purity is 1 at t = 0; sum p^2 - n mean^2 left 3.7e-9
        result = mc_average(lambda gen: sample_gue(32, 1.0, gen), 4, 8,
                            [0.0, 0.01, 1.0], 40, RngStream(3))
        assert result.purity_stderr[0] <= 1e-14
        assert np.max(result.rho_stderr[0]) <= 1e-14

    def test_matches_two_pass_std(self):
        n = 30
        result = mc_average(self.gue_sampler, 2, 2, self.times, n, RngStream(32))
        samples = [mc_average(self.gue_sampler, 2, 2, self.times, 1, RngStream(32),
                              stream_offset=i) for i in range(n)]
        rho = np.array([r.rho_mean for r in samples])
        pur = np.array([r.purity_mean for r in samples])
        live = self.times > 0  # at t = 0 the spread is roundoff
        want_rho = np.std(rho, axis=0, ddof=1) / math.sqrt(n)
        want_pur = np.std(pur, axis=0, ddof=1) / math.sqrt(n)
        assert np.allclose(result.rho_stderr[live], want_rho[live], rtol=1e-12, atol=0)
        assert np.allclose(result.purity_stderr[live], want_pur[live], rtol=1e-12, atol=0)

    def test_thread_count_invariance(self):
        one = mc_average(self.gue_sampler, 2, 2, self.times, 24, RngStream(33), threads=1)
        three = mc_average(self.gue_sampler, 2, 2, self.times, 24, RngStream(33), threads=3)
        for field in ("rho_mean", "rho_stderr", "purity_mean", "purity_stderr"):
            assert np.array_equal(getattr(one, field), getattr(three, field))


class TestGapStatistics:
    def test_ratios_bounded(self):
        energies = np.linalg.eigvalsh(sample_gue(16, 1.0, RngStream(24, 0), size=200))
        stats = gap_statistics(energies)
        assert stats.ratios.min() >= 0.0 and stats.ratios.max() <= 1.0
        assert np.all(np.diff(stats.gaps) >= 0)

    def test_gue_mean_ratio(self):
        energies = np.linalg.eigvalsh(sample_gue(64, 1.0, RngStream(25, 0), size=500))
        stats = gap_statistics(energies)
        assert abs(stats.mean_ratio - 0.60) <= 0.01

    def test_poisson_mean_ratio(self):
        spectra = RngStream(26, 0).generator().exponential(1.0, size=(2000, 64))
        stats = gap_statistics(np.sort(spectra, axis=1))
        assert abs(stats.mean_ratio - (2 * math.log(2) - 1)) <= 0.01

    def test_degenerate_spectra_skipped(self):
        stats = gap_statistics([np.ones(5), np.array([0.0, 1.0, 2.0, 3.5])])
        assert stats.n_skipped == 1
        assert isinstance(stats, GapStats)

    def test_all_degenerate_raises(self):
        with pytest.raises(ValueError):
            gap_statistics([np.ones(4)])

    def test_stderr_from_sequence_means(self):
        # every ratio of one sequence is 0.5, of the other 0.7: the ratios of
        # a sequence are not independent draws, so the spread is that of the
        # two sequence means, 0.1, not a pooled std over sqrt(16)
        spectra = [np.concatenate(([0.0], np.cumsum(r ** np.arange(9)))) for r in (0.5, 0.7)]
        stats = gap_statistics(spectra)
        assert np.allclose(stats.ratios, [0.5] * 8 + [0.7] * 8, rtol=1e-12)
        assert abs(stats.mean_ratio_stderr - 0.1) <= 1e-12
        assert stats.ratio_counts.tolist() == [8, 8]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spectrum", [
        [-1e308, 0.0, 1e308],  # finite spacings whose sum overflows
        [-1e308, 1e308, 1.5e308],  # a spacing that overflows
        [0.0, 1.0, np.inf],
        [0.0, np.nan, 1.0],
    ])
    def test_non_finite_spacing_raises(self, spectrum):
        # an overflowing mean spacing used to warn and give NaN gaps
        with pytest.raises(NumericalError, match="non-finite level spacing"):
            gap_statistics([np.array([0.0, 1.0, 3.0]), spectrum])

    def test_single_sequence_stderr_is_pooled(self):
        energies = np.linalg.eigvalsh(sample_gue(32, 1.0, RngStream(27, 0)))
        stats = gap_statistics([energies])
        n = stats.ratios.size
        assert stats.mean_ratio_stderr == stats.ratios.std(ddof=1) / math.sqrt(n)


class TestStackApis:
    """evolve, partial_trace and purity over leading batch axes."""

    def test_evolve_stack_equals_per_slice(self):
        gen = RngStream(40, 0).generator()
        hs = sample_gue(6, 1.0, gen, size=4)
        psi0 = np.array([haar_state(6, gen) for _ in range(4)])
        times = np.linspace(-1.0, 5.0, 13)
        stack = evolve(hs, psi0, times)
        assert stack.shape == (4, 13, 6)
        at_t = evolve(hs, psi0, 2.5)
        assert at_t.shape == (4, 6)
        for k in range(4):
            assert np.max(np.abs(stack[k] - evolve(hs[k], psi0[k], times))) <= 1e-15
            assert np.max(np.abs(at_t[k] - evolve(hs[k], psi0[k], 2.5))) <= 1e-15

    def test_evolve_batch_mismatch(self):
        with pytest.raises(ValueError):
            evolve(np.zeros((2, 3, 3)), np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            evolve(np.zeros((3, 3)), np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("d_A, d_B", [(2, 2), (2, 4), (1, 8), (3, 4), (4, 8)])
    def test_partial_trace_and_purity_stack(self, d_A, d_B):
        gen = RngStream(41, d_A * d_B).generator()
        psi = gen.normal(size=(3, 5, d_A * d_B)) + 1j * gen.normal(size=(3, 5, d_A * d_B))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        rhos = partial_trace(psi, d_A, d_B)
        purities = purity(rhos)
        assert rhos.shape == (3, 5, d_A, d_A) and purities.shape == (3, 5)
        for b in range(3):
            for k in range(5):
                m = psi[b, k].reshape(d_A, d_B)
                want = m @ m.conj().T
                assert np.max(np.abs(rhos[b, k] - want)) <= 1e-15
                assert np.max(np.abs(rhos[b, k] - partial_trace(psi[b, k], d_A, d_B))) <= 1e-15
                assert abs(purities[b, k] - purity(rhos[b, k])) <= 1e-15


def _fields(result):
    return [result.rho_mean, result.rho_stderr, result.purity_mean, result.purity_stderr]


class TestBlockKernel:
    """Block layout, thread count and dense per-time references."""

    times = np.linspace(0.0, 6.0, 61)

    @pytest.mark.parametrize("family, d_A, d_B", [("GUE", 2, 2), ("POISSON", 2, 2), ("SYK", 2, 4),
                                                  ("TFIM", 2, 4), ("XXZ", 4, 8)])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_bit_identical_across_blocks_and_threads(self, monkeypatch, family, d_A, d_B, scramble):
        from guedyn import models, sim

        spec = models.ModelSpec(family, d_A, d_B)
        n = 17  # blocks of 5 leave a short last block
        results = []
        for block in (1, 5, None):
            if block is not None:
                monkeypatch.setattr(sim, "_BLOCK_ENTRIES", block * spec.d * self.times.size)
            else:
                monkeypatch.undo()
            for threads in (1, 2, 3):
                results.append(models.ensemble_dynamics(
                    spec, self.times, n, RngStream(42), threads=threads, scramble=scramble))
        first = _fields(results[0])
        for other in results[1:]:
            for a, b in zip(first, _fields(other)):
                assert np.array_equal(a, b)

    def test_default_block_length(self):
        from guedyn import sim

        assert sim._BLOCK_ENTRIES // (4 * 601) >= 2  # d = 4 batches samples
        assert sim._BLOCK_ENTRIES // (256 * 601) == 0  # d = 256 runs one at a time

    @staticmethod
    def dense_reference(h, psi0, d_A, d_B, t, u_a):
        psi = scipy.linalg.expm(-1j * t * h) @ psi0
        full = np.outer(psi, psi.conj()).reshape(d_A, d_B, d_A, d_B)
        rho = np.trace(full, axis1=1, axis2=3)
        return rho if u_a is None else u_a.conj().T @ rho @ u_a

    @pytest.mark.parametrize("d_A", [2, 3, 4])
    @pytest.mark.parametrize("initial_state, scramble", [("haar", False), ("haar", True),
                                                         ("e1", False), ("e1", True)])
    def test_one_sample_matches_dense_reference(self, d_A, initial_state, scramble):
        d_B = 2
        d = d_A * d_B
        tpts = np.array([0.0, 0.37, 1.9, 4.25])
        result = mc_average(lambda gen: sample_gue(d, 1.0, gen), d_A, d_B, tpts, 1,
                            RngStream(43, 0), initial_state=initial_state, scramble=scramble,
                            stream_offset=d_A)
        gen = RngStream(43, d_A).generator()
        h = sample_gue(d, 1.0, gen)
        if scramble:
            u = sample_haar_unitary(d, gen)
            h = u @ h @ u.conj().T
        if initial_state == "haar":
            psi_a, psi_b = haar_state(d_A, gen), haar_state(d_B, gen)
            psi0, u_a = np.kron(psi_a, psi_b), completion_unitary(psi_a)
        else:
            psi0, u_a = np.eye(d)[0].astype(complex), None
        for k, t in enumerate(tpts):
            want = self.dense_reference(h, psi0, d_A, d_B, t, u_a)
            assert np.max(np.abs(result.rho_mean[k] - want)) <= 1e-12
            assert abs(result.purity_mean[k] - np.sum(np.abs(want) ** 2)) <= 1e-12

    def test_unknown_initial_state(self):
        with pytest.raises(ValueError, match="initial_state"):
            mc_average(lambda gen: sample_gue(4, 1.0, gen), 2, 2, self.times, 2,
                       RngStream(0), initial_state="bell")


class TestStageTimes:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_stages_non_negative_and_within_cpu_and_wall(self, threads):
        import time

        wall, cpu = time.perf_counter(), time.process_time()
        result = mc_average(lambda gen: sample_gue(4, 1.0, gen), 2, 2,
                            np.linspace(0.0, 6.0, 601), 60, RngStream(44), threads=threads)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert set(result.stages) == {"draw", "evolve", "reduce"}
        assert all(v >= 0.0 for v in result.stages.values())
        total = sum(result.stages.values())
        assert total <= cpu + 1e-3  # CPU time of the stages' own threads
        # the workers, plus the main thread reducing while they run
        assert total <= (threads + (threads > 1)) * wall


class TestBlasPin:
    """Monte Carlo runs with numpy's OpenBLAS at one thread, then restores it."""

    @pytest.fixture
    def blas(self):
        from guedyn import sim

        api = sim._openblas()
        if api is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        get, put = api
        before = get()
        put(2)
        try:
            yield get
        finally:
            put(before)

    def test_pinned_inside_and_restored_after(self, blas):
        seen = []

        def sampler(gen):
            seen.append(blas())
            return sample_gue(4, 1.0, gen)

        mc_average(sampler, 2, 2, [0.0, 1.0], 3, RngStream(45), threads=2)
        assert seen == [1, 1, 1]
        assert blas() == 2

    def test_restored_after_raise(self, blas):
        def sampler(gen):
            raise RuntimeError("sampler failed")

        with pytest.raises(RuntimeError, match="sampler failed"):
            mc_average(sampler, 2, 2, [0.0, 1.0], 3, RngStream(46))
        assert blas() == 2

    def test_nested_pins_restore_once(self, blas):
        from guedyn import models

        seen = []
        spec = models.ModelSpec("SYK", 2, 4)
        real = models._coefficients

        def recording(spec_, gen):
            seen.append(blas())
            return real(spec_, gen)

        models._coefficients = recording
        try:
            models.ensemble_dynamics(spec, [0.0, 0.5], 2, RngStream(47))
        finally:
            models._coefficients = real
        assert len(seen) == 4 and set(seen) == {1}  # pilot and Monte Carlo draws
        assert blas() == 2


class TestSampleOrderReduction:
    def test_means_are_the_sample_order_sum(self, monkeypatch):
        # One time and d_A = 1: a sample has 3 real components, the fewest
        # possible, and 20 samples would be summed pairwise if the sample
        # axis were reduced innermost.
        from guedyn import sim

        def sampler(gen):
            return sample_gue(4, 1.0, gen)

        n = 20
        singles = [mc_average(sampler, 1, 4, [0.7], 1, RngStream(48), stream_offset=i)
                   for i in range(n)]
        rho_sum, pur_sum = 0.0, 0.0
        for r in singles:
            rho_sum = rho_sum + r.rho_mean
            pur_sum = pur_sum + r.purity_mean
        for block in (1, 7, n):
            monkeypatch.setattr(sim, "_BLOCK_ENTRIES", block * 4)
            result = mc_average(sampler, 1, 4, [0.7], n, RngStream(48))
            assert np.array_equal(result.rho_mean, rho_sum / n)
            assert np.array_equal(result.purity_mean, pur_sum / n)


class TestStreamRestart:
    def test_restart_matches_a_fresh_generator(self):
        from guedyn.sim import _restart

        gen = RngStream(50, 0).generator()
        for seed, sid in ((50, 3), (50, 0), (-7, 2**63 + 5)):
            gen.random(dtype=np.float32)  # leaves half of a 64-bit word cached
            gen.normal(size=3)
            stream = RngStream(seed, sid)
            _restart(gen.bit_generator, stream)
            fresh = stream.generator()
            assert np.array_equal(gen.normal(size=5), fresh.normal(size=5))
            assert gen.random(dtype=np.float32) == fresh.random(dtype=np.float32)
            assert np.array_equal(gen.integers(0, 2**40, size=3),
                                  fresh.integers(0, 2**40, size=3))
            assert np.array_equal(gen.exponential(size=4), fresh.exponential(size=4))


class TestSpectralSamples:
    """A block sampler may hand the kernel its block's (energies, bases)."""

    times = np.linspace(0.0, 6.0, 31)

    @staticmethod
    def fixed_pair(gen):
        # a Haar basis around a drawn spectrum, as the pair and as dense H
        energies = gen.normal(size=8)
        basis = sample_haar_unitary(8, gen)
        return energies, basis

    @staticmethod
    def pair_sampler():
        # fixed_pair read per stream into a row and finished as the block's
        # pairs: the 8 energies, then the normals of the Haar basis
        from guedyn.sim import _BlockSampler, _haar_unitaries

        return _BlockSampler(8 + 2 * 64, lambda gen, row: gen.standard_normal(out=row),
                             lambda rows: (rows[:, :8], _haar_unitaries(rows[:, 8:], 8)))

    @pytest.mark.parametrize("initial_state", ["haar", "e1"])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_pair_matches_dense_h(self, initial_state, scramble):
        def dense(gen):
            energies, basis = self.fixed_pair(gen)
            return (basis * energies) @ basis.conj().T

        kw = dict(initial_state=initial_state, scramble=scramble, energy_scale=1.3)
        a = mc_average(self.pair_sampler(), 2, 4, self.times, 9, RngStream(80), **kw)
        b = mc_average(dense, 2, 4, self.times, 9, RngStream(80), **kw)
        assert np.max(np.abs(a.rho_mean - b.rho_mean)) <= 1e-13
        assert np.max(np.abs(a.purity_mean - b.purity_mean)) <= 1e-13

    @pytest.mark.parametrize("initial_state", ["haar", "e1"])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_dense_h_is_its_eigh_pair(self, initial_state, scramble):
        # a dense block is diagonalised before its transforms, so a finish
        # that hands over np.linalg.eigh of the same H stack gives the same
        # bytes
        from guedyn.sim import _BlockSampler, _plain_sampler

        def dense(gen):
            return sample_gue(8, 1.0, gen)

        plain = _plain_sampler(dense, 8)
        pairs = _BlockSampler(plain.width, plain.read,
                              lambda rows: np.linalg.eigh(plain.finish(rows)[1]))
        kw = dict(initial_state=initial_state, scramble=scramble)
        a = mc_average(dense, 2, 4, self.times, 9, RngStream(84), **kw)
        b = mc_average(pairs, 2, 4, self.times, 9, RngStream(84), **kw)
        for x, y in zip(_fields(a), _fields(b)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("bad", [
        lambda gen: (np.zeros(8),),
        lambda gen: np.linalg.eigh(sample_gue(8, 1.0, gen)),  # a pair it used to take
        lambda gen: (np.zeros(8), np.eye(4)),
    ])
    def test_tuple_rejected(self, bad):
        # a plain sampler returns a dense H; pairs come from block samplers
        with pytest.raises(ValueError, match=r"returned a tuple, expected a dense \(8, 8\) H"):
            mc_average(bad, 2, 4, self.times, 2, RngStream(82))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"returned shape \(4, 4\), expected \(8, 8\)"):
            mc_average(lambda gen: sample_gue(4, 1.0, gen), 2, 4, self.times, 2, RngStream(82))

    @pytest.mark.parametrize("family, d_A, d_B, scramble", [("CS", 2, 4, False),
                                                            ("CS", 2, 4, True),
                                                            ("POISSON", 2, 4, True)])
    def test_bit_identical_across_blocks_and_threads(self, monkeypatch, family, d_A, d_B,
                                                     scramble):
        from guedyn import models, sim

        spec = models.ModelSpec(family, d_A, d_B)
        results = []
        for block in (1, 4, None):
            if block is not None:
                monkeypatch.setattr(sim, "_BLOCK_ENTRIES", block * spec.d * self.times.size)
            else:
                monkeypatch.undo()
            for threads in (1, 2, 3):
                results.append(models.ensemble_dynamics(
                    spec, self.times, 11, RngStream(83), threads=threads, scramble=scramble))
        for other in results[1:]:
            for a, b in zip(_fields(results[0]), _fields(other)):
                assert np.array_equal(a, b)


class TestNonFiniteSamples:
    """A non-finite sample raises NumericalError, naming its stream, before
    any transform, eigh or spectral step."""

    times = np.linspace(0.0, 2.0, 5)

    @staticmethod
    def third_sample_spoiled(spoil):
        # a dense H per sample; sample 2 of a one-thread, one-block run is
        # the third call
        calls = []

        def sampler(gen):
            energies, basis = gen.normal(size=4), sample_haar_unitary(4, gen)
            calls.append(None)
            h = (basis * energies) @ basis.conj().T
            return spoil(h) if len(calls) == 3 else h

        return sampler

    @staticmethod
    def pair_sampler(spoil):
        # drawn energies and Haar bases, finished as the block's pairs, with
        # sample 2 of the one block spoiled
        from guedyn.sim import _BlockSampler, _haar_unitaries

        def finish(rows):
            energies, bases = rows[:, :4].copy(), _haar_unitaries(rows[:, 4:], 4)
            energies[2], bases[2] = spoil(energies[2], bases[2])
            return energies, bases

        return _BlockSampler(4 + 2 * 16, lambda gen, row: gen.standard_normal(out=row), finish)

    @pytest.mark.parametrize("spoil", [
        lambda e, v: (np.where(np.arange(4) == 1, np.inf, e), v),
        lambda e, v: (e, np.where(np.eye(4, dtype=bool), np.nan, v)),
    ])
    @pytest.mark.parametrize("scramble", [False, True])
    def test_pair_raises(self, spoil, scramble):
        # an inf energy used to give NaN means and a RuntimeWarning
        with pytest.raises(NumericalError, match="stream 2 has a non-finite energies or basis"):
            mc_average(self.pair_sampler(spoil), 2, 2, self.times, 4, RngStream(96),
                       scramble=scramble)

    @pytest.mark.parametrize("scramble", [False, True])
    def test_dense_h_raises(self, scramble):
        # a NaN dense H used to raise LinAlgError from eigh
        def spoil(h):
            h[0, 1] = np.nan
            return h

        with pytest.raises(NumericalError, match="stream 2 has a non-finite Hamiltonian"):
            mc_average(self.third_sample_spoiled(spoil), 2, 2, self.times, 4, RngStream(97),
                       scramble=scramble)


def _gram_schmidt(psi):
    # completion_unitary as it was written for one state: per basis vector,
    # subtract the projections with matmul, normalise with np.linalg.norm
    d = psi.size
    skip = int(np.argmax(np.abs(psi)))
    cols = [psi / np.linalg.norm(psi)]
    for j in range(d):
        if j == skip:
            continue
        v = np.zeros(d, dtype=complex)
        v[j] = 1.0
        for u in cols:
            v -= u * (u.conj() @ v)
        v /= np.linalg.norm(v)
        cols.append(v)
    return np.column_stack(cols)


class TestStackedHelpers:
    """The block's transforms on stacks give the bytes of one sample at a time."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_completion_unitary_stack(self, d):
        gen = RngStream(98, d).generator()
        psis = [haar_state(d, gen) for _ in range(16)]
        flat = np.full(d, 1 / np.sqrt(d), dtype=complex)  # every modulus tied
        psis += [flat, np.exp(1j * np.arange(d)) * flat]
        psis += list(np.eye(d, dtype=complex))  # basis vectors
        stack = np.array(psis)
        got = completion_unitary(stack)
        assert got.shape == (len(psis), d, d)
        for k, psi in enumerate(psis):
            assert np.array_equal(got[k], _gram_schmidt(psi)), k
            assert np.array_equal(got[k], completion_unitary(psi)), k
        assert np.array_equal(completion_unitary(stack[:16].reshape(2, 8, d)),
                              got[:16].reshape(2, 8, d, d))

    def test_tied_moduli_skip_the_lowest_index(self):
        # psi = (1, 1)/sqrt 2 skips e_0 and completes with e_1 - psi/sqrt 2
        u = completion_unitary(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(u[:, 1], np.array([-1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_haar_unitaries_per_stream(self, d):
        from guedyn.sim import _haar_unitaries

        streams = [RngStream(99, i) for i in range(7)]
        rows = np.empty((len(streams), 2 * d * d))
        for row, stream in zip(rows, streams):
            stream.generator().standard_normal(out=row)
        got = _haar_unitaries(rows, d)
        for k, stream in enumerate(streams):
            assert np.array_equal(got[k], sample_haar_unitary(d, stream))
            # as it was written for one matrix: two normal calls, one QR
            gen = stream.generator()
            z = (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            assert np.array_equal(got[k], q * (diag / np.abs(diag)))

    @pytest.mark.parametrize("d_A, d_B", [(1, 4), (2, 2), (2, 4), (3, 5)])
    def test_one_fill_is_the_separate_draws(self, d_A, d_B):
        # the kernel's fill per sample: scramble unitary, psi_A, psi_B
        d = d_A * d_B
        stream = RngStream(100, d)
        row = np.empty(2 * d * d + 2 * (d_A + d_B))
        stream.generator().standard_normal(out=row)
        gen = stream.generator()
        want = [gen.normal(size=(d, d)), gen.normal(size=(d, d)), gen.normal(size=d_A),
                gen.normal(size=d_A), gen.normal(size=d_B), gen.normal(size=d_B)]
        assert np.array_equal(row, np.concatenate([w.ravel() for w in want]))

    @pytest.mark.parametrize("family", ["GUE", "POISSON", "TFIM", "XXZ"])
    def test_sampler_reads_are_the_separate_draws(self, family):
        # GUE: the two normal matrices of sample_gue; POISSON: its scaled
        # exponential levels, then the normals of its Haar basis; TFIM and
        # XXZ: their rotation, then one normal per coupling
        from guedyn import models

        d = 6 if family in ("GUE", "POISSON") else 8
        sampler = models._spectral_sampler(models.ModelSpec(family, 2, d // 2))
        stream = RngStream(101, 0)
        row = np.empty(sampler.width)
        sampler.read(stream.generator(), row)
        gen = stream.generator()
        if family in ("TFIM", "XXZ"):
            rotation = sample_so3(gen)
            scalars = [gen.normal(size=1) for _ in models.COUPLINGS[family]]
            assert np.array_equal(row, np.concatenate([rotation.ravel()] + scalars))
        elif family == "GUE":
            assert np.array_equal(row, gen.normal(0.0, 1.0, 2 * d * d))
            assert np.array_equal(sampler(stream.generator()), sample_gue(d, 1.0, stream))
        else:
            levels = gen.exponential(np.sqrt(d + 1), size=d)
            assert np.array_equal(np.sqrt(d + 1) * row[:d], levels)
            assert np.array_equal(row[d:], gen.normal(size=2 * d * d))

