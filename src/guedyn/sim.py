"""Monte Carlo engine: random-matrix sampling, evolution, partial trace.

Reproducibility contract: every sample of an ensemble run owns a
counter-based random stream derived from ``(master_seed, sample_index)``
via the Philox generator.  Per-sample work is independent, and the
reduction is performed in sample-index order, so results are bit-identical
regardless of the number of worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "sample_gue",
    "sample_haar_unitary",
    "sample_so3",
    "haar_state",
    "evolve",
    "partial_trace",
    "purity",
    "completion_unitary",
    "MCResult",
    "mc_average",
    "GapStats",
    "gap_statistics",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic, platform-independent random stream.

    The same ``(master_seed, stream_id)`` always yields the same sample
    sequence; distinct ids give statistically independent streams.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed % 2**64, self.stream_id % 2**64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def sample_gue(d: int, lam: float = 1.0, rng=None, size=None) -> np.ndarray:
    """Hermitian matrix (or stack) with weight exp(-lam/2 Tr H^2).

    Two auxiliary real i.i.d. N(0, 1/lam) matrices A1, A2 are combined as
    H = ((A1 + A1^T) + i (A2 - A2^T)) / 2, giving diagonal variance 1/lam
    and off-diagonal real/imaginary variances 1/(2 lam).
    """
    if d < 1 or lam <= 0:
        raise ValueError("need d >= 1 and lam > 0")
    gen = _as_generator(rng)
    shape = (d, d) if size is None else (size, d, d)
    scale = 1.0 / np.sqrt(lam)
    a1 = gen.normal(0.0, scale, shape)
    a2 = gen.normal(0.0, scale, shape)
    swap = a1.swapaxes(-1, -2), a2.swapaxes(-1, -2)
    return 0.5 * ((a1 + swap[0]) + 1j * (a2 - swap[1]))


def sample_haar_unitary(d: int, rng=None) -> np.ndarray:
    """Haar-distributed element of U(d).

    QR decomposition of a complex Ginibre matrix, with each column rephased
    by the corresponding diagonal entry of R so the law is exactly Haar.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = _as_generator(rng)
    z = (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_so3(rng=None) -> np.ndarray:
    """Haar-distributed rotation in SO(3).

    Real QR with the R-diagonal sign fix gives Haar on O(3); a negative
    determinant is repaired by flipping the sign of the last column.
    """
    gen = _as_generator(rng)
    q, r = np.linalg.qr(gen.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 2] = -q[:, 2]
    return q


def haar_state(d: int, rng=None) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    gen = _as_generator(rng)
    z = gen.normal(size=d) + 1j * gen.normal(size=d)
    return z / np.linalg.norm(z)


def evolve(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """Schroedinger evolution psi(t) = V e^{-i Lambda t} V^dag psi0.

    ``times`` may be a scalar or a 1d array; the eigendecomposition is done
    once and reused for every requested time.  Returns shape (d,) for a
    scalar time, else (len(times), d).
    """
    H = np.asarray(H)
    psi0 = np.asarray(psi0, dtype=complex)
    if H.shape != (psi0.size, psi0.size):
        raise ValueError("dimension mismatch between H and psi0")
    energies, basis = np.linalg.eigh(H)
    scalar = np.isscalar(times) or np.ndim(times) == 0
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    coeff = basis.conj().T @ psi0
    phases = np.exp(-1j * np.outer(energies, ts))  # (d, T)
    out = (basis @ (coeff[:, None] * phases)).T  # (T, d)
    return out[0] if scalar else out


def partial_trace(psi: np.ndarray, d_A: int, d_B: int) -> np.ndarray:
    """Reduced density matrix of A from a pure state on A x B.

    Basis convention is A-major: full index k = k_A * d_B + k_B.  A (T, d)
    stack of states gives the (T, d_A, d_A) stack of reduced matrices.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != d_A * d_B:
        raise ValueError(f"state length {psi.shape[-1]} != d_A*d_B = {d_A * d_B}")
    m = psi.reshape(psi.shape[:-1] + (d_A, d_B))
    return np.einsum("...aq,...bq->...ab", m, m.conj())


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr rho^2 of a Hermitian density matrix (Frobenius norm squared); an
    array over a (T, d_A, d_A) stack."""
    rho = np.asarray(rho)
    out = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    return float(out) if rho.ndim == 2 else out


def completion_unitary(psi: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``psi``.

    Completed by Gram-Schmidt over the standard basis, skipping the basis
    vector with the largest overlap modulus (ties: lowest index), so the
    construction is deterministic.
    """
    psi = np.asarray(psi, dtype=complex)
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
        norm = np.linalg.norm(v)
        v /= norm
        cols.append(v)
    return np.column_stack(cols)


@dataclass
class MCResult:
    """Per-time-point ensemble means and standard errors."""

    times: np.ndarray
    rho_mean: np.ndarray  # (T, d_A, d_A) complex
    rho_stderr: np.ndarray  # (T, d_A, d_A) real
    purity_mean: np.ndarray  # (T,)
    purity_stderr: np.ndarray  # (T,)
    n_samples: int
    energy_scale: float = 1.0


def _single_run(sampler, d_A, d_B, times, stream, initial_state, scramble, scale):
    gen = stream.generator()
    H = np.asarray(sampler(gen))
    d = d_A * d_B
    if H.shape != (d, d):
        raise ValueError(f"sampler returned shape {H.shape}, expected ({d}, {d})")
    if scramble:
        u = sample_haar_unitary(d, gen)
        H = u @ H @ u.conj().T
    if initial_state == "haar":
        psi_a = haar_state(d_A, gen)
        psi_b = haar_state(d_B, gen)
        psi0 = np.kron(psi_a, psi_b)
        u_a = completion_unitary(psi_a)
    elif initial_state == "e1":
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
        u_a = None
    else:
        raise ValueError(f"unknown initial_state: {initial_state!r}")

    rho = partial_trace(evolve(H, psi0, scale * times.ravel()), d_A, d_B)
    if u_a is not None:
        # U^dag rho_t U for every t as two flat products over the (T*d_A, d_A)
        # stack: rho_t U, then (U^dag M)^T = M^T conj(U) on the transposed stack
        m = (rho.reshape(-1, d_A) @ u_a).reshape(rho.shape)
        m = m.transpose(0, 2, 1).reshape(-1, d_A) @ u_a.conj()
        rho = m.reshape(rho.shape).transpose(0, 2, 1)
    return rho, purity(rho)


def _check_counts(n_samples, threads) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def mc_average(
    sampler,
    d_A: int,
    d_B: int,
    times,
    n_samples: int,
    rng: RngStream,
    initial_state: str = "haar",
    scramble: bool = False,
    energy_scale: float = 1.0,
    threads: int = 1,
    stream_offset: int = 0,
) -> MCResult:
    """Ensemble average of rho_A(t) and purity over sampled Hamiltonians.

    ``sampler(gen)`` must return a (d, d) Hermitian array drawn with the
    numpy Generator ``gen``; sample i uses the stream
    ``(rng.master_seed, stream_offset + i)``.  With the default random
    product initial state, rho_A is reported in the rotated basis whose
    first vector is the sampled |1_A>, matching the analytic coefficient
    decomposition; ``initial_state="e1"`` keeps the computational basis.
    ``threads`` must be >= 1; at most ``n_samples`` worker threads run.
    """
    _check_counts(n_samples, threads)
    times = np.asarray(times, dtype=float)
    streams = [
        RngStream(rng.master_seed, stream_offset + i) for i in range(n_samples)
    ]

    def job(stream):
        return _single_run(
            sampler, d_A, d_B, times, stream, initial_state, scramble, energy_scale
        )

    workers = min(threads, n_samples)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(job, streams)
            return _reduce(times, results, n_samples, energy_scale)
    return _reduce(times, map(job, streams), n_samples, energy_scale)


def _reduce(times, results, n_samples, energy_scale) -> MCResult:
    # Per quantity (rho, purity): the sum, and the sums of the deviations
    # from the first sample and of their squared moduli.  This shifted form
    # of the sample variance gives exactly 0 for a spread that is exactly 0,
    # where sum x^2 - n mean^2 leaves roundoff.
    acc = first = None
    for sample in results:  # fixed order: bit-identical for any thread count
        if acc is None:
            first = sample
            acc = [(np.zeros_like(x), np.zeros_like(x), np.zeros(x.shape)) for x in sample]
        for x, x0, (s, s1, s2) in zip(sample, first, acc):
            dev = x - x0
            s += x
            s1 += dev
            s2 += dev.real**2 + dev.imag**2
    n = n_samples
    (rho_mean, rho_stderr), (p_mean, p_stderr) = [
        (s / n, np.sqrt(np.maximum(s2 - (s1.real**2 + s1.imag**2) / n, 0.0) / max(n - 1, 1) / n))
        for s, s1, s2 in acc
    ]
    return MCResult(times, rho_mean, rho_stderr, p_mean, p_stderr, n, energy_scale)


@dataclass
class GapStats:
    """Pooled nearest-neighbour spacing statistics of a set of spectra."""

    gaps: np.ndarray  # mean-gap-normalized spacings, sorted ascending
    ratios: np.ndarray  # r_j = min(s_j, s_{j+1}) / max(s_j, s_{j+1})
    n_skipped: int = 0

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean())

    @property
    def mean_ratio_stderr(self) -> float:
        n = self.ratios.size
        return float(self.ratios.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def gap_statistics(spectra) -> GapStats:
    """Pool normalized consecutive gaps and subsequent-gap ratios.

    Each spectrum is sorted, its gaps normalized by their own mean; fully
    degenerate spectra (zero mean gap) are skipped and counted.
    """
    pooled_gaps = []
    pooled_ratios = []
    skipped = 0
    for spectrum in spectra:
        energies = np.sort(np.asarray(spectrum, dtype=float))
        if energies.size < 3:
            raise ValueError("each spectrum needs at least 3 levels")
        gaps = np.diff(energies)
        mean_gap = gaps.mean()
        if mean_gap <= 0:
            skipped += 1
            continue
        pooled_gaps.append(gaps / mean_gap)
        lo = np.minimum(gaps[:-1], gaps[1:])
        hi = np.maximum(gaps[:-1], gaps[1:])
        good = hi > 0
        pooled_ratios.append(lo[good] / hi[good])
    if not pooled_gaps:
        raise ValueError("all spectra degenerate")
    return GapStats(
        np.sort(np.concatenate(pooled_gaps)),
        np.concatenate(pooled_ratios),
        skipped,
    )
