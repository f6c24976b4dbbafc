"""Monte Carlo engine: random-matrix sampling, evolution, partial trace.

Reproducibility contract: every sample of a sampled pass owns a Philox
counter-based random stream ``(master_seed, sample_index)``, so its draws
do not depend on how samples are grouped; ``_run_blocks`` is the one loop
that hands the streams out.  :func:`mc_average` works on blocks of
consecutive samples, whose length is set by the input size alone
(``_BLOCK_ENTRIES``); each sample's arithmetic is the same in any block,
and the reduction adds the samples strictly in sample-index order.  Results
are therefore bit-identical for any block length and any number of worker
threads.  The run holds numpy's bundled OpenBLAS at one thread (restored
afterwards), because the LAPACK rounding depends on its thread count; the
output then depends on the inputs alone, not on ``OPENBLAS_NUM_THREADS``.
Where that library is not found the thread count is left as it is.

A sample is a dense Hamiltonian H or its eigendecomposition (energies,
basis).  Time evolution is one spectral step, psi(t) = V e^{-iEt} V^dag
psi0, from the eigendecomposition: :func:`evolve` takes it from ``eigh``
of H, and the block kernel from one batched ``eigh`` of the block's dense
samples or from the sampler itself.

The block kernel's loop over samples only reads each sample's stream; what
is built from the draws (H, the Haar QR, the normalised states, the
completion unitary and the frame rotation) runs once per block on stacks,
with the arithmetic of one sample at a time, hence its bytes.  The public
single-sample functions are the one-sample case of the same helpers.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded with the package, not inside a run's first draw

from .errors import NumericalError

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
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array(
            [self.master_seed % 2**64, self.stream_id % 2**64], dtype=np.uint64
        )


_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.flags.writeable = False


def _restart(bitgen, stream: RngStream) -> None:
    # Put a Philox bit generator at the start of ``stream``: the same draws
    # as ``stream.generator()``, for a quarter of the cost of building one.
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": stream._key()},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
    return _hermitian(gen.normal(0.0, scale, shape), gen.normal(0.0, scale, shape))


def _hermitian(a1, a2):
    # ((A1 + A1^T) + i (A2 - A2^T)) / 2 over the last two axes
    return 0.5 * ((a1 + a1.swapaxes(-1, -2)) + 1j * (a2 - a2.swapaxes(-1, -2)))


def sample_haar_unitary(d: int, rng=None) -> np.ndarray:
    """Haar-distributed element of U(d).

    QR decomposition of a complex Ginibre matrix, with each column rephased
    by the corresponding diagonal entry of R so the law is exactly Haar.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return _haar_unitaries(_as_generator(rng).standard_normal(2 * d * d), d)


def _haar_unitaries(normals, d):
    # (..., 2 d^2) normals, the real parts of a Ginibre matrix before its
    # imaginary parts, each row-major -> (..., d, d) Haar unitaries, by one
    # stacked QR with the phase fix of Mezzadri, Notices AMS 54, 592 (2007)
    parts = normals.reshape(normals.shape[:-1] + (2, d, d))
    z = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


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
    return _haar_states(_as_generator(rng).standard_normal(2 * d), d)


def _haar_states(normals, d):
    # (..., 2 d) normals, real parts then imaginary parts -> (..., d) unit
    # vectors
    z = normals[..., :d] + 1j * normals[..., d:]
    return z / _norms(z)[..., None]


def _norms(z):
    # Euclidean norms over the last axis of a complex stack: the two real
    # dot products of np.linalg.norm, hence its bytes
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def evolve(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """Schroedinger evolution psi(t) = V e^{-i Lambda t} V^dag psi0.

    ``H`` is (..., d, d) and ``psi0`` is (..., d) with the same leading
    batch axes; each Hamiltonian evolves its own state.  ``times`` may be a
    scalar or a 1d array; each eigendecomposition is done once and reused
    for every requested time.  Returns (..., d) for a scalar time, else
    (..., len(times), d).
    """
    H = np.asarray(H)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim < 1 or H.shape != psi0.shape + psi0.shape[-1:]:
        raise ValueError("dimension mismatch between H and psi0")
    energies, basis = np.linalg.eigh(H)
    out = _spectral_step(energies, basis, psi0, np.atleast_1d(np.asarray(times, dtype=float)))
    return out[..., 0, :] if np.ndim(times) == 0 else out


def _spectral_step(energies, basis, psi0, ts):
    # V e^{-i E t} V^dag psi0 for every t of the 1d grid ``ts``, from the
    # eigendecomposition (E, V): (..., d), (..., d, d) -> (..., T, d).
    coeff = psi0[..., None, :] @ basis.conj()  # (..., 1, d): V^dag psi0
    # e^{-iEt} = cos(-Et) + i sin(-Et), written in place and then scaled by
    # the coefficients; glibc's complex exp returns these same values, at
    # more cost
    angles = (-ts)[:, None] * energies[..., None, :]  # (..., T, d)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    phases *= coeff
    return phases @ basis.swapaxes(-1, -2)


# Largest state length whose partial trace is taken entry by entry over the
# whole stack rather than by one matrix product per state.
_SMALL_STATE = 8


def partial_trace(psi: np.ndarray, d_A: int, d_B: int) -> np.ndarray:
    """Reduced density matrix of A from a pure state on A x B.

    Basis convention is A-major: full index k = k_A * d_B + k_B.  The state
    is read from the last axis, so a (..., d) stack of states gives the
    (..., d_A, d_A) stack of reduced matrices.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != d_A * d_B:
        raise ValueError(f"state length {psi.shape[-1]} != d_A*d_B = {d_A * d_B}")
    m = psi.reshape(psi.shape[:-1] + (d_A, d_B))
    mc = m.conj()
    if d_A * d_B > _SMALL_STATE:
        return m @ mc.swapaxes(-1, -2)
    # Small states: a BLAS call per state costs more than its product, so
    # form each entry sum_q m_aq conj(m_bq) over the whole stack at once.
    rho = np.empty(m.shape[:-1] + (d_A,), dtype=complex)
    for a in range(d_A):
        for b in range(d_A):
            entry = m[..., a, 0] * mc[..., b, 0]
            for q in range(1, d_B):
                entry += m[..., a, q] * mc[..., b, q]
            rho[..., a, b] = entry
    return rho


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr rho^2 of a Hermitian density matrix (Frobenius norm squared); an
    array over the leading axes of a (..., d_A, d_A) stack."""
    rho = np.asarray(rho)
    d_A = rho.shape[-1]
    if d_A * d_A > _SMALL_STATE:
        out = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    else:
        # A reduction over d_A^2 <= 8 entries runs one tiny inner loop per
        # matrix; add the |rho_ab|^2 planes over the whole stack instead, in
        # the row-major order np.sum takes on a contiguous stack, hence to
        # the same bytes.
        planes = (np.abs(rho) ** 2).reshape(rho.shape[:-2] + (d_A * d_A,))
        out = planes[..., 0].copy()
        for k in range(1, d_A * d_A):
            out += planes[..., k]
    return float(out) if rho.ndim == 2 else out


def completion_unitary(psi: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``psi``; a (..., d) stack of states
    gives the (..., d, d) stack of unitaries.

    Completed by Gram-Schmidt over the standard basis, skipping the basis
    vector with the largest overlap modulus (ties: lowest index), so the
    construction is deterministic.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[-1]
    skip = np.argmax(np.abs(psi), axis=-1)[..., None]
    cols = [psi / _norms(psi)[..., None]]
    for c in range(d - 1):
        v = (np.arange(d) == c + (c >= skip)).astype(complex)  # e_j, the c-th j != skip
        for u in cols:
            v -= u * np.vecdot(u, v)[..., None]
        v /= _norms(v)[..., None]
        cols.append(v)
    return np.stack(cols, axis=-1)


@dataclass
class MCResult:
    """Per-time-point ensemble means and standard errors.

    ``stages`` holds the CPU seconds spent drawing samples (``draw``: the
    per-sample stream reads plus the block's transforms of them, that is
    the sampler's finish, the scramble, the initial states and the frame
    rotation), in evolution, partial trace and purity (``evolve``) and in
    the reduction (``reduce``), each summed over the threads that did the
    work; time a worker spends waiting for the interpreter lock is not
    counted.  The ``eigh`` of a dense sample counts under ``evolve``; a
    diagonalisation done by the sampler itself, to return (energies,
    basis), counts under ``draw``.
    """

    times: np.ndarray
    rho_mean: np.ndarray  # (T, d_A, d_A) complex
    rho_stderr: np.ndarray  # (T, d_A, d_A) real
    purity_mean: np.ndarray  # (T,)
    purity_stderr: np.ndarray  # (T,)
    n_samples: int
    energy_scale: float = 1.0
    stages: dict[str, float] = field(default_factory=dict)


@functools.cache
def _openblas():
    # numpy's bundled OpenBLAS, if this process has loaded it: (get, set) of
    # its thread count, else None.  RTLD_NOLOAD finds the loaded copy and
    # never loads a second one.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs one thread inside it.

    The thread count fixes the rounding of LAPACK calls, so sampled output
    then depends on its inputs alone, and a thread pool over samples does
    not oversubscribe the cores.  Nested and concurrent uses share one
    pin; the count found on the outermost entry is restored on the last
    exit, also when the body raises.  Without a known OpenBLAS this does
    nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        api = _openblas()
        if api is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = api[0]()
                    api[1](1)
                self._depth += 1
        return self

    def __exit__(self, *exc_info):
        api = _openblas()
        if api is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    api[1](self._saved)
        return False


_one_blas_thread = _OneBlasThread()

# Samples per block: about this many complex state entries, d x len(times),
# per block (6 samples at d = 4 on 601 times, 1 from d = 14).  Larger blocks
# ran no faster at d = 4 and raised the peak memory of a run by a block's
# temporaries (2**16 entries: +11 MB).
_BLOCK_ENTRIES = 2**14


class _BlockSampler:
    """A sampler in two steps, so that a block's transforms run once.

    ``read(gen, row)`` draws one sample from its own stream, into ``row``
    (``width`` floats) or as its return value.  ``finish(rows, reads)`` turns
    a block's (n, width) rows and list of reads into its samples
    ``(energies, mats, paired)``: mats[k] is the (d, d) basis of a pair
    (paired[k]) with energies[k], else a dense H; ``energies`` is None when
    no sample is a pair.  Called with a generator it draws one sample, as a
    plain sampler does.
    """

    __slots__ = ("width", "read", "finish")

    def __init__(self, width, read, finish):
        self.width, self.read, self.finish = width, read, finish

    def __call__(self, gen):
        rows = np.empty((1, self.width))
        energies, mats, paired = self.finish(rows, [self.read(gen, rows[0])])
        return (energies[0], mats[0]) if paired[0] else mats[0]


def _plain_sampler(sampler, d) -> _BlockSampler:
    # a plain sampler(gen) is the read, its sample checked and copied at
    # once (a sampler may refill one array on every call); the finish
    # stacks the dense samples and the pairs
    return _BlockSampler(0, lambda gen, row: _checked(sampler(gen), d),
                         lambda rows, reads: _stack_samples(reads, d))


def _checked(sample, d):
    if not isinstance(sample, tuple):
        sample = np.array(sample)
        if sample.shape != (d, d):
            raise ValueError(f"sampler returned shape {sample.shape}, expected ({d}, {d})")
        return sample
    if len(sample) != 2:
        raise ValueError(f"sampler returned a tuple of {len(sample)}, expected (energies, basis)")
    energies, basis = np.array(sample[0]), np.array(sample[1])
    if energies.shape != (d,) or basis.shape != (d, d):
        raise ValueError(
            f"sampler returned energies {energies.shape} and basis {basis.shape},"
            f" expected ({d},) and ({d}, {d})"
        )
    return energies, basis


def _stack_samples(samples, d):
    n = len(samples)
    energies = np.empty((n, d))
    mats = np.empty((n, d, d), dtype=complex)
    paired = np.array([isinstance(sample, tuple) for sample in samples])
    for k, sample in enumerate(samples):
        if paired[k]:
            energies[k], mats[k] = sample
        else:
            mats[k] = sample
    return energies, mats, paired


def _restarted(streams):
    # One generator for a block's streams, put at the start of each in turn
    gen = streams[0].generator()
    for stream in streams:
        _restart(gen.bit_generator, stream)
        yield gen


def _check_finite(energies, mats, paired, streams) -> None:
    bad = ~np.isfinite(mats).all(axis=(-2, -1))
    if energies is not None:
        bad |= paired & ~np.isfinite(energies).all(axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        what = "energies or basis" if paired[k] else "Hamiltonian"
        raise NumericalError(
            f"the sample of stream {streams[k].stream_id} has a non-finite {what}")


def _left(m, ud):
    # (ud x I) m for a stack of (d, d) matrices m, whose rows are A-major:
    # one left product with the (d_A, d_B d) view of each.
    return (ud @ m.reshape(m.shape[:-2] + (ud.shape[-1], -1))).reshape(m.shape)


def _each_kind(paired, mats, u, pair_op, dense_op):
    # pair_op(V, u) on the bases of the pairs and dense_op(H, u) on the
    # dense samples, each kind as one stack
    if paired.all():
        return pair_op(mats, u)
    if not paired.any():
        return dense_op(mats, u)
    out = np.empty_like(mats)
    for kind, op in ((paired, pair_op), (~paired, dense_op)):
        out[kind] = op(mats[kind], u[kind])
    return out


def _single_run(sampler, d_A, d_B, times, streams, initial_state, scramble, scale):
    # One block of consecutive samples.  Each sample reads its own stream,
    # in the order H (the sampler's read), scramble unitary, psi_A, psi_B;
    # everything built from those draws then runs once on the block's
    # stacks.  A sample is a dense H or its eigendecomposition (energies,
    # basis V).  The scramble u turns H into u H u^dag, or V into u V.  With
    # a random product state, the sample is rotated into the frame of the
    # completion unitary U_A of psi_A (H into (U_A^dag x I) H (U_A x I), by
    # two left products with U_A^dag, V into (U_A^dag x I) V) and evolved
    # from e1 x psi_B, which gives U_A^dag rho_A U_A directly.  The dense
    # samples are diagonalised by one eigh, then one spectral step evolves
    # the block.  Returns the (B, n) real samples (rho_A as real and
    # imaginary parts, then the purities) and the draw and evolve seconds.
    start = time.thread_time()
    d = d_A * d_B
    n = len(streams)
    haar = initial_state == "haar"
    rows = np.empty((n, sampler.width))
    # per sample: the scramble's 2 d^2 normals, then 2 d_A for psi_A and
    # 2 d_B for psi_B
    normals = np.empty((n, 2 * d * d * scramble + 2 * (d_A + d_B) * haar))
    reads = []
    for k, gen in enumerate(_restarted(streams)):
        reads.append(sampler.read(gen, rows[k]))
        gen.standard_normal(out=normals[k])
    energies, mats, paired = sampler.finish(rows, reads)
    _check_finite(energies, mats, paired, streams)
    if scramble:
        u = _haar_unitaries(normals[:, : 2 * d * d], d)
        mats = _each_kind(paired, mats, u, lambda v, u: u @ v,
                          lambda h, u: u @ h @ u.conj().swapaxes(-1, -2))
        normals = normals[:, 2 * d * d :]
    psi0 = np.zeros((n, d), dtype=complex)
    if haar:
        u_a = completion_unitary(_haar_states(normals[:, : 2 * d_A], d_A))
        ud = u_a.conj().swapaxes(-1, -2)
        psi0[:, :d_B] = _haar_states(normals[:, 2 * d_A :], d_B)
        # K = (U^dag x I) H, then (U^dag x I) K^dag, the rotated H as H is
        # Hermitian
        mats = _each_kind(paired, mats, ud, _left, lambda h, ud: _left(
            np.conjugate(_left(h, ud).swapaxes(-1, -2), order="C"), ud))
    else:
        psi0[:, 0] = 1.0
    drawn = time.thread_time()
    if not paired.any():
        energies, mats = np.linalg.eigh(mats)
    elif not paired.all():
        energies[~paired], mats[~paired] = np.linalg.eigh(mats[~paired])
    rho = partial_trace(_spectral_step(energies, mats, psi0, scale * times.ravel()), d_A, d_B)
    x = np.concatenate((rho.reshape(n, -1).view(float), purity(rho)), axis=1)
    return x, drawn - start, time.thread_time() - drawn


def _run_blocks(job, n_samples, rng, stream_offset=0, threads=1, step=None, consume=None):
    # Sample i draws from the stream (rng.master_seed, stream_offset + i).
    # ``job`` takes the streams of ``step`` consecutive samples (default: one
    # block per worker); up to ``threads`` workers take whole blocks under one
    # OpenBLAS thread.  Returns ``consume`` of the lazy, block-ordered results
    # (default: the per-block lists joined).
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if rng.stream_id:
        raise ValueError(f"rng.stream_id is {rng.stream_id}, but sample i draws from stream"
                         " stream_offset + i: pass stream_offset instead")
    step = step or -(-n_samples // threads)
    streams = [RngStream(rng.master_seed, stream_offset + i) for i in range(n_samples)]
    blocks = [streams[i : i + step] for i in range(0, n_samples, step)]
    consume = consume or (lambda results: [x for result in results for x in result])
    workers = min(threads, len(blocks))
    with _one_blas_thread:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return consume(pool.map(job, blocks))
        return consume(map(job, blocks))


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

    ``sampler(gen)`` draws one sample with the numpy Generator ``gen`` and
    returns either a (d, d) Hermitian array H or a tuple ``(energies,
    basis)``: d real energies and a (d, d) unitary whose columns are the
    matching eigenvectors, H = basis diag(energies) basis^dag.  A dense H is
    diagonalised here; a pair is used as it is, which saves that ``eigh``
    where the sampler knows the eigendecomposition.  Sample i uses the
    stream ``(rng.master_seed, stream_offset + i)``, and ``rng.stream_id``
    must be 0.  With the default random product initial state, rho_A is
    reported in the rotated basis whose first vector is the sampled |1_A>,
    matching the analytic coefficient decomposition; ``initial_state="e1"``
    keeps the computational basis.
    ``threads`` must be >= 1; each worker thread takes whole blocks of
    consecutive samples, and OpenBLAS runs one thread throughout.  A sample
    with a non-finite H, energy or basis raises NumericalError.
    """
    if initial_state not in ("haar", "e1"):
        raise ValueError(f"unknown initial_state: {initial_state!r}")
    if not isinstance(sampler, _BlockSampler):
        sampler = _plain_sampler(sampler, d_A * d_B)
    times = np.asarray(times, dtype=float)
    step = max(1, _BLOCK_ENTRIES // (d_A * d_B * times.size))

    def job(block):
        return _single_run(
            sampler, d_A, d_B, times, block, initial_state, scramble, energy_scale
        )

    return _run_blocks(job, n_samples, rng, stream_offset, threads, step,
                       lambda blocks: _reduce(times, blocks, n_samples, energy_scale, d_A))


def _reduce(times, blocks, n_samples, energy_scale, d_A) -> MCResult:
    # Per real component of the samples: the sum, and the sums of the
    # deviations from the first sample and of their squares.  This shifted
    # form of the sample variance gives exactly 0 for a spread that is
    # exactly 0, where sum x^2 - n mean^2 leaves roundoff.  np.add.reduce
    # over the sample axis, seeded with the running sums, adds strictly in
    # sample order, because that axis is never the innermost (a sample has
    # at least 3 components); so the bytes depend neither on the block
    # length nor on the thread count.
    s = s1 = s2 = first = None
    stages = {"draw": 0.0, "evolve": 0.0, "reduce": 0.0}
    for x, draw_s, evolve_s in blocks:  # block order
        start = time.thread_time()
        if first is None:
            first = x[0].copy()
            s = s1 = s2 = np.zeros(x.shape[1])
        buf = np.empty((len(x) + 1, x.shape[1]))
        buf[0], buf[1:] = s, x
        s = np.add.reduce(buf, axis=0)
        dev = np.subtract(x, first, out=buf[1:])
        buf[0] = s1
        s1 = np.add.reduce(buf, axis=0)
        np.multiply(dev, dev, out=dev)
        buf[0] = s2
        s2 = np.add.reduce(buf, axis=0)
        stages["draw"] += draw_s
        stages["evolve"] += evolve_s
        stages["reduce"] += time.thread_time() - start
    n = n_samples
    m = 2 * times.size * d_A * d_A  # real components of the rho stack
    # squared moduli of the complex rho entries: real part plus imaginary part
    sq1 = np.concatenate(((s1[:m] ** 2).reshape(-1, 2).sum(axis=1), s1[m:] ** 2))
    sq2 = np.concatenate((s2[:m].reshape(-1, 2).sum(axis=1), s2[m:]))
    stderr = np.sqrt(np.maximum(sq2 - sq1 / n, 0.0) / max(n - 1, 1) / n)
    k = m // 2
    shape = (times.size, d_A, d_A)
    return MCResult(
        times,
        s[:m].view(complex).reshape(shape) / n,
        stderr[:k].reshape(shape),
        s[m:] / n,
        stderr[k:],
        n,
        energy_scale,
        stages,
    )


@dataclass
class GapStats:
    """Pooled nearest-neighbour spacing statistics of a set of spectra."""

    gaps: np.ndarray  # mean-gap-normalized spacings, sorted ascending
    ratios: np.ndarray  # r_j = min(s_j, s_{j+1}) / max(s_j, s_{j+1}), by sequence
    ratio_counts: np.ndarray  # number of ratios of each sequence, in order
    n_skipped: int = 0

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean())

    @property
    def mean_ratio_stderr(self) -> float:
        """Standard error of :attr:`mean_ratio` from the spread of the
        per-sequence mean ratios, each weighted by its ratio count.

        Neighbouring ratios of one sequence share a spacing, so they are not
        independent; the sequences are.  With K sequences of means m_k and
        weights w_k = n_k / n this is sqrt(K / (K - 1) sum_k w_k^2
        (m_k - mean_ratio)^2).  A single sequence has no spread to read, and
        falls back to std(ratios) / sqrt(n), which treats its ratios as
        independent and so reads low.
        """
        counts = self.ratio_counts
        if counts.size == 1:
            n = self.ratios.size
            return float(self.ratios.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        k = counts.size
        starts = np.cumsum(counts) - counts
        means = np.add.reduceat(self.ratios, starts) / counts
        weights = counts / counts.sum()
        dev = weights * (means - self.mean_ratio)
        return float(np.sqrt(k / (k - 1) * np.dot(dev, dev)))


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
        np.array([r.size for r in pooled_ratios]),
        skipped,
    )
