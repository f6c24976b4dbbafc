"""Eigenvalue-ensemble averages: the F(t) matrix and n-point correlators.

The Gaussian unitary eigenvalue gas has determinantal correlations built
from the Hermite kernel.  Fourier transforming the kernel yields a d x d
symmetric matrix function

    F_{mu,nu}(t) = e^{-t^2/2} sqrt(mu! nu!)
                   sum_a (it)^{mu+nu-2a} / (a! (mu-a)! (nu-a)!),

whose traces of products evaluate every exponential n-point correlator.
In terms of generalized Laguerre polynomials,

    F_{mu,nu}(t) = e^{-t^2/2} sqrt(min!/max!) (it)^{|mu-nu|}
                   L^{(|mu-nu|)}_{min}(t^2),

but no Laguerre value is formed: along each diagonal k = |mu-nu| the
normalised entries obey one three-term recurrence, started from F_{0,k} and
run for all k and all times of a chunk at once (see _h_stack).  A column
whose start lies below 2^-900 carries its own power-of-two scale, so every
entry is computed in range for any d and any t with a finite t^2; nothing
is flushed to zero.

All computation uses the real symmetric stack H = (-1)^{min(mu,nu)} G,
where F = i^{|mu-nu|} G entrywise.  With E = diag(i^mu), F(t) = E H E and
F(-t) = E^-1 H E^-1, so in a loop trace neighbouring E's cancel when the
signs differ and leave S = diag((-1)^mu) when they agree, and Tr F =
Tr(S H).  Only :func:`f_matrix` forms the complex F.

The averaged curves follow the paper's split into a radial and an angular
part.  The radial part averages products of phase sums
iota(m t) = sum_n e^{i E_n m t}: chi = iota(t) iota(-t) and
xi = |iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2 are written as weighted phase
monomials, and one rule (see _phase_average) averages any such sum for
either level statistics, through sums over distinct levels that are
n-point correlators for GUE and products of exponential characteristic
functions for POISSON.  The angular part maps <chi> and <xi> to the
averaged state and purity with the maps of guedyn.haar.

The time grid is the unit of work: each averaged quantity is one function
of (statistics, dimensions, times) returning an array over the grid, and
the recurrence runs once per grid chunk, batched over t.  The
one-point functions are thin wrappers over these curves that also accept
an array of times.
Every public return is checked to be finite.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from . import haar
from .errors import NumericalError
from .symgroup import Permutation

__all__ = [
    "STATISTICS",
    "f_matrix",
    "trace_f",
    "correlator",
    "chi_curve",
    "xi_curve",
    "rho_curve",
    "purity_curve",
    "chi_mean",
    "xi_mean",
    "rho_mean_coeffs",
    "purity_mean",
    "purity_limit",
    "chi_poisson",
    "xi_poisson",
    "rho_poisson_coeffs",
    "purity_poisson",
    "bessel_limit",
    "find_extrema",
]

# Level statistics of the averaged curves: the Gaussian unitary eigenvalue
# gas, or uncorrelated (exponential-gap) energies.
STATISTICS = ("GUE", "POISSON")

# The time grid is processed in chunks of _CHUNK_BYTES / (16 d^2) times, so
# each real (chunk, d, d) block of H stacks stays under half of it.  Only one
# chunk's stacks, and the loop products built from them, are alive at a time,
# so a curve's memory does not grow with its grid.
_CHUNK_BYTES = 8 * 2**20

# The scale step of _h_stack.  A recurrence step multiplies a value by at most
# about t^2 + 3d, so values stay finite while (t^2 + 3d) _BIG < 2^1024; past
# that (|t| > 2^61) every column starts at the exponent cap, as zero.
_BIG_BITS = 900
_BIG = 2.0**_BIG_BITS
_LOG_BIG = _BIG_BITS * math.log(2.0)


@lru_cache(maxsize=64)
def _tables(d: int):
    """The diagonal (-1)^mu of S, root[n, k] = sqrt(n (n + k)) for the
    recurrence of _h_stack, and half_log_fact[k] = log(k!) / 2 for its start;
    read-only.  log k! is the log of the exact integer k!, within an ulp."""
    mu = np.arange(d)
    parity = 1.0 - 2.0 * (mu % 2)
    root = np.sqrt(mu[:, None] * (mu[:, None] + mu))
    factorials = itertools.accumulate(range(1, d), operator.mul, initial=1)
    half_log_fact = 0.5 * np.array([math.log(f) for f in factorials])
    for table in (parity, root, half_log_fact):
        table.setflags(write=False)
    return parity, root, half_log_fact


def _finite(values, what: str):
    if not np.isfinite(values).all():
        raise NumericalError(f"non-finite {what}")
    return values


def _grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a one-dimensional grid")
    return times


def _chunks(d: int, n_times: int):
    step = max(1, _CHUNK_BYTES // (16 * d * d))
    for start in range(0, n_times, step):
        yield slice(start, start + step)


def _check_statistics(statistics: str) -> None:
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")


def _h_stack(d: int, times: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """Real symmetric (T, d, d) stack H with F(t) = E H(t) E, written into
    the first T matrices of buf when one is given.

    Along each diagonal k, h_n = H[n, n+k] obeys, with x = t^2,

        sqrt((n+1)(n+1+k)) h_{n+1} = (x - 2n - 1 - k) h_n - sqrt(n(n+k)) h_{n-1},
        h_0 = e^{-x/2} t^k / sqrt(k!),

    run for every (t, k) column at once.  A column whose h_0 is below 1/_BIG
    runs as v = h 2^-e: e starts at the negative multiple of _BIG_BITS that
    puts v_0 in (1/_BIG, 1], and whenever |v| passes _BIG both recurrence
    values are divided by _BIG and e takes the factor (from |t| of about 50).
    |H| <= 1 (F is a block of a unitary), so columns with e = 0 cannot
    overflow: a chunk in which every column starts with e = 0 skips the
    check.  Scaling depends only on a column's own values, so H is the same
    for any chunk.
    """
    parity, root, half_log_fact = _tables(d)
    t = times[:, None]
    x = t * t
    k = np.arange(d, dtype=float)
    # lg = log |h_0| = k log|t| - x/2 - log(k!)/2 with 0 log 0 = 0: at t = 0
    # it is 0 at k = 0 and -inf after, and no log of zero is taken
    abs_t = np.abs(t)
    log_t = np.log(abs_t, out=np.full_like(t, -np.inf), where=abs_t > 0)
    lg = np.empty((times.size, d))
    lg[:, :1] = 0.0
    np.multiply(log_t, k[1:], out=lg[:, 1:])
    lg -= 0.5 * x
    lg -= half_log_fact
    # lg = -inf (t = 0 < k) needs no scale; a column past the cap starts as
    # zero, and no feasible d lets it grow back from h_0 < 2^-1.9e12
    m = np.floor(-lg / _LOG_BIG)
    m[~(m < np.inf)] = 0.0  # lg = -inf, or NaN from a NaN time
    m = np.minimum(m, 2.0**31)
    h = np.exp(lg + m * _LOG_BIG)
    np.multiply(h, parity, out=h, where=t < 0)  # sign(t)^k
    e = (-_BIG_BITS * m).astype(np.int64)
    scaled = e.any()
    out = np.empty((times.size, d, d)) if buf is None else buf[:times.size]
    for n in range(d):
        row = np.ldexp(h, e[:, : d - n]) if scaled else h
        out[:, n, n:] = row
        out[:, n + 1:, n] = row[:, 1:]
        w = d - n - 1
        if not w:
            break
        new = x - (2 * n + 1 + k[:w])
        new *= h[:, :w]
        if n:
            new -= root[n, :w] * prev[:, :w]
        new /= root[n + 1, :w]
        prev, h = h, new
        if scaled:
            big = np.abs(new) > _BIG
            if big.any():
                new[big] /= _BIG
                prev[:, :w][big] /= _BIG
                e[:, :w][big] += _BIG_BITS
    return out


def _trace_s(h: np.ndarray) -> np.ndarray:
    """Tr(S H) over a stack: the real trace of F."""
    return (h.diagonal(0, 1, 2) * _tables(h.shape[-1])[0]).sum(-1)


def f_matrix(d: int, t: float) -> np.ndarray:
    """The d x d matrix F(t).  Symmetric; F(0) = identity.

    Entries with mu+nu even are real, odd entries purely imaginary, and
    F(-t) is the entrywise complex conjugate.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    e = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(d) % 4]
    f = e[:, None] * e * _h_stack(d, _grid([t]))[0]
    return _finite(f, f"F({t}) at d={d}")


def trace_f(d: int, t: float) -> float:
    """Tr F(t) = Tr(S H(t)) = e^{-t^2/2} L^(1)_{d-1}(t^2)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    tr = _trace_s(_h_stack(d, _grid([t])))
    return _finite(float(tr[0]), f"Tr F({t}) at d={d}")


def _canonical_loop(cs: tuple[int, ...]) -> tuple[tuple[int, bool], ...]:
    # Traces of loops of symmetric matrices are invariant under rotation
    # and reversal: take the lexicographic minimum.  In the real form (see
    # _loop_traces) the product around it depends only on each |c| and on
    # whether neighbouring signs match, so the memo key is that factor
    # sequence, rotated to start at the first largest |c|.  Loops that give
    # the same sequence, such as c and -c, share one trace.
    best = min(seq[r:] + seq[:r] for seq in (cs, cs[::-1]) for r in range(len(cs)))
    n = len(best)
    factors = [(abs(c), (c > 0) == (best[(j + 1) % n] > 0)) for j, c in enumerate(best)]
    start = max(range(n), key=lambda j: factors[j][0])
    return tuple(factors[start:] + factors[:start])


@lru_cache(maxsize=64)
def _expansion(coeffs: tuple[int, ...]) -> tuple[tuple[float, tuple], ...]:
    """Permutation expansion of a correlator: (sign, loop keys) per element of S_n."""
    n = len(coeffs)
    terms = []
    for perm in Permutation.all_elements(n):
        cycles = perm.cycles()
        sign = -1.0 if (n - len(cycles)) % 2 else 1.0
        loops = tuple(_canonical_loop(tuple(coeffs[j - 1] for j in cyc)) for cyc in cycles)
        terms.append((sign, loops))
    return tuple(terms)


def _loop_traces(keys, stacks, d: int) -> dict:
    """Traces over the chunk of the ordered products F(c_1 t) F(c_2 t) ...

    Each key is a loop's factor sequence from :func:`_canonical_loop`:
    factor j, (|c_j|, same), is H(|c_j| t), times S on the right when
    c_{j+1} (cyclically) has the same sign; one factor gives Tr(S H).  A
    longer loop is split after n // 2 factors, so <xi> needs only the runs
    H S H and H H at t.  Each run's product is formed left to right by
    batched real matmul and kept for reuse within the chunk, and
    Tr(A B) = sum_ij A_ij B_ji.
    """
    parity = _tables(d)[0]
    products = {}
    traces = {}
    for key in keys:
        n = len(key)
        if n == 1:
            traces[key] = _trace_s(stacks[key[0][0]])
            continue
        runs = key[: n // 2], key[n // 2:]
        for run in runs:
            for i in range(1, len(run) + 1):
                if run[:i] not in products:
                    c, same = run[i - 1]
                    f = stacks[c] * parity if same else stacks[c]
                    products[run[:i]] = f if i == 1 else products[run[:i - 1]] @ f
        traces[key] = np.einsum("tij,tji->t", *(products[run] for run in runs))
    return traces


def _correlators(coeff_sets, d: int, times: np.ndarray) -> list[np.ndarray]:
    """Prefactored correlators (see :func:`correlator`) over a time grid.

    Each coefficient tuple's permutation expansion is formed once; every
    chunk builds H(|c| t) once per distinct |c|, in the same buffer for
    every chunk, and shares loop traces between the tuples.
    """
    expansions = [_expansion(coeffs) for coeffs in coeff_sets]
    keys = {key for terms in expansions for _, loops in terms for key in loops}
    scales = {c for key in keys for c, _ in key}
    out = [np.empty(times.size) for _ in coeff_sets]
    stacks = {}
    for sl in _chunks(d, times.size):
        # each chunk writes its H into the last chunk's stacks, so one set is
        # alive at a time and its pages are not freed and faulted in again
        stacks = {s: _h_stack(d, s * times[sl], stacks.get(s)) for s in scales}
        traces = _loop_traces(keys, stacks, d)
        for total, terms in zip(out, expansions):
            acc = 0.0
            for sign, loops in terms:
                term = traces[loops[0]]
                for key in loops[1:]:
                    term = term * traces[key]
                acc = acc + term if sign > 0 else acc - term
            total[sl] = acc
    return out


def correlator(coeffs, d: int, t: float) -> float:
    """Prefactored n-point exponential correlator of the eigenvalue gas:

        (d!/(d-n)!) * < prod_j exp(i c_j E_j t) >.

    Expanded over permutations of S_n; each cycle contributes the trace of
    the ordered product of F(c t) factors around it.  At t = 0 this equals
    d!/(d-n)! exactly.
    """
    coeffs = tuple(int(c) for c in coeffs)
    n = len(coeffs)
    if n < 1 or any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero integers")
    if n > d:
        raise ValueError(f"need n <= d, got n={n}, d={d}")
    (value,) = _correlators([coeffs], d, _grid([t]))
    return float(_finite(value, f"correlator {coeffs} at d={d}, t={t}")[0])


# chi = iota(t) iota(-t) and xi = |iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2
# as weighted phase monomials: (w, (m_1, ..., m_r)) is w prod_j iota(m_j t).
_CHI = ((1, (1, -1)),)
_XI = ((1, (1, 1, -1, -1)), (1, (1, 1, -2)), (1, (2, -1, -1)), (1, (2, -2)), (-4, (1, -1)))


@lru_cache(maxsize=64)
def _distinct_terms(monomials, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The monomials' sum as (key, weight) pairs of distinct-level sums.

    prod_j iota(m_j t) sums prod_j e^{i m_j E_{n_j} t} over index tuples;
    the positions that share a level form a set partition, and each block B
    is one level carrying c_B = sum_{j in B} m_j, distinct from the others.
    A block with c_B = 0 only takes up a level, so z of them after k nonzero
    ones count perm(d - k, z) ways.  The key is the sorted nonzero c_B, and
    its sum over distinct levels is the prefactored correlator of the key
    (1 for the empty key).  The set partitions of the positions are the
    cycle sets of their permutations, taken once each in first-seen order.
    """
    weights = {}
    for weight, multiples in monomials:
        perms = Permutation.all_elements(len(multiples))
        for blocks in dict.fromkeys(frozenset(map(frozenset, p.cycles())) for p in perms):
            sums = [sum(multiples[j - 1] for j in block) for block in blocks]
            key = tuple(sorted(c for c in sums if c))
            count = math.perm(d - len(key), len(sums) - len(key))
            weights[key] = weights.get(key, 0) + weight * count
    return tuple((key, weight) for key, weight in weights.items() if weight)


def _phase_average(statistics: str, monomials, d: int, times: np.ndarray) -> np.ndarray:
    """Ensemble average of the weighted phase monomials over a time grid.

    Each key of :func:`_distinct_terms` is, for GUE, its correlator from
    :func:`_correlators`.  For POISSON the levels are i.i.d. exponential
    with mean theta = sqrt(d+1), as ``models.build_model`` draws them, so a
    key of k blocks is perm(d, k) prod_B phi(c_B t) with
    phi(s) = <e^{isE}> = 1/(1 - i theta s); the monomials' sum is real, so
    only the real parts are kept.
    """
    terms = _distinct_terms(monomials, d)
    keys = [key for key, _ in terms if key]
    if statistics == "GUE":
        values = _correlators(keys, d, times)
    else:
        theta = math.sqrt(d + 1)
        phi = {c: 1 / (1 - 1j * theta * c * times) for c in {c for key in keys for c in key}}
        values = [math.perm(d, len(key)) * math.prod(phi[c] for c in key).real for key in keys]
    value = dict(zip(keys, values))
    out = np.zeros(times.size)
    for key, weight in terms:
        out += value[key] * weight if key else weight
    return out


def chi_curve(statistics: str, d: int, times) -> np.ndarray:
    """Ensemble average of chi(t) = |iota(t)|^2 = iota(t) iota(-t) over a
    time grid: d + <sum over distinct levels of e^{i(E1-E2)t}>.

    GUE levels form the Gaussian unitary eigenvalue gas; POISSON levels are
    uncorrelated, with the gap scale matched to the Gaussian ensemble second
    moment, which gives d + d(d-1) / ((d+1) t^2 + 1).
    """
    _check_statistics(statistics)
    if d < 2:
        raise ValueError("d must be >= 2")
    return _finite(_phase_average(statistics, _CHI, d, _grid(times)), f"<chi> at d={d}")


def xi_curve(statistics: str, d: int, times) -> np.ndarray:
    """Ensemble average of the purity phase sum
    xi(t) = |iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2 over a time grid.

    Its distinct-level expansion holds the two-point correlators at t and
    2t, both three-point correlators, the four-point correlator and the
    constant 2d(d-1), the late-time value.  At t = 0 it is d^2 (d-1)(d+3).
    """
    _check_statistics(statistics)
    if d < 4:
        raise ValueError("d must be >= 4 (four-point correlator)")
    return _finite(_phase_average(statistics, _XI, d, _grid(times)), f"<xi> at d={d}")


def rho_curve(statistics: str, d_A: int, d_B: int, times) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the fully averaged density matrix over a time grid:

        <<rho_A>> = p1 |1_A><1_A| + pmix 1_A/d_A,
        p1 = (<chi> - 1)/(d^2 - 1),  pmix = (d^2 - <chi>)/(d^2 - 1).
    """
    d = d_A * d_B
    if d < 2:
        raise ValueError("d_A * d_B must be >= 2")
    return haar._rho_map(d, chi_curve(statistics, d, times))


def purity_curve(statistics: str, d_A: int, d_B: int, times) -> np.ndarray:
    """Fully averaged subsystem purity <<gamma(t)>> over a time grid.

    A trivial subsystem or bath stays exactly pure; otherwise the purity
    arbiter <xi>/(d^2(d-1)(d+3)) interpolates between 1 and the late-time
    constant.
    """
    _check_statistics(statistics)
    if d_A < 1 or d_B < 1:
        raise ValueError("dimensions must be >= 1")
    times = _grid(times)
    if d_A == 1 or d_B == 1:
        return np.ones(times.size)
    return haar._purity_map(d_A, d_B, xi_curve(statistics, d_A * d_B, times))


def _at(curve, t, *args):
    """curve(*args, times) at t: a float (a tuple of floats for rho) for one
    time, the curve's arrays unchanged for a 1-d array of times."""
    if np.ndim(t) != 0:
        return curve(*args, t)
    out = curve(*args, [t])
    if isinstance(out, tuple):
        return tuple(float(v[0]) for v in out)
    return float(out[0])


def chi_mean(d: int, t: float | np.ndarray) -> float | np.ndarray:
    """<chi(t)> for GUE statistics at t (a time or a 1-d array of times);
    see :func:`chi_curve`."""
    return _at(chi_curve, t, "GUE", d)


def xi_mean(d: int, t: float | np.ndarray) -> float | np.ndarray:
    """<xi(t)> for GUE statistics at t; see :func:`xi_curve`."""
    return _at(xi_curve, t, "GUE", d)


def rho_mean_coeffs(d_A: int, d_B: int, t: float | np.ndarray) -> tuple:
    """(p1, pmix) for GUE statistics at t; see :func:`rho_curve`."""
    return _at(rho_curve, t, "GUE", d_A, d_B)


def purity_mean(d_A: int, d_B: int, t: float | np.ndarray) -> float | np.ndarray:
    """Averaged purity for GUE statistics at t; see :func:`purity_curve`."""
    return _at(purity_curve, t, "GUE", d_A, d_B)


def chi_poisson(d: int, t: float | np.ndarray) -> float | np.ndarray:
    """<chi(t)> for Poisson statistics at t; see :func:`chi_curve`."""
    return _at(chi_curve, t, "POISSON", d)


def xi_poisson(d: int, t: float | np.ndarray) -> float | np.ndarray:
    """<xi(t)> for Poisson statistics at t; see :func:`xi_curve`."""
    return _at(xi_curve, t, "POISSON", d)


def rho_poisson_coeffs(d_A: int, d_B: int, t: float | np.ndarray) -> tuple:
    """(p1, pmix) for Poisson statistics at t; see :func:`rho_curve`."""
    return _at(rho_curve, t, "POISSON", d_A, d_B)


def purity_poisson(d_A: int, d_B: int, t: float | np.ndarray) -> float | np.ndarray:
    """Averaged purity for Poisson statistics at t; see :func:`purity_curve`."""
    return _at(purity_curve, t, "POISSON", d_A, d_B)


def purity_limit(d_A: int, d_B: int) -> float:
    """Late-time purity, 2/(d(d+3)) (1 - (dA+dB)/(d+1)) + (dA+dB)/(d+1): the
    purity map at the late-time <xi> = 2d(d-1).

    Exceeds the trace-measure average (dA+dB)/(d+1) by a remnant of the
    initial purity.
    """
    if d_A < 1 or d_B < 1:
        raise ValueError("dimensions must be >= 1")
    if d_A == 1 or d_B == 1:
        return 1.0
    d = d_A * d_B
    return haar._purity_map(d_A, d_B, 2 * d * (d - 1))


def bessel_limit(tau: float, power: int = 2) -> float:
    """Large-dimension scaling limit (J_1(2 tau)/tau)^power, power in {2, 4}.

    With time measured in units of 1/sqrt(d), the averaged density-matrix
    coefficient tends to the power-2 curve and the purity arbiter to the
    power-4 curve.  The tau -> 0 limit is exactly 1.
    """
    if power not in (2, 4):
        raise ValueError("power must be 2 or 4")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return 1.0
    # imported here, so only this function's callers load scipy
    from scipy.special import j1

    return _finite(float((j1(2 * tau) / tau) ** power), f"Bessel limit at tau={tau}")


# The refinement of find_extrema samples _ZOOM_POINTS new times per bracket
# and round, on a grid that keeps the bracket's ends and centre, so a round
# narrows every bracket _ZOOM_POINTS // 2 + 1 times.  A second difference
# f0 - 2 f1 + f2 at or below _ZOOM_NOISE * eps * max(1, max|f|) is taken as
# value noise, not curvature.
_ZOOM_POINTS = 8
_ZOOM_NOISE = 1024


def _scan(fn, ts: np.ndarray, arrays: bool = True) -> tuple[np.ndarray, bool]:
    """fn over ts, checked finite, and whether fn still takes arrays.

    While arrays, fn is called once with all of ts and must map the array to
    the elementwise array; once it raises TypeError or ValueError, or
    returns another shape, it is called once per point.
    """
    if arrays:
        try:
            values = np.asarray(fn(ts), dtype=float)
        except (TypeError, ValueError):
            arrays = False
        else:
            arrays = values.shape == ts.shape
    if not arrays:
        values = np.fromiter(map(fn, ts), float, ts.size)
    return _finite(values, "curve value in find_extrema"), arrays


def _zoom(fn, arrays: bool, centres, signs, triples, step: float, tol: float,
          noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Minima of signs * fn in the brackets centres -/+ step, whose values at
    (centre - step, centre, centre + step) are the rows of triples, refined
    all at once; returns (positions, values of fn) as find_extrema states.
    """
    q = _ZOOM_POINTS // 2 + 1
    cols = np.array([j for j in range(1 - q, q) if j])  # new times, in cells
    t = np.array(centres, dtype=float)  # smallest sample of each bracket
    g = signs[:, None] * triples  # signs * fn at t - s, t, t + s
    vertex = t.copy()
    s, idx = step, np.arange(t.size)
    while True:
        curvature = (g[idx, 0] - g[idx, 1]) + (g[idx, 2] - g[idx, 1])
        resolved = curvature > noise
        idx, curvature = idx[resolved], curvature[resolved]
        vertex[idx] = t[idx] + s * (g[idx, 0] - g[idx, 2]) / (2.0 * curvature)
        if not idx.size or 2.0 * s < tol:
            break
        s /= q
        values, arrays = _scan(fn, (t[idx, None] + s * cols).ravel(), arrays)
        grid = np.empty((idx.size, 2 * q + 1))
        grid[:, [0, q, 2 * q]] = g[idx]
        grid[:, cols + q] = signs[idx, None] * values.reshape(idx.size, cols.size)
        k = 1 + np.argmin(grid[:, 1:-1], axis=1)  # interior, so its triple is in grid
        t[idx] += (k - q) * s
        g[idx] = grid[np.arange(idx.size)[:, None], k[:, None] + np.arange(-1, 2)]

    at_vertex = signs * _scan(fn, vertex, arrays)[0]
    keep = at_vertex <= g[:, 1]
    return np.where(keep, vertex, t), signs * np.where(keep, at_vertex, g[:, 1])


def find_extrema(fn, t_max: float, step: float = 1e-3, tol: float = 1e-8):
    """Interior extrema of a smooth curve on (0, t_max].

    Dense sampling on the grid 0, step, ... locates slope sign changes; the
    boundary maximum at t = 0 is excluded.  Every bracketed extremum is then
    refined at once, on the values (of -fn for maxima).  Each round samples
    8 new times in every open bracket, on the uniform grid that keeps the
    bracket's ends and centre, and keeps the two cells around the smallest
    value, so the bracket narrows 5 times.  A bracket closes when the three
    samples around its smallest value no longer resolve curvature,
    f0 - 2 f1 + f2 <= 1024 eps max(1, max |fn|) with the max over the dense
    grid, or when it is narrower than tol.  Its position is the vertex of
    the parabola through the last triple that did resolve curvature (the
    smallest sample if none did), evaluated once and kept only if its value
    is no worse than the smallest sample.  Returns [(t, value), ...].

    fn is called once per pass with all of the pass's times, a 1-d float
    array, so it must either act elementwise on an array (as the one-point
    functions of this module do) or raise TypeError or ValueError.  The
    passes are the dense grid, one per refinement round (8 times for each
    open bracket) and one for the vertices, so fn is called at most R + 2
    times, with R = 1 + floor(log_5(2 step / tol)) rounds (8 at the
    defaults).  If fn raises, or returns anything but one value per time,
    it is called once per time for the rest of the call, refinement
    included.

    With delta the absolute error of fn's values and s the cell width of
    the last resolving triple, the position is resolved to about
    (delta / s + |f'''| s^2) / |f''|, far below the value-only limit
    sqrt(2 delta / |f''|) of a search that compares values alone; the
    returned value is accurate to about delta.  For the first minimum of
    <chi> the position is within 3e-9 of the d = 4 closed form (value within
    1e-14) and within 5e-9 of a 30-digit reference at d = 13 and d = 60
    (measured: 2e-11 to 3e-11).

    Raises ValueError unless t_max, step and tol are finite and positive.
    """
    if not all(math.isfinite(v) and v > 0 for v in (t_max, step, tol)):
        raise ValueError("t_max, step and tol must be finite and positive")
    ts = np.arange(0.0, t_max + 0.5 * step, step)
    fs, arrays = _scan(fn, ts)
    diffs = np.diff(fs)
    scale = max(1.0, float(np.max(np.abs(fs))))

    brackets, signs = [], []
    for i in range(len(diffs) - 1):
        if diffs[i] * diffs[i + 1] >= 0:
            continue
        if max(abs(diffs[i]), abs(diffs[i + 1])) < 1e-12 * scale:
            continue  # flat-tail roundoff ripple, not a feature
        brackets.append(i)
        signs.append(1.0 if diffs[i] < 0 else -1.0)  # minimum, or maximum of fn
    if not brackets:
        return []
    at = np.array(brackets)
    triples = fs[at[:, None] + np.arange(3)]
    positions, values = _zoom(fn, arrays, ts[at + 1], np.array(signs), triples,
                              step, tol, _ZOOM_NOISE * np.finfo(float).eps * scale)
    return [(float(t), float(v)) for t, v in zip(positions, values)]
