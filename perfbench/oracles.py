"""Reference values that share no code path with the package.

* ``f_matrix_mp``: the F(t) matrix from a generalized-Laguerre three-term
  recurrence run in mpmath at ``DPS`` decimal digits (``mp.laguerre`` itself
  fails to converge at d = 150).
* ``GueMoments``: mixed moments E[prod_k iota(c_k t)] of the Gaussian
  unitary eigenvalue gas, from Soshnikov's cumulant formula for a
  determinantal projection process (ordered set partitions, traces of
  products of F matrices) and the moment-cumulant relation.  The package
  instead expands distinct-index correlators over permutations.
* ``poisson_moment``: the same moments for i.i.d. exponential energies of
  scale sqrt(d+1), from the characteristic function 1/(1 - i b s), in
  mpmath.
* ``chi4`` / ``xi4``: the published d = 4 closed-form polynomials.

Curve values follow the definitions chi = |iota(t)|^2 and
xi = |iota(t)^2 + iota(2t)|^2 - 4 |iota(t)|^2.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 50

_PHASE = (1.0, 1.0j, -1.0, -1.0j)


def f_matrix_mp(d: int, t: float) -> np.ndarray:
    """F(t) with the Laguerre recurrence run at DPS digits.

    F[lo, lo+k] = (it)^k sqrt(e^{-x} x^k lo!/(lo+k)! / x^k ...) written as
    i^k sign(t)^k sqrt(s) L^(k)_lo(x) with x = t^2 and
    s = e^{-x} x^k lo!/(lo+k)!.  Only the recurrence cancels; s is a product
    of positive factors, so each entry is exact to one rounding.
    """
    with mp.workdps(DPS):
        x = mp.mpf(t) ** 2
        out = np.zeros((d, d), dtype=complex)
        s_k = mp.exp(-x)  # s at lo = 0
        for k in range(d):
            if k:
                s_k = s_k * x / k
            phase = _PHASE[k % 4] * (-1 if t < 0 and k % 2 else 1)
            lag_prev, lag = mp.mpf(0), mp.mpf(1)  # L_{-1}, L_0
            s = s_k
            for lo in range(d - k):
                if lo:
                    lag_prev, lag = lag, (
                        (2 * lo - 1 + k - x) * lag - (lo - 1 + k) * lag_prev
                    ) / lo
                    s = s * lo / (lo + k)
                value = float(lag) * math.sqrt(float(s)) * phase
                out[lo, lo + k] = value
                out[lo + k, lo] = value
        return out


class GueMoments:
    """Mixed moments of iota(c t) for the d-dimensional GUE at one time t."""

    def __init__(self, d: int, t: float):
        self.d = d
        self.t = t
        self._f = {}
        self._traces = {}

    def _fmat(self, s: int) -> np.ndarray:
        if s == 0:
            return np.eye(self.d, dtype=complex)
        if s < 0:
            return self._fmat(-s).conj()  # F(-t) = conj F(t)
        if s not in self._f:
            self._f[s] = f_matrix_mp(self.d, s * self.t)
        return self._f[s]

    def _trace(self, sums: tuple[int, ...]) -> complex:
        if sums not in self._traces:
            prod = self._fmat(sums[0])
            for s in sums[1:]:
                prod = prod @ self._fmat(s)
            self._traces[sums] = complex(np.trace(prod))
        return self._traces[sums]

    def cumulant(self, coeffs: tuple[int, ...]) -> complex:
        total = 0j
        for blocks in _ordered_partitions(len(coeffs)):
            m = len(blocks)
            sums = tuple(sum(coeffs[i] for i in b) for b in blocks)
            total += (-1) ** (m - 1) / m * self._trace(sums)
        return total

    def moment(self, coeffs: tuple[int, ...]) -> complex:
        total = 0j
        for blocks in _set_partitions(len(coeffs)):
            term = 1 + 0j
            for b in blocks:
                term *= self.cumulant(tuple(coeffs[i] for i in b))
            total += term
        return total


def poisson_moment(d: int, t: float, coeffs: tuple[int, ...]) -> complex:
    """E[prod_k iota(c_k t)] for d i.i.d. Exp(scale sqrt(d+1)) energies."""
    with mp.workdps(DPS):
        b = mp.sqrt(d + 1)
        total = mp.mpc(0)
        for blocks in _set_partitions(len(coeffs)):
            # Each block is one distinct level: falling factorial of d.
            term = mp.mpf(math.perm(d, len(blocks)))
            for blk in blocks:
                s = sum(coeffs[i] for i in blk)
                term *= 1 / (1 - 1j * b * s * mp.mpf(t))
            total += term
        return complex(total)


def _chi(moment) -> float:
    return moment((1, -1)).real


def _xi(moment) -> float:
    value = (
        moment((1, 1, -1, -1))
        + moment((1, 1, -2))
        + moment((2, -1, -1))
        + moment((2, -2))
        - 4 * moment((1, -1))
    )
    return value.real


def chi_gue(d: int, t: float) -> float:
    return _chi(GueMoments(d, t).moment)


def xi_gue(d: int, t: float) -> float:
    return _xi(GueMoments(d, t).moment)


def chi_poisson(d: int, t: float) -> float:
    return _chi(lambda c: poisson_moment(d, t, c))


def xi_poisson(d: int, t: float) -> float:
    return _xi(lambda c: poisson_moment(d, t, c))


def rho_coeffs(d_a: int, d_b: int, chi: float) -> tuple[float, float]:
    """(p1, pmix) of the averaged state from <chi>, as in the paper."""
    d2 = (d_a * d_b) ** 2
    return (chi - 1) / (d2 - 1), (d2 - chi) / (d2 - 1)


def purity(d_a: int, d_b: int, xi: float) -> float:
    """Averaged purity from <xi>, as in the paper."""
    d = d_a * d_b
    frac = (d_a + d_b) / (d + 1)
    return xi / (d * d * (d - 1) * (d + 3)) * (1 - frac) + frac


def chi4(t: float) -> float:
    x = t * t
    poly = 12 - 48 * x + 46 * x**2 - 64 / 3 * x**3 + 25 / 6 * x**4 - x**5 / 3
    return poly * math.exp(-x) + 4


def xi4(t: float) -> float:
    x = t * t
    return (
        24
        + (144 - 576 * x + 552 * x**2 - 256 * x**3 + 50 * x**4 - 4 * x**5)
        * math.exp(-x)
        + (24 - 192 * x + 448 * x**2 - 1024 / 3 * x**3 + 256 / 3 * x**4)
        * math.exp(-2 * x)
        + (96 - 1152 * x + 3312 * x**2 - 3328 * x**3 + 1548 * x**4 - 216 * x**5)
        * math.exp(-3 * x)
        + (
            48 - 768 * x + 2944 * x**2 - 16384 / 3 * x**3 + 12800 / 3 * x**4
            - 4096 / 3 * x**5
        )
        * math.exp(-4 * x)
    )


@lru_cache(maxsize=None)
def _set_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for part in _set_partitions(n - 1):
        for i in range(len(part)):
            out.append(part[:i] + (part[i] + (n - 1,),) + part[i + 1:])
        out.append(part + ((n - 1,),))
    return tuple(out)


@lru_cache(maxsize=None)
def _ordered_partitions(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    out = []
    for part in _set_partitions(n):
        out.extend(itertools.permutations(part))
    return tuple(out)

