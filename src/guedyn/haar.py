"""Symbolic Haar averages of reduced-density-matrix trace moments.

The average of a monomial in Haar-unitary matrix entries is a double sum
over permutation pairs,

    sum_{sigma, tau in S_q}  R_sigma * Q_tau * Wg(d, sigma tau^-1),

where ``R_sigma`` contracts the outer (row/column) index pattern and
``Q_tau`` contracts the internal indices that carry the spectral phases.
For the n-th trace moment of the reduced density matrix of an ``A``
subsystem (dimension ``d_A``) coupled to a bath (``d_B``), q = 2n and

* ``R_sigma`` is a monomial ``d_A^a d_B^b``: every symbol occurs once among
  the V indices and once among the V^dagger ones, so the deltas tie the
  symbols of each subsystem into chains, fixed at the initial-state label,
  and closed cycles, and ``a``, ``b`` count the closed cycles,
* ``Q_tau``   is a product of spectral phase sums
  ``iota(m t) = sum_j exp(i E_j m t)``, one factor per cycle of tau, with
  ``m`` the sum of the phase coefficients around the cycle (m = 0 gives d).

The pairs are counted, not walked: :func:`guedyn.symgroup.class_table`
gives the class of every sigma tau^-1 at once, and the (R, Q, class)
multiplicities come from integer bincounts.  Everything up to numeric
evaluation is exact: coefficients are ``fractions.Fraction`` and the
Weingarten values come from :mod:`guedyn.symgroup`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NumericalError
from .symgroup import Permutation, class_table, weingarten

__all__ = [
    "MonomialSpec",
    "RValue",
    "QValue",
    "SymbolicAverage",
    "build_trace_moment_spec",
    "compute_R",
    "compute_Q",
    "haar_average_moment",
    "iota",
    "chi_of_spectrum",
    "xi_of_spectrum",
    "zeta_of_spectrum",
    "rho_coefficients_closed_form",
    "purity_closed_form",
    "third_moment_closed_form",
]

# A slot in the index lists is either ONE (the fixed initial-state label)
# or a composite (a_symbol, b_symbol) pair of hashable symbol ids.
ONE = None

# Rows of sigma per bincount when counting permutation pairs.
_PAIR_BLOCK = 64


@dataclass(frozen=True)
class MonomialSpec:
    """Index pattern of a degree-q Haar monomial with spectral phases."""

    q: int
    I: tuple  # noqa: E741  (paper-facing name kept: outer V indices)
    I_prime: tuple  # outer V^dagger indices
    phase_coeffs: tuple[int, ...]  # one +-1 per internal index slot

    def __post_init__(self):
        if not (len(self.I) == len(self.I_prime) == len(self.phase_coeffs) == self.q):
            raise ValueError("slot lists must all have length q")
        # compute_R follows ties symbol by symbol, which needs each symbol to
        # occur once in I and once in I', at the same position of its slot.
        sides = [
            [(s, pos) for slot in side if slot is not ONE for pos, s in enumerate(slot)]
            for side in (self.I, self.I_prime)
        ]
        placed = [dict(side) for side in sides]
        if placed[0] != placed[1] or any(len(p) != len(s) for p, s in zip(placed, sides)):
            raise ValueError(
                "each symbol must occur once in I and once in I', at the same slot position"
            )


@dataclass(frozen=True)
class RValue:
    """Contracted outer-index factor d_A^dA_power * d_B^dB_power, as a key.

    ``channel`` distinguishes the operator content for the n = 1 matrix
    average: "scalar" for trace moments, "proj" for |1_A><1_A| and "mix"
    for the maximally mixed operator on A.
    """

    dA_power: int
    dB_power: int
    channel: str = "scalar"


@dataclass(frozen=True)
class QValue:
    """Contracted internal factor, product over iota(m * t), as a key.

    ``iota_multiples`` is the sorted multiset of cycle phase sums; an
    ``m = 0`` entry contributes a factor d (= iota(0)).
    """

    iota_multiples: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "iota_multiples", tuple(sorted(self.iota_multiples)))


def build_trace_moment_spec(n: int) -> MonomialSpec:
    """Index pattern of Tr rho_A^n(t), a q = 2n monomial.

    Factor m of the cyclic product contributes slots ((a_m, b_m), ONE) to I
    and (ONE, (a_{m+1}, b_m)) to I', with a_{n+1} cyclically identified
    with a_1.  Phase coefficients alternate (-1, +1, ...).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    I, I_prime = [], []
    for m in range(1, n + 1):
        m_next = 1 if m == n else m + 1
        I.extend([(("a", m), ("b", m)), ONE])
        I_prime.extend([ONE, (("a", m_next), ("b", m))])
    coeffs = (-1, +1) * n
    return MonomialSpec(2 * n, tuple(I), tuple(I_prime), coeffs)


def compute_R(spec: MonomialSpec, sigma: Permutation) -> RValue:
    """Contract the outer Kronecker deltas delta_{I, sigma(I')}.

    Slot l ties each symbol of I_l to the symbol in the same position of
    I'_{sigma(l)}, or fixes it to the initial-state label when that slot is
    ONE.  Since every symbol occurs once in I and once in I', the ties of
    one subsystem form chains, whose ends meet ONE and so are fixed, and
    closed cycles, which are free: R_sigma = d_A^a d_B^b with a and b the
    numbers of closed tie cycles.
    """
    if sigma.q != spec.q:
        raise ValueError("permutation size must match spec")
    free = [0, 0]
    for pos in (0, 1):
        tie = {}
        for slot, left in enumerate(spec.I, 1):
            if left is not ONE:
                right = spec.I_prime[sigma(slot) - 1]
                tie[left[pos]] = None if right is ONE else right[pos]
        seen = set()
        for start in tie:
            if start in seen:
                continue
            s = start
            while s is not None and s not in seen:
                seen.add(s)
                s = tie[s]
            free[pos] += s == start
    return RValue(*free)


def compute_Q(spec: MonomialSpec, tau: Permutation) -> QValue:
    """Contract the internal deltas delta_{J, tau(J')} with the phases.

    The internal indices are constant along cycles of tau, so each cycle
    contributes iota(m t) with m the sum of phase coefficients on it.
    """
    if tau.q != spec.q:
        raise ValueError("permutation size must match spec")
    sums = [sum(spec.phase_coeffs[slot - 1] for slot in cyc) for cyc in tau.cycles()]
    return QValue(tuple(sums))


@dataclass
class SymbolicAverage:
    """Haar average of a trace moment as exact (R, Q) -> coefficient terms;
    at a fixed spectrum a term is coeff * d_A^a * d_B^b * prod_m iota(m t)."""

    n: int
    d_A: int
    d_B: int
    terms: dict[tuple[RValue, QValue], Fraction] = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.d_A * self.d_B

    def _channel_sums(self, spectrum, t: float) -> dict[str, complex]:
        """Per-channel sum of the terms; iota(m t) once per distinct m, iota(0) = d."""
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.shape != (self.d,):
            raise ValueError(f"spectrum must have length d = {self.d}")
        d_A, d_B = self.d_A, self.d_B
        phases = {0: complex(self.d)}
        sums: dict[str, complex] = {}
        for (rv, qv), coeff in self.terms.items():
            weight = float(coeff) * (d_A**rv.dA_power * d_B**rv.dB_power)
            product = complex(1.0)
            for m in qv.iota_multiples:
                if m not in phases:
                    phases[m] = iota(spectrum, m * t)
                product *= phases[m]
            sums[rv.channel] = sums.get(rv.channel, 0j) + weight * product
        return sums

    def evaluate(self, spectrum, t: float) -> float:
        """Numeric value at a fixed spectrum and time.  For n = 1 this is the
        trace of the averaged density matrix, i.e. exactly 1; the matrix
        content is in :meth:`rho_coefficients`."""
        return _real_or_raise(sum(self._channel_sums(spectrum, t).values()))

    def rho_coefficients(self, spectrum, t: float) -> tuple[float, float]:
        """(p1, pmix) for n = 1: <rho_A> = p1 |1_A><1_A| + pmix 1_A/d_A."""
        if self.n != 1:
            raise ValueError("rho_coefficients is defined for n = 1 only")
        sums = self._channel_sums(spectrum, t)
        return _real_or_raise(sums["proj"]), _real_or_raise(sums["mix"])


def _real_or_raise(z: complex, tol: float = 1e-10) -> float:
    if abs(z.imag) > tol * max(1.0, abs(z.real)):
        raise NumericalError(f"non-real average: {z}")
    return z.real


def haar_average_moment(n: int, d_A: int, d_B: int) -> SymbolicAverage:
    """Exact Haar average of Tr rho_A^n(t) over the eigenbasis group U(d).

    The (2n)!^2 permutation pairs are counted, not enumerated: the class of
    every sigma tau^-1 comes from :func:`guedyn.symgroup.class_table`, and
    ``np.bincount`` over row blocks of sigma tallies the (R, Q, class)
    triples.  Terms keep first-seen pair order and exact ``Fraction``
    coefficients.  For n = 1 the average is resolved into the |1_A><1_A|
    and 1_A/d_A operator channels instead of being traced.
    """
    if n < 1 or d_A < 1 or d_B < 1:
        raise ValueError("n, d_A, d_B must be positive")
    d = d_A * d_B
    if n == 1:
        return _rho_matrix_average(d_A, d_B)

    spec = build_trace_moment_spec(n)
    elements, classes, table = class_table(spec.q)

    # Intern R and Q values in first-seen order.  Every R row meets every Q
    # column, so the first-seen order of (R, Q) pairs is row-major in ids.
    r_index: dict[RValue, int] = {}
    q_index: dict[QValue, int] = {}
    r_ids = np.array(
        [r_index.setdefault(compute_R(spec, p), len(r_index)) for p in elements]
    )
    q_ids = np.array(
        [q_index.setdefault(compute_Q(spec, p), len(q_index)) for p in elements]
    )
    n_r, n_q, n_c = len(r_index), len(q_index), len(classes)

    # Pair counts per (R id, Q id, class id), one bincount per row block.
    counts = np.zeros(n_r * n_q * n_c, dtype=np.int64)
    pair_key = q_ids * n_c
    for start in range(0, len(elements), _PAIR_BLOCK):
        rows = slice(start, start + _PAIR_BLOCK)
        keys = (r_ids[rows, None] * (n_q * n_c) + pair_key) + table[rows]
        counts += np.bincount(keys.ravel(), minlength=counts.size)

    wg = [weingarten(d, mu) for mu in classes]
    avg = SymbolicAverage(n, d_A, d_B)
    by_pair = counts.reshape(n_r * n_q, n_c).tolist()
    pairs = ((rv, qv) for rv in r_index for qv in q_index)
    for key, mults in zip(pairs, by_pair):
        coeff = sum((m * w for m, w in zip(mults, wg) if m), Fraction(0))
        if coeff != 0:
            avg.terms[key] = coeff
    return avg


def _rho_matrix_average(d_A: int, d_B: int) -> SymbolicAverage:
    # q = 2 monomial of <rho_A> itself, with open row/column indices.
    # R_id pins everything (projector channel); R_(12) identifies the open
    # A indices and frees the bath index (mixed channel, weight d_B 1_A).
    d = d_A * d_B
    wg_id = weingarten(d, (1, 1))
    wg_swap = weingarten(d, (2,))
    chi = QValue((-1, 1))
    const = QValue((0,))
    avg = SymbolicAverage(1, d_A, d_B)
    proj = RValue(0, 0, "proj")
    # d_B * 1_A = d * (1_A / d_A): store the mixed channel as coefficient of
    # the unit-trace operator 1_A/d_A, hence one power of each dimension.
    mix = RValue(1, 1, "mix")
    avg.terms[(proj, chi)] = wg_id
    avg.terms[(proj, const)] = wg_swap
    avg.terms[(mix, chi)] = wg_swap
    avg.terms[(mix, const)] = wg_id
    return avg


# ---------------------------------------------------------------------------
# Spectral phase sums and the closed forms they assemble into.
# ---------------------------------------------------------------------------


def iota(spectrum, t: float) -> complex:
    """iota(t) = sum_j exp(i E_j t)."""
    spectrum = np.asarray(spectrum, dtype=float)
    return complex(np.exp(1j * t * spectrum).sum())


def chi_of_spectrum(spectrum, t: float) -> float:
    """chi(t) = |iota(t)|^2, the phase sum driving <rho_A>."""
    return abs(iota(spectrum, t)) ** 2


def xi_of_spectrum(spectrum, t: float) -> float:
    """xi(t) = |iota^2(t) + iota(2t)|^2 - 4 |iota(t)|^2 (purity phase sum)."""
    i1 = iota(spectrum, t)
    i2 = iota(spectrum, 2 * t)
    return abs(i1 * i1 + i2) ** 2 - 4 * abs(i1) ** 2


def zeta_of_spectrum(spectrum, t: float) -> float:
    """zeta(t) = |iota^3 + 2 iota(3t) + 3 iota(t) iota(2t)|^2 - 36 |iota|^2."""
    i1 = iota(spectrum, t)
    i2 = iota(spectrum, 2 * t)
    i3 = iota(spectrum, 3 * t)
    return abs(i1**3 + 2 * i3 + 3 * i1 * i2) ** 2 - 36 * abs(i1) ** 2


# The angular maps: the Haar averages over the eigenbasis as functions of the
# phase sums chi and xi, numbers or arrays alike.  A fixed spectrum gives the
# closed forms below; an ensemble-averaged chi or xi gives the fully averaged
# curves of guedyn.spectral.


def _rho_map(d: int, chi):
    """(p1, pmix) = ((chi - 1)/(d^2 - 1), (d^2 - chi)/(d^2 - 1))."""
    return (chi - 1) / (d * d - 1), (d * d - chi) / (d * d - 1)


def _purity_map(d_A: int, d_B: int, xi):
    """xi/(d^2 (d-1)(d+3)) (1 - frac) + frac, frac = (d_A + d_B)/(d + 1)."""
    d = d_A * d_B
    frac = (d_A + d_B) / (d + 1)
    return xi / (d * d * (d - 1) * (d + 3)) * (1 - frac) + frac


def rho_coefficients_closed_form(
    d_A: int, d_B: int, spectrum, t: float
) -> tuple[float, float]:
    """Eigenbasis-averaged density matrix at fixed spectrum:

    <rho_A> = (chi - 1)/(d^2 - 1) |1_A><1_A| + (d^2 - chi)/(d^2 - 1) 1_A/d_A.
    """
    return _rho_map(d_A * d_B, chi_of_spectrum(spectrum, t))


def purity_closed_form(d_A: int, d_B: int, spectrum, t: float) -> float:
    """Eigenbasis-averaged purity at fixed spectrum (compact closed form)."""
    return _purity_map(d_A, d_B, xi_of_spectrum(spectrum, t))


def third_moment_closed_form(d_A: int, d_B: int, spectrum, t: float) -> float:
    """Eigenbasis-averaged Tr rho_A^3 at fixed spectrum."""
    d = d_A * d_B
    s = d_A + d_B
    xi = xi_of_spectrum(spectrum, t)
    zeta = zeta_of_spectrum(spectrum, t)
    lead = (s * s + d + 1) / ((d + 1) * (d + 2))
    pref = (d + 1 - s) / (d * d * (d + 1) ** 2 * (d + 5))
    inner = (zeta - 9 * xi) * (1 - s) / ((d - 1) * (d + 2)) + s * (
        3 * xi / (d + 3) + zeta / ((d - 1) * (d + 4))
    )
    return lead + pref * inner
