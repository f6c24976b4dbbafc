"""Randomized spin-model ensembles and the dynamics-distance metric.

Seven ensembles of 2^s-dimensional Hamiltonians built from Pauli strings:
a transverse-field Ising chain and XXZ chain with one global random SO(3)
frame (TFIM, XXZ), their disordered twins with per-site frames (DTFIM,
DXXZ), a spin glass (SG), a central-spin model (CS) and a quartic Majorana
model (SYK).  Scalar couplings are standard normal; rotations are Haar on
SO(3); Pauli vectors are contracted with rows of the rotation matrices.

Chains are periodic (site j+1 taken mod s).  Spins are ordered A-major:
the first ``s_a`` spins form subsystem A, which for the central-spin model
are exactly the central spins.

Internally every term is a Pauli string in the symplectic representation
``i^k X^x Z^z`` (bit masks over sites; Aaronson & Gottesman,
quant-ph/0406196), so phases are exact integer bookkeeping.  A spin family
is one record (couplings, size rule, table and draw of the real coefficient
vector), so adding a family means adding a record.  Assembly sums the
coefficients per (x, z), takes a Walsh-Hadamard transform over z for each
distinct x and writes each x group with one indexed store, so H is
exactly Hermitian.  A table whose every x mask has even weight conserves the
parity prod_j Z_j (SYK and CS): its H is block diagonal in the even and odd
sectors, which the Monte Carlo and the spacing statistics use.  TFIM and XXZ
have one global rotation R: H = W H_0 W^dag with W = u(R)^{x s}, u(R) the
SU(2) lift of R, and H_0 the real chain of R's frame, which conserves the
parity (TFIM) or the magnetisation sum_j Z_j (XXZ).  The Monte Carlo
diagonalises H_0 per sector and applies W as its two factors on A and B;
the spacing statistics, which see H alone, take its whole spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, isfinite, log2
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import spectral
from .errors import NumericalError
from .sim import (
    MCResult,
    RngStream,
    _as_generator,
    _BlockSampler,
    _checked_times,
    _haar_unitaries,
    _hermitian,
    _left,
    _restarted,
    _run_blocks,
    mc_average,
    sample_gue,
    sample_so3,
)

__all__ = [
    "ModelSpec",
    "COUPLINGS",
    "SPIN_FAMILIES",
    "FAMILIES",
    "jordan_wigner_majoranas",
    "build_model",
    "make_sampler",
    "level_spectra",
    "rescale_energies",
    "DynamicsTrace",
    "distance_d6",
    "analytic_gue_trace",
    "analytic_poisson_trace",
    "ensemble_dynamics",
    "tfim_hamiltonian",
    "dtfim_hamiltonian",
    "xxz_hamiltonian",
    "dxxz_hamiltonian",
    "sg_hamiltonian",
    "cs_hamiltonian",
    "syk_hamiltonian",
]


@dataclass(frozen=True)
class _PauliString:
    """i^k * X^x * Z^z with x, z site bit masks (site 0 = highest bit)."""

    x: int = 0
    z: int = 0
    k: int = 0  # power of i, mod 4

    def __mul__(self, other: "_PauliString") -> "_PauliString":
        # Z^z1 X^x2 = (-1)^{|z1 & x2|} X^x2 Z^z1
        k = (self.k + other.k + 2 * (self.z & other.x).bit_count()) % 4
        return _PauliString(self.x ^ other.x, self.z ^ other.z, k)


_I_POWERS = np.array([1, 1j, -1, -1j])

# A spin sample's draw and assembly, and the public builders, run under this
# guard, on the thread that does the arithmetic: an overflowing coupling
# leaves inf or NaN, without a RuntimeWarning, for the finiteness checks of
# the builders, the pilot, the Monte Carlo and level_spectra to raise as
# NumericalError.
_OVERFLOW_TO_INF = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class _PauliTable:
    """Fixed Pauli strings of one ensemble and size, in term order.

    Term t is ``phase[t] * X^xs[group[t]] Z^z[t]``, with ``xs`` the distinct
    x masks.  A Hamiltonian is the table contracted with one real
    coefficient per term.
    """

    n_spins: int
    xs: np.ndarray
    group: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    @classmethod
    def from_strings(cls, s: int, strings) -> "_PauliTable":
        xs, group = np.unique([p.x for p in strings], return_inverse=True)
        z = np.array([p.z for p in strings], dtype=np.int64)
        phase = _I_POWERS[[p.k for p in strings]]
        for arr in (xs, group, z, phase):
            arr.flags.writeable = False
        return cls(s, xs, group, z, phase)

    @property
    def conserves_parity(self) -> bool:
        """Whether every term commutes with the parity prod_j Z_j, that is,
        every x mask flips an even number of spins."""
        return all(int(x).bit_count() % 2 == 0 for x in self.xs)

    def _merged(self, coeffs) -> np.ndarray:
        # w[g, z]: summed coefficient of X^xs[g] Z^z
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != self.z.shape:
            raise ValueError(f"expected {self.z.size} coefficients, got {coeffs.shape}")
        w = np.zeros((self.xs.size, 1 << self.n_spins), dtype=complex)
        np.add.at(w, (self.group, self.z), coeffs * self.phase)
        return w

    @_OVERFLOW_TO_INF
    def moments(self, coeffs) -> tuple[float, float]:
        """(Tr H, Tr H^2) of ``matrix(coeffs)``, without building H.  The strings
        X^x Z^z are trace-orthogonal, Tr((X^x Z^z)^dag X^x' Z^z') = d delta,
        so Tr H = d w[x=0, z=0] and Tr H^2 = Tr H^dag H = d sum |w|^2."""
        w = self._merged(coeffs)
        d = w.shape[1]
        return (d * w[0, 0].real if self.xs[0] == 0 else 0.0), d * np.vdot(w, w).real

    @_OVERFLOW_TO_INF
    def matrix(self, coeffs) -> np.ndarray:
        """Dense sum_t coeffs[t] * term t."""
        # A Walsh-Hadamard transform over z turns the merged coefficients
        # into the diagonal of Z^z-sums, w[g, c] = sum_z w[g, z] (-1)^{|c & z|},
        # which X^xs[g] moves to row c ^ xs[g] of column c.
        w = self._merged(coeffs)
        n_groups, d = w.shape
        half = 1
        while half < d:
            pairs = w.reshape(n_groups, -1, 2, half)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            # Both halves come from the old values (no in-place update), so
            # H[c ^ x, c] and H[c, c ^ x] are the same sums up to exact sign
            # flips: H is exactly Hermitian.
            lo[...], hi[...] = lo + hi, lo - hi
            half *= 2
        cols = np.arange(d)
        ham = np.zeros((d, d), dtype=complex)
        ham[cols ^ self.xs[:, None], cols] = w
        return ham


def _pauli(s: int, site: int, axis: int) -> _PauliString:
    # axis 1, 2, 3 = x, y, z; sigma^2 = i X Z
    bit = 1 << (s - 1 - site)
    if axis == 1:
        return _PauliString(x=bit)
    if axis == 2:
        return _PauliString(x=bit, z=bit, k=1)
    if axis == 3:
        return _PauliString(z=bit)
    raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


def _string(s: int, factors) -> _PauliString:
    out = _PauliString()
    for site, axis in factors:
        out = out * _pauli(s, site, axis)
    return out


def _majorana_strings(s: int) -> list[_PauliString]:
    # One-to-two mapping: site j carries modes 2j and 2j+1, with a Z string
    # on all earlier sites enforcing anticommutation across sites.
    strings = []
    for j in range(s):
        tail = _PauliString()
        for k in range(j):
            tail = tail * _pauli(s, k, 3)
        strings.append(tail * _pauli(s, j, 1))
        strings.append(tail * _pauli(s, j, 2))
    return strings


def jordan_wigner_majoranas(s: int) -> list[np.ndarray]:
    """2s Majorana operators on s spins as dense 2^s x 2^s matrices.

    Mode 2j is Z_0..Z_{j-1} X_j and mode 2j+1 is Z_0..Z_{j-1} Y_j; they
    satisfy {f_a, f_b} = 2 delta_ab and f_a^2 = identity.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return [_PauliTable.from_strings(s, [p]).matrix(np.ones(1)) for p in _majorana_strings(s)]


# ---------------------------------------------------------------------------
# Term tables, one per family structure and size, built once per process.
# ---------------------------------------------------------------------------

_AXES = (1, 2, 3)


@lru_cache(maxsize=None)
def _chain_table(s: int) -> _PauliTable:
    """Periodic chain: per site j, the nine bonds sigma^a_j sigma^b_{j+1}
    (a-major), then the three fields sigma^a_j.  Every chain family's
    coefficient vector is thus (s, 12) site rows, flattened."""
    strings = []
    for j in range(s):
        nxt = (j + 1) % s
        strings += [_string(s, [(j, a), (nxt, b)]) for a in _AXES for b in _AXES]
        strings += [_pauli(s, j, a) for a in _AXES]
    return _PauliTable.from_strings(s, strings)


@lru_cache(maxsize=None)
def _cs_table(s_a: int, s_b: int) -> _PauliTable:
    """Central spin: Z_j fields, then sigma^a_j sigma^a_k inside the central
    block, then sigma^a_j sigma^a_{s_a+k} to the bath, each (j, k, a)-major."""
    s = s_a + s_b
    strings = [_pauli(s, j, 3) for j in range(s_a)]
    strings += [
        _string(s, [(j, a), (k, a)]) for j in range(s_a) for k in range(s_a) for a in _AXES
    ]
    strings += [
        _string(s, [(j, a), (s_a + k, a)])
        for j in range(s_a)
        for k in range(s_b)
        for a in _AXES
    ]
    return _PauliTable.from_strings(s, strings)


@lru_cache(maxsize=None)
def _syk_table(s: int) -> _PauliTable:
    """f_i f_j f_k f_l over 4-subsets of the 2s modes, lexicographic."""
    modes = _majorana_strings(s)
    strings = [
        modes[i] * modes[j] * modes[k] * modes[l]
        for i, j, k, l in itertools.combinations(range(2 * s), 4)
    ]
    return _PauliTable.from_strings(s, strings)


# ---------------------------------------------------------------------------
# Hamiltonian builders.  Each takes its random inputs explicitly so tests
# can pin them, and contracts its table with the coefficients that a private
# layout puts in the table's term order; each family's record below draws the
# same inputs from a stream, rotations first, in the builder's argument order.
# ---------------------------------------------------------------------------


def _finite_matrix(table: _PauliTable, coeffs) -> np.ndarray:
    # table.matrix(coeffs), which must be finite: an overflowing coupling is
    # a NumericalError here.  The Monte Carlo finishes call table.matrix, so
    # that the kernel's check names the sample's stream.
    H = table.matrix(coeffs)
    if not np.isfinite(H).all():
        raise NumericalError("the couplings give a non-finite Hamiltonian")
    return H


def _bonds(row_a, row_b, coeff=1.0) -> np.ndarray:
    # coeff * (row_a . sigma_j)(row_b . sigma_{j+1}): nine coefficients, a-major
    row_a, row_b = np.asarray(row_a, dtype=float), np.asarray(row_b, dtype=float)
    return ((coeff * row_a)[..., :, None] * row_b[..., None, :]).reshape(
        row_a.shape[:-1] + (9,)
    )


def _ising_layout(J, rotations_x, rotations_y, g) -> np.ndarray:
    n1 = np.asarray(rotations_x, dtype=float)[:, 0]
    n3 = np.asarray(rotations_y, dtype=float)[:, 2]
    fields = (J * np.asarray(g, dtype=float))[:, None] * n3
    return np.concatenate([_bonds(n1, n1), fields], axis=1).ravel()


def _xxz_layout(J, B, rotations_x, rotations_y, g, h) -> np.ndarray:
    rx = np.asarray(rotations_x, dtype=float)
    n3 = np.asarray(rotations_y, dtype=float)[:, 2]
    jg = (J * np.asarray(g, dtype=float))[:, None]
    bh = (B * np.asarray(h, dtype=float))[:, None]
    # the three axis terms of a bond share its nine strings: their sum, in
    # axis order from 0
    bonds = sum(_bonds(rx[:, a], rx[:, a], jg if a == 2 else 1.0) for a in range(3))
    return np.concatenate([bonds, bh * n3], axis=1).ravel()


def _sg_layout(J1, J2, J3, h_diag, h_shared, h_site, g_shared, g_site) -> np.ndarray:
    bonds = np.diag(h_diag) + J1 * np.asarray(h_shared) + J2 * np.asarray(h_site)
    fields = np.asarray(g_shared) + J3 * np.asarray(g_site)
    return np.concatenate([bonds.reshape(-1, 9), fields.reshape(-1, 3)], axis=1).ravel()


def _cs_layout(B, J, g, h_central, h_bath) -> np.ndarray:
    return np.concatenate([B * np.asarray(g, dtype=float),
                           (J * np.asarray(h_central, dtype=float)).ravel(),
                           np.asarray(h_bath, dtype=float).ravel()])


def tfim_hamiltonian(s, J, rotation, g) -> np.ndarray:
    """Ising chain along a random axis with a transverse random field:

    sum_j (n1.sigma_j)(n1.sigma_{j+1}) + J g (n3.sigma_j),
    n1, n3 the first and third rows of one global rotation: the disordered
    chain with the same frame and field on every site.
    """
    return dtfim_hamiltonian(s, J, [rotation] * s, [rotation] * s, np.full(s, g))


@_OVERFLOW_TO_INF
def dtfim_hamiltonian(s, J, rotations_x, rotations_y, g) -> np.ndarray:
    """Disordered twin of the Ising chain: per-site frames and fields."""
    return _finite_matrix(_chain_table(s), _ising_layout(J, rotations_x, rotations_y, g))


def xxz_hamiltonian(s, B, J, rotation, g, h) -> np.ndarray:
    """XXZ chain in one random frame with anisotropy J g and field B h: the
    disordered chain with the same frame and scalars on every site."""
    return dxxz_hamiltonian(
        s, B, J, [rotation] * s, [rotation] * s, np.full(s, g), np.full(s, h)
    )


@_OVERFLOW_TO_INF
def dxxz_hamiltonian(s, B, J, rotations_x, rotations_y, g, h) -> np.ndarray:
    """Disordered twin of the XXZ chain: per-site frames, scalars g_j, h_j."""
    return _finite_matrix(_chain_table(s), _xxz_layout(J, B, rotations_x, rotations_y, g, h))


@_OVERFLOW_TO_INF
def sg_hamiltonian(s, J1, J2, J3, h_diag, h_shared, h_site, g_shared, g_site):
    """Spin glass: bonds (h^a delta_ab + J1 h^ab + J2 h_j^ab) sigma^a sigma^b
    plus fields (g^a + J3 g_j^a) sigma^a."""
    return _finite_matrix(_chain_table(s),
                          _sg_layout(J1, J2, J3, h_diag, h_shared, h_site, g_shared, g_site))


@_OVERFLOW_TO_INF
def cs_hamiltonian(s_a, s_b, B, J, g, h_central, h_bath) -> np.ndarray:
    """Central-spin model: local z fields on the s_a central spins, random
    Heisenberg-type coupling inside the central block (strength J) and unit
    random coupling of every central spin to every bath spin."""
    return _finite_matrix(_cs_table(s_a, s_b), _cs_layout(B, J, g, h_central, h_bath))


@_OVERFLOW_TO_INF
def syk_hamiltonian(s, J2, couplings) -> np.ndarray:
    """Quartic Majorana model J2 sum_{i<j<k<l} g_{ijkl} f_i f_j f_k f_l.

    ``couplings`` is a flat array over 4-subsets of the 2s modes in
    lexicographic order.
    """
    if s < 2:
        raise ValueError("need at least 4 Majorana modes (s >= 2)")
    return _finite_matrix(_syk_table(s), J2 * np.asarray(couplings, dtype=float))


class _Frame(NamedTuple):
    """One global rotation R, shared by every site (TFIM, XXZ).

    A sample's row is R's nine entries, row-major, then one scalar per
    coupling, in draw order.  ``chain(spec, row, frame)`` lays the row's
    scalars out in ``frame`` (R for H, the identity for H_0 by default), and
    H = W H_0 W^dag with W = u(R)^{x s}, u(R) the SU(2) lift of R.  H_0 is
    real and zero between the index sets ``sectors(s)``.
    """

    chain: Callable[..., np.ndarray]
    sectors: Callable[[int], tuple[np.ndarray, ...]]


class _Family(NamedTuple):
    """One spin family, which reads ``couplings`` (1 by default) and draws on ``table(spec)``."""

    couplings: tuple[str, ...]
    min_spins: tuple[int, int]  # the fewest spins in A and in all
    too_small: str  # the ValueError text below them, after the family name
    table: Callable[[ModelSpec], _PauliTable]
    draw: Callable[[ModelSpec, np.random.Generator], np.ndarray]  # one coefficient vector
    frame: _Frame | None = None


def _chain(couplings, draw, frame=None) -> _Family:
    # periodic chains: on one spin the bond j -> j+1 would be an on-site product
    return _Family(couplings, (0, 2), "chain needs at least 2 spins",
                   lambda spec: _chain_table(spec.n_spins), draw, frame)


def _disordered(layout, couplings) -> _Family:
    # DTFIM and DXXZ draw s bond frames, s field frames and s scalars per coupling
    def draw(spec, gen):
        s = spec.n_spins
        rx = [sample_so3(gen) for _ in range(s)]
        ry = [sample_so3(gen) for _ in range(s)]
        scalars = [gen.normal(size=s) for _ in couplings]
        return layout(*map(spec.coupling, couplings), rx, ry, *scalars)

    return _chain(couplings, draw)


def _read_frame(gen, row) -> None:
    # a global-frame sample's draws: R, then one standard normal per coupling
    row[:9] = sample_so3(gen).ravel()
    gen.standard_normal(out=row[9:])


def _framed(layout, couplings, sectors) -> _Family:
    # TFIM and XXZ draw one frame and one scalar per coupling and repeat that
    # site on every site of the chain table's 12-term rows
    def chain(spec, row, frame=np.eye(3)):
        site = layout(*map(spec.coupling, couplings), [frame], [frame], *row[9:, None])
        return np.tile(site, spec.n_spins)

    def draw(spec, gen):
        row = np.empty(9 + len(couplings))
        _read_frame(gen, row)
        return chain(spec, row, row[:9].reshape(3, 3))

    return _chain(couplings, draw, _Frame(chain, sectors))


_SPIN = {
    # TFIM's H_0 = sum_j X_j X_j+1 + J g Z_j conserves the parity prod_j Z_j,
    # XXZ's sum_j X_j X_j+1 + Y_j Y_j+1 + J g Z_j Z_j+1 + B h Z_j the
    # magnetisation sum_j Z_j
    "TFIM": _framed(_ising_layout, ("J",), lambda s: _bit_sectors(s, 2)),
    "DTFIM": _disordered(_ising_layout, ("J",)),
    "XXZ": _framed(_xxz_layout, ("J", "B"), lambda s: _bit_sectors(s, s + 1)),
    "DXXZ": _disordered(_xxz_layout, ("J", "B")),
    "SYK": _Family(("J2",), (0, 2), "needs at least 2 spins (4 Majorana modes)",
                   lambda spec: _syk_table(spec.n_spins), lambda spec, gen: (
                       spec.coupling("J2") * gen.normal(size=comb(2 * spec.n_spins, 4)))),
    "SG": _chain(("J1", "J2", "J3"), lambda spec, gen: _sg_layout(
        *map(spec.coupling, ("J1", "J2", "J3")), gen.normal(size=3), gen.normal(size=(3, 3)),
        gen.normal(size=(spec.n_spins, 3, 3)), gen.normal(size=3),
        gen.normal(size=(spec.n_spins, 3)))),
    "CS": _Family(("B", "J"), (1, 1), "needs at least one central spin",
                  lambda spec: _cs_table(spec.s_a, spec.s_b), lambda spec, gen: _cs_layout(
                      *map(spec.coupling, ("B", "J")), gen.normal(size=spec.s_a),
                      gen.normal(size=(spec.s_a, spec.s_a, 3)),
                      gen.normal(size=(spec.s_a, spec.s_b, 3)))),
}
SPIN_FAMILIES = tuple(_SPIN)  # the distance default order, which fixes its streams
FAMILIES = SPIN_FAMILIES + ("GUE", "POISSON")
COUPLINGS = {name: family.couplings for name, family in _SPIN.items()} | {"GUE": (), "POISSON": ()}


@dataclass(frozen=True)
class ModelSpec:
    """Reproducible description of one Hamiltonian ensemble.

    ``d_a`` and ``d_b`` are the subsystem dimensions, integers (a bool or
    any other type raises ValueError); spin families require both to be
    powers of two (s_a = log2 d_a spins belong to A).  The chain
    families and SYK need at least two spins, CS at least one central spin.
    Every coupling must be finite and one the family reads
    (``COUPLINGS[family]``); any other name raises ValueError.
    """

    family: str
    d_a: int
    d_b: int
    couplings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for dim in (self.d_a, self.d_b):
            # bool is an int subclass, and True is no dimension
            if isinstance(dim, bool) or not isinstance(dim, Integral):
                raise ValueError(f"subsystem dimensions must be integers, got {dim!r}")
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError("subsystem dimensions must be >= 1")
        if (family := _SPIN.get(self.family)) is not None:
            for dim in (self.d_a, self.d_b):
                if dim & (dim - 1):
                    raise ValueError(f"{self.family} needs power-of-two dimensions, got {dim}")
            if self.s_a < family.min_spins[0] or self.n_spins < family.min_spins[1]:
                raise ValueError(f"{self.family} {family.too_small}")
        for name, value in self.couplings.items():
            if not isfinite(float(value)):
                raise ValueError(f"coupling {name} must be finite, got {value}")
        stray = [name for name in self.couplings if name not in COUPLINGS[self.family]]
        if stray:
            reads = ", ".join(COUPLINGS[self.family]) or "none"
            raise ValueError(f"{self.family} does not read coupling {', '.join(stray)}"
                             f" (its couplings: {reads})")

    @property
    def d(self) -> int:
        return self.d_a * self.d_b

    @property
    def s_a(self) -> int:
        return int(log2(self.d_a))

    @property
    def s_b(self) -> int:
        return int(log2(self.d_b))

    @property
    def n_spins(self) -> int:
        return self.s_a + self.s_b

    def coupling(self, name: str, default: float = 1.0) -> float:
        return float(self.couplings.get(name, default))


@_OVERFLOW_TO_INF
def _coefficients(spec: ModelSpec, gen) -> np.ndarray:
    return _SPIN[spec.family].draw(spec, gen)


def build_model(spec: ModelSpec, rng) -> np.ndarray:
    """Draw one Hamiltonian of the ensemble.

    Stochastic inputs are drawn from ``rng`` in a fixed documented order
    (rotations first, then scalar coupling blocks), so a given stream state
    always produces the same Hamiltonian.  A spin sample is assembled once,
    from its coefficient vector on the family's Pauli-string table; couplings
    that overflow it raise NumericalError.
    """
    gen = _as_generator(rng)
    if spec.family == "GUE":
        return sample_gue(spec.d, 1.0, gen)
    if spec.family == "POISSON":
        energies, basis = _poisson_sampler(spec.d)(gen)
        return (basis * energies) @ basis.conj().T
    return _finite_matrix(_table(spec), _coefficients(spec, gen))


def make_sampler(spec: ModelSpec):
    """Sampler callable for :func:`guedyn.sim.mc_average`."""
    return lambda gen: build_model(spec, gen)


def _table(spec: ModelSpec) -> _PauliTable | None:
    return _SPIN[spec.family].table(spec) if spec.family in _SPIN else None


def _sectors(spec: ModelSpec) -> np.ndarray | None:
    # The parity sectors of the family's H where its table conserves
    # prod_j Z_j, else None.  A frame's sectors are those of H_0, not of H.
    table = _table(spec)
    if table is None or not table.conserves_parity:
        return None
    return _parity_sectors(spec.n_spins)


@lru_cache(maxsize=None)
def _bit_sectors(s: int, modulus: int) -> tuple[np.ndarray, ...]:
    # The basis states of s spins by their number of set bits mod
    # ``modulus``, from 0, each ascending: 2 gives the sectors of the parity
    # prod_j Z_j (even, odd), s + 1 those of the magnetisation sum_j Z_j.
    states = np.arange(1 << s)
    bits = np.bitwise_count(states) % modulus
    sectors = tuple(states[bits == k] for k in range(modulus))
    for sector in sectors:
        sector.flags.writeable = False
    return sectors


@lru_cache(maxsize=None)
def _parity_sectors(s: int) -> np.ndarray:
    # (2, 2^(s-1)): the basis states of even, then odd, parity prod_j Z_j.
    sectors = np.stack(_bit_sectors(s, 2))
    sectors.flags.writeable = False
    return sectors


def _sector_blocks(H, sectors) -> np.ndarray:
    # The (2, d/2, d/2) diagonal blocks of H in the parity sectors.
    return H[sectors[:, :, None], sectors[:, None, :]]


def _by_size(sectors) -> list[tuple[np.ndarray, np.ndarray]]:
    # The index sets ``sectors`` stacked by size: per size, the (k, m) states
    # of its k sectors and the (k, m) basis columns of their vectors, which
    # follow the sectors' order.
    groups = {}
    start = 0
    for sector in sectors:
        states, cols = groups.setdefault(len(sector), ([], []))
        states.append(sector)
        cols.append(np.arange(start, start + len(sector)))
        start += len(sector)
    return [(np.stack(states), np.stack(cols)) for states, cols in groups.values()]


def _kron_power(u, k: int) -> np.ndarray:
    # u^{x k} for an (n, 2, 2) stack, site 0 the highest bit: (n, 2^k, 2^k)
    out = np.ones((len(u), 1, 1), dtype=u.dtype)
    for _ in range(k):
        m = out.shape[-1]
        out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(len(u), 2 * m, 2 * m)
    return out


def _su2_lifts(rotations) -> np.ndarray:
    # The (n, 2, 2) unitaries u = w - i (x X + y Y + z Z), one per rotation R
    # of the (n, 3, 3) stack, with u sigma_a u^dag = sum_b R[a, b] sigma_b.
    # The unit quaternion (w, x, y, z) is the row of 4 q q^T with the largest
    # diagonal entry, scaled (Shepperd, J. Guidance Control 1, 223 (1978)),
    # so no square root of a small number is taken near a rotation by pi.
    r = np.asarray(rotations, dtype=float)
    tr = np.trace(r, axis1=-2, axis2=-1)[:, None, None]
    k = np.empty((len(r), 4, 4))
    k[:, :1, :1] = 1 + tr
    k[:, 0, 1:] = k[:, 1:, 0] = r[:, [1, 2, 0], [2, 0, 1]] - r[:, [2, 0, 1], [1, 2, 0]]
    k[:, 1:, 1:] = r + r.swapaxes(-1, -2) + (1 - tr) * np.eye(3)
    n = np.arange(len(r))
    big = np.argmax(np.diagonal(k, axis1=-2, axis2=-1), axis=-1)
    w, x, y, z = (k[n, big] / (2 * np.sqrt(k[n, big, big]))[:, None]).T
    return np.stack([np.stack([w - 1j * z, -1j * x - y], -1),
                     np.stack([-1j * x + y, w + 1j * z], -1)], -2)


def _sector_finish(spec: ModelSpec, sectors, matrix, lifts=None):
    # A finish that diagonalises each sample per sector: ``matrix(row)`` is
    # the sample's (d, d) matrix, zero between the index sets ``sectors``,
    # whose diagonal blocks are cut out one sample at a time, so that one
    # dense matrix is held at a time (at 8x32, 3 MB less peak memory over
    # two worker threads).  One eigh per
    # sector size runs on the block's stacked blocks, and the vectors are
    # scattered into V, sector after sector.  With ``lifts(rows)``, the
    # (n, 2, 2) SU(2) lifts u of the samples' frames, the bases are
    # (u_A x u_B) V, u_A = u^{x s_a} and u_B = u^{x s_b}: two Kronecker
    # factors, not a dense W.
    groups = _by_size(sectors)
    d, d_a = spec.d, spec.d_a

    def finish(rows):
        blocks = [[] for _ in groups]
        for row in rows:
            h = matrix(row)
            for stack, (states, _) in zip(blocks, groups):
                stack.append(h[states[:, :, None], states[:, None, :]])
        n = len(rows)
        energies = np.empty((n, d))
        bases = np.zeros((n, d, d), dtype=h.dtype)
        for stack, (states, cols) in zip(blocks, groups):
            energies[:, cols], bases[:, states[:, :, None], cols[:, None, :]] = np.linalg.eigh(
                np.stack(stack))
        if lifts is None:
            return energies, bases
        u = lifts(rows)
        bases = _kron_power(u, spec.s_b)[:, None] @ bases.reshape(n, d_a, -1, d)
        return energies, _left(bases.reshape(n, d, d), _kron_power(u, spec.s_a))

    return finish


def _spectral_sampler(spec: ModelSpec) -> _BlockSampler:
    # Sampler for mc_average, read per stream into a row and finished per
    # block as one kind: the block's (energies, bases) where that costs less
    # than a dense eigh, else its (None, H) stack, which the kernel
    # diagonalises.  GUE reads its 2 d^2 normals and assembles the block's
    # H; POISSON hands over its draw.  A spin family reads its coefficient
    # vector and assembles each H from the table; a table that conserves
    # parity (SYK, CS) has a zero even-odd block, so its samples are
    # diagonalised per parity sector.  A family with one global frame (TFIM,
    # XXZ) reads R and its scalars, assembles the real H_0 of its frame and
    # diagonalises it per sector of H_0, and the frame turns those vectors
    # into H's.
    d = spec.d
    if spec.family == "GUE":
        def finish(rows):
            parts = rows.reshape(len(rows), 2, d, d)
            return None, _hermitian(parts[:, 0], parts[:, 1])

        return _BlockSampler(2 * d * d, lambda gen, row: gen.standard_normal(out=row), finish)
    if spec.family == "POISSON":
        return _poisson_sampler(d)
    family, table = _SPIN[spec.family], _table(spec)
    if (frame := family.frame) is not None:
        return _BlockSampler(9 + len(family.couplings), _read_frame, _sector_finish(
            spec, frame.sectors(spec.n_spins),
            lambda row: table.matrix(frame.chain(spec, row)).real,
            lambda rows: _su2_lifts(rows[:, :9].reshape(-1, 3, 3))))

    def read(gen, row):
        row[:] = _coefficients(spec, gen)

    sectors = _sectors(spec)
    if sectors is None:
        return _BlockSampler(table.z.size, read,
                             lambda rows: (None, np.stack([table.matrix(c) for c in rows])))
    return _BlockSampler(table.z.size, read, _sector_finish(spec, sectors, table.matrix))


def _poisson_sampler(d: int) -> _BlockSampler:
    # i.i.d. exponential levels of mean sqrt(d+1), then a Haar eigenbasis:
    # the read takes d standard exponentials and the basis's 2 d^2 normals,
    # the finish scales the levels and builds the bases
    def read(gen, row):
        gen.standard_exponential(out=row[:d])
        gen.standard_normal(out=row[d:])

    def finish(rows):
        return np.sqrt(d + 1) * rows[:, :d], _haar_unitaries(rows[:, d:], d)

    return _BlockSampler(d + 2 * d * d, read, finish)


# Largest spread, relative to the largest |E|, of levels that a symmetry
# makes equal: eigvalsh leaves them about d eps apart.
_DEGENERACY_TOL = 1e-10


def level_spectra(spec: ModelSpec, H) -> list[np.ndarray]:
    """The independent level sequences of one Hamiltonian of ``spec``'s
    ensemble, each ascending, for spacing statistics.

    Levels of different symmetry sectors do not repel, so where the family's
    table conserves the parity prod_j Z_j (SYK and CS), each parity sector
    gives its own sequence.  SYK with N = 2s Majorana modes then follows
    N mod 8: for 0 both sectors count; for 2 and 6 the two sectors carry the
    same levels, and one is kept; for 4 every level of a sector is a
    Kramers pair, and one level of each pair is kept.  A degeneracy that
    does not hold to roundoff raises NumericalError, as does a non-finite
    H.  Other families give their whole spectrum.  An H of any shape but
    (d, d) raises ValueError.
    """
    if np.shape(H) != (spec.d, spec.d):
        raise ValueError(f"H must be {spec.d}x{spec.d} for {spec}, got shape {np.shape(H)}")
    if not np.isfinite(H).all():
        raise NumericalError("non-finite Hamiltonian in the level spectra")
    sectors = _sectors(spec)
    if sectors is None:
        return [np.linalg.eigvalsh(H)]
    levels = np.linalg.eigvalsh(_sector_blocks(H, sectors))
    if spec.family == "SYK":
        tol = _DEGENERACY_TOL * np.abs(levels).max()
        n_modes = 2 * spec.n_spins
        if n_modes % 8 in (2, 6):
            _check_degenerate(levels[0], levels[1], tol, "the two parity sectors")
            levels = levels[:1]
        elif n_modes % 8 == 4:
            _check_degenerate(levels[:, 0::2], levels[:, 1::2], tol, "Kramers pairs")
            levels = levels[:, 0::2]
    return list(levels)


def _check_degenerate(a, b, tol, what) -> None:
    spread = np.abs(a - b).max()
    if not spread <= tol:
        raise NumericalError(f"levels of {what} differ by {spread:.3g}, above roundoff {tol:.3g}")


def rescale_energies(spectra) -> float:
    """Multiplicative energy scale matching the Gaussian-ensemble spread.

    Returns the single factor c such that the pooled ensemble average of
    (c E_i - c E_j)^2 over distinct pairs equals 2(d+1).  A non-finite
    pooled moment raises NumericalError.
    """
    spectra = np.asarray(spectra, dtype=float)
    if spectra.ndim == 1:
        spectra = spectra[None, :]
    # a sum or square that overflows is inf, which _moment_scale rejects
    with np.errstate(over="ignore"):
        return _moment_scale(spectra.shape[1], spectra.sum(axis=1), (spectra**2).sum(axis=1))


def _moment_scale(d, tot, sq) -> float:
    # The pooled pair moment needs only each sample's sum E and sum E^2
    # (Tr H and Tr H^2), so no spectrum is required.
    if d < 2:
        raise ValueError("spectra need at least 2 levels")
    if not (np.isfinite(tot).all() and np.isfinite(sq).all()):
        raise NumericalError("non-finite Tr H or Tr H^2 in the energy scale")
    # finite moments can still overflow here (inf, or inf - inf = nan)
    with np.errstate(over="ignore", invalid="ignore"):
        pair_mean = (2 * d * sq - 2 * tot**2).sum() / (tot.size * d * (d - 1))
    if not np.isfinite(pair_mean):
        raise NumericalError(f"non-finite pair second moment {pair_mean} in the energy scale")
    if pair_mean <= 0:
        raise ValueError("degenerate ensemble: zero pair second moment")
    return float(np.sqrt(2 * (d + 1) / pair_mean))


@dataclass
class DynamicsTrace:
    """Time series of ensemble-averaged reduced density matrices."""

    times: np.ndarray
    rho: np.ndarray  # (T, d_A, d_A)

    @classmethod
    def from_mc(cls, result: MCResult) -> "DynamicsTrace":
        return cls(result.times, result.rho_mean)


def analytic_gue_trace(d_a: int, d_b: int, times) -> DynamicsTrace:
    """Closed-form averaged rho_A(t) for the Gaussian unitary ensemble."""
    return _coeff_trace("GUE", d_a, d_b, times)


def analytic_poisson_trace(d_a: int, d_b: int, times) -> DynamicsTrace:
    """Closed-form averaged rho_A(t) for Poisson level statistics."""
    return _coeff_trace("POISSON", d_a, d_b, times)


def _coeff_trace(statistics, d_a, d_b, times) -> DynamicsTrace:
    times = np.asarray(times, dtype=float)
    p1, pmix = spectral.rho_curve(statistics, d_a, d_b, times)
    rho = (pmix[:, None, None] * np.eye(d_a) / d_a).astype(complex)
    rho[:, 0, 0] += p1
    return DynamicsTrace(times, rho)


def distance_d6(a: DynamicsTrace, b: DynamicsTrace) -> float:
    """Time integral of the spectral norm of the trace difference.

    Trapezoidal rule on the common grid (the standard window is [0, 6]);
    the norm is the largest singular value of rho_a(t) - rho_b(t).
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("traces must share an identical time grid")
    norms = np.linalg.svd(a.rho - b.rho, compute_uv=False)[:, 0]
    return float(np.trapezoid(norms, a.times))


def _pilot_scale(spec, n_samples, rng, stream_offset=0, threads=1) -> float:
    # The energy scale of a spin ensemble from the coefficient vectors of its
    # samples (the streams of ensemble_dynamics): Tr H and Tr H^2 of each,
    # building no H.  Couplings that overflow raise NumericalError here.
    table = _table(spec)

    def moments(streams):
        return [table.moments(_coefficients(spec, gen)) for gen in _restarted(streams)]

    tot, sq = np.array(_run_blocks(moments, n_samples, rng, stream_offset, threads)).T
    return _moment_scale(spec.d, tot, sq)


def ensemble_dynamics(
    spec: ModelSpec,
    times,
    n_samples: int,
    rng: RngStream,
    threads: int = 1,
    scramble: bool = False,
    stream_offset: int = 0,
) -> MCResult:
    """Averaged subsystem dynamics of one ensemble.

    Spin-model families are first rescaled by one ensemble-global energy
    factor, estimated from a pilot pass over the same per-sample streams so
    that pooled <(E_i - E_j)^2> = 2(d+1); the pilot reads each sample's
    coefficient vector and takes Tr H and Tr H^2 from it, building no H, so
    each sample is assembled once, in the Monte Carlo.  The Gaussian and
    Poisson baselines are calibrated analytically and skip the pilot.  The
    pilot and the Monte Carlo run on up to ``threads`` worker threads under
    one OpenBLAS thread, as :func:`guedyn.sim.mc_average` documents.  The
    Monte Carlo hands a POISSON sample over as its drawn levels and Haar
    basis, diagonalises an SYK or CS sample per parity sector, and a TFIM or
    XXZ sample per sector of the real chain H_0 in the frame of its rotation
    (parity for TFIM, magnetisation for XXZ), whose bases the frame then
    rotates; GUE, DTFIM, DXXZ and SG samples are diagonalised whole.
    ``times`` is checked as :func:`guedyn.sim.mc_average` checks it, before
    the pilot.
    """
    times = _checked_times(times)
    scale = 1.0
    if spec.family in SPIN_FAMILIES:
        scale = _pilot_scale(spec, n_samples, rng, stream_offset, threads)
    return mc_average(
        _spectral_sampler(spec),
        spec.d_a,
        spec.d_b,
        times,
        n_samples,
        rng,
        scramble=scramble,
        energy_scale=scale,
        threads=threads,
        stream_offset=stream_offset,
    )
