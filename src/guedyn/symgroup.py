"""Exact combinatorics of the symmetric group S_q and Weingarten functions.

Conventions used throughout the package:

* A partition is a non-increasing tuple of positive ints, e.g. ``(2, 2)``.
* Permutations act on ``{1, .., q}`` and are stored in one-line notation.
* Composition is ``(sigma * tau)(i) = sigma(tau(i))``.
* All Weingarten arithmetic is exact (``fractions.Fraction``); floats only
  appear when a caller converts at an evaluation boundary.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

__all__ = [
    "Permutation",
    "partitions",
    "is_partition",
    "conjugate_partition",
    "class_size",
    "hook_dimension",
    "character",
    "weingarten",
    "class_table",
]


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if ``parts`` is a non-increasing tuple of positive integers."""
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def partitions(q: int) -> list[tuple[int, ...]]:
    """All partitions of ``q``, largest part first, in lexicographic order."""
    if q < 0:
        raise ValueError("q must be non-negative")

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, cap), 0, -1):
            out.extend((first,) + rest for rest in rec(remaining - first, first))
        return out

    return rec(q, q)


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def class_size(mu: tuple[int, ...]) -> int:
    """Number of elements of S_q with cycle type ``mu`` (q = sum of mu)."""
    q = sum(mu)
    z = 1
    for length in set(mu):
        m = mu.count(length)
        z *= length**m * factorial(m)
    return factorial(q) // z


class Permutation:
    """Element of S_q in one-line notation, acting on ``{1, .., q}``."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @property
    def q(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, q: int) -> "Permutation":
        return cls(range(1, q + 1))

    @classmethod
    def from_cycles(cls, q: int, *cycles) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles(4, (1, 2), (3, 4))``."""
        images = list(range(1, q + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                images[a - 1] = b
        return cls(images)

    @classmethod
    def all_elements(cls, q: int):
        """All q! elements, in lexicographic order of one-line notation."""
        return [cls(p) for p in itertools.permutations(range(1, q + 1))]

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.q
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering all points, fixed points included."""
        seen = [False] * self.q
        out = []
        for start in range(1, self.q + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return f"Permutation(id, q={self.q})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)
        return f"Permutation({body}, q={self.q})"


def hook_dimension(shape: tuple[int, ...]) -> int:
    """Dimension of the S_q irrep labelled by ``shape``, via hook lengths."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"not a partition: {shape}")
    conj = conjugate_partition(shape)
    dim = factorial(sum(shape))
    for i, row in enumerate(shape):
        for j in range(row):
            dim //= (row - j) + (conj[j] - i) - 1
    return dim


def _beta_set(shape: tuple[int, ...]) -> tuple[int, ...]:
    # Strictly decreasing first-column hook lengths: beta_i = shape_i + l - i.
    l = len(shape)
    return tuple(shape[i] + l - 1 - i for i in range(l))


def _from_beta(beta: tuple[int, ...]) -> tuple[int, ...]:
    l = len(beta)
    parts = tuple(b - (l - 1 - i) for i, b in enumerate(sorted(beta, reverse=True)))
    return tuple(p for p in parts if p > 0)


@cache
def character(shape: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character chi^shape evaluated on the class ``mu``.

    Computed by the Murnaghan-Nakayama border-strip recursion on the first
    part of ``mu``, with beta-set bookkeeping for strip removal.
    """
    shape, mu = tuple(shape), tuple(mu)
    if sum(shape) != sum(mu):
        raise ValueError(f"weights differ: {shape} vs {mu}")
    if not shape:
        return 1
    if not (is_partition(shape) and is_partition(mu)):
        raise ValueError(f"not partitions: {shape}, {mu}")
    k = mu[0]
    rest = mu[1:]
    beta = _beta_set(shape)
    beta_lookup = set(beta)
    total = 0
    for b in beta:
        if b < k or (b - k) in beta_lookup:
            continue
        # Height of the strip = number of beta entries jumped over.
        height = sum(1 for c in beta if b - k < c < b)
        new_beta = tuple(c for c in beta if c != b) + (b - k,)
        total += (-1) ** height * character(_from_beta(new_beta), rest)
    return total


@cache
def weingarten(d: int, mu: tuple[int, ...]) -> Fraction:
    """Exact Weingarten function Wg(d, sigma) for cycle type ``mu``.

    Character expansion over irreps with at most ``d`` rows:

        Wg(d, mu) = (1/q!) * sum_shape dim(shape) * chi^shape(mu)
                    / prod_{(i,j) in shape} (d + j - i)

    For d >= q the row restriction is vacuous.  For d < q it yields the
    pseudo-inverse of the rank-deficient Gram matrix, which is the value
    that makes the Haar moment formula hold in small dimensions.
    """
    mu = tuple(mu)
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu}")
    if d < 1:
        raise ValueError("d must be >= 1")
    q = sum(mu)
    total = Fraction(0)
    for shape in partitions(q):
        if len(shape) > d:
            continue
        content_prod = 1
        for i, row in enumerate(shape):
            for j in range(row):
                content_prod *= d + j - i
        total += Fraction(hook_dimension(shape) * character(shape, mu), content_prod)
    return total / factorial(q)


# Rows of sigma per block when composing sigma * tau^-1 over all of S_q.
_CLASS_BLOCK = 64


def class_table(q: int) -> tuple[list[Permutation], list[tuple[int, ...]], np.ndarray]:
    """Conjugacy class of sigma * tau^-1 for every pair of S_q.

    Returns ``(elements, classes, table)``: the elements in lexicographic
    one-line order (as :meth:`Permutation.all_elements`), the classes as
    ``partitions(q)``, and the ``(q!, q!)`` int8 array whose entry (i, j)
    indexes ``classes`` with the cycle type of elements[i] * elements[j]^-1.

    With 0-based images, sigma tau^-1 has the radix-q code
    sum_k sigma(tau^-1(k)) q^k = sum_m sigma(m) q^tau(m), so a block of
    rows of codes is one integer product of the image array with q^tau.
    A lookup of length q^q maps each code to its class.  The table holds
    q!^2 bytes: 0.5 MB at q = 6, 1.6 GB at q = 8.
    """
    elements = Permutation.all_elements(q)
    classes = partitions(q)
    class_id = {mu: c for c, mu in enumerate(classes)}
    images = np.array([p.images for p in elements], dtype=np.int64) - 1
    radix = q ** np.arange(q, dtype=np.int64)
    lookup = np.full(q**q, -1, dtype=np.int8)
    lookup[images @ radix] = [class_id[p.cycle_type()] for p in elements]
    weights = (q**images).T  # weights[m, j] = q^tau_j(m)
    n_el = len(elements)
    table = np.empty((n_el, n_el), dtype=np.int8)
    for start in range(0, n_el, _CLASS_BLOCK):
        rows = slice(start, start + _CLASS_BLOCK)
        table[rows] = lookup[images[rows] @ weights]
    return elements, classes, table
