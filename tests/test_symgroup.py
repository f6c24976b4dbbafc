"""Exact symmetric-group combinatorics: characters, dimensions, Weingarten."""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from guedyn.symgroup import (
    Permutation,
    character,
    class_table,
    class_size,
    conjugate_partition,
    hook_dimension,
    partitions,
    weingarten,
)


def weingarten_matrix(d: int, q: int) -> tuple[list[Permutation], list[list[Fraction]]]:
    """The q! x q! matrix Wg(d, sigma * tau^-1) over all of S_q.

    Returns the element order (lexicographic one-line notation) together
    with the matrix as nested lists of ``Fraction``, read through
    ``class_table``.  The matrix is symmetric with constant diagonal
    Wg(d, identity class).
    """
    elements, classes, table = class_table(q)
    wg = [weingarten(d, mu) for mu in classes]
    matrix = [[wg[c] for c in row] for row in table.tolist()]
    return elements, matrix


def table1_denominator(d, q):
    out = 1
    for z in range(q):
        out *= d * d - z * z
    return out


class TestPermutation:
    def test_cycle_type_examples(self):
        assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)
        assert Permutation.from_cycles(4, (1, 2), (3, 4)).cycle_type() == (2, 2)
        assert Permutation.from_cycles(4, (1, 2, 3)).cycle_type() == (3, 1)

    def test_composition_convention(self):
        # (sigma * tau)(i) = sigma(tau(i))
        sigma = Permutation.from_cycles(5, (1, 2, 3))
        tau = Permutation.from_cycles(5, (3, 4))
        for i in range(1, 6):
            assert (sigma * tau)(i) == sigma(tau(i))

    def test_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = Permutation(rng.permutation(6) + 1)
            assert p * p.inverse() == Permutation.identity(6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_all_elements(self):
        els = Permutation.all_elements(4)
        assert len(els) == 24 and len(set(els)) == 24


class TestPartitions:
    @pytest.mark.parametrize("q,count", [(1, 1), (2, 2), (4, 5), (6, 11)])
    def test_counts(self, q, count):
        assert len(partitions(q)) == count

    def test_conjugate(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)
        assert conjugate_partition((2, 2)) == (2, 2)

    def test_class_sizes_sum(self):
        for q in range(1, 7):
            assert sum(class_size(mu) for mu in partitions(q)) == factorial(q)


def count_syt(shape):
    """Brute-force count of standard Young tableaux by placement search."""

    def rec(rows):
        total_placed = sum(rows)
        if total_placed == sum(shape):
            return 1
        count = 0
        for i, filled in enumerate(rows):
            if filled < shape[i] and (i == 0 or rows[i - 1] > filled):
                rows[i] += 1
                count += rec(rows)
                rows[i] -= 1
        return count

    return rec([0] * len(shape))


class TestCharacters:
    def test_hook_dimension_trivial(self):
        for q in range(1, 7):
            assert hook_dimension((q,)) == 1
            assert hook_dimension(tuple([1] * q)) == 1

    def test_hook_dimension_vs_syt_enumeration(self):
        for q in range(2, 7):
            for shape in partitions(q):
                assert hook_dimension(shape) == count_syt(shape), shape

    def test_hook_22(self):
        assert hook_dimension((2, 2)) == 2

    def test_character_examples(self):
        for q in range(1, 7):
            for mu in partitions(q):
                assert character((q,), mu) == 1  # trivial representation
        assert character((1, 1), (2,)) == -1  # sign of a transposition
        assert character((2, 2), (1, 1, 1, 1)) == 2

    def test_sign_representation(self):
        for q in range(2, 7):
            for mu in partitions(q):
                parity = (-1) ** (q - len(mu))
                assert character(tuple([1] * q), mu) == parity

    def test_character_22_vs_subset_action(self):
        # chi^{(2,2)} = (fixed 2-subsets) - (fixed points): the permutation
        # action on 2-subsets of {1..4} contains (2,2) once on top of the
        # natural-representation content.
        subsets = list(itertools.combinations(range(1, 5), 2))
        for mu in partitions(4):
            found = None
            for p in Permutation.all_elements(4):
                if p.cycle_type() != mu:
                    continue
                fixed_subsets = sum(
                    1 for s in subsets if tuple(sorted(map(p, s))) == s
                )
                fixed_points = sum(1 for i in range(1, 5) if p(i) == i)
                value = fixed_subsets - fixed_points
                assert found is None or found == value
                found = value
            assert character((2, 2), mu) == found

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            character((2, 1), (2, 2))

    def test_orthogonality(self):
        for q in range(1, 7):
            shapes = partitions(q)
            for l1 in shapes:
                for l2 in shapes:
                    total = sum(
                        class_size(mu) * character(l1, mu) * character(l2, mu)
                        for mu in shapes
                    )
                    assert total == (factorial(q) if l1 == l2 else 0)

    def test_dimension_sum_rule(self):
        for q in range(1, 7):
            assert sum(hook_dimension(s) ** 2 for s in partitions(q)) == factorial(q)


class TestWeingarten:
    @pytest.mark.parametrize("d", range(4, 13))
    def test_table1_q2(self, d):
        denom = table1_denominator(d, 2)
        assert weingarten(d, (1, 1)) == Fraction(d * d, denom)
        assert weingarten(d, (2,)) == Fraction(-d, denom)

    @pytest.mark.parametrize("d", range(4, 13))
    def test_table1_q4(self, d):
        denom = table1_denominator(d, 4)
        assert weingarten(d, (1, 1, 1, 1)) == Fraction(d**4 - 8 * d * d + 6, denom)
        assert weingarten(d, (2, 1, 1)) == Fraction(-(d**3) + 4 * d, denom)
        assert weingarten(d, (2, 2)) == Fraction(d * d + 6, denom)
        assert weingarten(d, (3, 1)) == Fraction(2 * d * d - 3, denom)
        assert weingarten(d, (4,)) == Fraction(-5 * d, denom)

    def test_worked_example(self):
        # sigma = (12)(34): (d^2+6) over the quartic denominator
        sigma = Permutation.from_cycles(4, (1, 2), (3, 4))
        d = 6
        assert weingarten(d, sigma.cycle_type()) == Fraction(
            d * d + 6, table1_denominator(d, 4)
        )

    def test_q2_example_value(self):
        assert weingarten(4, (1, 1)) == Fraction(1, 15)

    def test_class_function(self):
        # value depends only on the conjugacy class, not the element
        rng = np.random.default_rng(3)
        els = Permutation.all_elements(4)
        for _ in range(100):
            sigma, tau = (els[i] for i in rng.integers(0, 24, 2))
            conjugated = tau * sigma * tau.inverse()
            assert weingarten(5, sigma.cycle_type()) == weingarten(
                5, conjugated.cycle_type()
            )

    @pytest.mark.parametrize("q,d", [(2, 2), (2, 5), (3, 3), (4, 4), (4, 9)])
    def test_gram_inverse(self, q, d):
        # Defining property: Wg is the inverse of the Gram matrix
        # G[tau][rho] = d^{#cycles(tau^-1 rho)} (exact rational identity).
        els, wg = weingarten_matrix(d, q)
        gram = [
            [Fraction(d ** len((t.inverse() * r).cycles())) for r in els] for t in els
        ]
        size = len(els)
        for i in range(size):
            for j in range(size):
                entry = sum(wg[i][k] * gram[k][j] for k in range(size))
                assert entry == (1 if i == j else 0)

    def test_small_dimension_moment(self):
        # For d < q the row-restricted sum is the Gram pseudo-inverse; the
        # U(1) moment of |V_11|^4 must come out exactly 1.
        total = sum(
            weingarten(1, (s * t.inverse()).cycle_type())
            for s in Permutation.all_elements(2)
            for t in Permutation.all_elements(2)
        )
        assert total == 1

    def test_matrix_structure(self):
        els, wg = weingarten_matrix(5, 3)
        size = len(els)
        diag = wg[0][0]
        for i in range(size):
            assert wg[i][i] == diag
            for j in range(size):
                assert wg[i][j] == wg[j][i]

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matrix_matches_pairwise_weingarten(self, q):
        for d in (1, 3, 6):
            els, wg = weingarten_matrix(d, q)
            assert els == Permutation.all_elements(q)
            assert wg == [
                [weingarten(d, (s * t.inverse()).cycle_type()) for t in els]
                for s in els
            ]

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4, 5])
    def test_class_table_matches_composition(self, q):
        els, classes, table = class_table(q)
        assert classes == partitions(q)
        assert table.shape == (factorial(q), factorial(q))
        assert table.dtype == np.int8
        for i, s in enumerate(els):
            for j, t in enumerate(els):
                assert classes[table[i, j]] == (s * t.inverse()).cycle_type()

    def test_q2_matrix_closed_form(self):
        d = 7
        _, wg = weingarten_matrix(d, 2)
        base = Fraction(1, d * (d * d - 1))
        assert wg == [[d * base, -base], [-base, d * base]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weingarten(0, (1, 1))
        with pytest.raises(ValueError):
            weingarten(4, (1, 2))
