"""Masked matrices, the masked Frobenius distance behind the tests'
masked error, symmetric eigenvalues and the rank cutoff that zeroes their
rounding noise."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import frobenius_sq_masked
from sigpca import MaskedMatrix, NumericalError, ShapeError
from sigpca.linalg import sym_eigvals
from sigpca.significance import _rank_cutoff, _top_eigenvalues


class TestMaskedMatrix:
    def test_complete_marks_everything_observed(self):
        m = MaskedMatrix.complete([[1.0, 2.0], [3.0, 4.0]])
        assert m.mask.all()
        assert m.shape == (2, 2)
        assert np.count_nonzero(m.mask) == 4

    def test_masked_entries_stored_as_zero(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        mask = np.array([[True, False], [True, True]])
        m = MaskedMatrix(values, mask)
        assert m.values[0, 1] == 0.0
        assert not m.mask.all()
        assert np.count_nonzero(m.mask) == 3
        assert list(m.column_observed_counts()) == [2, 1]

    def test_column_means_use_observed_entries_only(self):
        values = np.array([[2.0, 9.0], [4.0, 0.0]])
        mask = np.array([[True, False], [True, False]])
        m = MaskedMatrix(values, mask)
        assert np.allclose(m.column_means(), [3.0, 0.0])

    def test_arrays_are_frozen(self):
        m = MaskedMatrix.complete([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.mask[0, 0] = False

    def test_shape_and_dtype_validation(self):
        with pytest.raises(ShapeError):
            MaskedMatrix.complete([1.0, 2.0])
        with pytest.raises(ShapeError):
            MaskedMatrix(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))
        with pytest.raises(ShapeError):
            MaskedMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=float))

    def test_observed_entries_must_be_finite(self):
        values = np.array([[np.inf, 1.0]])
        with pytest.raises(ShapeError):
            MaskedMatrix(values, np.array([[True, True]]))
        # The same non-finite value is fine when masked out.
        m = MaskedMatrix(values, np.array([[False, True]]))
        assert m.values[0, 0] == 0.0


class TestFrobeniusSqMasked:
    """The distance ``helpers.masked_mse`` divides by the observed count."""

    def test_identical_matrices_give_zero(self):
        a = MaskedMatrix.complete([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq_masked(a, a.values) == 0.0

    def test_hand_example_fully_observed(self):
        a = MaskedMatrix.complete([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_sq_masked(a, np.zeros((2, 2))) == 30.0

    def test_hand_example_with_masked_corner(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[False, True], [True, True]])
        a = MaskedMatrix(values, mask)
        assert frobenius_sq_masked(a, np.zeros((2, 2))) == 29.0

    def test_shape_mismatch_rejected(self):
        a = MaskedMatrix.complete([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            frobenius_sq_masked(a, np.zeros((2, 2)))

    @given(
        values=arrays(np.float64, (4, 3), elements=st.floats(-10, 10)),
        other=arrays(np.float64, (4, 3), elements=st.floats(-10, 10)),
        mask=arrays(np.bool_, (4, 3)),
        row_perm=st.permutations(range(4)),
        col_perm=st.permutations(range(3)),
    )
    def test_invariant_under_joint_permutation(self, values, other, mask, row_perm, col_perm):
        a = MaskedMatrix(values, mask)
        base = frobenius_sq_masked(a, other)
        rp, cp = np.asarray(row_perm), np.asarray(col_perm)
        permuted = MaskedMatrix(values[rp][:, cp], mask[rp][:, cp])
        assert frobenius_sq_masked(permuted, other[rp][:, cp]) == pytest.approx(
            base, rel=1e-12, abs=1e-12
        )

    @given(
        values=arrays(np.float64, (3, 5), elements=st.floats(-10, 10)),
        other=arrays(np.float64, (3, 5), elements=st.floats(-10, 10)),
        mask=arrays(np.bool_, (3, 5)),
    )
    def test_masked_distance_never_exceeds_full_distance(self, values, other, mask):
        full = frobenius_sq_masked(MaskedMatrix.complete(values), other)
        partial = frobenius_sq_masked(MaskedMatrix(values, mask), other)
        assert partial <= full + 1e-9 * max(full, 1.0)


class TestSymEigvals:
    """``sym_eigvals`` returns eigenvalues as computed; the tests of
    nonnegativity and of the rounding tail go through
    ``significance._top_eigenvalues`` and ``_rank_cutoff``, the one rule
    that zeroes eigenvalues."""

    def test_descending_order_and_trace(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            x = gen.standard_normal((6, 6))
            s = x + x.T
            vals = sym_eigvals(s)
            assert np.all(np.diff(vals) <= 0)
            assert np.sum(vals) == pytest.approx(np.trace(s), rel=1e-8, abs=1e-8)

    def test_two_by_two_analytic(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(sym_eigvals(s), [3.0, 1.0], atol=1e-12)

    def test_gram_matrix_eigenvalues_nonnegative(self):
        gen = np.random.default_rng(6)
        for _ in range(10):
            x = gen.standard_normal((4, 9))
            vals = _top_eigenvalues(x, 4)
            assert np.all(vals >= 0.0)
            assert np.all(np.diff(vals) <= 0)

    def test_tiny_negative_rounding_clamped_to_zero(self):
        # Rank-1 Gram matrix: one positive eigenvalue, the rest rounding
        # noise of either sign, which the rank cutoff makes exactly zero.
        x = np.outer([1.0, 2.0, 3.0], np.ones(4))
        vals = _top_eigenvalues(x, 3)
        assert vals[0] == pytest.approx(56.0, rel=1e-12)
        assert np.array_equal(vals[1:], [0.0, 0.0])

    def test_genuinely_indefinite_matrix_keeps_negative_values(self):
        s = np.diag([2.0, -3.0])
        assert np.allclose(sym_eigvals(s), [2.0, -3.0])

    def test_non_finite_input_raises_numerical_error(self):
        s = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises((NumericalError, ShapeError, ValueError)):
            sym_eigvals(s)

    @staticmethod
    def gram_stack(seed, count=5, m=6):
        gen = np.random.default_rng(seed)
        stack = np.empty((count, m, m))
        for i in range(count):
            x = gen.standard_normal((m, m + 3)) * 10.0 ** int(gen.integers(-3, 4))
            stack[i] = x @ x.T
        return stack

    def test_stack_gives_the_same_bits_as_one_call_per_matrix(self):
        stack = self.gram_stack(7)
        vals = sym_eigvals(stack)
        assert vals.shape == (5, 6)
        for i in range(5):
            assert np.array_equal(vals[i], sym_eigvals(stack[i]))
        nested = sym_eigvals(stack[:4].reshape(2, 2, 6, 6))
        assert np.array_equal(nested.reshape(4, 6), vals[:4])

    def test_stack_with_one_non_finite_matrix_raises_numerical_error(self):
        stack = self.gram_stack(9)
        stack[2, 4, 4] = np.inf
        with pytest.raises(NumericalError):
            sym_eigvals(stack)

    def test_clamp_uses_each_matrix_own_norm(self):
        # Rank-1 Gram matrices at scales 1e6 and 1e-6, and a diagonal one
        # with a negative entry.  Each spectrum is cut against its own
        # leading value; a cutoff sized to the stack's largest (1.4e7)
        # would also wipe out the leading 1.4e-5 of the second matrix.
        v = np.array([[1.0, 2.0, 3.0]])
        base = v.T @ v
        diagonal = np.diag([2e-6, -1e-6, 1e-7])
        stack = np.stack([1e6 * base, 1e-6 * base, diagonal])
        vals = _rank_cutoff(sym_eigvals(stack), 0.0)
        for i in range(3):
            assert np.array_equal(vals[i], _rank_cutoff(sym_eigvals(stack[i]), 0.0))
        assert vals[0, 0] == pytest.approx(14e6, rel=1e-12)
        assert vals[1, 0] == pytest.approx(14e-6, rel=1e-12)
        assert np.array_equal(vals[:2, 1:], np.zeros((2, 2)))
        assert np.array_equal(vals[2], [2e-6, 1e-7, 0.0])
