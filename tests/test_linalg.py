"""Checked linear algebra: direct LAPACK calls against scipy's LU wrappers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from tdmech.errors import SingularLagrangian, SingularMatrix
from tdmech.linalg import checked_inverse, checked_lu, checked_solve


def well_conditioned(rng, rows, cols=None):
    cols = rows if cols is None else cols
    a = rng.uniform(-1.0, 1.0, size=(rows, cols))
    a[np.arange(min(rows, cols)), np.arange(min(rows, cols))] += 2.0 * max(rows, cols)
    return a


class TestMatchesScipy:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_factor_solve_and_inverse_are_bit_identical(self, rng, n):
        for _ in range(5):
            a = well_conditioned(rng, n)
            b = rng.uniform(-1.0, 1.0, size=n)
            columns = rng.uniform(-1.0, 1.0, size=(n, 3))
            lu, piv = checked_lu(a)
            ref_lu, ref_piv = scipy.linalg.lu_factor(a)
            assert lu.tobytes() == ref_lu.tobytes()
            assert piv.tobytes() == ref_piv.tobytes()
            for rhs in (b, columns):
                x = checked_solve(a, rhs)
                assert x.tobytes() == scipy.linalg.lu_solve((ref_lu, ref_piv), rhs).tobytes()
            inverse = checked_inverse(a)
            assert inverse.tobytes() == scipy.linalg.lu_solve((ref_lu, ref_piv), np.eye(n)).tobytes()

    def test_rectangular_matrix_factors(self, rng):
        for shape in ((3, 2), (2, 4)):
            a = well_conditioned(rng, *shape)
            lu, piv = checked_lu(a)
            ref_lu, ref_piv = scipy.linalg.lu_factor(a)
            assert lu.shape == shape
            assert lu.tobytes() == ref_lu.tobytes()
            assert piv.tobytes() == ref_piv.tobytes()


class TestSingular:
    def test_exact_zero_pivot_raises_the_given_exception(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularLagrangian):
            checked_solve(a, np.ones(2), exc=SingularLagrangian)
        with pytest.raises(SingularLagrangian):
            checked_inverse(a, exc=SingularLagrangian)

    def test_near_singular_pivot_is_judged_relative_to_the_largest(self):
        with pytest.raises(SingularLagrangian):
            checked_lu(np.diag([1e6, 1e-5]), exc=SingularLagrangian)
        with pytest.raises(SingularMatrix):
            checked_lu(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]))
        # Below unit scale the test is absolute: a small but lone pivot passes.
        lu, _ = checked_lu(np.array([[1e-5]]))
        assert lu.tolist() == [[1e-5]]


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_or_rhs_is_a_value_error(self, bad):
        a = np.eye(2)
        broken = a.copy()
        broken[1, 0] = bad
        with pytest.raises(ValueError):
            checked_lu(broken)
        with pytest.raises(ValueError):
            checked_inverse(broken)
        with pytest.raises(ValueError):
            checked_solve(a, np.array([1.0, bad]))

    def test_empty_matrix_gives_empty_results(self):
        empty = np.zeros((0, 0))
        lu, piv = checked_lu(empty)
        assert lu.shape == (0, 0) and piv.shape == (0,)
        assert checked_solve(empty, np.zeros(0)).shape == (0,)
        assert checked_inverse(empty).shape == (0, 0)

    def test_inverse_times_matrix_is_identity(self, rng):
        for n in range(1, 9):
            a = well_conditioned(rng, n)
            assert np.allclose(checked_inverse(a) @ a, np.eye(n), rtol=0.0, atol=1e-14)
