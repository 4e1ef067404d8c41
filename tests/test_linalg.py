"""Checked linear algebra: direct LAPACK calls against scipy's LU wrappers."""

from __future__ import annotations

import os
import subprocess
import sys

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


# Runs in a fresh interpreter: importing tdmech.cli and every path below must
# leave scipy unloaded, and the first solve must load it and match scipy.
_LAZY_LAPACK_SCRIPT = """
import sys

import numpy as np

import tdmech.cli  # noqa: F401
from tdmech.bundle import JetPoint, ReferenceFrame, VerticalPhasePoint
from tdmech.constraints import constrained_hamilton_residual
from tdmech.expr import parse
from tdmech.hamilton import HamiltonianForm, integrate_hamilton
from tdmech.lagrange import Lagrangian, legendre_map
from tdmech.linalg import checked_solve
from tdmech.poisson import bracket_vertical, evolution_derivative_split

H = HamiltonianForm.parse("0.5*p1^2 + 0.5*y1^2 + 0.1*t*y1", 1)
traj = integrate_hamilton(H, VerticalPhasePoint(0.0, [1.0], [0.0]), 0.1, 0.01)
constrained_hamilton_residual(H, None, traj)
q = VerticalPhasePoint(0.2, [0.3], [-0.4])
evolution_derivative_split(H, ReferenceFrame.parse(["0.5*y1"]), parse("y1*p1"), q)
bracket_vertical(parse("y1^2"), parse("p1*y1"), q)
legendre_map(Lagrangian.parse("0.5*exp(y1)*v1^2", 1), JetPoint(0.3, [0.4], [-0.7]))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

a = np.array([[4.0, 1.0, -2.0], [1.0, 3.0, 0.5], [-2.0, 0.5, 5.0]])
b = np.array([1.0, -2.0, 0.25])
x = checked_solve(a, b)
assert "scipy" in sys.modules
import scipy.linalg

assert x.tobytes() == scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b).tobytes()
"""


def test_lapack_is_bound_on_first_solve():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_LAPACK_SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
