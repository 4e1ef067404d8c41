"""Checked linear algebra used by the dynamics and constraint modules.

The LU factorization and solves call LAPACK's ``dgetrf`` and ``dgetrs``
directly.  These are the routines behind ``scipy.linalg.lu_factor`` and
``lu_solve``, so results are bit-identical to theirs, without their
per-call argument handling; the checks they make that matter here (finite
input, empty arrays, matching shapes) are made below.

LAPACK is bound on first use.  Importing scipy takes longer than most
commands that never solve a linear system, so the first factorization
imports ``scipy.linalg.lapack`` and rebinds the module names ``dgetrf``
and ``dgetrs`` to its routines; every later call goes to LAPACK directly.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

PIVOT_TOLERANCE = 1e-10
KERNEL_TOLERANCE = 1e-10


def dgetrf(a):
    """Stand-in for LAPACK's ``dgetrf`` until the first factorization.

    Imports ``scipy.linalg.lapack``, rebinds this module's ``dgetrf`` and
    ``dgetrs`` to its routines and factors ``a``.  Every solve follows a
    factorization, so ``dgetrs`` needs no stand-in of its own.
    """
    global dgetrf, dgetrs
    from scipy.linalg.lapack import dgetrf, dgetrs

    return dgetrf(a)


dgetrs = None  # bound by the first dgetrf call


def checked_lu(matrix: np.ndarray, exc: type = SingularMatrix):
    """LU factorization with partial pivoting and a scaled pivot check.

    Returns ``(lu, piv)`` as ``scipy.linalg.lu_factor`` does, with 0-based
    pivot indices.  Raises ``ValueError`` for NaN or inf entries, and
    ``exc`` if the smallest pivot falls below ``PIVOT_TOLERANCE`` relative
    to the largest, which is how near-singularity is reported throughout
    the package.  An exactly zero pivot fails the same test.
    """
    a = np.asarray_chkfinite(matrix, dtype=float)
    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=np.int32)
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    pivots = np.abs(lu.diagonal())
    if pivots.min() < PIVOT_TOLERANCE * max(1.0, pivots.max()):
        raise exc(f"matrix is singular to working precision (pivots {pivots})")
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, rhs) -> np.ndarray:
    b = np.asarray_chkfinite(rhs, dtype=float)
    if lu.shape[0] != b.shape[0]:
        raise ValueError(f"Shapes of lu {lu.shape} and b {b.shape} are incompatible")
    if b.size == 0:
        return np.empty_like(b)
    x, info = dgetrs(lu, piv, b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def checked_solve(matrix: np.ndarray, rhs: np.ndarray, exc: type = SingularMatrix) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` after :func:`checked_lu`; ``rhs`` may hold columns."""
    lu, piv = checked_lu(matrix, exc)
    return _lu_solve(lu, piv, rhs)


def checked_inverse(matrix: np.ndarray, exc: type = SingularMatrix) -> np.ndarray:
    """Inverse of a square matrix after :func:`checked_lu`."""
    lu, piv = checked_lu(matrix, exc)
    return _lu_solve(lu, piv, np.eye(lu.shape[0]))


def kernel_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, found by singular value decomposition.

    Returns the basis as rows.  Singular values below ``KERNEL_TOLERANCE``
    times the largest count as zero; an all-zero or empty matrix yields the
    full space.
    """
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return np.eye(a.shape[1] if a.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(a.shape[1])
    rank = int(np.sum(s > KERNEL_TOLERANCE * s[0]))
    return vh[rank:]
