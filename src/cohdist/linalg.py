"""Dense complex linear algebra for small matrices.

The suites build states of at most 9x9 (two qutrits); a state file may
hold any size.  Spectra come from _jacobi: at 2x2 the closed form mean +- radius of _spectrum_2x2, which
the batched measurement sweep shares, else LAPACK's eigvalsh_up gufunc;
the discord cross-check's eigenvectors come from eigh_up.  Only this
module imports their home, numpy.linalg._umath_linalg.  They are what
numpy.linalg.eigvalsh and eigh run at UPLO="U", called without numpy's
input checks (as_matrix and _check_rows make every input complex, square,
finite and Hermitian) but with its rule on output: a non-finite
eigenvalue, a failed solve, raises LinAlgError, a ValueError.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


@lru_cache(maxsize=None)
def identity(d: int) -> np.ndarray:
    """Read-only cached identity matrix."""
    m = np.eye(d, dtype=complex)
    m.setflags(write=False)
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of square matrices, bit for bit, by one cheaper broadcast product."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _jacobi(mat: np.ndarray) -> list[float]:
    """Eigenvalues, unsorted, of a Hermitian matrix: every state's positivity check.

    Reads only the diagonal and the upper triangle: callers have already
    checked Hermiticity.  A 2x2 (sweep recheck, protocols, qubit marginals)
    takes _spectrum_2x2 on plain Python scalars, which at that size beats
    a LAPACK call; any other size takes the eigvalsh_up gufunc through
    _eigvalsh, and a failed solve raises LinAlgError.
    """
    if mat.shape[0] == 2:
        (a, c), (_, d) = mat.tolist()
        return [*_spectrum_2x2(a.real, d.real, c)]
    return _eigvalsh(mat).tolist()


def _converged(values: np.ndarray) -> np.ndarray:
    """values, unless one is not finite: LAPACK's gufuncs write NaN where a
    solve fails, which numpy.linalg.eigvalsh and eigh report as LinAlgError."""
    if not np.isfinite(values).all():
        raise LinAlgError("Eigenvalues did not converge")
    return values


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh(m, UPLO="U") of a Hermitian complex matrix or a
    stack of them, bit for bit: ascending, from the upper triangle alone."""
    return _converged(_umath_linalg.eigvalsh_up(m, signature="D->d"))


def _spectrum_2x2(a, d, c):
    """Eigenvalues (mean + radius, mean - radius) of the Hermitian 2x2
    [[a, c], [c*, d]] with a and d real.

    Uses only operations that act alike on Python scalars and on numpy
    arrays, so the scalar path and the batched sweep share it.  The
    radius is the hypot of (a - d) / 2 and |c|, taken as the modulus of a
    complex number, which does not overflow where a sum of squares would.
    """
    mean = 0.5 * (a + d)
    radius = abs(0.5 * (a - d) + 1j * abs(c))
    return mean + radius, mean - radius


def hermitian_eigh(m: np.ndarray):
    """Full eigendecomposition by LAPACK's eigh_up gufunc, bit for bit
    numpy.linalg.eigh(m, UPLO="U"), for the discord cross-check, which is
    independent of the route it checks by its formula (relative entropies
    to product states), not by its eigensolver.

    Like _jacobi, trusts its caller to have checked Hermiticity (it is
    handed the matrix of a validated DensityMatrix), reads only the
    diagonal and the upper triangle, and raises LinAlgError if the solve
    fails.  Returns (values, vectors) with values descending and
    vectors[:, k] the unit eigenvector belonging to values[k].
    """
    vals, vecs = _umath_linalg.eigh_up(m, signature="D->dD")
    return _converged(vals)[::-1].tolist(), vecs[:, ::-1]
