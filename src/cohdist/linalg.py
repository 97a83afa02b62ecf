"""Dense complex linear algebra for small matrices.

The largest matrix the package builds is 9x9 (two qutrits).  Spectra come
from _jacobi: a 2x2 closed form in pure Python, else numpy.linalg.eigvalsh;
the discord cross-check's eigenvectors come from numpy.linalg.eigh.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Validation tolerance of the package: Hermiticity, unit trace, positivity,
# Kraus completeness and probability sums all hold to within DEFAULT_TOL.
DEFAULT_TOL = 1e-10

# A 2x2 whose off-diagonal Frobenius norm is below JACOBI_OFF_TOL is already diagonal.
JACOBI_OFF_TOL = 1e-12


@lru_cache(maxsize=None)
def identity(d: int) -> np.ndarray:
    """Read-only cached identity matrix."""
    m = np.eye(d, dtype=complex)
    m.setflags(write=False)
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array; unwraps objects carrying a .mat."""
    m = np.asarray(getattr(a, "mat", a), dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of square matrices, bit for bit, by one cheaper broadcast product."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _rows_hermitian(rows: list[list[complex]]) -> bool:
    """Hermiticity within DEFAULT_TOL of a square matrix held as nested
    Python lists.

    Entries are compared one pair at a time on plain scalars, which on
    the 2x2 inputs of the measurement sweeps costs a fraction of the
    equivalent array expression.  Written as `not <=` so a NaN fails.
    """
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            if not abs(row[j] - rows[j][i].conjugate()) <= DEFAULT_TOL:
                return False
    return True


def _jacobi(mat: np.ndarray) -> list[float]:
    """Eigenvalues, unsorted, of a Hermitian matrix: every state's positivity check.

    Reads only the diagonal and the upper triangle: callers have already
    checked Hermiticity.  A 2x2, which the measurement sweeps hammer,
    takes _jacobi_2x2_values on plain Python scalars, which at that size
    beat a LAPACK call; any other size takes numpy.linalg.eigvalsh.
    """
    if mat.shape[0] == 2:
        return _jacobi_2x2_values(mat.tolist())
    return np.linalg.eigvalsh(mat, UPLO="U").tolist()


def _jacobi_2x2_values(a: list[list[complex]]) -> list[float]:
    """Eigenvalues of a Hermitian 2x2 by the one Jacobi rotation that zeroes
    its off-diagonal entry.

    A matrix already diagonal within JACOBI_OFF_TOL returns its diagonal.
    Otherwise the rotation's tangent t, the smaller root for stability,
    moves the diagonal entries by +t|a01| and -t|a01| in closed form.
    """
    (a00, a01), (_, a11) = a
    if 2.0 * (a01.real * a01.real + a01.imag * a01.imag) < JACOBI_OFF_TOL * JACOBI_OFF_TOL:
        return [a00.real, a11.real]
    r = abs(a01)
    app = a00.real
    aqq = a11.real
    tau = (app - aqq) / (2.0 * r)
    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    tr = t * r
    return [app + tr, aqq - tr]


def hermitian_eigh(m: np.ndarray):
    """Full eigendecomposition by numpy.linalg.eigh, for the discord
    cross-check, which is independent of the route it checks by its formula
    (relative entropies to product states), not by its eigensolver.

    Like _jacobi, trusts its caller to have checked Hermiticity (it is
    handed the matrix of a validated DensityMatrix) and reads only the
    diagonal and the upper triangle.  Returns (values, vectors) with
    values descending and vectors[:, k] the unit eigenvector belonging
    to values[k].
    """
    vals, vecs = np.linalg.eigh(m, UPLO="U")
    return vals[::-1].tolist(), vecs[:, ::-1]
