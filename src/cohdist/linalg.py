"""Dense complex linear algebra for small matrices.

The suites build states of at most 9x9 (two qutrits); a state file may
hold any size.  Spectra come from _jacobi: at 2x2 the closed form mean +- radius of _spectrum_2x2, which
the batched measurement sweep shares, else numpy.linalg.eigvalsh; the
discord cross-check's eigenvectors come from numpy.linalg.eigh.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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


def _jacobi(mat: np.ndarray) -> list[float]:
    """Eigenvalues, unsorted, of a Hermitian matrix: every state's positivity check.

    Reads only the diagonal and the upper triangle: callers have already
    checked Hermiticity.  A 2x2 (sweep recheck, protocols, qubit marginals)
    takes _spectrum_2x2 on plain Python scalars, which at that size beats
    a LAPACK call; any other size takes numpy.linalg.eigvalsh.
    """
    if mat.shape[0] == 2:
        (a, c), (_, d) = mat.tolist()
        return [*_spectrum_2x2(a.real, d.real, c)]
    return np.linalg.eigvalsh(mat, UPLO="U").tolist()


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
