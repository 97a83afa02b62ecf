"""Dense complex linear algebra for small matrices.

The largest matrix the package builds is 9x9 (two qutrits).  Spectra come
from _jacobi, in pure Python (a 2x2 closed form, else Householder
tridiagonalization and implicit QL), which favors determinism over
asymptotic speed; the discord cross-check's eigenvectors come from
numpy.linalg.eigh.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

# Validation tolerance of the package: Hermiticity, unit trace, positivity,
# Kraus completeness and probability sums all hold to within DEFAULT_TOL.
DEFAULT_TOL = 1e-10

# A 2x2 whose off-diagonal Frobenius norm is below JACOBI_OFF_TOL is already diagonal.
# QL deflates each eigenvalue within QL_MAX_ITER steps, else ConvergenceError.
JACOBI_OFF_TOL = 1e-12
QL_MAX_ITER = 30


class ConvergenceError(RuntimeError):
    """Tridiagonal QL hit its iteration cap before deflating an eigenvalue."""


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
    checked Hermiticity.  Runs on plain Python scalars, which at these
    sizes beat vectorized calls.  A 2x2, which the measurement sweeps
    hammer, takes _jacobi_2x2_values and any other size _block_values.
    """
    a = mat.tolist()
    return _jacobi_2x2_values(a) if len(a) == 2 else _block_values(a)


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


def _block_values(a: list[list[complex]]) -> list[float]:
    """Eigenvalues of a Hermitian matrix held as nested lists, on each block
    (connected component of the upper triangle's exact-nonzero pattern), at
    its indices: the diagonal entry of a block of size 1, _jacobi_2x2_values
    on size 2, and _tridiagonal and _ql_values on larger ones."""
    d = [row[i].real for i, row in enumerate(a)]  # the values of 1x1 blocks
    rest = list(range(len(a)))
    while rest:
        blk = [rest.pop(0)]  # its least index, so a 2x2 block is (p, q) with p < q
        for i in blk:  # grows while it is read: a breadth-first search
            hit = [j for j in rest if (a[i][j] if i < j else a[j][i]) != 0]
            rest = [j for j in rest if j not in hit]
            blk += hit
        if len(blk) == 2:
            p, q = blk
            d[p], d[q] = _jacobi_2x2_values([[a[p][p], a[p][q]], [None, a[q][q]]])
        elif len(blk) > 2:  # the Hermitian completion of the block's upper triangle
            h = [[a[i][j] if i < j else a[j][i].conjugate() if i > j else a[i][i].real for j in blk] for i in blk]
            for i, lam in zip(blk, _ql_values(*_tridiagonal(h))):
                d[i] = lam
    return d


def _tridiagonal(h: list[list[complex]]) -> tuple[list[float], list[float]]:
    """(diagonal, off-diagonal) of a real tridiagonal matrix with the spectrum
    of Hermitian h (full nested lists), by Householder reflections (Golub &
    Van Loan, Matrix Computations, 8.3.1) that keep h exactly Hermitian."""
    d, e = [], []
    while len(h) > 2:
        d.append(h[0][0].real)
        x = [row[0] for row in h[1:]]
        h = [row[1:] for row in h[1:]]
        r0 = abs(x[0])
        alpha = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in x))
        e.append(alpha)  # the reflection maps x onto alpha times a unit-modulus phase
        if alpha == 0.0:
            continue
        v = [x[0] + (x[0] / r0 if r0 else 1.0) * alpha, *x[1:]]  # reflection I - beta v v+
        beta = 1.0 / (alpha * (alpha + r0))
        p = [beta * sum(map(mul, row, v)) for row in h]
        vc = [z.conjugate() for z in v]
        k = 0.5 * beta * sum(map(mul, vc, p)).real
        w = [pi - k * vi for pi, vi in zip(p, v)]
        wc = [z.conjugate() for z in w]
        h = [[hij - (vi * wcj + wi * vcj) for hij, wcj, vcj in zip(row, wc, vc)] for row, vi, wi in zip(h, v, w)]
    return d + [h[0][0].real, h[1][1].real], e + [abs(h[0][1]), 0.0]


def _ql_values(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the real symmetric tridiagonal matrix with diagonal d and
    off-diagonal e (e[i] couples d[i] and d[i + 1]; e[-1] is 0) by implicit QL
    with Wilkinson shifts (Golub & Van Loan, 8.3.5), at most QL_MAX_ITER steps
    each.  Overwrites d and e."""
    n = len(d)
    for l in range(n):
        for it in range(QL_MAX_ITER + 1):
            m = l  # the unreduced block runs from l to the first negligible e[m]
            while m < n - 1 and abs(e[m]) + (abs(d[m]) + abs(d[m + 1])) != abs(d[m]) + abs(d[m + 1]):
                m += 1
            if m == l:
                break
            if it == QL_MAX_ITER:
                raise ConvergenceError(f"QL did not deflate an eigenvalue in {QL_MAX_ITER} iterations")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):  # chase the bulge up from m to l
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:  # underflow split the block at i + 1: start a new step
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
    return d


def hermitian_eigh(m: np.ndarray):
    """Full eigendecomposition by numpy.linalg.eigh, a route independent of
    _jacobi's arithmetic, for the discord cross-check.

    Like _jacobi, trusts its caller to have checked Hermiticity (it is
    handed the matrix of a validated DensityMatrix) and reads only the
    diagonal and the upper triangle.  Returns (values, vectors) with
    values descending and vectors[:, k] the unit eigenvector belonging
    to values[k].
    """
    vals, vecs = np.linalg.eigh(m, UPLO="U")
    return vals[::-1].tolist(), vecs[:, ::-1]
