"""Dense complex linear algebra for small matrices.

Nothing in this package builds a matrix larger than 8x8, so the
eigensolver favors determinism and robustness over asymptotic speed.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-10

# Jacobi convergence contract: off-diagonal Frobenius norm below
# JACOBI_OFF_TOL within JACOBI_MAX_SWEEPS cyclic sweeps, else error.
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Eigensolver hit the sweep cap before converging."""


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


def kron(a, b) -> np.ndarray:
    """Kronecker product (A-major composite index convention)."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return _rows_hermitian(m.tolist(), tol)


def _rows_hermitian(rows: list[list[complex]], tol: float) -> bool:
    """is_hermitian on a square matrix held as nested Python lists.

    Entries are compared one pair at a time on plain scalars, which on
    the 2x2 inputs of the measurement sweeps costs a fraction of the
    equivalent array expression.  Written as `not <=` so a NaN fails.
    """
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            if not abs(row[j] - rows[j][i].conjugate()) <= tol:
                return False
    return True


def _jacobi(mat: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Each sweep annihilates every off-diagonal element in turn with a
    complex plane rotation; sweeps repeat until the off-diagonal
    Frobenius norm drops below JACOBI_OFF_TOL.  Runs on plain Python
    scalars: at these sizes interpreter arithmetic beats vectorized
    calls, and the measurement sweeps hammer this routine on 2x2 input;
    a 2x2 without vectors takes the unrolled _jacobi_2x2_values.

    Returns (diagonal values unsorted, accumulated unitary or None).
    """
    n = mat.shape[0]
    a = mat.tolist()
    if n == 2 and not want_vectors and JACOBI_MAX_SWEEPS > 0:
        return _jacobi_2x2_values(a), None
    v = None
    if want_vectors:
        v = [[1.0 + 0.0j if i == j else 0.0j for j in range(n)] for i in range(n)]
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off2 = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                x = ai[j]
                off2 += x.real * x.real + x.imag * x.imag
        if 2.0 * off2 < JACOBI_OFF_TOL * JACOBI_OFF_TOL:
            return [a[i][i].real for i in range(n)], v
        if sweep == JACOBI_MAX_SWEEPS:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                r = abs(apq)
                if r == 0.0:
                    continue
                e = apq / r
                ec = e.conjugate()
                app = ap[p].real
                aqq = a[q][q].real
                if app == aqq:
                    t = 1.0
                else:
                    tau = (app - aqq) / (2.0 * r)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns: A <- A V, with V the rotation in the (p, q) plane
                for i in range(n):
                    ai = a[i]
                    aip = ai[p]
                    aiq = ai[q]
                    ai[p] = c * aip + s * ec * aiq
                    ai[q] = c * aiq - s * e * aip
                # rows: A <- V+ A
                aq = a[q]
                for j in range(n):
                    apj = ap[j]
                    aqj = aq[j]
                    ap[j] = c * apj + s * e * aqj
                    aq[j] = c * aqj - s * ec * apj
                ap[q] = 0.0j
                aq[p] = 0.0j
                if v is not None:
                    for i in range(n):
                        vi = v[i]
                        vip = vi[p]
                        viq = vi[q]
                        vi[p] = c * vip + s * ec * viq
                        vi[q] = c * viq - s * e * vip
    raise ConvergenceError(
        f"Jacobi did not reach off-norm {JACOBI_OFF_TOL} in {JACOBI_MAX_SWEEPS} sweeps"
    )


def _jacobi_2x2_values(a: list[list[complex]]) -> list[float]:
    """The cyclic loop of _jacobi unrolled for n == 2 without vectors.

    On a 2x2 the first sweep is a single rotation that zeroes both
    off-diagonal entries, so the loop always ends at the convergence
    test of the second sweep; _jacobi comes here only when
    JACOBI_MAX_SWEEPS allows that one sweep.  This runs the same
    convergence test and the same rotation with every expression in the
    loop's order, skipping only the two off-diagonal row updates the
    diagonal does not read, so its values are bit-identical to the
    loop's.
    """
    (a00, a01), (a10, a11) = a
    if 2.0 * (a01.real * a01.real + a01.imag * a01.imag) < JACOBI_OFF_TOL * JACOBI_OFF_TOL:
        return [a00.real, a11.real]
    r = abs(a01)
    e = a01 / r
    ec = e.conjugate()
    app = a00.real
    aqq = a11.real
    if app == aqq:
        t = 1.0
    else:
        tau = (app - aqq) / (2.0 * r)
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    # columns, then the diagonal entries of the row update
    b00 = c * a00 + s * ec * a01
    b01 = c * a01 - s * e * a00
    b10 = c * a10 + s * ec * a11
    b11 = c * a11 - s * e * a10
    return [(c * b00 + s * e * b10).real, (c * b11 - s * ec * b01).real]


def _checked_hermitian(a, tol: float) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: {m.shape}")
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def hermitian_eigenvalues(a, tol: float = DEFAULT_TOL) -> list[float]:
    """Eigenvalues of a Hermitian matrix via cyclic Jacobi, descending."""
    vals, _ = _jacobi(_checked_hermitian(a, tol), want_vectors=False)
    vals.sort(reverse=True)
    return vals


def hermitian_eigh(a, tol: float = DEFAULT_TOL):
    """Full eigendecomposition via cyclic Jacobi.

    Returns (values, vectors) with values descending and vectors[:, k]
    the unit eigenvector belonging to values[k].
    """
    m = _checked_hermitian(a, tol)
    vals, vecs = _jacobi(m, want_vectors=True)
    order = sorted(range(len(vals)), key=lambda k: -vals[k])
    w = [vals[k] for k in order]
    u = np.array([[vecs[i][k] for k in order] for i in range(len(vals))], dtype=complex)
    return w, u


def trace_distance(a, b) -> float:
    """(1/2) sum |eigenvalues| of the Hermitian difference a - b."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    vals = hermitian_eigenvalues(ma - mb)
    return 0.5 * sum(abs(x) for x in vals)
