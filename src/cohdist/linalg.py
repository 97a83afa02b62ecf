"""Dense complex linear algebra for small matrices.

The largest matrix the package builds is 9x9 (a bipartite state of
two qutrits), so the eigensolver favors determinism and robustness
over asymptotic speed.
Composite indices are always A-major: |i>_A |j>_B sits at i * dim_b + j.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Validation tolerance of the package: Hermiticity, unit trace, positivity,
# Kraus completeness and probability sums all hold to within DEFAULT_TOL.
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


def _jacobi(mat: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Reads only the diagonal and the upper triangle: callers have already
    checked Hermiticity, so the lower triangle carries no information.
    Each sweep annihilates every upper off-diagonal element in turn with
    a complex plane rotation; sweeps repeat until the off-diagonal
    Frobenius norm drops below JACOBI_OFF_TOL.  A rotation moves the
    diagonal in closed form and updates the rest of rows and columns p
    and q once each, on the upper triangle only.  Runs on plain Python
    scalars: at these sizes interpreter arithmetic beats vectorized
    calls, and the measurement sweeps hammer this routine on 2x2 input;
    a 2x2 without vectors takes the unrolled _jacobi_2x2_values.

    Returns (diagonal values unsorted, accumulated unitary or None).
    """
    n = mat.shape[0]
    a = mat.tolist()
    if n == 2 and not want_vectors and JACOBI_MAX_SWEEPS > 0:
        return _jacobi_2x2_values(a), None
    d = [a[i][i].real for i in range(n)]
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
            return d, v
        if sweep == JACOBI_MAX_SWEEPS:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                r = abs(apq)
                if r == 0.0:
                    continue
                dp = d[p]
                dq = d[q]
                if dp == dq:
                    t = 1.0
                else:
                    tau = (dp - dq) / (2.0 * r)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                se = t * c * (apq / r)
                sec = se.conjugate()
                tr = t * r
                d[p] = dp + tr
                d[q] = dq - tr
                ap[q] = 0.0j
                aq = a[q]
                # A <- V+ A V on the upper triangle, V the (p, q) rotation:
                # column entries above p, then the mixed span, then row entries
                for k in range(p):
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp + sec * akq
                    ak[q] = c * akq - se * akp
                for k in range(p + 1, q):
                    ak = a[k]
                    apk = ap[k]
                    akq = ak[q]
                    ap[k] = c * apk + se * akq.conjugate()
                    ak[q] = c * akq - se * apk.conjugate()
                for k in range(q + 1, n):
                    apk = ap[k]
                    aqk = aq[k]
                    ap[k] = c * apk + se * aqk
                    aq[k] = c * aqk - sec * apk
                if v is not None:
                    for vi in v:
                        vip = vi[p]
                        viq = vi[q]
                        vi[p] = c * vip + sec * viq
                        vi[q] = c * viq - se * vip
    raise ConvergenceError(
        f"Jacobi did not reach off-norm {JACOBI_OFF_TOL} in {JACOBI_MAX_SWEEPS} sweeps"
    )


def _jacobi_2x2_values(a: list[list[complex]]) -> list[float]:
    """The cyclic loop of _jacobi unrolled for n == 2 without vectors.

    On a 2x2 the first sweep is a single rotation that zeroes the
    off-diagonal entry, so the loop always ends at the convergence test
    of the second sweep; _jacobi comes here only when JACOBI_MAX_SWEEPS
    allows that one sweep.  This runs the same convergence test and the
    same closed-form diagonal update with every expression in the
    loop's order, so its values are bit-identical to the loop's.
    """
    (a00, a01), (_, a11) = a
    if 2.0 * (a01.real * a01.real + a01.imag * a01.imag) < JACOBI_OFF_TOL * JACOBI_OFF_TOL:
        return [a00.real, a11.real]
    r = abs(a01)
    app = a00.real
    aqq = a11.real
    if app == aqq:
        t = 1.0
    else:
        tau = (app - aqq) / (2.0 * r)
        t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    tr = t * r
    return [app + tr, aqq - tr]


def hermitian_eigh(m: np.ndarray):
    """Full eigendecomposition via cyclic Jacobi.

    Like _jacobi, trusts its caller to have checked Hermiticity (it is
    handed the matrix of a validated DensityMatrix).  Returns (values,
    vectors) with values descending and vectors[:, k] the unit
    eigenvector belonging to values[k].
    """
    vals, vecs = _jacobi(m, want_vectors=True)
    order = sorted(range(len(vals)), key=lambda k: -vals[k])
    w = [vals[k] for k in order]
    u = np.array([[vecs[i][k] for k in order] for i in range(len(vals))], dtype=complex)
    return w, u
