"""Dense complex linear algebra for small matrices.

The largest matrix the package builds is 9x9 (two qutrits), so the
eigensolvers (cyclic Jacobi, and for eigenvalues alone Householder
tridiagonalization and implicit QL) favor determinism over asymptotic speed.
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

# Convergence contracts, else ConvergenceError: Jacobi's off-diagonal Frobenius norm below
# JACOBI_OFF_TOL within JACOBI_MAX_SWEEPS cyclic sweeps; QL_MAX_ITER QL steps per eigenvalue.
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
QL_MAX_ITER = 30


class ConvergenceError(RuntimeError):
    """Eigensolver hit its sweep or iteration cap before converging."""


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
    """The cyclic loop of hermitian_eigh unrolled for n == 2 without vectors.

    On a 2x2 the first sweep is a single rotation that zeroes the
    off-diagonal entry, so the loop always ends at the convergence test
    of the second sweep.  This runs the same convergence test and the
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


def _block_values(a: list[list[complex]]) -> list[float]:
    """Eigenvalues of a Hermitian matrix held as nested lists, on each block
    (connected component of the upper triangle's exact-nonzero pattern):
    the cyclic loop's values, bit for bit and at its indices, on blocks
    of size 1 and 2; _tridiagonal and _ql_values on larger ones."""
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
    """Full eigendecomposition via cyclic Jacobi.

    Like _jacobi, trusts its caller to have checked Hermiticity (it is
    handed the matrix of a validated DensityMatrix) and reads only the
    diagonal and the upper triangle.  Each sweep annihilates every upper
    off-diagonal element in turn with a complex plane rotation, until
    the off-diagonal Frobenius norm drops below JACOBI_OFF_TOL, moving
    the diagonal in closed form and updating the rest of rows and
    columns p and q once each, on the upper triangle only.  Returns
    (values, vectors) with values descending and vectors[:, k] the unit
    eigenvector belonging to values[k].
    """
    a = m.tolist()
    n = len(a)
    d = [a[i][i].real for i in range(n)]
    v = [[1.0 + 0.0j if i == j else 0.0j for j in range(n)] for i in range(n)]
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off2 = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                x = ai[j]
                off2 += x.real * x.real + x.imag * x.imag
        if 2.0 * off2 < JACOBI_OFF_TOL * JACOBI_OFF_TOL:
            order = sorted(range(n), key=lambda k: -d[k])
            return [d[k] for k in order], np.array([[vi[k] for k in order] for vi in v], dtype=complex)
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
                for vi in v:
                    vip = vi[p]
                    viq = vi[q]
                    vi[p] = c * vip + sec * viq
                    vi[q] = c * viq - se * vip
    raise ConvergenceError(
        f"Jacobi did not reach off-norm {JACOBI_OFF_TOL} in {JACOBI_MAX_SWEEPS} sweeps"
    )
