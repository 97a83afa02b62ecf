"""Batched rates of rank-1 measurements on A, and the exhaustive sweep of a Werner state's."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
# c_re is unused here, but perfbench's tracer test reads optimize.c_re
from .coherence import c_re  # noqa: F401
from .protocols import PROB_FLOOR, KrausChannel, ensemble_rate, measure_local_A
from .scalars import DEFAULT_TOL, _indices
from .states import werner

# Sweep rates this close to the grid maximum count as tied with it, and
# the batched and scalar routes must agree this closely at a rechecked point.
SWEEP_TIE_TOL = 1e-12

# Grid points the scalar route recomputes, the winner among them.
RECHECK_POINTS = 64

# Grid points per _rates batch, so memory is bounded on any grid.
CHUNK_POINTS = 4096


@dataclass(frozen=True)
class BruteForceResult:
    """Best projective measurement found by the exhaustive sweep: its
    rate and the polar and azimuthal angles of its Bloch direction."""

    rate: float
    theta: float
    phi: float


def _projector_pairs(st, ct, sp, cp) -> np.ndarray:
    """Stacked projector pairs {|n><n|, |-n><-n|}, shape (N, 2, 2, 2), one per
    Bloch direction n = (st cp, st sp, ct) of the four length-N arrays."""
    nx, ny, nz = st * cp, st * sp, ct
    pairs = np.empty((len(nz), 2, 2, 2), dtype=complex)
    pairs[:, 0, 0, 0] = 0.5 * (1.0 + nz)
    pairs[:, 0, 0, 1] = 0.5 * (nx - 1j * ny)
    pairs[:, 0, 1, 0] = pairs[:, 0, 0, 1].conj()
    pairs[:, 0, 1, 1] = 0.5 * (1.0 - nz)
    np.subtract(linalg.identity(2), pairs[:, 0], out=pairs[:, 1])
    return pairs


@lru_cache(maxsize=16)
def _grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, ...]:
    """Read-only angles of the grid, their sines and cosines, and its fixed-seed recheck draw."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    trig = [np.array([f(t) for t in angles.tolist()]) for angles in (thetas, phis) for f in (math.sin, math.cos)]
    draw = np.random.default_rng(0).choice(n_theta * n_phi - 1, min(n_theta * n_phi, RECHECK_POINTS) - 1, replace=False)
    for a in (thetas, phis, *trig, draw):
        a.setflags(write=False)
    return (thetas, phis, *trig, draw)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """xlog2x elementwise; an entry <= 0 maps to (signed) zero."""
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _rates(rho, elements: np.ndarray) -> np.ndarray:
    """ensemble_rate(measure_local_A(...)) of the bipartite state rho for each
    row of a stack of rank-1 measurement elements on A, shape (N, L, da, da).

    Bob's unnormalized conditional state is tr_A[(K x I) rho (K x I)+] =
    tr_A[(M x I) rho] for K+ K = M, one product over rho's A indices.  As in
    measure_local_A, outcomes below PROB_FLOOR are dropped, the kept q are
    divided by their total (none kept: ValueError), and each kept state must
    be finite, Hermitian, of unit trace and have no eigenvalue below
    -DEFAULT_TOL, else ValueError.  One set of these rules serves every B;
    only the spectrum's source depends on db: the scalar route's
    linalg._spectrum_2x2 at 2, one stacked linalg._eigvalsh above.  No
    Werner closed form enters.  Each rate is sum q (S(Delta sigma) - S(sigma)).
    """
    da, db = rho.dims
    n, outcomes = elements.shape[:2]
    # bob[L k + l, b, b'] = sum_{a, a'} elements[k, l, a', a] mat[a b, a' b']
    by_a = rho.mat.reshape(da, db, da, db).transpose(2, 0, 1, 3).reshape(da * da, db * db)
    bob = (elements.reshape(-1, da * da) @ by_a).reshape(-1, db, db)
    q = np.einsum("nii->n", bob).real  # 40x faster than a sum over the strided diagonal
    keep = ~(q < PROB_FLOOR)  # a NaN is kept, and fails below
    np.divide(bob, q[:, None, None], out=bob, where=keep[:, None, None])
    # every entry enters a `<=` test, which a NaN or an infinity fails: each pair once, the diagonal's real parts in the trace
    diagonal = [bob[:, k, k] for k in range(db)]
    valid = np.abs(sum(diagonal) - 1.0) <= DEFAULT_TOL
    for i, j in itertools.combinations_with_replacement(range(db), 2):  # on the diagonal |x - x*| is 2 |Im x|, a real abs
        valid &= (np.abs(bob[:, i, j] - bob[:, j, i].conj()) if i < j else 2.0 * np.abs(bob[:, i, i].imag)) <= DEFAULT_TOL
    if db == 2:  # the scalar route's 2x2 form, ascending; faster than LAPACK at this size
        spectrum = linalg._spectrum_2x2(diagonal[0].real, diagonal[1].real, bob[:, 0, 1])[::-1]
    else:  # LAPACK fails on a non-finite entry, so a state already rejected enters as zeros
        spectrum = linalg._eigvalsh(np.where(valid[:, None, None], bob, 0.0)).T
    valid &= spectrum[0] >= -DEFAULT_TOL
    coherence = sum(map(_xlog2x, spectrum)) - sum(_xlog2x(x.real) for x in diagonal)  # S(Delta sigma) - S(sigma)
    if not (ok := valid | ~keep).all():
        raise ValueError("conditional state {1} of measurement {0} is not a state".format(*divmod(int(np.argmin(ok)), outcomes)))
    # sums over each measurement's outcomes; a matmul is 15x faster than .sum(axis=1) on rows this short
    total, rate = (np.where(keep, x, 0.0).reshape(n, outcomes) @ np.ones(outcomes) for x in (q, q * coherence))
    if not total.all():
        raise ValueError(f"all outcomes of measurement {int(np.argmin(total))} fell below the probability floor")
    return rate / total


def brute_force_measurement_opt(p: float, grid: tuple[int, int]) -> BruteForceResult:
    """Exhaustive sweep of rank-1 projective measurements on A.

    For every direction n on the (theta x phi) grid Alice measures
    {|n><n|, |-n><-n|} on her half of werner(p).  _rates takes every rate
    from the state's matrix, CHUNK_POINTS points at a time, and only the
    rates are kept; no Werner closed form enters.  Tie-break rule: the
    winner is the first point in theta-major order whose rate is within
    SWEEP_TIE_TOL of the grid maximum.  Werner rates are flat in phi, so
    without the rule rounding noise of order 1e-16 would pick the
    reported azimuth.

    The scalar route, ensemble_rate(measure_local_A(...)), recomputes the
    winner and min(N, RECHECK_POINTS) - 1 other points of the N-point grid,
    drawn by a fixed-seed generator, so a small grid is rechecked in full.
    A difference beyond SWEEP_TIE_TOL raises ArithmeticError.  The
    reported rate is the scalar route's value at the winner.
    """
    rho = werner(p)
    if not isinstance(grid, (tuple, list)) or len(grid) != 2:
        raise ValueError(f"grid must hold two sizes, got {grid!r}")
    n_theta, n_phi = _indices(grid, "grid sizes")
    if n_theta < 2:
        raise ValueError(f"grid must be at least 2 x 1, got {grid}")
    thetas, phis, st, ct, sp, cp, others = _grid(n_theta, n_phi)
    n = n_theta * n_phi

    def pairs(points):  # at theta-major grid indices
        t, f = np.divmod(points, n_phi)
        return _projector_pairs(st[t], ct[t], sp[f], cp[f])

    rates = np.concatenate([_rates(rho, pairs(np.arange(i, min(i + CHUNK_POINTS, n)))) for i in range(0, n, CHUNK_POINTS)])
    best = int(np.argmax(rates >= rates.max() - SWEEP_TIE_TOL))
    picked = sorted([best, *(others + (others >= best)).tolist()])
    for i, pair in zip(picked, pairs(picked)):
        rate = ensemble_rate(measure_local_A(rho, KrausChannel(pair)))
        if not abs(rate - rates[i]) <= SWEEP_TIE_TOL:
            raise ArithmeticError(f"sweep routes disagree at grid point {i}: {rates[i]!r} vs {rate!r}")
        if i == best:
            best_rate = rate
    return BruteForceResult(best_rate, float(thetas[best // n_phi]), float(phis[best % n_phi]))
