"""Exhaustive sweep of projective measurements on A of a Werner state."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BruteForceResult:
    """Best projective measurement found by the exhaustive sweep: its
    rate and the polar and azimuthal angles of its Bloch direction."""

    rate: float
    theta: float
    phi: float


def _measurement_pairs(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Stacked projector pairs {|n><n|, |-n><-n|}, shape (N, 2, 2, 2), one
    per Bloch direction n in theta-major order."""
    st, ct = (np.array([f(t) for t in thetas.tolist()]) for f in (math.sin, math.cos))
    sp, cp = (np.array([f(t) for t in phis.tolist()]) for f in (math.sin, math.cos))
    nx, ny = np.outer(st, cp).ravel(), np.outer(st, sp).ravel()
    nz = np.repeat(ct, len(phis))
    pairs = np.empty((len(nz), 2, 2, 2), dtype=complex)
    pairs[:, 0, 0, 0] = 0.5 * (1.0 + nz)
    pairs[:, 0, 0, 1] = 0.5 * (nx - 1j * ny)
    pairs[:, 0, 1, 0] = pairs[:, 0, 0, 1].conj()
    pairs[:, 0, 1, 1] = 0.5 * (1.0 - nz)
    np.subtract(linalg.identity(2), pairs[:, 0], out=pairs[:, 1])
    return pairs


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """xlog2x elementwise; an entry <= 0 maps to (signed) zero."""
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _sweep_rates(mat: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """ensemble_rate(measure_local_A(...)) for every projector pair on A of
    the two-qubit matrix mat, in one numpy pass.

    Bob's unnormalized conditional state is tr_A[(P x I) mat (P x I)] =
    tr_A[(P x I) mat] for a projector P, one product over mat's A
    indices.  Outcomes below PROB_FLOOR are dropped; every other
    conditional state must be finite, Hermitian, of unit trace and have
    no eigenvalue below -DEFAULT_TOL, else ValueError.  Spectra come
    from linalg._spectrum_2x2, the 2x2 form the scalar route uses too;
    each rate is sum q (S(Delta sigma) - S(sigma)).
    """
    # bob[2k + l, b, b'] = sum_{a, a'} pairs[k, l, a', a] mat[a b, a' b']
    by_a = mat.reshape(2, 2, 2, 2).transpose(2, 0, 1, 3).reshape(4, 4)
    bob = (pairs.reshape(-1, 4) @ by_a).reshape(-1, 2, 2)
    q = bob[:, 0, 0].real + bob[:, 1, 1].real
    keep = ~(q < PROB_FLOOR)  # a NaN is kept, and fails below
    np.divide(bob, q[:, None, None], out=bob, where=keep[:, None, None])
    a, c, d = bob[:, 0, 0], bob[:, 0, 1], bob[:, 1, 1]
    hi, lo = linalg._spectrum_2x2(a.real, d.real, c)
    # every entry enters a `<=` test below, which a NaN or an infinity fails
    valid = (
        (np.abs(c - bob[:, 1, 0].conj()) <= DEFAULT_TOL)
        & (2.0 * np.maximum(np.abs(a.imag), np.abs(d.imag)) <= DEFAULT_TOL)
        & (np.abs(a + d - 1.0) <= DEFAULT_TOL)
        & (lo >= -DEFAULT_TOL)
    )
    if not (valid | ~keep).all():
        bad = int(np.argmin(valid | ~keep))
        raise ValueError(f"conditional state {bad % 2} of measurement {bad // 2} is not a state")
    # the clamped spectrum and diagonal enter xlog2x; S(Delta sigma) - S(sigma)
    coherence = _xlog2x(hi) + _xlog2x(lo) - _xlog2x(a.real) - _xlog2x(d.real)
    return np.where(keep, q * coherence, 0.0).reshape(-1, 2).sum(axis=1)


def brute_force_measurement_opt(p: float, grid: tuple[int, int]) -> BruteForceResult:
    """Exhaustive sweep of rank-1 projective measurements on A.

    For every direction n on the (theta x phi) grid Alice measures
    {|n><n|, |-n><-n|} on her half of werner(p).  _sweep_rates takes every
    rate from the state's matrix in one pass; no Werner closed form
    enters.  Tie-break rule: the winner is the first point in theta-major
    order whose rate is within SWEEP_TIE_TOL of the grid maximum.  Werner
    rates are flat in phi, so without the rule rounding noise of order
    1e-16 would pick the reported azimuth.

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
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    pairs = _measurement_pairs(thetas, phis)
    rates = _sweep_rates(rho.mat, pairs)
    best = int(np.argmax(rates >= rates.max() - SWEEP_TIE_TOL))
    others = np.random.default_rng(0).choice(len(rates) - 1, min(len(rates), RECHECK_POINTS) - 1, replace=False)
    for i in sorted([best, *(others + (others >= best)).tolist()]):
        rate = ensemble_rate(measure_local_A(rho, KrausChannel(pairs[i])))
        if not abs(rate - rates[i]) <= SWEEP_TIE_TOL:
            raise ArithmeticError(f"sweep routes disagree at grid point {i}: {rates[i]!r} vs {rate!r}")
        if i == best:
            best_rate = rate
    return BruteForceResult(best_rate, float(thetas[best // n_phi]), float(phis[best % n_phi]))
