"""Closed forms and optimization sweeps for the Werner distillation gap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
# c_re is unused here, but perfbench's tracer test reads optimize.c_re
from .coherence import c_re, xlog2x  # noqa: F401
from .protocols import KrausChannel, ensemble_rate, measure_local_A
from .states import _check_p, _index, werner

LN2 = math.log(2.0)

# Sweep rates this close to the grid maximum count as tied with it.
SWEEP_TIE_TOL = 1e-12


def qi_werner_closed_form(p: float) -> float:
    """Quantum-incoherent relative entropy of werner(p):
    (1-p)/4 log2(1-p) - (1+p)/2 log2(1+p) + (1+3p)/4 log2(1+3p)."""
    p = _check_p(p)
    return 0.25 * xlog2x(1.0 - p) - 0.5 * xlog2x(1.0 + p) + 0.25 * xlog2x(1.0 + 3.0 * p)


def rate_werner_closed_form(p: float) -> float:
    """Distillation rate of both Werner protocols, c_re(p|+><+| + (1-p)I/2):
    (1+p)/2 log2(1+p) + (1-p)/2 log2(1-p)."""
    p = _check_p(p)
    return 0.5 * (xlog2x(1.0 + p) + xlog2x(1.0 - p))


@dataclass(frozen=True)
class BruteForceResult:
    """Best projective measurement found by the exhaustive sweep: its
    rate and the polar and azimuthal angles of its Bloch direction."""

    rate: float
    theta: float
    phi: float


def _direction_projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    st = math.sin(theta)
    nx, ny, nz = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
    off = 0.5 * (nx - 1j * ny)
    up = np.array([[0.5 * (1.0 + nz), off], [off.conjugate(), 0.5 * (1.0 - nz)]])
    return up, linalg.identity(2) - up


def brute_force_measurement_opt(p: float, grid: tuple[int, int]) -> BruteForceResult:
    """Exhaustive sweep of rank-1 projective measurements on A.

    For every direction n on the (theta x phi) grid Alice measures
    {|n><n|, |-n><-n|} on her half of werner(p); the achieved rate is
    ensemble_rate(measure_local_A(...)).  Tie-break rule: the winner is
    the first point in theta-major order whose rate is within
    SWEEP_TIE_TOL of the grid maximum, and the reported rate is that
    point's own.  Werner rates are flat in phi, so without the rule
    rounding noise of order 1e-16 would pick the reported azimuth.
    """
    p = _check_p(p)
    try:
        n_theta, n_phi = map(_index, grid)
    except TypeError:
        raise ValueError(f"grid sizes must be integers, got {grid}") from None
    if n_theta < 2 or n_phi < 1:
        raise ValueError(f"grid must be at least 2 x 1, got {grid}")
    rho = werner(p)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    rates = []
    for th in thetas:
        th = float(th)
        for ph in phis:
            up, down = _direction_projectors(th, float(ph))
            channel = KrausChannel((up, down), ("+n", "-n"))
            rates.append(ensemble_rate(measure_local_A(rho, channel)))
    floor = max(rates) - SWEEP_TIE_TOL
    best = next(i for i, rate in enumerate(rates) if rate >= floor)
    th, ph = float(thetas[best // n_phi]), float(phis[best % n_phi])
    return BruteForceResult(rates[best], th, ph)


def gap_second_derivative(p: float) -> float:
    """d^2/dp^2 of the gap qi - rate: (1 - 3p) / ((1 + 3p)(1 - p^2) ln 2).

    Positive below p = 1/3, negative above; undefined (nan) at the
    endpoints where the log terms degenerate.
    """
    p = _check_p(p)
    if p == 0.0 or p == 1.0:
        return math.nan
    return (1.0 - 3.0 * p) / ((1.0 + 3.0 * p) * (1.0 - p * p) * LN2)
