"""Reference values the benchmark checks the package against.

Nothing here imports cohdist.  Entropies come from numpy.linalg.eigvalsh,
not from the package's Jacobi solver, and the Werner closed forms are
typed in again from the paper rather than taken from cohdist.optimize.
All logarithms are base 2.
"""

from __future__ import annotations

import math

import numpy as np


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def qi_werner(p: float) -> float:
    """C_re^{A|B} of p|Phi+><Phi+| + (1-p)I/4:
    (1-p)/4 log(1-p) - (1+p)/2 log(1+p) + (1+3p)/4 log(1+3p)."""
    return 0.25 * _xlog2x(1.0 - p) - 0.5 * _xlog2x(1.0 + p) + 0.25 * _xlog2x(1.0 + 3.0 * p)


def rate_werner(p: float) -> float:
    """One-round LQICC rate on the Werner state:
    (1+p)/2 log(1+p) + (1-p)/2 log(1-p)."""
    return 0.5 * _xlog2x(1.0 + p) + 0.5 * _xlog2x(1.0 - p)


def werner_matrix(p: float) -> np.ndarray:
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_((0, 3), (0, 3))] = 0.5
    return p * bell + (1.0 - p) * np.eye(4) / 4.0


def entropy(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def dephase_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Zero every entry whose two B indices differ."""
    keep = np.eye(db, dtype=bool)[None, :, None, :]
    return np.where(keep, mat.reshape(da, db, da, db), 0.0).reshape(da * db, da * db)


def marginal_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.trace(mat.reshape(da, db, da, db), axis1=0, axis2=2)


def bipartite_measures(mat: np.ndarray, da: int, db: int) -> dict[str, float]:
    """S(rho), C_re(rho_B), C_re^{A|B}(rho) and D^{A|B}(rho) = qi - C_re(rho_B)."""
    s = entropy(mat)
    rho_b = marginal_b(mat, da, db)
    cre_b = entropy(np.diag(np.diag(rho_b))) - entropy(rho_b)
    qi = entropy(dephase_b(mat, da, db)) - s
    return {"S": s, "cre_b": cre_b, "qi": qi, "discord": qi - cre_b}


def direction_projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(I + n.sigma)/2 and (I - n.sigma)/2 for the Bloch direction (theta, phi)."""
    st = math.sin(theta)
    n_sigma = np.array(
        [
            [math.cos(theta), st * (math.cos(phi) - 1j * math.sin(phi))],
            [st * (math.cos(phi) + 1j * math.sin(phi)), -math.cos(theta)],
        ]
    )
    return 0.5 * (np.eye(2) + n_sigma), 0.5 * (np.eye(2) - n_sigma)
