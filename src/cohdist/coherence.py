"""Entropies and coherence quantifiers.  All logarithms are base 2."""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .scalars import DEFAULT_TOL, xlog2x
from .states import DensityMatrix

# Support handling for relative entropy: sigma eigenvalues below
# SUPPORT_TOL count as outside the support; rho weight above WEIGHT_TOL
# on such a direction makes the divergence infinite.
SUPPORT_TOL = 1e-12
WEIGHT_TOL = 1e-10


def von_neumann_entropy(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """S(rho) = -sum lambda log2 lambda over the spectrum.  An eigenvalue in
    [-tol, 0) counts as 0 (xlog2x maps it there); a lower one is not a state."""
    lam = rho.eigenvalues[-1]
    if lam < -tol:
        raise ValueError(f"eigenvalue {lam} below -{tol}: not a state")
    return -sum(map(xlog2x, rho.eigenvalues))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """S(rho || sigma) = tr rho log2 rho - tr rho log2 sigma.

    The first term reads rho's spectrum, the second sigma's
    eigendecomposition from linalg.hermitian_eigh.  When rho puts
    weight above WEIGHT_TOL on a direction where sigma's eigenvalue is
    below SUPPORT_TOL the divergence is +inf.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return _relative_entropy_eig(rho, *linalg.hermitian_eigh(sigma.mat), tol)


def _relative_entropy_eig(rho: DensityMatrix, vals, vecs: np.ndarray, tol: float) -> float:
    """relative_entropy(rho, sigma) given sigma's eigenvalues and eigenvector columns."""
    first = -von_neumann_entropy(rho, tol)
    # weight of rho along each sigma eigenvector
    weights = np.real(np.sum(vecs.conj() * (rho.mat @ vecs), axis=0))
    second = 0.0
    for lam, w in zip(vals, weights):
        if lam < SUPPORT_TOL:
            if w > WEIGHT_TOL:
                return math.inf
            continue
        second += float(w) * math.log2(lam)
    return first - second


def c_re(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Relative entropy of coherence: S(rho.dephased) - S(rho)."""
    return von_neumann_entropy(rho.dephased, tol) - von_neumann_entropy(rho, tol)


def qi_relative_entropy(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Quantum-incoherent relative entropy S(rho.dephased_b) - S(rho).

    The second subsystem of the bipartite state is the incoherent
    (reference-basis) side.
    """
    return von_neumann_entropy(rho.dephased_b, tol) - von_neumann_entropy(rho, tol)


def _kron_eigh(eig_a, eig_b):
    """(values, vectors) of kron(a, b) from those of a and b, in A-major order."""
    return np.outer(eig_a[0], eig_b[0]).ravel(), linalg._kron(eig_a[1], eig_b[1])


def _discord_via_relative_entropies(rho: DensityMatrix, tol: float) -> float:
    # S(rho || rhoA x rhoB) - S(dephase_B rho || rhoA x dephase(rhoB)); products never built
    eig_a = linalg.hermitian_eigh(rho.marginal_a.mat)
    rho_b = rho.marginal_b
    product = _kron_eigh(eig_a, linalg.hermitian_eigh(rho_b.mat))
    product_deph = _kron_eigh(eig_a, linalg.hermitian_eigh(rho_b.dephased.mat))
    return _relative_entropy_eig(rho, *product, tol) - _relative_entropy_eig(rho.dephased_b, *product_deph, tol)


def basis_dependent_discord(rho: DensityMatrix, tol: float = DEFAULT_TOL, check: bool = False) -> float:
    """Basis-dependent discord of a bipartite state.

    Primary route: qi_relative_entropy(rho) - c_re(rho_B).  With
    check=True the double-relative-entropy route is evaluated as well
    and an ArithmeticError is raised if the two disagree beyond 1e-8.
    """
    d = qi_relative_entropy(rho, tol) - c_re(rho.marginal_b, tol)
    if check:
        alt = _discord_via_relative_entropies(rho, tol)
        if math.isfinite(alt) and abs(alt - d) > 1e-8:
            raise ArithmeticError(f"discord routes disagree: {d} vs {alt}")
    return d
