"""Entropies and coherence quantifiers.  All logarithms are base 2."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL
from .states import DensityMatrix, _index, partial_trace

# Support handling for relative entropy: sigma eigenvalues below
# SUPPORT_TOL count as outside the support; rho weight above WEIGHT_TOL
# on such a direction makes the divergence infinite.
SUPPORT_TOL = 1e-12
WEIGHT_TOL = 1e-10


def xlog2x(x: float) -> float:
    """x log2 x with the 0 log 0 := 0 convention."""
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def _clamped_spectrum(rho: DensityMatrix, tol: float) -> list[float]:
    # eigenvalues in [-tol, 0) clamp to 0; anything lower is not a state
    out = []
    for lam in rho.eigenvalues:
        if lam < -tol:
            raise ValueError(f"eigenvalue {lam} below -{tol}: not a state")
        out.append(lam if lam > 0.0 else 0.0)
    return out


def von_neumann_entropy(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """S(rho) = -sum lambda log2 lambda over the spectrum."""
    return -sum(xlog2x(lam) for lam in _clamped_spectrum(rho, tol))


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
    first = sum(xlog2x(lam) for lam in _clamped_spectrum(rho, tol))
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


@lru_cache(maxsize=None)
def _dephase_mask(dims: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    n = math.prod(dims)
    keep = np.ones((n, n), dtype=bool)
    for s in targets:
        stride = math.prod(dims[s + 1 :])
        digit = (np.arange(n) // stride) % dims[s]
        keep &= digit[:, None] == digit[None, :]
    keep.setflags(write=False)
    return keep


def dephase(rho: DensityMatrix, subsystems=None) -> DensityMatrix:
    """Zero every element off-diagonal in the reference basis of each
    targeted subsystem.

    subsystems=None targets all of them (full dephasing); a sequence of
    integer positions (a float or bool is refused) targets just those,
    e.g. (1,) on a bipartite state kills B-coherences while keeping
    A-coherences between entries with identical B indices.  Each
    dephasing is built once per state and reused.
    """
    dims = rho.dims
    try:
        targets = tuple(range(len(dims))) if subsystems is None else tuple(map(_index, subsystems))
    except TypeError as exc:
        raise ValueError(f"subsystem positions must be integers, got {subsystems!r}") from exc
    if subsystems is not None and not all(0 <= s < len(dims) for s in targets):
        raise ValueError(f"invalid subsystems {targets} for dims {dims}")
    key = ("dephase", targets)
    cached = rho._derived.get(key)
    if cached is None:
        keep = _dephase_mask(dims, targets)
        cached = rho._derived[key] = DensityMatrix(np.where(keep, rho.mat, 0.0), dims)
    return cached


def c_re(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Relative entropy of coherence: S(dephase(rho)) - S(rho)."""
    return von_neumann_entropy(dephase(rho), tol) - von_neumann_entropy(rho, tol)


def qi_relative_entropy(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Quantum-incoherent relative entropy S(dephase_B(rho)) - S(rho).

    The second subsystem of the bipartite state is the incoherent
    (reference-basis) side.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"needs a bipartite state, dims are {rho.dims}")
    return von_neumann_entropy(dephase(rho, (1,)), tol) - von_neumann_entropy(rho, tol)


def _kron_eigh(eig_a, eig_b):
    """(values, vectors) of kron(a, b) from those of a and b, in A-major order."""
    return np.outer(eig_a[0], eig_b[0]).ravel(), linalg._kron(eig_a[1], eig_b[1])


def _discord_via_relative_entropies(rho: DensityMatrix, tol: float) -> float:
    # S(rho || rhoA x rhoB) - S(dephase_B rho || rhoA x dephase(rhoB)); products never built
    eig_a = linalg.hermitian_eigh(partial_trace(rho, 0).mat)
    rho_b = partial_trace(rho, 1)
    product = _kron_eigh(eig_a, linalg.hermitian_eigh(rho_b.mat))
    product_deph = _kron_eigh(eig_a, linalg.hermitian_eigh(dephase(rho_b).mat))
    dephased = dephase(rho, (1,))
    return _relative_entropy_eig(rho, *product, tol) - _relative_entropy_eig(dephased, *product_deph, tol)


def basis_dependent_discord(rho: DensityMatrix, tol: float = DEFAULT_TOL, check: bool = False) -> float:
    """Basis-dependent discord of a bipartite state.

    Primary route: qi_relative_entropy(rho) - c_re(rho_B).  With
    check=True the double-relative-entropy route is evaluated as well
    and an ArithmeticError is raised if the two disagree beyond 1e-8.
    """
    d = qi_relative_entropy(rho, tol) - c_re(partial_trace(rho, 1), tol)
    if check:
        alt = _discord_via_relative_entropies(rho, tol)
        if math.isfinite(alt) and abs(alt - d) > 1e-8:
            raise ArithmeticError(f"discord routes disagree: {d} vs {alt}")
    return d
