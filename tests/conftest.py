"""Shared random-object builders for the test suite."""

import numpy as np


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Ginibre draw with phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues| of the Hermitian difference a - b."""
    return 0.5 * abs(np.linalg.eigvalsh(a - b)).sum()


def random_monomial_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Permutation times diagonal phases: the incoherent unitaries."""
    u = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    u[rng.permutation(dim), cols] = np.exp(2j * np.pi * rng.random(dim))
    return u
