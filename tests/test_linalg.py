import numpy as np
import pytest
from conftest import random_hermitian, random_unitary, trace_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import linalg
from cohdist.coherence import dephase
from cohdist.linalg import DEFAULT_TOL, ConvergenceError, hermitian_eigh, identity
from cohdist.states import (
    DensityMatrix,
    ZeroDiscordSpec,
    pure_state,
    random_density_matrix,
    werner,
    zero_discord_state,
)


def jacobi_values(m) -> list[float]:
    """The values-only Jacobi path DensityMatrix runs, sorted descending."""
    return sorted(linalg._jacobi(np.asarray(m, dtype=complex)), reverse=True)


def test_jacobi_matches_numpy_across_sizes():
    """The values-only spectrum (closed forms at n <= 2, tridiagonal QL
    above) and the cyclic Jacobi spectrum of hermitian_eigh agree with
    the LAPACK oracle."""
    rng = np.random.default_rng(101)
    for dim in range(1, 10):
        for _ in range(25):
            m = random_hermitian(rng, dim)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
            assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-11, rtol=0.0)


def _structured_inputs(rng, dim):
    """A permuted block-diagonal matrix, a rank-1 one, a degenerate one and
    the all-ones matrix, each dim x dim."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(4, dim - sum(sizes)) + 1)))
    blocks = np.zeros((dim, dim), dtype=complex)
    start = 0
    for k in sizes:
        blocks[start : start + k, start : start + k] = random_hermitian(rng, k)
        start += k
    perm = rng.permutation(dim)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = random_unitary(rng, dim)
    spectrum = np.repeat([0.7, -0.2, 0.1], [dim // 2, dim - dim // 2 - 1, 1])
    return (
        blocks[np.ix_(perm, perm)],
        np.outer(g, g.conj()),
        u @ np.diag(spectrum) @ u.conj().T,
        np.ones((dim, dim), dtype=complex),
    )


def test_values_path_matches_numpy_on_structured_inputs():
    rng = np.random.default_rng(103)
    for dim in range(3, 10):
        for _ in range(5):
            for m in _structured_inputs(rng, dim):
                want = np.linalg.eigvalsh(m)[::-1]
                assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)


def test_tridiagonal_reflects_past_a_zero_subdiagonal_entry():
    """A column whose first entry below the diagonal is 0 still needs its
    reflection.  _block_values never hands over such a first column (it
    orders each block by discovery), so this calls the reduction itself."""
    rng = np.random.default_rng(43)
    for dim in (3, 5, 9):
        m = random_hermitian(rng, dim)
        m[0, 1] = m[1, 0] = 0.0
        vals = linalg._ql_values(*linalg._tridiagonal(m.tolist()))
        assert np.allclose(sorted(vals), np.linalg.eigvalsh(m), atol=1e-12, rtol=0.0)


def test_values_path_is_bit_identical_to_the_loop_on_small_blocks():
    """A matrix whose blocks all have size 1 or 2 gets the cyclic loop's
    values bit for bit.  hermitian_eigh runs that loop: its diagonal
    never depends on the vectors."""
    rng = np.random.default_rng(107)
    theorem3_states = (
        ZeroDiscordSpec((1.0,), (pure_state([1.0, 0.0]),), ((0, 1),), (pure_state([1.0, 1.0]),)),
        ZeroDiscordSpec(
            (0.6, 0.4),
            (pure_state([1.0, 0.0]), pure_state([1.0, 1.0])),
            ((0, 1), (2,)),
            (pure_state([1.0, 1.0, 0.0], (3,)), pure_state([0.0, 0.0, 1.0], (3,))),
        ),
    )
    states = [werner(float(p)) for p in rng.random(20)]
    states += [zero_discord_state(spec) for spec in theorem3_states]
    states += [dephase(random_density_matrix(2 * db, rng, (2, db)), (1,)) for db in (2, 3, 4) for _ in range(5)]
    for rho in states:
        assert rho.dim >= 3
        assert jacobi_values(rho.mat) == hermitian_eigh(rho.mat)[0]


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            vals = jacobi_values(m)
            assert abs(sum(vals) - m.trace().real) <= 10 * DEFAULT_TOL


def test_psd_spectrum_stays_above_negative_window():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vals = jacobi_values(g @ g.conj().T)
        assert vals[-1] >= -10 * DEFAULT_TOL


def test_eigh_reconstructs_input():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 5, 8, 9):
        m = random_hermitian(rng, dim)
        vals, vecs = hermitian_eigh(m)
        assert vals == sorted(vals, reverse=True)
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-12
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.abs(rebuilt - m).max() < 1e-11


def test_degenerate_spectra_at_the_largest_size():
    """Repeated eigenvalues, and a constant diagonal, on which the first
    rotation takes the equal-diagonal branch."""
    rng = np.random.default_rng(29)
    spectrum = np.array([0.4, 0.4, 0.4, 0.1, 0.1, 0.0, 0.0, 0.0, -0.2])
    u = random_unitary(rng, 9)
    for m in (u @ np.diag(spectrum) @ u.conj().T, np.ones((9, 9), dtype=complex)):
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
        vals, vecs = hermitian_eigh(m)
        assert np.allclose(vals, want, atol=1e-12, rtol=0.0)
        assert np.abs(vecs.conj().T @ vecs - np.eye(9)).max() < 1e-12
        assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - m).max() < 1e-11


def test_nearly_hermitian_input_gives_the_hermitian_part_spectrum():
    """Anti-Hermitian noise inside the Hermiticity tolerance shifts the
    spectrum by no more than its own size."""
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4, 9):
        h = random_hermitian(rng, dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = g - g.conj().T
        m = h + 1e-11 * k / np.abs(k).max()
        assert linalg._rows_hermitian(m.tolist())
        want = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]
        assert np.allclose(jacobi_values(m), want, atol=1e-10, rtol=0.0)
        assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-10, rtol=0.0)
        # both paths read only the upper triangle: the spectrum is that of
        # its Hermitian completion
        upper = np.triu(m, 1)
        completion = upper + upper.conj().T + np.diag(m.diagonal().real)
        want = np.linalg.eigvalsh(completion)[::-1]
        assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
        assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-12, rtol=0.0)


def test_eigh_vectors_satisfy_eigen_equation():
    rng = np.random.default_rng(24)
    m = random_hermitian(rng, 6)
    vals, vecs = hermitian_eigh(m)
    for k, lam in enumerate(vals):
        assert np.abs(m @ vecs[:, k] - lam * vecs[:, k]).max() < 1e-10


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_spectrum_properties(entries):
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    vals = jacobi_values(m)
    assert vals[0] >= vals[1]
    assert abs(sum(vals) - (a + b)) <= 1e-9 * max(1.0, abs(a) + abs(b))


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_values_path_is_bit_identical_to_the_loop(entries):
    """_jacobi takes the unrolled path on a 2x2; hermitian_eigh, the loop."""
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]], dtype=complex)
    assert jacobi_values(m) == hermitian_eigh(m)[0]


def test_convergence_error_when_sweeps_exhausted(monkeypatch):
    """The sweep cap binds on hermitian_eigh's cyclic loop."""
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError, match="sweeps"):
        hermitian_eigh(np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex))


def test_convergence_error_when_ql_iterations_exhausted(monkeypatch):
    """The cap binds on a block of size 3 or more; hermitian_eigh and a
    matrix that splits into smaller blocks do not run QL."""
    m = random_hermitian(np.random.default_rng(37), 5)
    for cap in (0, 1):
        monkeypatch.setattr(linalg, "QL_MAX_ITER", cap)
        with pytest.raises(ConvergenceError, match="QL"):
            linalg._jacobi(m)
    assert np.allclose(hermitian_eigh(m)[0], np.linalg.eigvalsh(m)[::-1], atol=1e-12, rtol=0.0)
    w = werner(0.5).mat
    assert jacobi_values(w) == hermitian_eigh(w)[0]


def test_kron_is_bit_identical_to_numpy():
    rng = np.random.default_rng(41)
    for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)):
        a = random_hermitian(rng, da)
        b = random_hermitian(rng, db)
        assert np.array_equal(linalg._kron(a, b), np.kron(a, b))


def test_hermitian_input_is_required(monkeypatch):
    """The solver trusts its input: DensityMatrix rejects a non-Hermitian
    matrix before any Jacobi solve runs."""
    calls = []
    monkeypatch.setattr(linalg, "_jacobi", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    assert calls == []


def test_identity_is_cached_and_read_only():
    assert identity(3) is identity(3)
    assert np.array_equal(identity(3), np.eye(3))
    with pytest.raises(ValueError):
        identity(3)[0, 0] = 2.0


def test_as_matrix_unwraps_mat_attribute():
    class Box:
        mat = np.eye(2)

    assert np.array_equal(linalg.as_matrix(Box()), np.eye(2))
    assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == complex
    with pytest.raises(ValueError, match="ndim"):
        linalg.as_matrix([1.0, 2.0])


def test_is_hermitian_tolerance_and_shape():
    """The boundary check DensityMatrix runs on its rows: a square matrix
    passes within DEFAULT_TOL, a NaN fails, and a non-square one is
    rejected by its shape before the check."""
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.zeros((2, 3)))
    assert linalg._rows_hermitian([[1.0, 1j], [-1j, 2.0]])
    m = [[1.0 + 0j, 2.0 * DEFAULT_TOL], [0j, 1.0 + 0j]]
    assert not linalg._rows_hermitian(m)
    m[0][1] = 0.5 * DEFAULT_TOL
    assert linalg._rows_hermitian(m)
    m[1][1] = complex(np.nan)
    assert not linalg._rows_hermitian(m)


def test_trace_distance_values():
    """The test-side trace distance that bounds acceptance criterion 2."""
    zero = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, mixed) == trace_distance(mixed, zero)
