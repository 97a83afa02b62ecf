import json
import math

import numpy as np
import pytest
from conftest import random_hermitian, random_unitary, run_cli, trace_distance
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from cohdist import linalg, optimize
from cohdist.linalg import hermitian_eigh, identity
from cohdist.scalars import DEFAULT_TOL, _rows_hermitian
from cohdist.states import (
    DensityMatrix,
    ZeroDiscordSpec,
    density_matrix_to_dict,
    pure_state,
    random_density_matrix,
    werner,
    zero_discord_state,
)


def jacobi_values(m) -> list[float]:
    """The values-only Jacobi path DensityMatrix runs, sorted descending."""
    return sorted(linalg._jacobi(np.asarray(m, dtype=complex)), reverse=True)


def test_jacobi_matches_numpy_across_sizes():
    """The values-only spectrum (the closed form at n = 2, eigvalsh at every
    other size) and hermitian_eigh's values agree with the LAPACK oracle."""
    rng = np.random.default_rng(101)
    for dim in range(1, 10):
        for _ in range(25):
            m = random_hermitian(rng, dim)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
            assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-11, rtol=0.0)


def _structured_inputs(rng, dim):
    """A permuted block-diagonal matrix whose blocks alternate dense and
    tridiagonal, a rank-1 one, a degenerate one and the all-ones matrix,
    each dim x dim."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(4, dim - sum(sizes)) + 1)))
    blocks = np.zeros((dim, dim), dtype=complex)
    start = 0
    for n, k in enumerate(sizes):
        h = random_hermitian(rng, k)
        blocks[start : start + k, start : start + k] = np.triu(np.tril(h, 1), -1) if n % 2 else h
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
    """Each permuted block-diagonal input is also fed with its strict lower
    triangle NaN, which pins eigvalsh's UPLO="U": only the diagonal and the
    upper triangle may be read."""
    rng = np.random.default_rng(103)
    for dim in range(3, 10):
        below = np.tril(np.ones((dim, dim), dtype=bool), -1)
        for _ in range(5):
            blocks, *others = _structured_inputs(rng, dim)
            for m in (blocks, *others):
                want = np.linalg.eigvalsh(m)[::-1]
                assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
            want = np.linalg.eigvalsh(blocks)[::-1]
            assert np.allclose(jacobi_values(np.where(below, np.nan, blocks)), want, atol=1e-12, rtol=0.0)


def _two_by_two_values(a, c, d):
    """Eigenvalues of [[a, c], [c*, d]] from its trace and determinant."""
    half = 0.5 * (a + d)
    root = math.sqrt(half * half - (a * d - abs(c) ** 2))
    return [half + root, half - root]


def test_values_path_matches_closed_forms_on_small_block_states():
    """Werner, theorem-3 and Delta_B states, whose spectra are known in
    closed form: Werner's (1+3p)/4 and three (1-p)/4, the mixture weights
    of a theorem-3 state whose B factors are pure and orthogonal, and for
    Delta_B of a 2 x d_B state the values of its d_B 2x2 blocks, one per
    B index b, on the rows b and d_B + b."""
    rng = np.random.default_rng(107)
    cases = [(werner(p), [(1 + 3 * p) / 4] + [(1 - p) / 4] * 3) for p in rng.random(20).tolist()]
    theorem3_states = (
        (ZeroDiscordSpec((1.0,), (pure_state([1.0, 0.0]),), (pure_state([1.0, 1.0]),)), [1, 0, 0, 0]),
        (
            ZeroDiscordSpec(
                (0.6, 0.4),
                (pure_state([1.0, 0.0]), pure_state([1.0, 1.0])),
                (pure_state([1.0, 1.0, 0.0], (3,)), pure_state([0.0, 0.0, 1.0], (3,))),
            ),
            [0.6, 0.4, 0, 0, 0, 0],
        ),
    )
    cases += [(zero_discord_state(spec), want) for spec, want in theorem3_states]
    for db in (2, 3, 4):
        for _ in range(5):
            rho = random_density_matrix(2 * db, rng, (2, db)).dephased_b
            m = rho.mat
            want = []
            for b in range(db):
                want += _two_by_two_values(m[b, b].real, m[b, db + b], m[db + b, db + b].real)
            cases.append((rho, want))
    assert len(cases) == 37
    for rho, want in cases:
        assert rho.dim >= 3
        assert np.allclose(jacobi_values(rho.mat), sorted(want, reverse=True), atol=1e-14, rtol=0.0)


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
    """Repeated eigenvalues, and the all-ones matrix, whose spectrum is
    one 9 and eight 0s."""
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
    spectrum by no more than its own size.  Both paths read only the upper
    triangle, so one whose strict lower triangle is NaN gets the spectrum
    of the upper triangle's Hermitian completion too."""
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4, 9):
        h = random_hermitian(rng, dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        k = g - g.conj().T
        m = h + 1e-11 * k / np.abs(k).max()
        assert _rows_hermitian(m.tolist())
        want = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]
        assert np.allclose(jacobi_values(m), want, atol=1e-10, rtol=0.0)
        assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-10, rtol=0.0)
        upper = np.triu(m, 1)
        completion = upper + upper.conj().T + np.diag(m.diagonal().real)
        want = np.linalg.eigvalsh(completion)[::-1]
        nan_below = np.where(np.tril(np.ones((dim, dim), dtype=bool), -1), np.nan, m)
        for read in (m, nan_below):
            assert np.allclose(jacobi_values(read), want, atol=1e-12, rtol=0.0)
            assert np.allclose(hermitian_eigh(read)[0], want, atol=1e-12, rtol=0.0)


def test_eigh_vectors_satisfy_eigen_equation():
    rng = np.random.default_rng(24)
    m = random_hermitian(rng, 6)
    vals, vecs = hermitian_eigh(m)
    for k, lam in enumerate(vals):
        assert np.abs(m @ vecs[:, k] - lam * vecs[:, k]).max() < 1e-10


def _two_by_two_states() -> np.ndarray:
    """Unit-trace Hermitian 2x2s, stacked: seeded Ginibre states, pure and
    near-pure ones, exact diagonals (a == d with c = 0 among them) and
    a == d with |c| = 1e-13."""
    rng = np.random.default_rng(109)
    mats = [random_density_matrix(2, rng).mat for _ in range(100)]
    for eps in (0.0, 1e-13, 1e-9, 1e-5):
        for _ in range(25):
            pure = pure_state(rng.standard_normal(2) + 1j * rng.standard_normal(2)).mat
            mats.append((1.0 - eps) * pure + eps * random_density_matrix(2, rng).mat)
    mats += [np.diag([0.3, 0.7]), np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    mats += [np.array([[0.5, 1e-13 * z], [1e-13 * np.conj(z), 0.5]]) for z in (1.0, 1j, np.exp(0.7j))]
    return np.array(mats, dtype=complex)


def _worst_two_by_two_error(spectrum) -> float:
    """Worst difference from LAPACK of spectrum(a, d, c) -> (larger,
    smaller) over _two_by_two_states, called once on the stacked arrays
    and once per state on Python scalars."""
    mats = _two_by_two_states()
    want = np.linalg.eigvalsh(mats)[:, ::-1]
    a, d, c = mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 0, 1]
    worst = np.abs(np.stack(spectrum(a, d, c), axis=1) - want).max()
    for args, pair in zip(zip(a.tolist(), d.tolist(), c.tolist()), want.tolist()):
        worst = max(worst, *(abs(x - y) for x, y in zip(spectrum(*args), pair)))
    return float(worst)


def test_two_by_two_closed_form_matches_lapack():
    """The one 2x2 form, shared by the scalar path and the batched sweep,
    agrees with eigvalsh within 1e-14.  Control: the early-out of the
    deleted Jacobi-rotation form, which returned the bare diagonal when
    |c| < 7e-13, misses by 1e-13 at a == d, |c| = 1e-13."""
    assert _worst_two_by_two_error(linalg._spectrum_2x2) <= 1e-14
    assert type(linalg._spectrum_2x2(0.5, 0.5, 0.25j)[1]) is float

    def early_out(a, d, c):
        hi, lo = linalg._spectrum_2x2(a, d, c)
        diagonal = np.abs(c) < 7e-13
        return np.where(diagonal, np.maximum(a, d), hi), np.where(diagonal, np.minimum(a, d), lo)

    assert _worst_two_by_two_error(early_out) > 1e-14
    # the radius is a hypot: a sum of squares would overflow to -inf here
    with pytest.raises(ValueError, match=r"min eigenvalue -1e\+200$"):
        DensityMatrix(np.array([[0.5, 1e200], [1e200, 0.5]]))
    half = np.array([0.5, 0.5])
    assert linalg._spectrum_2x2(half, half, np.array([1e200, 1e200j]))[1].tolist() == [-1e200, -1e200]


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_spectrum_properties(entries):
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    vals = jacobi_values(m)
    assert vals[0] >= vals[1]
    assert abs(sum(vals) - (a + b)) <= 1e-9 * max(1.0, abs(a) + abs(b))


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


def test_as_matrix_makes_a_complex_matrix():
    assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == complex
    with pytest.raises(ValueError, match="ndim"):
        linalg.as_matrix([1.0, 2.0])


def test_trace_distance_values():
    """The test-side trace distance that bounds acceptance criterion 2."""
    zero = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, mixed) == trace_distance(mixed, zero)


def _nearly_hermitian(rng, dim):
    """A seeded Hermitian matrix plus anti-Hermitian noise of size 1e-12, so
    the upper and the lower triangle describe spectra that differ in their
    last bits."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return random_hermitian(rng, dim) + 1e-12 * (g - g.conj().T)


def test_spectra_are_numpy_upper_triangle_results_bit_for_bit():
    """_jacobi (n != 2), _eigvalsh and hermitian_eigh give exactly what
    numpy.linalg.eigvalsh and eigh return at UPLO="U", values and vectors,
    on single matrices and on a stacked 4x4 input.  Control: the same
    comparison against UPLO="L", which reads the other triangle, fails at
    every size above 1."""
    rng = np.random.default_rng(2701)
    for dim in (1, 3, 4, 6, 8, 9, 16):
        m = _nearly_hermitian(rng, dim)
        want = np.linalg.eigvalsh(m, UPLO="U")
        want_vals, want_vecs = np.linalg.eigh(m, UPLO="U")
        assert linalg._jacobi(m) == want.tolist()
        assert np.array_equal(linalg._eigvalsh(m), want)
        vals, vecs = hermitian_eigh(m)
        assert vals == want_vals[::-1].tolist()
        assert np.array_equal(vecs, want_vecs[:, ::-1])
        if dim > 1:
            lower_vals, lower_vecs = np.linalg.eigh(m, UPLO="L")
            assert linalg._jacobi(m) != np.linalg.eigvalsh(m, UPLO="L").tolist()
            assert vals != lower_vals[::-1].tolist() and not np.array_equal(vecs, lower_vecs[:, ::-1])
    stack = np.array([_nearly_hermitian(rng, 4) for _ in range(50)])
    assert np.array_equal(linalg._eigvalsh(stack), np.linalg.eigvalsh(stack, UPLO="U"))
    assert not np.array_equal(linalg._eigvalsh(stack), np.linalg.eigvalsh(stack, UPLO="L"))


class _FailedSolves:
    """LAPACK's eigvalsh_up and eigh_up, except that the first eigenvalue
    each returns is replaced by value: NaN is what a failed solve writes."""

    def __init__(self, lapack, value):
        self.lapack, self.value = lapack, value

    def eigvalsh_up(self, m, signature):
        vals = self.lapack.eigvalsh_up(m, signature=signature)
        vals.flat[0] = self.value
        return vals

    def eigh_up(self, m, signature):
        vals, vecs = self.lapack.eigh_up(m, signature=signature)
        vals.flat[0] = self.value
        return vals, vecs


Z_BASIS = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)


def _failed_solve_calls():
    """One call per route that takes a LAPACK spectrum, each on a valid input."""
    rng = np.random.default_rng(2703)
    two_by_three = random_density_matrix(6, rng, (2, 3))
    four = random_density_matrix(4, rng, (2, 2)).mat
    return {
        "_jacobi": lambda: linalg._jacobi(four),
        "hermitian_eigh": lambda: hermitian_eigh(four),
        "DensityMatrix": lambda: DensityMatrix(four, (2, 2)),
        "_rates at db = 3": lambda: optimize._rates(two_by_three, Z_BASIS),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("route", list(_failed_solve_calls()))
def test_a_non_finite_eigenvalue_raises_linalg_error(monkeypatch, route, value):
    """numpy.linalg's one rule on output holds without its wrapper: a solve
    that comes back with a non-finite eigenvalue raises LinAlgError, a
    ValueError.  Control: the unpatched call passes."""
    call = _failed_solve_calls()[route]
    call()
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, value))
    with pytest.raises(LinAlgError, match="did not converge"):
        call()


def test_without_the_guard_a_failed_solve_passes_as_a_state(monkeypatch):
    """Control for the test above: the guard is what raises, since a NaN
    eigenvalue fails no `<` test of DensityMatrix's positivity rule."""
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, np.nan))
    monkeypatch.setattr(linalg, "_converged", lambda values: values)
    assert any(map(math.isnan, _failed_solve_calls()["DensityMatrix"]().eigenvalues))


def test_a_failed_solve_makes_measures_exit_2_with_nothing_on_stdout(monkeypatch, tmp_path):
    """A state file whose solve fails is input the CLI rejects, before it
    prints a line.  Control: the same file passes when the solves do not
    fail."""
    path = tmp_path / "state_2x3.json"
    rho = random_density_matrix(6, np.random.default_rng(2705), (2, 3))
    path.write_text(json.dumps(density_matrix_to_dict(rho)))
    result = run_cli(["measures", "--file", str(path)])
    assert result.exit_code == 0 and len(result.stdout.splitlines()) == 4
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, np.nan))
    result = run_cli(["measures", "--file", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert "Eigenvalues did not converge" in result.stderr
