import numpy as np
import pytest
from conftest import random_hermitian, random_unitary, trace_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import linalg
from cohdist.linalg import DEFAULT_TOL, hermitian_eigh, identity
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
    """The values-only spectrum (closed forms at n <= 2, eigvalsh on each
    block above) and hermitian_eigh's values agree with the LAPACK oracle."""
    rng = np.random.default_rng(101)
    for dim in range(1, 10):
        for _ in range(25):
            m = random_hermitian(rng, dim)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(jacobi_values(m), want, atol=1e-12, rtol=0.0)
            assert np.allclose(hermitian_eigh(m)[0], want, atol=1e-11, rtol=0.0)


def _structured_inputs(rng, dim):
    """A permuted block-diagonal matrix, a rank-1 one, a degenerate one and
    the all-ones matrix, each dim x dim.  Every other block is tridiagonal,
    a chain, so the permutation leaves its indices out of order."""
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
    triangle NaN: a block must be the completion of the upper triangle, not
    a permuted submatrix, whose upper triangle mixes in lower entries."""
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


# float.hex of _jacobi's sorted values on the states of the test below, frozen
# when they equalled, bit for bit, those of a cyclic Jacobi loop
SMALL_BLOCK_GOLDENS = (
    ("0x1.7909acce28792p-1", "0x1.67e6332f94124p-4", "0x1.67e6332f94124p-4", "0x1.67e6332f94124p-4"),
    ("0x1.376eb2765d9b6p-1", "0x1.0b6c67622ddb8p-3", "0x1.0b6c67622ddb7p-3", "0x1.0b6c67622ddb7p-3"),
    ("0x1.410d1878bad01p-1", "0x1.fd326968b87fap-4", "0x1.fd326968b87fap-4", "0x1.fd326968b87f8p-4"),
    ("0x1.9a2831efee2eap-1", "0x1.0f94d02ada2e2p-4", "0x1.0f94d02ada2e2p-4", "0x1.0f94d02ada2e0p-4"),
    ("0x1.3c9c4c4d504f4p-1", "0x1.0484ef98ea40ep-3", "0x1.0484ef98ea40ep-3", "0x1.0484ef98ea40ep-3"),
    ("0x1.3ac6fe1046185p-2", "0x1.d8d0abf5269a7p-3", "0x1.d8d0abf5269a7p-3", "0x1.d8d0abf5269a6p-3"),
    ("0x1.1f977a468ddc2p-1", "0x1.2b3607a1ed851p-3", "0x1.2b3607a1ed851p-3", "0x1.2b3607a1ed850p-3"),
    ("0x1.fbff656c3ebbap-1", "0x1.5588dbeb16c00p-9", "0x1.5588dbeb16c00p-9", "0x1.5588dbeb16c00p-9"),
    ("0x1.806a31c1fb34dp-2", "0x1.aa63ded403322p-3", "0x1.aa63ded403322p-3", "0x1.aa63ded403322p-3"),
    ("0x1.b990dbb822e0ap-1", "0x1.77a616d49b518p-5", "0x1.77a616d49b514p-5", "0x1.77a616d49b514p-5"),
    ("0x1.b024a138f3494p-2", "0x1.8a923f2f5dcf2p-3", "0x1.8a923f2f5dcf2p-3", "0x1.8a923f2f5dcf1p-3"),
    ("0x1.a9b6eabe15fd8p-2", "0x1.8edb638146ac5p-3", "0x1.8edb638146ac5p-3", "0x1.8edb638146ac5p-3"),
    ("0x1.1fe363d13f262p-2", "0x1.eabdbd7480914p-3", "0x1.eabdbd7480914p-3", "0x1.eabdbd7480914p-3"),
    ("0x1.5260cba118329p-2", "0x1.c914cd949a88fp-3", "0x1.c914cd949a88fp-3", "0x1.c914cd949a88ep-3"),
    ("0x1.91ec4307528dfp-1", "0x1.2589f7ec79300p-4", "0x1.2589f7ec79300p-4", "0x1.2589f7ec79300p-4"),
    ("0x1.f749d62e2cfddp-1", "0x1.73b1a2f880580p-8", "0x1.73b1a2f880580p-8", "0x1.73b1a2f880580p-8"),
    ("0x1.d706eb6439a54p-2", "0x1.70a60dbd2ee72p-3", "0x1.70a60dbd2ee72p-3", "0x1.70a60dbd2ee71p-3"),
    ("0x1.f1cceaa5d91cep-2", "0x1.5eccb8e6c4976p-3", "0x1.5eccb8e6c4976p-3", "0x1.5eccb8e6c4975p-3"),
    ("0x1.4d43afe4aadf6p-2", "0x1.cc7d8abce36b1p-3", "0x1.cc7d8abce36b1p-3", "0x1.cc7d8abce36b0p-3"),
    ("0x1.e1627dfa84256p-1", "0x1.4690158fd3c50p-6", "0x1.4690158fd3c50p-6", "0x1.4690158fd3c50p-6"),
    ("0x1.ffffffffffffep-1", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    (
        "0x1.3333333333332p-1", "0x1.9999999999998p-2", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ("0x1.0c19c6d3434a0p-1", "0x1.21056ef6da0b7p-2", "0x1.2d7219570145cp-3", "0x1.806fb5b8f5ee8p-5"),
    ("0x1.a8941f7027a66p-2", "0x1.8e44c05b26db4p-2", "0x1.04bfeb9b09423p-3", "0x1.1b1ca99cb3756p-4"),
    ("0x1.68d2bb7611decp-2", "0x1.62b2b8a509bdbp-2", "0x1.957b93660dc55p-3", "0x1.a6f308c776037p-4"),
    ("0x1.771e3be51cb80p-2", "0x1.72616c4e0a770p-2", "0x1.4150cfc5b30a1p-3", "0x1.d75fbfa7fd2fbp-4"),
    ("0x1.97cde2eda31f5p-2", "0x1.4b4207d0119ddp-2", "0x1.6d96c3cc5bf76p-3", "0x1.9892cd70751c6p-4"),
    (
        "0x1.6e15f8968a5aep-2", "0x1.f0f4b9dfd77e8p-3", "0x1.cdaf0ecf6f54dp-3", "0x1.47f507a91cf5ap-4",
        "0x1.9fecf6366a174p-5", "0x1.64ea1305eddabp-5",
    ),
    (
        "0x1.de1190762ce8ap-3", "0x1.c8de88110b23fp-3", "0x1.9d358c78c1a15p-3", "0x1.23ab18c47cc3ap-3",
        "0x1.02ef44a17d3d8p-3", "0x1.2a7ffb3418a1dp-4",
    ),
    (
        "0x1.87a72dee6e819p-2", "0x1.f7788ae02af2ap-3", "0x1.49fcd8d6bbfd3p-3", "0x1.60814fb60d505p-4",
        "0x1.2ce4fbedc24bfp-4", "0x1.a2246a6950f9bp-5",
    ),
    (
        "0x1.5947202fe7d78p-2", "0x1.ce61ded1136b6p-3", "0x1.7006ada6265e4p-3", "0x1.bd65bd0174bf0p-4",
        "0x1.98416b5f05f67p-4", "0x1.90d67be2e4b26p-5",
    ),
    (
        "0x1.0bd265dd15db1p-2", "0x1.d180f7a40fdd6p-3", "0x1.bde58c2bb98c1p-3", "0x1.f9dcbca54662cp-4",
        "0x1.821d089368b9ap-4", "0x1.35ef9bb366a49p-4",
    ),
    (
        "0x1.ea60327ba4557p-3", "0x1.715a84145bb31p-3", "0x1.6bd9713c008cfp-3", "0x1.baf186d80e39ap-4",
        "0x1.412a20f0f7547p-4", "0x1.2875c88a04724p-4", "0x1.278098cfc34c2p-4", "0x1.24c5a74531882p-4",
    ),
    (
        "0x1.c81a456ed0159p-3", "0x1.976f63ba29ef3p-3", "0x1.619737250f38bp-3", "0x1.0ba968cc466bep-3",
        "0x1.ac9edf5ea5906p-4", "0x1.18be1195fd9fep-4", "0x1.c84aa7b793d88p-5", "0x1.79d251f5e721dp-5",
    ),
    (
        "0x1.698c9fc478b38p-3", "0x1.3d5918c79773ap-3", "0x1.369af25f02347p-3", "0x1.21b85a580e568p-3",
        "0x1.8e1851a92157ep-4", "0x1.85e050404445ep-4", "0x1.847421a9ec2e9p-4", "0x1.692131e66cd02p-4",
    ),
    (
        "0x1.12c7fc30946e0p-2", "0x1.5fb97a85b72c8p-3", "0x1.4fcc9916751e4p-3", "0x1.43e5317d25b51p-3",
        "0x1.35594a087ffccp-4", "0x1.e156cf1690226p-5", "0x1.c0c805797a736p-5", "0x1.8f41a1750a021p-5",
    ),
    (
        "0x1.e2086b2cc7c43p-3", "0x1.dcb29afd4bfa8p-3", "0x1.159e1f7e77bd7p-3", "0x1.0cd12d99b32ecp-3",
        "0x1.b4dfc58f9f91cp-4", "0x1.2042726e6f385p-4", "0x1.8604be192bb90p-5", "0x1.4b0d84e1bc074p-5",
    ),
)


def test_values_path_is_bit_identical_to_the_loop_on_small_blocks():
    """A matrix whose blocks all have size 1 or 2 gets the frozen values,
    bit for bit: the closed form on each 2x2 block, at its indices.
    werner(0.5) is also pinned on its own."""
    values = tuple(x.hex() for x in jacobi_values(werner(0.5).mat))
    assert values == ("0x1.3ffffffffffffp-1", "0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p-3")
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
    states += [random_density_matrix(2 * db, rng, (2, db)).dephased_b for db in (2, 3, 4) for _ in range(5)]
    assert len(states) == len(SMALL_BLOCK_GOLDENS)
    for rho, golden in zip(states, SMALL_BLOCK_GOLDENS):
        assert rho.dim >= 3
        assert tuple(x.hex() for x in jacobi_values(rho.mat)) == golden


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
        assert linalg._rows_hermitian(m.tolist())
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
