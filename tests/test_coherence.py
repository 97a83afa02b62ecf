import math

import numpy as np
import pytest
from conftest import random_monomial_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import linalg
from cohdist.coherence import (
    SUPPORT_TOL,
    WEIGHT_TOL,
    _discord_via_relative_entropies,
    _kron_eigh,
    basis_dependent_discord,
    c_re,
    qi_relative_entropy,
    relative_entropy,
    von_neumann_entropy,
)
from cohdist.scalars import xlog2x
from cohdist.states import (
    DensityMatrix,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)


def test_xlog2x_values():
    assert xlog2x(0.0) == 0.0
    assert xlog2x(-3.0) == 0.0
    assert xlog2x(1.0) == 0.0
    assert xlog2x(2.0) == 2.0
    assert xlog2x(0.5) == -0.5


@settings(max_examples=80, derandomize=True)
@given(st.floats(0.0, 8.0, allow_nan=False))
def test_xlog2x_sign(x):
    if x <= 1.0:
        assert xlog2x(x) <= 0.0
    else:
        assert xlog2x(x) > 0.0


def test_entropy_of_named_states():
    assert von_neumann_entropy(pure_state([1.0, 1j])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(pure_state([1.0, 0.0, 0.0, 1.0], (2, 2))) == pytest.approx(0.0, abs=1e-12)
    for d in (2, 3, 4, 8):
        assert von_neumann_entropy(maximally_mixed(d)) == pytest.approx(math.log2(d), abs=1e-12)
    assert von_neumann_entropy(werner(0.5)) == pytest.approx(1.5487949406953987, abs=1e-9)


class TestRelativeEntropy:
    def test_zero_on_identical_states(self):
        rho = random_density_matrix(3, np.random.default_rng(2))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-11)

    def test_pure_versus_mixed(self):
        assert relative_entropy(pure_state([1.0, 1.0]), maximally_mixed(2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_disjoint_supports_are_infinite(self):
        zero = pure_state([1.0, 0.0])
        one = pure_state([0.0, 1.0])
        assert relative_entropy(zero, one) == math.inf

    def test_support_weight_threshold(self):
        """Weight below the sentinel threshold is ignored, above it diverges."""
        sigma = pure_state([1.0, 0.0])
        barely = DensityMatrix(np.diag([1.0 - 1e-12, 1e-12]))
        assert math.isfinite(relative_entropy(barely, sigma))
        leaky = DensityMatrix(np.diag([1.0 - 1e-6, 1e-6]))
        assert relative_entropy(leaky, sigma) == math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            sigma = random_density_matrix(4, rng)
            assert relative_entropy(rho, sigma) >= -1e-9

    def test_mutual_information_identity(self):
        # S(rho || rhoA x rhoB) == S(A) + S(B) - S(AB)
        rho = werner(0.5)
        marginals = DensityMatrix(
            np.kron(rho.marginal_a.mat, rho.marginal_b.mat), (2, 2)
        )
        want = (
            von_neumann_entropy(rho.marginal_a)
            + von_neumann_entropy(rho.marginal_b)
            - von_neumann_entropy(rho)
        )
        assert relative_entropy(rho, marginals) == pytest.approx(want, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(maximally_mixed(2), maximally_mixed(3))


class TestDephase:
    def test_full_dephasing_keeps_only_the_diagonal(self):
        rho = random_density_matrix(4, np.random.default_rng(3), (2, 2))
        out = rho.dephased
        assert np.array_equal(out.mat, np.diag(np.diag(rho.mat)))

    def test_single_subsystem_dephasing_keeps_matching_digits(self):
        # |+>_A x |0>_B carries only A-coherence; dephasing B leaves it intact
        rho = DensityMatrix(np.kron(pure_state([1.0, 1.0]).mat, np.diag([1.0, 0.0])), (2, 2))
        assert np.array_equal(rho.dephased_b.mat, rho.mat)
        assert rho.dephased.mat[0, 2] == 0.0
        # on unequal dims, only the entries whose B indices agree survive
        rho = random_density_matrix(6, np.random.default_rng(5), (2, 3))
        same_b = np.arange(3)[None, :, None, None] == np.arange(3)[None, None, None, :]
        want = np.where(same_b, rho.mat.reshape(2, 3, 2, 3), 0.0).reshape(6, 6)
        assert np.array_equal(rho.dephased_b.mat, want)

    def test_dephasing_b_zeroes_the_werner_corners(self):
        out = werner(0.7).dephased_b
        assert np.array_equal(out.mat, np.diag(np.diag(werner(0.7).mat)))

    def test_idempotent_and_trace_preserving(self):
        rho = random_density_matrix(6, np.random.default_rng(4), (2, 3))
        for once, twice in ((rho.dephased, rho.dephased.dephased), (rho.dephased_b, rho.dephased_b.dephased_b)):
            assert np.array_equal(twice.mat, once.mat)
            assert once.mat.trace() == rho.mat.trace()
            assert once.dims == rho.dims

    def test_invalid_subsystem(self):
        # B's dephasing needs a second subsystem, and exactly two
        for rho in (maximally_mixed(4), maximally_mixed(8, (2, 2, 2))):
            with pytest.raises(ValueError, match="needs a bipartite state"):
                rho.dephased_b
            assert np.array_equal(rho.dephased.mat, rho.mat)


class TestDerivedStates:
    """A state's marginals and dephasings are each built once per state."""

    def test_repeat_calls_return_the_same_object(self):
        rho = random_density_matrix(9, np.random.default_rng(41), (3, 3))
        assert rho.dephased_b is rho.dephased_b
        assert rho.dephased is rho.dephased
        assert rho.marginal_b is rho.marginal_b
        assert rho.marginal_a is rho.marginal_a
        assert rho.marginal_b.dephased is rho.marginal_b.dephased

    def test_distinct_operations_are_distinct_objects(self):
        rho = random_density_matrix(9, np.random.default_rng(42), (3, 3))
        assert rho.dephased is not rho.dephased_b
        assert rho.marginal_a is not rho.marginal_b

    def test_memoized_results_equal_fresh_states(self):
        rho = random_density_matrix(6, np.random.default_rng(43), (2, 3))
        rho_b = rho.marginal_b
        for derived in (rho.dephased, rho.dephased_b, rho.marginal_a, rho_b, rho_b.dephased):
            fresh = DensityMatrix(derived.mat.copy(), derived.dims)
            assert np.array_equal(derived.mat, fresh.mat)
            assert derived.dims == fresh.dims
            assert derived.eigenvalues == fresh.eigenvalues


def test_c_re_of_named_states():
    assert c_re(pure_state([1.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    assert c_re(maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)
    assert c_re(pure_state([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # dephasing the Bell state leaves diag(1/2, 0, 0, 1/2)
    assert c_re(pure_state([1.0, 0.0, 0.0, 1.0], (2, 2))) == pytest.approx(1.0, abs=1e-9)


def test_c_re_equals_relative_entropy_to_the_dephased_state():
    rng = np.random.default_rng(21)
    for _ in range(25):
        rho = random_density_matrix(2, rng)
        assert abs(c_re(rho) - relative_entropy(rho, rho.dephased)) < 1e-9
        rho2 = random_density_matrix(4, rng, (2, 2))
        assert abs(c_re(rho2) - relative_entropy(rho2, rho2.dephased)) < 1e-9


def test_c_re_is_invariant_under_monomial_unitaries():
    rng = np.random.default_rng(22)
    for _ in range(25):
        for dim, dims in ((2, (2,)), (4, (2, 2))):
            rho = random_density_matrix(dim, rng, dims)
            u = random_monomial_unitary(rng, dim)
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, dims)
            assert abs(c_re(rotated) - c_re(rho)) < 1e-9


class TestQiRelativeEntropy:
    def test_requires_bipartite_input(self):
        with pytest.raises(ValueError, match="bipartite"):
            qi_relative_entropy(maximally_mixed(4))

    def test_werner_value(self):
        assert qi_relative_entropy(werner(0.5)) == pytest.approx(0.2624831837637338, abs=1e-9)
        assert qi_relative_entropy(werner(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert qi_relative_entropy(werner(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_dominates_the_marginal_coherence(self):
        rng = np.random.default_rng(31)
        for dims in ((2, 2), (2, 3)):
            for _ in range(15):
                rho = random_density_matrix(dims[0] * dims[1], rng, dims)
                assert qi_relative_entropy(rho) >= c_re(rho.marginal_b) - 1e-9


class TestBasisDependentDiscord:
    def test_both_routes_agree_on_random_full_rank_states(self):
        rng = np.random.default_rng(40)
        for dims in ((2, 2), (2, 3)):
            for _ in range(10):
                rho = random_density_matrix(dims[0] * dims[1], rng, dims)
                basis_dependent_discord(rho, check=True)  # raises on disagreement

    def test_route_disagreement_raises(self, monkeypatch):
        from cohdist import coherence

        monkeypatch.setattr(
            coherence, "_discord_via_relative_entropies", lambda rho: 123.0
        )
        with pytest.raises(ArithmeticError, match="disagree"):
            basis_dependent_discord(werner(0.5), check=True)

    def test_the_benchmarks_positional_call(self, monkeypatch):
        """perfbench's sign-flip control calls basis_dependent_discord(rho,
        tol, check) positionally: the unread second slot stays, and the third
        still selects the check route."""
        from cohdist import coherence

        rho_2x3 = random_density_matrix(6, np.random.default_rng(43), (2, 3))
        for rho in (werner(0.5), rho_2x3):
            value = basis_dependent_discord(rho, 1e-10, True)
            assert type(value) is float and value == basis_dependent_discord(rho)
        monkeypatch.setattr(coherence, "_discord_via_relative_entropies", lambda rho: 123.0)
        for rho in (werner(0.5), rho_2x3):
            with pytest.raises(ArithmeticError, match="disagree"):
                basis_dependent_discord(rho, 1e-10, True)

    def test_werner_discord_equals_qi(self):
        # Bob's marginal is maximally mixed, so the marginal coherence is zero
        for p in (0.1, 0.5, 0.9):
            rho = werner(p)
            assert basis_dependent_discord(rho) == pytest.approx(
                qi_relative_entropy(rho), abs=1e-12
            )

    def test_zero_for_block_distinguishable_mixtures(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            state = zero_discord_state(random_zero_discord_spec(rng, 2, 3))
            assert abs(basis_dependent_discord(state, check=True)) < 1e-9

    def test_frozen_random_state_values(self):
        rho = random_density_matrix(4, np.random.default_rng(42), (2, 2))
        assert qi_relative_entropy(rho) == pytest.approx(0.16354513343952748, abs=1e-9)
        assert c_re(rho.marginal_b) == pytest.approx(0.054082060166928625, abs=1e-9)
        assert basis_dependent_discord(rho) == pytest.approx(0.10946307327259885, abs=1e-9)


def _explicit_discord_check(rho):
    # the check route with both product states built and diagonalized whole
    rho_a, rho_b = rho.marginal_a, rho.marginal_b
    product = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), rho.dims)
    product_deph = DensityMatrix(np.kron(rho_a.mat, rho_b.dephased.mat), rho.dims)
    return relative_entropy(rho, product) - relative_entropy(rho.dephased_b, product_deph)


def _numpy_scalar_relative_entropy(rho, vals, vecs):
    # _relative_entropy_eig on numpy scalars: weights from np.real(np.sum(...)), each read through float(w)
    first = -von_neumann_entropy(rho)
    weights = np.real(np.sum(vecs.conj() * (rho.mat @ vecs), axis=0))
    second = 0.0
    for lam, w in zip(vals, weights):
        if lam < SUPPORT_TOL:
            if w > WEIGHT_TOL:
                return math.inf
            continue
        second += float(w) * math.log2(lam)
    return first - second


def _numpy_scalar_discord_check(rho):
    # the check route with rho_A validated as rho.marginal_a and the product spectra from np.outer
    eig_a = linalg.hermitian_eigh(rho.marginal_a.mat)
    terms = []
    for state, b_mat in ((rho, rho.marginal_b.mat), (rho.dephased_b, rho.marginal_b.dephased.mat)):
        eig_b = linalg.hermitian_eigh(b_mat)
        vals, vecs = np.outer(eig_a[0], eig_b[0]).ravel(), linalg._kron(eig_a[1], eig_b[1])
        terms.append(_numpy_scalar_relative_entropy(state, vals, vecs))
    return terms[0] - terms[1]


class TestDiscordCheckRoute:
    """The check route diagonalizes rho_A x rho_B and rho_A x dephase(rho_B)
    from their factors' eigendecompositions."""

    @pytest.mark.parametrize("dims", ((2, 2), (2, 3), (2, 4), (3, 3)))
    def test_factor_eigendecomposition_reconstructs_the_kron(self, dims):
        rng = np.random.default_rng(50)
        n = dims[0] * dims[1]
        for _ in range(5):
            a = random_density_matrix(dims[0], rng)
            b = random_density_matrix(dims[1], rng)
            for b_mat in (b.mat, b.dephased.mat):
                vals, vecs = _kron_eigh(linalg.hermitian_eigh(a.mat), linalg.hermitian_eigh(b_mat))
                assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-13
                assert np.abs((vecs * vals) @ vecs.conj().T - np.kron(a.mat, b_mat)).max() < 1e-13

    def test_matches_the_explicit_route(self):
        rng = np.random.default_rng(51)
        for dims in ((2, 2), (2, 3), (2, 4), (3, 3)):
            for _ in range(5):
                ginibre = random_density_matrix(dims[0] * dims[1], rng, dims)
                zero = zero_discord_state(random_zero_discord_spec(rng, *dims))
                for rho in (ginibre, zero):
                    alt = _discord_via_relative_entropies(rho)
                    assert abs(alt - _explicit_discord_check(rho)) < 1e-12

    @pytest.mark.parametrize("dims", ((2, 2), (2, 3), (2, 4), (3, 3)))
    def test_python_floats_give_the_numpy_scalar_values_bit_for_bit(self, dims):
        """The check route and relative_entropy run on Python floats, with
        rho_A read from the partial trace, and equal (==) the same formulas
        on numpy scalars with rho_A validated as rho.marginal_a.  Every
        product eigenvalue is a float; so is every weight, since one numpy
        scalar weight would make the sum, and so the value, a numpy scalar."""
        rng = np.random.default_rng(52)
        for _ in range(5):
            ginibre = random_density_matrix(dims[0] * dims[1], rng, dims)
            zero = zero_discord_state(random_zero_discord_spec(rng, *dims))
            for rho in (ginibre, zero):
                alt = _discord_via_relative_entropies(rho)
                assert alt == _numpy_scalar_discord_check(rho) and type(alt) is float
                product = DensityMatrix(np.kron(rho.marginal_a.mat, rho.marginal_b.mat), dims)
                for state, sigma in ((rho, product), (rho, rho.dephased_b), (rho.dephased_b, product)):
                    value = relative_entropy(state, sigma)
                    assert value == _numpy_scalar_relative_entropy(state, *linalg.hermitian_eigh(sigma.mat))
                    assert type(value) is float
                for b_mat in (rho.marginal_b.mat, rho.marginal_b.dephased.mat):
                    vals, _ = _kron_eigh(linalg.hermitian_eigh(rho.marginal_a.mat), linalg.hermitian_eigh(b_mat))
                    assert all(type(x) is float for x in vals)

    @pytest.mark.parametrize(
        "amplitudes, dims, finite",
        (
            # rho_A x rho_B has eigenvalue c^4 / (1 + c^2)^2 on |11>, below
            # SUPPORT_TOL from c = 1e-3 down, and rho has weight c^2 / (1 + c^2)
            # there, above WEIGHT_TOL
            ([1.0, 0.0, 0.0, 1e-2], (2, 2), True),
            ([1.0, 0.0, 0.0, 1e-3], (2, 2), False),
            ([1.0, 0.0, 0.0, 1e-4], (2, 2), False),
            ([1.0, 0.0, 0.0, 0.0, 0.0, 1e-3], (2, 3), False),
        ),
    )
    def test_non_finite_where_the_explicit_route_is(self, amplitudes, dims, finite):
        rho = pure_state(amplitudes, dims)
        alt = _discord_via_relative_entropies(rho)
        explicit = _explicit_discord_check(rho)
        assert math.isfinite(alt) == math.isfinite(explicit) == finite
        if finite:
            assert abs(alt - explicit) < 1e-12
        else:
            # both relative entropies are +inf, and their difference nan
            assert math.isnan(alt) and math.isnan(explicit)
            # the primary route stands: a non-finite check value is skipped
            assert basis_dependent_discord(rho, check=True) == basis_dependent_discord(rho)
