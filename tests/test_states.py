import numpy as np
import pytest

from cohdist.optimize import brute_force_measurement_opt, qi_werner_closed_form, rate_werner_closed_form
from cohdist.states import (
    DensityMatrix,
    ZeroDiscordSpec,
    bell_phi_plus,
    density_matrix_from_dict,
    density_matrix_to_dict,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)


class TestDensityMatrix:
    def test_valid_construction_and_defaults(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.dims == (2,)
        assert rho.dim == 2

    def test_matrix_is_frozen(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_construction_does_not_freeze_the_caller_array(self):
        m = np.eye(2, dtype=complex) / 2
        DensityMatrix(m)
        m[0, 0] = 0.3  # still writable

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), "22"], ids=["float", "integral-float", "string"])
    def test_rejects_non_integer_dims(self, dims):
        # int() would truncate each of these to a valid split
        with pytest.raises(ValueError, match="dims must be integers"):
            DensityMatrix(np.eye(4) / 4, dims)

    @pytest.mark.parametrize("dims", [(True, 4), (4, True), (True,)], ids=["first", "second", "single"])
    def test_rejects_bool_dims(self, dims):
        # operator.index reads True as 1, a valid factor of any dimension
        with pytest.raises(ValueError, match="dims must be integers"):
            DensityMatrix(np.eye(4) / 4 if len(dims) == 2 else np.eye(1), dims)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_eigenvalues_cached_descending(self):
        rho = werner(0.3)
        want = np.linalg.eigvalsh(rho.mat)[::-1]
        assert np.allclose(rho.eigenvalues, want, atol=1e-11, rtol=0.0)
        assert list(rho.eigenvalues) == sorted(rho.eigenvalues, reverse=True)


def test_pure_state_normalizes():
    rho = pure_state([2.0, 0.0])
    assert np.allclose(rho.mat, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        pure_state([0.0, 0.0])


def test_named_states():
    bell = bell_phi_plus()
    assert bell.dims == (2, 2)
    want = np.zeros((4, 4))
    want[np.ix_((0, 3), (0, 3))] = 0.5
    assert np.allclose(bell.mat, want)

    plus = pure_state([1.0, 1.0])
    assert np.allclose(plus.mat, np.full((2, 2), 0.5))

    assert np.allclose(maximally_mixed(3).mat, np.eye(3) / 3)
    with pytest.raises(ValueError):
        maximally_mixed(0)


def test_werner_endpoints_and_domain():
    assert np.allclose(werner(0.0).mat, np.eye(4) / 4)
    assert np.allclose(werner(1.0).mat, bell_phi_plus().mat)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="mixing parameter"):
            werner(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_bool_mixing_parameter_is_rejected(flag):
    """A bool is not read as p = 1 or 0 by werner, the closed forms or the
    sweep, which share one check; the integers 0 and 1 stay valid."""
    for fn in (
        werner,
        qi_werner_closed_form,
        rate_werner_closed_form,
        lambda p: brute_force_measurement_opt(p, (3, 1)),
    ):
        with pytest.raises(ValueError, match="mixing parameter must be a number"):
            fn(flag)
    assert np.array_equal(werner(int(flag)).mat, werner(float(flag)).mat)


def test_werner_spectrum_for_sampled_p():
    """Spectrum is {(1+3p)/4} + three copies of {(1-p)/4}."""
    rng = np.random.default_rng(50)
    for p in (0.0, 1.0, *rng.uniform(0.0, 1.0, 48)):
        want = [(1 + 3 * p) / 4] + [(1 - p) / 4] * 3
        assert np.allclose(werner(p).eigenvalues, want, atol=1e-10, rtol=0.0)


def test_bloch_qubit_matrices():
    """pure_state along the Bloch axes gives (I + n.sigma)/2; a Bloch
    vector outside the unit ball is not a state."""
    assert np.allclose(pure_state([1.0, 0.0]).mat, np.diag([1.0, 0.0]))
    assert np.allclose(pure_state([1.0, 1.0]).mat, np.full((2, 2), 0.5))
    assert np.allclose(pure_state([1.0, 1j]).mat, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(np.array([[0.5, 0.4 - 0.4j], [0.4 + 0.4j, 0.5]]))


class TestPartialTrace:
    def test_round_trips_product_states(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(3, rng)
            joint = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
            assert np.abs(joint.marginal_a.mat - a.mat).max() < 1e-12
            assert np.abs(joint.marginal_b.mat - b.mat).max() < 1e-12
            assert (joint.marginal_a.dims, joint.marginal_b.dims) == ((2,), (3,))

    def test_rejects_bad_arguments(self):
        # a marginal needs exactly two subsystems
        for rho in (maximally_mixed(4), maximally_mixed(8, (2, 2, 2))):
            for side in ("marginal_a", "marginal_b"):
                with pytest.raises(ValueError, match="needs a bipartite state"):
                    getattr(rho, side)


def test_random_density_matrix_is_seed_deterministic_and_full_rank():
    a = random_density_matrix(4, np.random.default_rng(9), (2, 2))
    b = random_density_matrix(4, np.random.default_rng(9), (2, 2))
    assert np.array_equal(a.mat, b.mat)
    assert a.dims == (2, 2)
    assert a.eigenvalues[-1] > 1e-6  # Ginibre draws are full rank


class TestZeroDiscordSpec:
    @staticmethod
    def _two_block():
        return ZeroDiscordSpec(
            (0.7, 0.3),
            (pure_state([1.0, 0.0]), pure_state([1.0, 1.0])),
            ((0, 1), (2,)),
            (pure_state([1.0, 1j, 0.0], (3,)), pure_state([0.0, 0.0, 1.0], (3,))),
        )

    def test_valid_spec(self):
        spec = self._two_block()
        assert spec.dims == (2, 3)

    def test_assembled_state_is_the_weighted_kron_sum(self):
        spec = self._two_block()
        want = sum(
            w * np.kron(a.mat, b.mat)
            for w, a, b in zip(spec.weights, spec.a_states, spec.b_states)
        )
        state = zero_discord_state(spec)
        assert state.dims == (2, 3)
        assert np.abs(state.mat - want).max() < 1e-14

    def test_alignment_and_weight_validation(self):
        q = pure_state([1.0, 0.0])
        b = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="at least one"):
            ZeroDiscordSpec((), (), (), ())
        with pytest.raises(ValueError, match="align"):
            ZeroDiscordSpec((1.0,), (q, q), ((0,),), (b,))
        with pytest.raises(ValueError, match="nonnegative"):
            ZeroDiscordSpec((1.2, -0.2), (q, q), ((0,), (1,)), (b, b))
        with pytest.raises(ValueError, match="sum to"):
            ZeroDiscordSpec((0.5,), (q,), ((0,),), (b,))

    def test_rejects_nan_weights(self):
        q = pure_state([1.0, 0.0])
        b = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="nonnegative"):
            ZeroDiscordSpec((float("nan"),), (q,), ((0,),), (b,))

    def test_dimension_validation(self):
        q2 = pure_state([1.0, 0.0])
        q3 = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="A factors"):
            ZeroDiscordSpec((0.5, 0.5), (q2, q3), ((0,), (1,)), (q3, q3))
        with pytest.raises(ValueError, match="B factors"):
            ZeroDiscordSpec((0.5, 0.5), (q2, q2), ((0,), (1,)), (q3, q2))

    def test_block_validation(self):
        q = pure_state([1.0, 0.0])
        b0 = pure_state([1.0, 0.0, 0.0], (3,))
        b2 = pure_state([0.0, 0.0, 1.0], (3,))
        with pytest.raises(ValueError, match="nonempty"):
            ZeroDiscordSpec((1.0,), (q,), ((),), (b0,))
        with pytest.raises(ValueError, match="out of range"):
            ZeroDiscordSpec((1.0,), (q,), ((3,),), (b0,))
        with pytest.raises(ValueError, match="overlap"):
            ZeroDiscordSpec((0.5, 0.5), (q, q), ((0, 1), (1, 2)), (b0, b2))

    @pytest.mark.parametrize(
        "blocks", [((0.9,), (1.2,)), ((0,), (True,)), ((0,), ("1",))], ids=["float", "bool", "string"]
    )
    def test_rejects_non_integer_block_indices(self, blocks):
        # int() would truncate 0.9 and 1.2 to the valid split (0,), (1,)
        q = pure_state([1.0, 0.0])
        b0 = pure_state([1.0, 0.0], (2,))
        b1 = pure_state([0.0, 1.0], (2,))
        with pytest.raises(ValueError, match="block indices must be integers"):
            ZeroDiscordSpec((0.5, 0.5), (q, q), blocks, (b0, b1))

    def test_support_leak_is_rejected(self):
        q = pure_state([1.0, 0.0])
        leaky = pure_state([1.0, 0.0, 1.0], (3,))  # weight on index 2
        with pytest.raises(ValueError, match="leaks"):
            ZeroDiscordSpec((1.0,), (q,), ((0, 1),), (leaky,))


def test_random_zero_discord_spec_partitions_the_basis():
    rng = np.random.default_rng(77)
    for dim_b in (2, 3, 4):
        spec = random_zero_discord_spec(rng, 2, dim_b)
        covered = sorted(i for blk in spec.blocks for i in blk)
        assert covered == list(range(dim_b))
        assert abs(sum(spec.weights) - 1.0) < 1e-12


def test_random_zero_discord_spec_is_seed_deterministic():
    s1 = random_zero_discord_spec(np.random.default_rng(4), 2, 4)
    s2 = random_zero_discord_spec(np.random.default_rng(4), 2, 4)
    assert s1.blocks == s2.blocks
    assert s1.weights == s2.weights
    for a, b in zip(s1.b_states, s2.b_states):
        assert np.array_equal(a.mat, b.mat)


class TestStateSerialization:
    def test_round_trip_is_exact(self):
        rho = random_density_matrix(6, np.random.default_rng(1), (2, 3))
        back = density_matrix_from_dict(density_matrix_to_dict(rho))
        assert back.dims == (2, 3)
        assert np.array_equal(back.mat, rho.mat)

    def test_payload_shape(self):
        payload = density_matrix_to_dict(werner(0.5))
        assert payload["dims"] == [2, 2]
        assert len(payload["re"]) == 4 and len(payload["im"]) == 4

    def test_malformed_payloads_raise_value_error(self):
        good = density_matrix_to_dict(maximally_mixed(2))
        for breakage in (
            lambda d: d.pop("re"),
            lambda d: d.update(re="oops"),
            lambda d: d.update(im=[[0.0]]),
            lambda d: d.update(dims="xy"),
            lambda d: d.update(dims="2"),
            lambda d: d.update(dims=[2.9]),
            lambda d: d.update(dims=[True, 2]),
            lambda d: d.update(re=[["0.5", 0.0], [0.0, 0.5]]),
            lambda d: d.update(im=[[False, 0.0], [0.0, 0.0]]),
            lambda d: d.update(re=[[0.5, None], [0.0, 0.5]]),
            lambda d: d.update(re=[0.5, 0.5]),
            lambda d: d.update(re=[[10**400, 0.0], [0.0, 0.5]]),  # a JSON number no float holds
        ):
            payload = {k: v for k, v in good.items()}
            breakage(payload)
            with pytest.raises(ValueError):
                density_matrix_from_dict(payload)

    def test_bool_dim_is_not_read_as_one(self):
        payload = density_matrix_to_dict(maximally_mixed(4))
        payload["dims"] = [True, 4]
        with pytest.raises(ValueError, match="malformed"):
            density_matrix_from_dict(payload)

    @pytest.mark.parametrize(
        "key, entry", [("re", "0.25"), ("im", False), ("im", None), ("re", [0.25])], ids=["string", "bool", "null", "list"]
    )
    def test_entries_must_be_numbers(self, key, entry):
        # np.asarray(..., dtype=float) would convert the string and the bool
        payload = density_matrix_to_dict(maximally_mixed(4))
        payload[key][1][1] = entry
        with pytest.raises(ValueError, match="entries must be numbers"):
            density_matrix_from_dict(payload)

    def test_integer_entries_are_numbers(self):
        payload = {"dims": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(density_matrix_from_dict(payload).mat, np.diag([1.0, 0.0]))

    def test_state_validation_still_applies(self):
        payload = density_matrix_to_dict(maximally_mixed(2))
        payload["re"] = [[1.0, 0.0], [0.0, 1.0]]  # trace 2
        with pytest.raises(ValueError, match="trace"):
            density_matrix_from_dict(payload)
