import warnings
from decimal import Decimal

import numpy as np
import pytest

from cohdist import states
from cohdist.closed_forms import figure_data, qi_werner_closed_form, rate_werner_closed_form
from cohdist.optimize import brute_force_measurement_opt
from cohdist.scalars import DEFAULT_TOL, _check_p
from cohdist.states import (
    DensityMatrix,
    ZeroDiscordSpec,
    density_matrix_from_dict,
    density_matrix_to_dict,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)
from cohdist.verify import discord_report


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


def test_pure_state_at_extreme_magnitudes():
    """The norm's squares once underflowed or overflowed on these three:
    the first raised "must be nonzero", the second "trace is 0j", the third
    "trace is 0.91...".  Rescaling by a power of two is exact, so a state's
    bytes do not depend on its vector's scale; an empty vector is still zero."""
    plus, zero = np.full((2, 2), 0.5), np.diag([1.0, 0.0])
    for amplitudes, want in (([1e-200, 1e-200], plus), ([1e200, 1e200], plus), ([3e-162, 0.0], zero)):
        assert np.allclose(pure_state(amplitudes).mat, want, atol=1e-15, rtol=0.0)
    rng = np.random.default_rng(40)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for k in (-900, -600, -1, 1, 600, 900):
        assert pure_state(v * 2.0**k).mat.tobytes() == pure_state(v).mat.tobytes()
    with pytest.raises(ValueError, match="nonzero"):
        pure_state([])


@pytest.mark.parametrize("amplitudes", [[np.inf, 0.0], [np.nan, 1.0]])
def test_pure_state_rejects_non_finite_entries(amplitudes):
    """These once raised numpy's "invalid value" RuntimeWarning while
    rescaling, so under -W error the caller never saw the ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            pure_state(amplitudes)


def test_named_states():
    bell = werner(1.0)
    assert bell.dims == (2, 2)
    want = np.zeros((4, 4))
    want[np.ix_((0, 3), (0, 3))] = 0.5
    assert np.allclose(bell.mat, want)

    plus = pure_state([1.0, 1.0])
    assert np.allclose(plus.mat, np.full((2, 2), 0.5))

    assert np.allclose(maximally_mixed(3).mat, np.eye(3) / 3)
    with pytest.raises(ValueError):
        maximally_mixed(0)


@pytest.mark.parametrize(
    "build, what, rule",
    [
        (lambda rng: maximally_mixed(2.0), "dim", "integers"),
        (lambda rng: maximally_mixed(True), "dim", "integers"),
        (lambda rng: random_density_matrix(True, rng), "dim", "integers"),
        (lambda rng: random_density_matrix(2.0, rng), "dim", "integers"),
        (lambda rng: random_zero_discord_spec(rng, 2, 2.0), "dim_a, dim_b", "integers"),
        (lambda rng: random_zero_discord_spec(rng, "2", 2), "dim_a, dim_b", "integers"),
        (lambda rng: maximally_mixed(0), "dim", "positive"),
        (lambda rng: maximally_mixed(-1), "dim", "positive"),
        (lambda rng: random_density_matrix(0, rng), "dim", "positive"),
        (lambda rng: random_density_matrix(-1, rng), "dim", "positive"),
        (lambda rng: random_zero_discord_spec(rng, 0, 2), "dim_a, dim_b", "positive"),
        (lambda rng: random_zero_discord_spec(rng, 2, -1), "dim_a, dim_b", "positive"),
        (lambda rng: figure_data(0.0, 1.0, 0), "steps", "at least 2"),
        (lambda rng: figure_data(0.0, 1.0, -1), "steps", "at least 2"),
        (lambda rng: brute_force_measurement_opt(0.5, (3, 0)), "grid sizes", "positive"),
        (lambda rng: brute_force_measurement_opt(0.5, (-1, 3)), "grid sizes", "positive"),
    ],
    ids=[
        "mixed-float", "mixed-bool", "random-bool", "random-float", "spec-float", "spec-string",
        "mixed-zero", "mixed-negative", "random-zero", "random-negative", "spec-zero", "spec-negative",
        "steps-zero", "steps-negative", "grid-zero", "grid-negative",
    ],
)
def test_sizes_at_the_constructors_must_be_integers(build, what, rule):
    """Every size passes scalars._indices: an integer, then at least 1 (a
    scan's step count at least 2).
    Each once raised a numpy TypeError or AxisError, read True as 1, or (a
    zero or negative random_density_matrix size) a message about a matrix
    the caller never passed, or numpy's naming no argument."""
    with pytest.raises(ValueError, match=f"^{what} must be {rule}, got "):
        build(np.random.default_rng(0))


def test_werner_endpoints_and_domain():
    """werner(p) is the mixture of a freshly built Bell state, bit for bit,
    though it mixes a shared read-only copy."""
    edges = [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]
    for p in edges + np.random.default_rng(32).uniform(0.0, 1.0, 200).tolist():
        want = p * pure_state([1.0, 0.0, 0.0, 1.0], (2, 2)).mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
        assert werner(p).mat.tobytes() == want.tobytes(), p
    assert werner(0.0).mat.tobytes() == (np.eye(4, dtype=complex) / 4).tobytes()
    assert werner(1.0).mat.tobytes() == pure_state([1.0, 0.0, 0.0, 1.0], (2, 2)).mat.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        states._BELL[0, 0] = 0.0
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


@pytest.mark.parametrize("bad", ["0.5", Decimal("0.5"), None], ids=["str", "Decimal", "None"])
def test_non_real_mixing_parameter_is_rejected(bad):
    with pytest.raises(ValueError, match="mixing parameter must be a number"):
        _check_p(bad)


@pytest.mark.parametrize("p", [np.float32(0.25), np.float64(0.25), 1], ids=["np.float32", "np.float64", "int"])
def test_real_mixing_parameter_is_read_as_a_float(p):
    assert type(_check_p(p)) is float
    assert _check_p(p) == float(p)


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


def _supports(spec):
    """The basis indices of each B factor whose row or column holds an
    entry above the validation tolerance."""
    out = []
    for b in spec.b_states:
        big = np.abs(b.mat) > DEFAULT_TOL
        out.append(set(np.flatnonzero(big.any(axis=0) | big.any(axis=1)).tolist()))
    return out


class TestZeroDiscordSpec:
    @staticmethod
    def _two_block():
        return ZeroDiscordSpec(
            (0.7, 0.3),
            (pure_state([1.0, 0.0]), pure_state([1.0, 1.0])),
            (pure_state([1.0, 1j, 0.0], (3,)), pure_state([0.0, 0.0, 1.0], (3,))),
        )

    def test_valid_spec(self):
        spec = self._two_block()
        assert spec.dims == (2, 3)
        assert _supports(spec) == [{0, 1}, {2}]

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
            ZeroDiscordSpec((), (), ())
        with pytest.raises(ValueError, match="align"):
            ZeroDiscordSpec((1.0,), (q, q), (b,))
        with pytest.raises(ValueError, match="nonnegative"):
            ZeroDiscordSpec((1.2, -0.2), (q, q), (b, b))
        with pytest.raises(ValueError, match="sum to"):
            ZeroDiscordSpec((0.5,), (q,), (b,))

    def test_rejects_nan_weights(self):
        q = pure_state([1.0, 0.0])
        b = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="nonnegative"):
            ZeroDiscordSpec((float("nan"),), (q,), (b,))

    def test_dimension_validation(self):
        q2 = pure_state([1.0, 0.0])
        q3 = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="A factors"):
            ZeroDiscordSpec((0.5, 0.5), (q2, q3), (q3, q3))
        with pytest.raises(ValueError, match="B factors must share"):
            ZeroDiscordSpec((0.5, 0.5), (q2, q2), (q3, q2))

    def test_support_leak_is_rejected(self):
        # the first factor reaches index 2, which the second one holds
        q = pure_state([1.0, 0.0])
        leaky = pure_state([1.0, 0.0, 1.0], (3,))
        b2 = pure_state([0.0, 0.0, 1.0], (3,))
        with pytest.raises(ValueError, match=r"^B factors 0 and 1 overlap at indices \[2\]$"):
            ZeroDiscordSpec((0.5, 0.5), (q, q), (leaky, b2))
        b1 = pure_state([0.0, 1.0, 0.0], (3,))
        with pytest.raises(ValueError, match=r"^B factors 1 and 2 overlap at indices \[2\]$"):
            ZeroDiscordSpec((0.2, 0.3, 0.5), (q, q, q), (b1, leaky, b2))

    def test_one_term_with_a_full_rank_b_factor_has_zero_discord(self):
        # a product state has zero discord whatever its B factor; the
        # same factor mixed with a second one it overlaps does not
        a0, a1 = pure_state([1.0, 0.0]), pure_state([0.0, 1.0])
        b = random_density_matrix(3, np.random.default_rng(3), (3,))
        product = ZeroDiscordSpec((1.0,), (a0,), (b,))
        assert _supports(product) == [{0, 1, 2}]
        assert discord_report(zero_discord_state(product)).passed
        b0 = pure_state([1.0, 0.0, 0.0], (3,))
        with pytest.raises(ValueError, match="overlap"):
            ZeroDiscordSpec((0.5, 0.5), (a0, a1), (b, b0))
        mixed = DensityMatrix(0.5 * np.kron(a0.mat, b.mat) + 0.5 * np.kron(a1.mat, b0.mat), (2, 3))
        rep = discord_report(mixed)
        assert not rep.passed and rep.discord > 1e-3


def test_random_zero_discord_spec_partitions_the_basis():
    rng = np.random.default_rng(77)
    for dim_b in (2, 3, 4):
        for _ in range(10):
            spec = random_zero_discord_spec(rng, 2, dim_b)
            supports = _supports(spec)
            covered = sorted(i for s in supports for i in s)
            assert covered == list(range(dim_b))  # disjoint, and every index held
            assert abs(sum(spec.weights) - 1.0) < 1e-12


def test_random_zero_discord_spec_is_seed_deterministic():
    s1 = random_zero_discord_spec(np.random.default_rng(4), 2, 4)
    s2 = random_zero_discord_spec(np.random.default_rng(4), 2, 4)
    assert s1.weights == s2.weights
    for a, b in zip(s1.b_states, s2.b_states):
        assert np.array_equal(a.mat, b.mat)


# (B's block partition, weights) of each spec, as one generator per seed
# draws them through lemma1_suite's shape cycle
LEMMA1_SPECS = [
    # seed 0
    (((0,), (1,)), (0.9809442073677069, 0.019055792632292994)),
    (((0, 1), (2,)), (0.19484856589836322, 0.8051514341016368)),
    (((0,), (1,), (2,), (3,)), (0.5910759534590084, 0.14716728236793666, 0.033597965962917975, 0.22815879821013696)),
    (((0,), (1, 2)), (0.12750010126772937, 0.8724998987322705)),
    # seed 1
    (((0,), (1,)), (0.05426796493549245, 0.9457320350645075)),
    (((0, 1, 2),), (1.0,)),
    (((3,), (0, 1, 2)), (0.4141201774099126, 0.5858798225900874)),
    (((0, 1), (2,)), (0.8117955366928833, 0.18820446330711663)),
    # seed 2
    (((0, 1),), (0.9999999999999999,)),
    (((0, 1, 2),), (1.0,)),
    (((0, 1, 2, 3),), (0.9999999999999999,)),
    (((0, 1, 2),), (1.0,)),
    # seed 3
    (((0, 1),), (1.0,)),
    (((2,), (0,), (1,)), (0.3556625848713338, 0.2730522689910561, 0.3712851461376102)),
    (((2,), (0, 1, 3)), (0.524253350950209, 0.47574664904979097)),
    (((2,), (1,), (0,)), (0.42940365358012567, 0.5367400034396571, 0.033856342980217245)),
    # seed 4
    (((1,), (0,)), (0.11735194659219093, 0.8826480534078092)),
    (((1,), (0, 2)), (0.36574661355317895, 0.6342533864468212)),
    (((1,), (0, 2, 3)), (0.291055365167294, 0.7089446348327061)),
    (((1,), (0, 2)), (0.9339538312351812, 0.06604616876481889)),
    # seed 5
    (((1,), (0,)), (0.36567138912901753, 0.6343286108709825)),
    (((2,), (1,), (0,)), (0.15838778809232512, 0.310808840247751, 0.530803371659924)),
    (((0, 3), (2,), (1,)), (0.19424149516407344, 0.059926514302716796, 0.7458319905332097)),
    (((0, 1, 2),), (0.9999999999999999,)),
    # seed 6
    (((1,), (0,)), (0.23334848655854154, 0.7666515134414584)),
    (((0, 1, 2),), (1.0,)),
    (((1,), (0, 2, 3)), (0.9825947374689384, 0.017405262531061543)),
    (((1,), (0,), (2,)), (0.13551832510855283, 0.5807815800399856, 0.28370009485146164)),
    # seed 7
    (((0,), (1,)), (0.6432640364638609, 0.3567359635361392)),
    (((0, 1), (2,)), (0.8221142689043758, 0.17788573109562433)),
    (((0, 1), (2, 3)), (0.3509126006640302, 0.6490873993359698)),
    (((0,), (1, 2)), (0.9947773975304866, 0.005222602469513535)),
    # seed 8
    (((0, 1),), (1.0,)),
    (((1, 2), (0,)), (0.9541886824599911, 0.04581131754000889)),
    (((2,), (0, 1, 3)), (0.49635495590707157, 0.5036450440929283)),
    (((2,), (0, 1)), (0.23949519827990942, 0.7605048017200906)),
    # seed 9
    (((0,), (1,)), (0.3440757801982398, 0.6559242198017603)),
    (((0, 1, 2),), (0.9999999999999999,)),
    (((2,), (3,), (0, 1)), (0.5439736883189156, 0.24648181282435663, 0.20954449885672777)),
    (((2,), (0,), (1,)), (0.20866788380977733, 0.6715950708746146, 0.11973704531560819)),
]


def test_random_zero_discord_spec_keeps_its_draws():
    """Seeds 0-9 at the four lemma-1 shapes give the pinned partitions and
    weights, so every draw keeps its order.  Neither goes through BLAS,
    so the pin is exact on every platform."""
    specs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for dims in ((2, 2), (2, 3), (2, 4), (3, 3)):
            spec = random_zero_discord_spec(rng, *dims)
            specs.append((tuple(tuple(sorted(s)) for s in _supports(spec)), spec.weights))
    assert specs == LEMMA1_SPECS


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
