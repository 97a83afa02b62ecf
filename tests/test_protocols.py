import math

import numpy as np
import pytest
from conftest import random_unitary, trace_distance

from cohdist import protocols
from cohdist.closed_forms import rate_werner_closed_form
from cohdist.coherence import c_re, qi_relative_entropy
from cohdist.protocols import (
    ERASE_K1,
    ERASE_K2,
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PHASE_MINUS_I,
    PHASE_PLUS_I,
    PROB_FLOOR,
    KrausChannel,
    _gate,
    ensemble_rate,
    is_incoherent_kraus,
    licc_erasing_protocol,
    lqicc_werner_protocol,
    measure_local_A,
)
from cohdist.scalars import DEFAULT_TOL
from cohdist.states import (
    DensityMatrix,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    werner,
)

ALL_GATES = (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PHASE_MINUS_I,
    PHASE_PLUS_I,
    PHASE_MINUS_I @ PAULI_X,
    PHASE_PLUS_I @ PAULI_X,
)


def _z_channel() -> KrausChannel:
    return KrausChannel((np.diag([1.0 + 0j, 0.0]), np.diag([0.0j, 1.0])), ("0", "1"))


def test_gates_are_incoherent_unitaries():
    for u in ALL_GATES:
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= DEFAULT_TOL
        assert is_incoherent_kraus(u)


def test_erasing_operators():
    assert np.allclose(ERASE_K1.conj().T, np.array([[-1j, 0.0], [1.0, 0.0]]) / math.sqrt(2.0))
    want = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(ERASE_K1.conj().T @ ERASE_K1 - want).max() < 1e-15
    total = ERASE_K1.conj().T @ ERASE_K1 + ERASE_K2.conj().T @ ERASE_K2
    assert np.abs(total - np.eye(2)).max() < 1e-12
    assert is_incoherent_kraus(ERASE_K1) and is_incoherent_kraus(ERASE_K2)


def test_is_incoherent_kraus_column_rule():
    assert is_incoherent_kraus(PAULI_X)
    assert is_incoherent_kraus(np.zeros((2, 2)))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert not is_incoherent_kraus(hadamard)
    assert not is_incoherent_kraus(np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operators_are_not_incoherent(bad):
    assert not is_incoherent_kraus(np.full((2, 2), bad))
    assert not is_incoherent_kraus(np.diag([1.0, bad]))


class TestKrausChannel:
    def test_default_labels_and_dim(self):
        ch = _z_channel()
        assert ch.dim == 2
        assert KrausChannel(ch.operators).labels == ("1", "2")

    def test_incoherence_property(self):
        assert all(map(is_incoherent_kraus, _z_channel().operators))
        plus = pure_state([1.0, 1.0]).mat
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert not all(map(is_incoherent_kraus, KrausChannel((plus, minus)).operators))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(())
        with pytest.raises(ValueError, match="square"):
            KrausChannel((np.ones((2, 3)),))
        with pytest.raises(ValueError, match="one label per"):
            KrausChannel((IDENTITY_2,), ("a", "b"))
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.5 * IDENTITY_2,))

    def test_completeness_of_a_three_outcome_qutrit_channel(self):
        """sum K+ K over three weighted qutrit unitaries is I, so the channel
        passes; scaled by 1 + 1e-9 the operators miss I by about 2e-9."""
        shift = np.roll(np.eye(3), 1, axis=0)
        phases = np.exp(2j * np.pi * np.arange(3) / 3)
        ops = [math.sqrt(w) * np.linalg.matrix_power(shift, k) * phases**k for k, w in enumerate((0.5, 0.3, 0.2))]
        assert KrausChannel(ops).labels == ("1", "2", "3")
        with pytest.raises(ValueError, match=r"^Kraus completeness violated by 2\.0\d*e-09$"):
            KrausChannel([(1 + 1e-9) * k for k in ops])

    def test_operators_are_frozen_copies(self):
        k = np.diag([1.0 + 0j, 0.0])
        ch = KrausChannel((k, np.diag([0.0j, 1.0])))
        k[0, 0] = 5.0  # caller copy stays writable, channel copy does not
        assert ch.operators[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 5.0
        # a slice of a caller's (N, L, d, d) stack is copied too
        stack = np.stack([ch.operators, ch.operators[::-1]])
        sliced = KrausChannel(stack[1])
        assert sliced.operators.shape == (2, 2, 2)
        assert not np.shares_memory(sliced.operators, stack)
        stack[1, 0, 0, 0] = 5.0
        assert sliced.operators[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            sliced.operators[0, 0, 0] = 5.0


class TestMeasureLocalA:
    def test_z_measurement_on_werner(self):
        branches = measure_local_A(werner(0.7), _z_channel())
        assert tuple(label for label, _, _ in branches) == ("0", "1")
        assert tuple(q for _, q, _ in branches) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert np.abs(branches[0][2].mat - np.diag([0.85, 0.15])).max() < 1e-12
        assert np.abs(branches[1][2].mat - np.diag([0.15, 0.85])).max() < 1e-12

    def test_probabilities_sum_to_one_for_complete_channels(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            u = random_unitary(rng, 2)
            ops = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2))
            branches = measure_local_A(random_density_matrix(6, rng, (2, 3)), KrausChannel(ops))
            assert abs(sum(q for _, q, _ in branches) - 1.0) <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_branches_are_labelled_normalized_states_on_b(self, dims):
        """Every branch tuple carries the channel's label, in channel order,
        a positive probability, and a DensityMatrix on B alone; the
        probabilities sum to one, also when an outcome is dropped."""
        da, db = dims
        rng = np.random.default_rng(64)
        labels = tuple(f"m{a}" for a in range(da))
        projectors = tuple(np.diag(np.eye(da)[a]) for a in range(da))
        sigma = random_density_matrix(db, rng).mat
        states = (
            random_density_matrix(da * db, rng, dims),
            DensityMatrix(np.kron(np.diag([0.0] + [1.0 / (da - 1)] * (da - 1)), sigma), dims),
        )
        for rho, kept in zip(states, (labels, labels[1:])):
            branches = measure_local_A(rho, KrausChannel(projectors, labels))
            assert tuple(label for label, _, _ in branches) == kept
            for _, q, state in branches:
                assert q > 0.0
                assert isinstance(state, DensityMatrix)
                assert state.dims == (db,)
            assert abs(sum(q for _, q, _ in branches) - 1.0) <= 1e-15 * len(branches)

    def test_no_kept_outcome_raises(self, monkeypatch):
        monkeypatch.setattr(protocols, "PROB_FLOOR", 2.0)
        with pytest.raises(ValueError, match="^all outcomes fell below the probability floor$"):
            measure_local_A(werner(0.7), _z_channel())

    @staticmethod
    def _reference_branches(rho, ops):
        """Unnormalized tr_A[(K x I) rho (K x I)+] built from explicit tensors."""
        da, db = rho.dims
        out = []
        for k in ops:
            lifted = np.kron(k, np.eye(db))
            m = lifted @ rho.mat @ lifted.conj().T
            out.append(m.reshape(da, db, da, db).trace(axis1=0, axis2=2))
        return out

    def test_agrees_with_the_kron_lift(self):
        """Cross-check the contraction against explicit tensors, for random
        complete Kraus channels (slices of a random isometry)."""
        rng = np.random.default_rng(61)
        for da, db in ((2, 2), (2, 3), (3, 2)):
            for n_ops in (1, 2, 3, 2, 3):
                iso = random_unitary(rng, n_ops * da)[:, :da]
                ops = tuple(iso[i * da : (i + 1) * da] for i in range(n_ops))
                rho = random_density_matrix(da * db, rng, (da, db))
                branches = measure_local_A(rho, KrausChannel(ops))
                assert len(branches) == n_ops
                for want, (_, q, state) in zip(self._reference_branches(rho, ops), branches):
                    assert abs(q - want.trace().real) <= 1e-14
                    assert np.abs(state.mat - want / want.trace().real).max() <= 1e-14

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-10])
    def test_kron_lift_with_an_outcome_near_the_floor(self, dims, eps):
        """A 3-outcome channel cut from a random isometry whose third
        operator kills A's |0>, on a Ginibre state weighted eps away from
        A in |0>: the third outcome is kept exactly when the lifted
        reference puts its probability at or above PROB_FLOOR."""
        da, db = dims
        rng = np.random.default_rng(64)
        k3 = np.zeros((da, da), dtype=complex)
        k3[:, 1] = rng.standard_normal(da) / (2 * math.sqrt(da))
        root = np.diag(np.sqrt(1.0 - (np.abs(k3) ** 2).sum(axis=0)))
        iso = random_unitary(rng, 2 * da)[:, :da]
        ops = (iso[:da] @ root, iso[da:] @ root, k3)
        sigma = random_density_matrix(db, rng).mat
        g = random_density_matrix(da * db, rng, dims).mat
        a0 = np.kron(np.diag([1.0] + [0.0] * (da - 1)), sigma)
        rho = DensityMatrix((1.0 - eps) * a0 + eps * g, dims)
        branches = measure_local_A(rho, KrausChannel(ops))
        want = self._reference_branches(rho, ops)
        kept = [w for w in want if w.trace().real >= PROB_FLOOR]
        assert len(kept) == (2 if eps < PROB_FLOOR else 3)
        assert tuple(label for label, _, _ in branches) == ("1", "2", "3")[: len(kept)]
        for w, (_, q, state) in zip(kept, branches):
            assert abs(q - w.trace().real) <= 1e-14
            assert np.abs(state.mat - w / w.trace().real).max() <= 1e-14

    def test_zero_probability_outcomes_are_dropped(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
        branches = measure_local_A(rho, _z_channel())
        assert tuple(label for label, _, _ in branches) == ("0",)
        assert tuple(q for _, q, _ in branches) == pytest.approx((1.0,), abs=1e-12)
        # A in |0>, measured in the reference basis: only outcome "1" survives
        for da, db in ((2, 2), (2, 3), (3, 2)):
            sigma = random_density_matrix(db, np.random.default_rng(63))
            rho = DensityMatrix(np.kron(np.diag([1.0] + [0.0] * (da - 1)), sigma.mat), (da, db))
            ops = tuple(np.diag(np.eye(da)[a]) for a in range(da))
            branches = measure_local_A(rho, KrausChannel(ops))
            want = self._reference_branches(rho, ops)
            assert [w.trace().real for w in want[1:]] == [0.0] * (da - 1)
            ((label, q, state),) = branches
            assert label == "1"
            assert abs(q - 1.0) <= 1e-14
            assert np.abs(state.mat - want[0]).max() <= 1e-14

    def test_input_validation(self):
        with pytest.raises(ValueError, match="bipartite"):
            measure_local_A(maximally_mixed(4), _z_channel())
        with pytest.raises(ValueError, match="dimension"):
            measure_local_A(random_density_matrix(6, np.random.default_rng(0), (3, 2)), _z_channel())

    def test_identity_channel_keeps_the_marginal_coherence(self):
        rng = np.random.default_rng(62)
        trivial = KrausChannel((IDENTITY_2,))
        for _ in range(10):
            rho = random_density_matrix(4, rng, (2, 2))
            rate = ensemble_rate(measure_local_A(rho, trivial))
            assert rate >= c_re(rho.marginal_b) - 1e-9


class TestGate:
    def test_conjugation(self):
        branches = measure_local_A(werner(0.7), _z_channel())
        fixed = PAULI_X @ branches[1][2].mat @ PAULI_X.conj().T
        assert np.abs(fixed - np.diag([0.85, 0.15])).max() < 1e-12

    def test_rejects_non_unitary_gates(self):
        # a gate is checked as a one-operator channel, complete exactly when unitary
        with pytest.raises(ValueError, match=r"^Kraus completeness violated by 0\.75$"):
            _gate(0.5 * PAULI_X)

    def test_rejects_nan_gates(self):
        with pytest.raises(ValueError, match="^Kraus completeness violated by nan$"):
            _gate(np.full((2, 2), np.nan))

    def test_rejects_coherent_gates(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="incoherent"):
            _gate(hadamard)

    def test_every_module_gate_passes(self):
        for u in (*ALL_GATES, *protocols._X_CORRECTIONS.values(), *protocols._ERASING_CORRECTIONS.values()):
            checked = _gate(u)
            assert checked.tobytes() == u.tobytes() and not checked.flags.writeable

    def test_protocol_calls_check_no_gate(self, monkeypatch):
        """The gates are checked at import, so a protocol call builds no
        channel and runs no incoherence test."""
        calls = {"channel": 0, "incoherent": 0}
        post_init, incoherent = KrausChannel.__post_init__, protocols.is_incoherent_kraus

        def counted_post_init(channel):
            calls["channel"] += 1
            post_init(channel)

        def counted_incoherent(k):
            calls["incoherent"] += 1
            return incoherent(k)

        monkeypatch.setattr(KrausChannel, "__post_init__", counted_post_init)
        monkeypatch.setattr(protocols, "is_incoherent_kraus", counted_incoherent)
        for protocol in (lqicc_werner_protocol, licc_erasing_protocol):
            assert protocol(0.5).rate == pytest.approx(rate_werner_closed_form(0.5), abs=1e-10)
        assert calls == {"channel": 0, "incoherent": 0}

    @pytest.mark.parametrize(
        "protocol, channel",
        [(lqicc_werner_protocol, protocols._X_BASIS), (licc_erasing_protocol, protocols._ERASING)],
    )
    def test_branches_are_the_measured_branches_conjugated(self, protocol, channel):
        for p in (0.0, 0.3, 1.0):
            measured = measure_local_A(werner(p), channel)
            result = protocol(p)
            assert len(result.branches) == len(measured)
            for (label, q, state), u, (want_label, want_q, raw) in zip(result.branches, result.corrections, measured):
                assert (label, q) == (want_label, want_q)
                assert state.mat.tobytes() == (u @ raw.mat @ u.conj().T).tobytes()


def test_ensemble_rate_hand_value():
    branches = (("1", 0.5, pure_state([1.0, 1.0])), ("2", 0.5, pure_state([1.0, 0.0])))
    assert ensemble_rate(branches) == pytest.approx(0.5, abs=1e-12)


class TestWernerProtocols:
    TARGET_P = (0.1, 0.5, 0.9)

    @staticmethod
    def _target(p: float) -> DensityMatrix:
        return DensityMatrix(
            p * pure_state([1.0, 1.0]).mat + (1.0 - p) * np.eye(2) / 2
        )

    @pytest.mark.parametrize("runner", (lqicc_werner_protocol, licc_erasing_protocol))
    def test_branches_hit_the_steered_state(self, runner):
        for p in self.TARGET_P:
            result = runner(p)
            target = self._target(p)
            assert tuple(q for _, q, _ in result.branches) == pytest.approx((0.5, 0.5), abs=1e-12)
            for _, _, state in result.branches:
                assert trace_distance(state.mat, target.mat) < 1e-12
            assert result.rate == pytest.approx(rate_werner_closed_form(p), abs=1e-10)

    def test_transcripts(self):
        """One correction per branch, in branch order."""
        lq = lqicc_werner_protocol(0.5)
        assert tuple(label for label, _, _ in lq.branches) == ("+1", "-1")
        assert len(lq.corrections) == 2
        assert np.array_equal(lq.corrections[0], IDENTITY_2)
        assert np.array_equal(lq.corrections[1], PAULI_Z)
        assert lq.branches[0][1] == pytest.approx(0.5, abs=1e-12)

        li = licc_erasing_protocol(0.5)
        assert tuple(label for label, _, _ in li.branches) == ("1", "2")
        assert len(li.corrections) == 2
        assert np.array_equal(li.corrections[0], PHASE_MINUS_I @ PAULI_X)
        assert np.array_equal(li.corrections[1], PHASE_PLUS_I @ PAULI_X)

    def test_erasing_channel_is_incoherent_but_projective_x_is_not(self):
        assert all(map(is_incoherent_kraus, KrausChannel((ERASE_K1, ERASE_K2)).operators))
        plus = pure_state([1.0, 1.0]).mat
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert not all(map(is_incoherent_kraus, KrausChannel((plus, minus)).operators))

    def test_rates_agree_for_sampled_p(self):
        rng = np.random.default_rng(63)
        for p in rng.uniform(0.0, 1.0, 100):
            assert abs(lqicc_werner_protocol(p).rate - licc_erasing_protocol(p).rate) <= 1e-12

    def test_rate_never_exceeds_the_qi_measure(self):
        for p in self.TARGET_P:
            rho = werner(p)
            assert c_re(rho.marginal_b) == pytest.approx(0.0, abs=1e-12)
            rate = lqicc_werner_protocol(p).rate
            qi = qi_relative_entropy(rho)
            assert rate <= qi + 1e-9
            assert qi - rate > 1e-3  # strict gap away from the endpoints

    @pytest.mark.parametrize("protocol", [lqicc_werner_protocol, licc_erasing_protocol])
    def test_returned_gates_are_read_only(self, protocol):
        """Every result of a protocol shares its gates."""
        for gate in protocol(0.5).corrections:
            with pytest.raises(ValueError, match="read-only"):
                gate[0, 0] = 2.0
        assert protocol(0.5).rate == pytest.approx(rate_werner_closed_form(0.5), abs=1e-10)
        for u in (IDENTITY_2, PAULI_X, PAULI_Z, PHASE_MINUS_I, PHASE_PLUS_I, ERASE_K1, ERASE_K2):
            assert not u.flags.writeable

    def test_endpoints(self):
        assert lqicc_werner_protocol(0.0).rate == pytest.approx(0.0, abs=1e-12)
        assert licc_erasing_protocol(1.0).rate == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="mixing parameter"):
            lqicc_werner_protocol(1.5)


def test_steering_direction_matters():
    # measuring A along Z yields no coherence for Bob; along X it yields plenty
    z_rate = ensemble_rate(measure_local_A(werner(0.8), _z_channel()))
    assert z_rate == pytest.approx(0.0, abs=1e-12)
    assert lqicc_werner_protocol(0.8).rate > 0.4


def test_correction_aligns_the_minus_branch():
    """The Z fix maps the -1 branch onto the +1 branch exactly; the rate
    is unchanged because conjugation by Z only flips off-diagonal signs."""
    p = 0.8
    plus = pure_state([1.0, 1.0]).mat
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    raw = measure_local_A(werner(p), KrausChannel((plus, minus), ("+1", "-1")))
    assert np.allclose(raw[1][2].mat, np.array([[0.5, -0.5 * p], [-0.5 * p, 0.5]]), atol=1e-12)
    plus_branch, (label_minus, q_minus, minus_state) = raw
    fixed_minus = DensityMatrix(PAULI_Z @ minus_state.mat @ PAULI_Z.conj().T)
    fixed = (plus_branch, (label_minus, q_minus, fixed_minus))
    assert trace_distance(fixed[1][2].mat, fixed[0][2].mat) < 1e-12
    assert ensemble_rate(fixed) == pytest.approx(ensemble_rate(raw), abs=1e-9)
    assert ensemble_rate(fixed) == pytest.approx(rate_werner_closed_form(p), abs=1e-10)
