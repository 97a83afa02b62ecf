import math

import numpy as np
import pytest
from conftest import random_unitary

from cohdist.coherence import c_re, qi_relative_entropy
from cohdist.linalg import DEFAULT_TOL, kron, trace_distance
from cohdist.optimize import rate_werner_closed_form
from cohdist.protocols import (
    ERASE_K1,
    ERASE_K2,
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PHASE_MINUS_I,
    PHASE_PLUS_I,
    Ensemble,
    KrausChannel,
    apply_correction,
    ensemble_rate,
    is_incoherent_kraus,
    licc_erasing_protocol,
    lqicc_werner_protocol,
    measure_local_A,
)
from cohdist.states import (
    DensityMatrix,
    bloch_qubit,
    maximally_coherent_qubit,
    maximally_mixed,
    partial_trace,
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


class TestKrausChannel:
    def test_default_labels_and_dim(self):
        ch = _z_channel()
        assert ch.dim == 2
        assert KrausChannel(ch.operators).labels == ("1", "2")

    def test_incoherence_property(self):
        assert _z_channel().is_incoherent
        plus = maximally_coherent_qubit().mat
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert not KrausChannel((plus, minus)).is_incoherent

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(())
        with pytest.raises(ValueError, match="square"):
            KrausChannel((np.ones((2, 3)),))
        with pytest.raises(ValueError, match="one label per"):
            KrausChannel((IDENTITY_2,), ("a", "b"))
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.5 * IDENTITY_2,))

    def test_operators_are_frozen_copies(self):
        k = np.diag([1.0 + 0j, 0.0])
        ch = KrausChannel((k, np.diag([0.0j, 1.0])))
        k[0, 0] = 5.0  # caller copy stays writable, channel copy does not
        assert ch.operators[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 5.0


class TestEnsemble:
    def test_properties(self):
        ens = Ensemble(((0.5, maximally_coherent_qubit()), (0.5, maximally_mixed(2))))
        assert ens.probabilities == (0.5, 0.5)
        assert len(ens.states) == 2
        assert ens.labels == ("1", "2")

    def test_validation(self):
        q = maximally_mixed(2)
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(())
        with pytest.raises(ValueError, match="negative"):
            Ensemble(((-0.5, q), (1.5, q)))
        with pytest.raises(ValueError, match="sum to"):
            Ensemble(((0.4, q), (0.4, q)))
        with pytest.raises(ValueError, match="share dims"):
            Ensemble(((0.5, q), (0.5, maximally_mixed(3))))
        with pytest.raises(ValueError, match="one label per"):
            Ensemble(((1.0, q),), ("a", "b"))


class TestMeasureLocalA:
    def test_z_measurement_on_werner(self):
        ens = measure_local_A(werner(0.7), _z_channel())
        assert ens.labels == ("0", "1")
        assert ens.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert np.abs(ens.states[0].mat - np.diag([0.85, 0.15])).max() < 1e-12
        assert np.abs(ens.states[1].mat - np.diag([0.15, 0.85])).max() < 1e-12

    def test_probabilities_sum_to_one_for_complete_channels(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            u = random_unitary(rng, 2)
            ops = tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(2))
            ens = measure_local_A(random_density_matrix(6, rng, (2, 3)), KrausChannel(ops))
            assert abs(sum(ens.probabilities) - 1.0) <= 1e-10

    @staticmethod
    def _reference_branches(rho, ops):
        """Unnormalized tr_A[(K x I) rho (K x I)+] built from explicit tensors."""
        da, db = rho.dims
        out = []
        for k in ops:
            lifted = kron(k, np.eye(db))
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
                ens = measure_local_A(rho, KrausChannel(ops))
                assert len(ens.items) == n_ops
                for want, (q, state) in zip(self._reference_branches(rho, ops), ens.items):
                    assert abs(q - want.trace().real) <= 1e-14
                    assert np.abs(state.mat - want / want.trace().real).max() <= 1e-14

    def test_zero_probability_outcomes_are_dropped(self):
        rho = DensityMatrix(kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
        ens = measure_local_A(rho, _z_channel())
        assert ens.labels == ("0",)
        assert ens.probabilities == pytest.approx((1.0,), abs=1e-12)
        # A in |0>, measured in the reference basis: only outcome "1" survives
        for da, db in ((2, 2), (2, 3), (3, 2)):
            sigma = random_density_matrix(db, np.random.default_rng(63))
            rho = DensityMatrix(kron(np.diag([1.0] + [0.0] * (da - 1)), sigma.mat), (da, db))
            ops = tuple(np.diag(np.eye(da)[a]) for a in range(da))
            ens = measure_local_A(rho, KrausChannel(ops))
            want = self._reference_branches(rho, ops)
            assert [w.trace().real for w in want[1:]] == [0.0] * (da - 1)
            assert ens.labels == ("1",)
            assert abs(ens.probabilities[0] - 1.0) <= 1e-14
            assert np.abs(ens.states[0].mat - want[0]).max() <= 1e-14

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
            assert rate >= c_re(partial_trace(rho, 1)) - 1e-9


class TestApplyCorrection:
    def test_conjugation(self):
        ens = measure_local_A(werner(0.7), _z_channel())
        fixed = apply_correction(ens, (IDENTITY_2, PAULI_X))
        assert np.abs(fixed.states[1].mat - np.diag([0.85, 0.15])).max() < 1e-12

    def test_rejects_non_unitary_gates(self):
        ens = measure_local_A(werner(0.7), _z_channel())
        with pytest.raises(ValueError, match="unitary"):
            apply_correction(ens, (IDENTITY_2, 0.5 * PAULI_X))

    def test_rejects_coherent_gates(self):
        ens = measure_local_A(werner(0.7), _z_channel())
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="incoherent"):
            apply_correction(ens, (IDENTITY_2, hadamard))

    def test_rejects_wrong_gate_count(self):
        ens = measure_local_A(werner(0.7), _z_channel())
        with pytest.raises(ValueError, match="per branch"):
            apply_correction(ens, (IDENTITY_2,))


def test_ensemble_rate_hand_value():
    ens = Ensemble(((0.5, maximally_coherent_qubit()), (0.5, pure_state([1.0, 0.0]))))
    assert ensemble_rate(ens) == pytest.approx(0.5, abs=1e-12)


class TestWernerProtocols:
    TARGET_P = (0.1, 0.5, 0.9)

    @staticmethod
    def _target(p: float) -> DensityMatrix:
        return DensityMatrix(
            p * maximally_coherent_qubit().mat + (1.0 - p) * np.eye(2) / 2
        )

    @pytest.mark.parametrize("runner", (lqicc_werner_protocol, licc_erasing_protocol))
    def test_branches_hit_the_steered_state(self, runner):
        for p in self.TARGET_P:
            result = runner(p)
            target = self._target(p)
            assert result.ensemble.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
            for state in result.ensemble.states:
                assert trace_distance(state.mat, target.mat) < 1e-12
            assert result.rate == pytest.approx(rate_werner_closed_form(p), abs=1e-10)

    def test_transcripts(self):
        lq = lqicc_werner_protocol(0.5)
        assert tuple(r.label for r in lq.transcript) == ("+1", "-1")
        assert np.array_equal(lq.transcript[0].correction, IDENTITY_2)
        assert np.array_equal(lq.transcript[1].correction, PAULI_Z)
        assert lq.transcript[0].probability == pytest.approx(0.5, abs=1e-12)

        li = licc_erasing_protocol(0.5)
        assert tuple(r.label for r in li.transcript) == ("1", "2")
        assert np.array_equal(li.transcript[0].correction, PHASE_MINUS_I @ PAULI_X)
        assert np.array_equal(li.transcript[1].correction, PHASE_PLUS_I @ PAULI_X)

    def test_erasing_channel_is_incoherent_but_projective_x_is_not(self):
        assert KrausChannel((ERASE_K1, ERASE_K2)).is_incoherent
        plus = maximally_coherent_qubit().mat
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert not KrausChannel((plus, minus)).is_incoherent

    def test_rates_agree_for_sampled_p(self):
        rng = np.random.default_rng(63)
        for p in rng.uniform(0.0, 1.0, 100):
            assert abs(lqicc_werner_protocol(p).rate - licc_erasing_protocol(p).rate) <= 1e-12

    def test_rate_never_exceeds_the_qi_measure(self):
        for p in self.TARGET_P:
            rho = werner(p)
            assert c_re(partial_trace(rho, 1)) == pytest.approx(0.0, abs=1e-12)
            rate = lqicc_werner_protocol(p).rate
            qi = qi_relative_entropy(rho)
            assert rate <= qi + 1e-9
            assert qi - rate > 1e-3  # strict gap away from the endpoints

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
    plus = maximally_coherent_qubit().mat
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    raw = measure_local_A(werner(p), KrausChannel((plus, minus), ("+1", "-1")))
    assert np.allclose(raw.states[1].mat, bloch_qubit(-p, 0.0, 0.0).mat, atol=1e-12)
    fixed = apply_correction(raw, (IDENTITY_2, PAULI_Z))
    assert trace_distance(fixed.states[1].mat, fixed.states[0].mat) < 1e-12
    assert ensemble_rate(fixed) == pytest.approx(ensemble_rate(raw), abs=1e-9)
    assert ensemble_rate(fixed) == pytest.approx(rate_werner_closed_form(p), abs=1e-10)
