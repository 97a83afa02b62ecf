"""Local measurement channels and the Werner-state distillation protocols.

Alice holds subsystem A of a shared bipartite state, measures it, and
announces the outcome; Bob applies an incoherent unitary correction.
The figure of merit is the average relative entropy of coherence of
Bob's corrected conditional states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coherence import c_re
from .scalars import DEFAULT_TOL, _bipartite_dims, _check_distribution
from .states import DensityMatrix, werner

# Single-qubit gates used for outcome corrections; read-only, as results share them.
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PHASE_MINUS_I = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
PHASE_PLUS_I = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

# Erasing measurement on A: each operator maps everything onto |0> with
# the input amplitudes folded into relative phases.
ERASE_K1 = np.array([[1.0j, 1.0], [0.0, 0.0]], dtype=complex) / math.sqrt(2.0)
ERASE_K2 = np.array([[-1.0j, 1.0], [0.0, 0.0]], dtype=complex) / math.sqrt(2.0)
_ERASING_CORRECTIONS = {"1": PHASE_MINUS_I @ PAULI_X, "2": PHASE_PLUS_I @ PAULI_X}
for _gate in (IDENTITY_2, PAULI_X, PAULI_Z, PHASE_MINUS_I, PHASE_PLUS_I, ERASE_K1, ERASE_K2, *_ERASING_CORRECTIONS.values()):
    _gate.setflags(write=False)

# Measurement outcomes below this probability are dropped.
PROB_FLOOR = 1e-14


def is_incoherent_kraus(k) -> bool:
    """True when every entry is finite and every column has at most one
    entry above DEFAULT_TOL in magnitude, so the operator maps incoherent
    states to (unnormalized) incoherent states."""
    m = np.abs(linalg.as_matrix(k))
    return bool(np.isfinite(m).all() and ((m > DEFAULT_TOL).sum(axis=0) <= 1).all())


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite Kraus decomposition {K_l} with sum K+ K = I, held as one
    read-only (L, d, d) stack that the channel owns."""

    operators: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        ops = [linalg.as_matrix(k) for k in self.operators]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must be square and share one dimension")
        ops = np.array(ops)
        labels = tuple(self.labels) or tuple(map(str, range(1, len(ops) + 1)))
        if len(labels) != len(ops):
            raise ValueError("one label per Kraus operator")
        s = ops.reshape(-1, d)  # stacked rows: s+ s is the sum of K+ K
        defect = float(np.abs(s.conj().T @ s - linalg.identity(d)).max())
        if not defect <= DEFAULT_TOL:
            raise ValueError(f"Kraus completeness violated by {defect}")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A labeled mixture {(probability, state)} over a common dimension."""

    items: tuple[tuple[float, DensityMatrix], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.items:
            raise ValueError("ensemble needs at least one branch")
        labels = tuple(self.labels) or tuple(str(i + 1) for i in range(len(self.items)))
        if len(labels) != len(self.items):
            raise ValueError("one label per branch")
        _check_distribution([q for q, _ in self.items], "branch probabilities")
        if len({state.dims for _, state in self.items}) > 1:
            raise ValueError("ensemble states must share dims")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Corrected outcome ensemble, its distillation rate, and the
    correction gate Bob applied on each branch, in the ensemble's label
    order."""

    ensemble: Ensemble
    rate: float
    corrections: tuple[np.ndarray, ...]


def measure_local_A(rho: DensityMatrix, channel: KrausChannel) -> Ensemble:
    """Measure subsystem A with {K_l x I_B}; return Bob's conditional
    ensemble {(q_l, tr_A[(K_l x I) rho (K_l x I)+] / q_l)}, formed in
    one contraction without building K_l x I.  Outcomes with probability
    below PROB_FLOOR are dropped, and the kept probabilities are divided
    by their total: the state's trace and the channel's completeness may
    each be off by DEFAULT_TOL, and the two defects add up in the sum.
    """
    da, db = _bipartite_dims(rho.dims)
    if channel.dim != da:
        raise ValueError(f"channel acts on dimension {channel.dim}, A has {da}")
    ops = channel.operators
    bobs = np.einsum("lxa,abcd,lxc->lbd", ops, rho.mat.reshape(da, db, da, db), ops.conj())
    probs = np.trace(bobs, axis1=1, axis2=2).real.tolist()
    items = []
    labels = []
    total = 0.0
    for q, bob, label in zip(probs, bobs, channel.labels):
        if q < PROB_FLOOR:
            continue
        items.append((q, DensityMatrix(bob / q, (db,))))
        labels.append(label)
        total += q
    if not items:
        raise ValueError("all outcomes fell below the probability floor")
    return Ensemble(tuple([(q / total, state) for q, state in items]), tuple(labels))


def apply_correction(ensemble: Ensemble, gates) -> Ensemble:
    """Conjugate each branch by its correction gate.

    Every gate must be unitary (checked as a complete one-operator
    KrausChannel), of its branch's dimension and incoherent (at most one
    nonzero entry per column); anything else smuggles coherence into Bob's lab.
    """
    gates = tuple(gates)
    if len(gates) != len(ensemble.items):
        raise ValueError("one correction gate per branch")
    items = []
    for (q, state), gate in zip(ensemble.items, gates):
        (u,) = KrausChannel((gate,)).operators
        if u.shape[0] != state.dim:
            raise ValueError(f"correction gate acts on dimension {u.shape[0]}, the branch has {state.dim}")
        if not is_incoherent_kraus(u):
            raise ValueError("correction gate is not incoherent")
        items.append((q, DensityMatrix(u @ state.mat @ u.conj().T, state.dims)))
    return Ensemble(tuple(items), ensemble.labels)


def ensemble_rate(ensemble: Ensemble) -> float:
    """Average coherence sum_l q_l c_re(rho_l) of an ensemble."""
    return sum(q * c_re(state) for q, state in ensemble.items)


def _run_werner_protocol(p: float, channel: KrausChannel, corrections: dict) -> ProtocolResult:
    measured = measure_local_A(werner(p), channel)
    gates = tuple(corrections[label] for label in measured.labels)
    corrected = apply_correction(measured, gates)
    return ProtocolResult(corrected, ensemble_rate(corrected), gates)


_X_BASIS = KrausChannel(np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex), ("+1", "-1"))
_ERASING = KrausChannel((ERASE_K1, ERASE_K2), ("1", "2"))


def lqicc_werner_protocol(p: float) -> ProtocolResult:
    """Alice measures X on her half of werner(p); Bob fixes outcome -1
    with a Z gate.  Both corrected branches equal p|+><+| + (1-p) I/2."""
    return _run_werner_protocol(p, _X_BASIS, {"+1": IDENTITY_2, "-1": PAULI_Z})


def licc_erasing_protocol(p: float) -> ProtocolResult:
    """Alice applies the incoherent erasing measurement {ERASE_K1,
    ERASE_K2} to her half of werner(p); Bob applies X then a phase gate
    (-i or +i on |1>) per the announced outcome.  Both corrected
    branches again equal p|+><+| + (1-p) I/2."""
    return _run_werner_protocol(p, _ERASING, _ERASING_CORRECTIONS)
