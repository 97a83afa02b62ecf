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
from .scalars import DEFAULT_TOL, _bipartite_dims
from .states import DensityMatrix, werner

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
class ProtocolResult:
    """Bob's corrected (label, probability, state) branches, their
    distillation rate, and the correction gate Bob applied on each
    branch, in branch order."""

    branches: tuple[tuple[str, float, DensityMatrix], ...]
    rate: float
    corrections: tuple[np.ndarray, ...]


def measure_local_A(rho: DensityMatrix, channel: KrausChannel) -> tuple[tuple[str, float, DensityMatrix], ...]:
    """Measure subsystem A with {K_l x I_B}; return Bob's conditional
    branches (l, q_l, tr_A[(K_l x I) rho (K_l x I)+] / q_l) in label
    order, formed in one contraction without building K_l x I.  Outcomes
    with probability below PROB_FLOOR are dropped, and the kept
    probabilities are divided by their total: the state's trace and the
    channel's completeness may each be off by DEFAULT_TOL, and the two
    defects add up in the sum.
    """
    da, db = _bipartite_dims(rho.dims)
    if channel.dim != da:
        raise ValueError(f"channel acts on dimension {channel.dim}, A has {da}")
    ops = channel.operators
    bobs = np.einsum("lxa,abcd,lxc->lbd", ops, rho.mat.reshape(da, db, da, db), ops.conj())
    probs = np.trace(bobs, axis1=1, axis2=2).real.tolist()
    kept = []
    total = 0.0
    for q, bob, label in zip(probs, bobs, channel.labels):
        if q < PROB_FLOOR:
            continue
        kept.append((label, q, DensityMatrix(bob / q, (db,))))
        total += q
    if not kept:
        raise ValueError("all outcomes fell below the probability floor")
    return tuple([(label, q / total, state) for label, q, state in kept])


def ensemble_rate(branches) -> float:
    """Average coherence sum_l q_l c_re(rho_l) of (l, q_l, rho_l) branches."""
    return sum(q * c_re(state) for _, q, state in branches)


def _gate(m) -> np.ndarray:
    """A correction gate, checked once: unitary (complete as a one-operator
    KrausChannel) and incoherent, so it smuggles no coherence into Bob's lab."""
    (u,) = KrausChannel((m,)).operators
    if not is_incoherent_kraus(u):
        raise ValueError("correction gate is not incoherent")
    return u


# Single-qubit gates used for outcome corrections, each checked at import;
# read-only, as results share them.
IDENTITY_2 = _gate(np.eye(2, dtype=complex))
PAULI_X = _gate(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
PAULI_Z = _gate(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
PHASE_MINUS_I = _gate(np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex))
PHASE_PLUS_I = _gate(np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex))

# Erasing measurement on A: each operator maps everything onto |0> with
# the input amplitudes folded into relative phases.
_ERASING = KrausChannel(np.array([[[1.0j, 1.0], [0.0, 0.0]], [[-1.0j, 1.0], [0.0, 0.0]]]) / math.sqrt(2.0), ("1", "2"))
ERASE_K1, ERASE_K2 = _ERASING.operators
_ERASING_CORRECTIONS = {"1": _gate(PHASE_MINUS_I @ PAULI_X), "2": _gate(PHASE_PLUS_I @ PAULI_X)}
_X_BASIS = KrausChannel(np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex), ("+1", "-1"))
_X_CORRECTIONS = {"+1": IDENTITY_2, "-1": PAULI_Z}


def _run_werner_protocol(p: float, channel: KrausChannel, corrections: dict) -> ProtocolResult:
    measured = measure_local_A(werner(p), channel)
    gates = tuple(corrections[label] for label, _, _ in measured)
    branches = tuple((label, q, DensityMatrix(u @ state.mat @ u.conj().T, state.dims)) for (label, q, state), u in zip(measured, gates))
    return ProtocolResult(branches, ensemble_rate(branches), gates)


def lqicc_werner_protocol(p: float) -> ProtocolResult:
    """Alice measures X on her half of werner(p); Bob fixes outcome -1
    with a Z gate.  Both corrected branches equal p|+><+| + (1-p) I/2."""
    return _run_werner_protocol(p, _X_BASIS, _X_CORRECTIONS)


def licc_erasing_protocol(p: float) -> ProtocolResult:
    """Alice applies the incoherent erasing measurement {ERASE_K1,
    ERASE_K2} to her half of werner(p); Bob applies X then a phase gate
    (-i or +i on |1>) per the announced outcome.  Both corrected
    branches again equal p|+><+| + (1-p) I/2."""
    return _run_werner_protocol(p, _ERASING, _ERASING_CORRECTIONS)
