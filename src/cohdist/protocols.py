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
from .linalg import DEFAULT_TOL
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
for _gate in (IDENTITY_2, PAULI_X, PAULI_Z, PHASE_MINUS_I, PHASE_PLUS_I, ERASE_K1, ERASE_K2):
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
    """A finite Kraus decomposition {K_l} with sum K+ K = I."""

    operators: tuple[np.ndarray, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        ops = tuple(linalg.as_matrix(k).copy() for k in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must be square and share one dimension")
        labels = tuple(self.labels) or tuple(str(i + 1) for i in range(len(ops)))
        if len(labels) != len(ops):
            raise ValueError("one label per Kraus operator")
        # sum K+ K - I is Hermitian, so its upper triangle holds the defect;
        # plain scalars beat array calls at the 2x2 size the sweeps use
        rows = [row for k in ops for row in k.tolist()]
        defects = [
            abs(sum([r[a].conjugate() * r[b] for r in rows]) - (a == b))
            for a in range(d)
            for b in range(a, d)
        ]
        if not all(x <= DEFAULT_TOL for x in defects):
            raise ValueError(f"Kraus completeness violated by {max(defects)}")
        for k in ops:
            k.setflags(write=False)
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
        dims = self.items[0][1].dims
        total = 0.0
        for q, state in self.items:
            if not q >= -DEFAULT_TOL:
                raise ValueError(f"branch probability {q} must be nonnegative")
            if state.dims != dims:
                raise ValueError("ensemble states must share dims")
            total += q
        if not abs(total - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"branch probabilities sum to {total}, expected 1")
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
    ensemble {(q_l, tr_A[(K_l x I) rho (K_l x I)+] / q_l)}.

    The lifted operator K_l x I_B is never built.  Its left factor is
    one product of K_l with rho's A index; the right factor and the
    trace over A contract that with conj(K_l) block by block:
    bob_{bb'} = sum_x sum_a' [(K x I) rho]_{xb,a'b'} conj(K_{xa'}).
    Products are taken in that order, left then right, as the lifted
    route took them.  Outcomes with probability below PROB_FLOOR are
    dropped.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"needs a bipartite state, dims are {rho.dims}")
    da, db = rho.dims
    if channel.dim != da:
        raise ValueError(f"channel acts on dimension {channel.dim}, A has {da}")
    ops = np.array(channel.operators)
    # left[l, x, b, b', a'] = [(K_l x I) rho]_{xb,a'b'}
    left = (ops @ rho.mat.reshape(da, -1)).reshape(-1, da, db, da, db).transpose(0, 1, 2, 4, 3)
    m = (left @ ops.conj()[:, :, None, :, None])[..., 0]
    # q_l sums the diagonal in the lifted matrix's (x, b) order
    probs = m.diagonal(0, 2, 3).reshape(len(ops), -1).sum(axis=1).real.tolist()
    items = []
    labels = []
    for q, bob, label in zip(probs, m.sum(axis=1), channel.labels):
        if q < PROB_FLOOR:
            continue
        items.append((q, DensityMatrix(bob / q, (db,))))
        labels.append(label)
    if not items:
        raise ValueError("all outcomes fell below the probability floor")
    return Ensemble(tuple(items), tuple(labels))


def apply_correction(ensemble: Ensemble, gates) -> Ensemble:
    """Conjugate each branch by its correction gate.

    Every gate must be unitary and incoherent (at most one nonzero entry
    per column); anything else would smuggle coherence into Bob's lab.
    """
    gates = tuple(linalg.as_matrix(g) for g in gates)
    if len(gates) != len(ensemble.items):
        raise ValueError("one correction gate per branch")
    items = []
    for (q, state), u in zip(ensemble.items, gates):
        defect = float(np.abs(u.conj().T @ u - linalg.identity(u.shape[0])).max())
        if not defect <= DEFAULT_TOL:
            raise ValueError(f"correction gate is not unitary (defect {defect})")
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


def lqicc_werner_protocol(p: float) -> ProtocolResult:
    """Alice measures X on her half of werner(p); Bob fixes outcome -1
    with a Z gate.  Both corrected branches equal p|+><+| + (1-p) I/2."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    channel = KrausChannel((plus, minus), ("+1", "-1"))
    return _run_werner_protocol(p, channel, {"+1": IDENTITY_2, "-1": PAULI_Z})


def licc_erasing_protocol(p: float) -> ProtocolResult:
    """Alice applies the incoherent erasing measurement {ERASE_K1,
    ERASE_K2} to her half of werner(p); Bob applies X then a phase gate
    (-i or +i on |1>) per the announced outcome.  Both corrected
    branches again equal p|+><+| + (1-p) I/2."""
    channel = KrausChannel((ERASE_K1, ERASE_K2), ("1", "2"))
    corrections = {"1": PHASE_MINUS_I @ PAULI_X, "2": PHASE_PLUS_I @ PAULI_X}
    return _run_werner_protocol(p, channel, corrections)
