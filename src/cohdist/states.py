"""Density matrices and the named states used throughout the package."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .scalars import DEFAULT_TOL, _bipartite_dims, _check_distribution, _check_p, _check_rows, _indices, _payload_rows


@lru_cache(maxsize=None)
def _same_residue(n: int, base: int) -> np.ndarray:
    """Read-only n x n mask of the index pairs (i, j) with i == j modulo base."""
    r = np.arange(n) % base
    keep = r[:, None] == r[None, :]
    keep.setflags(write=False)
    return keep


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with an ordered subsystem split.

    dims lists the subsystem dimensions (their product must equal the
    matrix dimension); a single-system state may omit it.  Construction
    rejects non-finite entries, then checks Hermiticity, unit trace, and
    positivity, all within DEFAULT_TOL, and keeps the spectrum of the
    positivity check, in descending order, as eigenvalues for the
    entropy calls.  Each dim must be a positive integer: a float, a string or
    a bool is rejected, not truncated or read as 1.

    The instance is frozen and its matrix read-only, so the states derived
    from it (its marginals and dephasings) depend on the instance alone:
    each is a cached attribute, validated when first read.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = ()
    eigenvalues: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        m = linalg.as_matrix(self.mat)
        dims = _check_rows(m.tolist(), self.dims)
        eigs = linalg._jacobi(m)  # Hermiticity already checked
        eigs.sort(reverse=True)
        if eigs[-1] < -DEFAULT_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {eigs[-1]}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eigenvalues", tuple(eigs))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def marginal_a(self) -> DensityMatrix:
        """rho_A = tr_B rho of a bipartite state."""
        da, db = _bipartite_dims(self.dims)
        return DensityMatrix(self.mat.reshape(da, db, da, db).trace(axis1=1, axis2=3), (da,))

    @cached_property
    def marginal_b(self) -> DensityMatrix:
        """rho_B = tr_A rho of a bipartite state."""
        da, db = _bipartite_dims(self.dims)
        return DensityMatrix(self.mat.reshape(da, db, da, db).trace(axis1=0, axis2=2), (db,))

    @cached_property
    def dephased(self) -> DensityMatrix:
        """The diagonal of rho in the reference basis, with rho's dims."""
        return DensityMatrix(np.where(_same_residue(self.dim, self.dim), self.mat, 0.0), self.dims)

    @cached_property
    def dephased_b(self) -> DensityMatrix:
        """rho with every entry whose two B indices differ zeroed: B's
        coherences go, A's between equal B indices stay."""
        db = _bipartite_dims(self.dims)[1]
        return DensityMatrix(np.where(_same_residue(self.dim, db), self.mat, 0.0), self.dims)


def pure_state(amplitudes, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Outer product |v><v| of a normalized amplitude vector: any nonzero finite
    vector whose largest modulus is a normal float (a subnormal one is out of scope)."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("amplitude vector has non-finite entries")
    v = v * np.ldexp(1.0, -np.frexp(np.abs(v).max(initial=0.0))[1])  # exact: keeps the norm's squares from over- or underflowing
    nrm = float(np.linalg.norm(v))
    if nrm <= 0.0:
        raise ValueError("amplitude vector must be nonzero")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()), dims)


def maximally_mixed(dim: int, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Identity / dim."""
    (dim,) = _indices((dim,), "dim")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, dims)


_BELL = pure_state([1.0, 0.0, 0.0, 1.0], (2, 2)).mat  # |Phi+> = (|00> + |11>) / sqrt(2), read-only


def werner(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1 - p) I/4 for p in [0, 1]."""
    p = _check_p(p)
    return DensityMatrix(p * _BELL + (1.0 - p) * linalg.identity(4) / 4.0, (2, 2))


def random_density_matrix(dim: int, rng: np.random.Generator, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Full-rank random state G G+ / tr(G G+) with G complex Ginibre."""
    (dim,) = _indices((dim,), "dim")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims)


@dataclass(frozen=True, eq=False)
class ZeroDiscordSpec:
    """Data for a classical-quantum mixture sum_a w_a rho_a^A x rho_a^B
    whose B factors have pairwise-disjoint supports in the reference
    basis (so they are perfectly distinguishable by an incoherent
    projective measurement).  The support of a B factor is the set of
    basis indices whose row or column holds an entry above DEFAULT_TOL.
    The weights must be nonnegative and sum to one.
    """

    weights: tuple[float, ...]
    a_states: tuple[DensityMatrix, ...]
    b_states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        k = len(self.weights)
        if k == 0:
            raise ValueError("need at least one mixture term")
        if not (len(self.a_states) == len(self.b_states) == k):
            raise ValueError("weights, a_states, b_states must align")
        _check_distribution(self.weights, "weights")
        if len({a.dim for a in self.a_states}) > 1:
            raise ValueError("A factors must share one dimension")
        if len({b.dim for b in self.b_states}) > 1:
            raise ValueError("B factors must share one dimension")
        supports = []
        for b in self.b_states:
            big = np.abs(b.mat) > DEFAULT_TOL
            supports.append(set(np.flatnonzero(big.any(axis=0) | big.any(axis=1)).tolist()))
        for (i, s), (j, t) in itertools.combinations(enumerate(supports), 2):
            if s & t:
                raise ValueError(f"B factors {i} and {j} overlap at indices {sorted(s & t)}")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.a_states[0].dim, self.b_states[0].dim)


def zero_discord_state(spec: ZeroDiscordSpec) -> DensityMatrix:
    """Assemble sum_a w_a rho_a^A x rho_a^B as a bipartite state."""
    da, db = spec.dims
    mat = np.zeros((da * db, da * db), dtype=complex)
    for w, a, b in zip(spec.weights, spec.a_states, spec.b_states):
        mat += w * linalg._kron(a.mat, b.mat)
    return DensityMatrix(mat, (da, db))


def random_zero_discord_spec(rng: np.random.Generator, dim_a: int, dim_b: int) -> ZeroDiscordSpec:
    """Sample a ZeroDiscordSpec: random block partition of the B basis,
    a Ginibre B factor supported on each block, Dirichlet weights."""
    dim_a, dim_b = _indices((dim_a, dim_b), "dim_a, dim_b")
    perm = rng.permutation(dim_b)
    n_blocks = int(rng.integers(1, dim_b + 1))
    cuts = sorted(rng.choice(np.arange(1, dim_b), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
    blocks = [tuple(sorted(blk.tolist())) for blk in np.split(perm, cuts)]
    weights = rng.dirichlet(np.ones(len(blocks)))
    a_states = tuple(random_density_matrix(dim_a, rng) for _ in blocks)
    b_states = []
    for blk in blocks:
        sub = random_density_matrix(len(blk), rng)
        full = np.zeros((dim_b, dim_b), dtype=complex)
        full[np.ix_(blk, blk)] = sub.mat
        b_states.append(DensityMatrix(full, (dim_b,)))
    return ZeroDiscordSpec(tuple(float(w) for w in weights), a_states, tuple(b_states))


def density_matrix_from_dict(payload: dict) -> DensityMatrix:
    """Build a state from {"dims": [dA, dB], "re": [[..]], "im": [[..]]}: integer
    dims, number entries; bools and strings are rejected rather than converted."""
    return DensityMatrix(*_payload_rows(payload))


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    """Inverse of density_matrix_from_dict."""
    return {
        "dims": list(rho.dims),
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }
