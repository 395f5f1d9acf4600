"""Dense complex linear algebra on finite-dimensional Hilbert spaces.

States, Hermitian operators and density matrices are thin immutable wrappers
around numpy arrays that validate their defining invariants once, at
construction.  All operations are pure functions; everything here is safe to
share across threads.  Units follow the hbar = 1 convention, so generators
and frequencies are dimensionless.

Each operator decomposes itself at most once: `HermitianOperator.eig` calls
eigh_matrix on first access and caches the result, and every holder of the
operator (the scenarios on one generator pair, say) shares the same
read-only arrays.  Two threads reaching a first access together may both
compute it; the results are identical, so that is harmless.  Every
eigendecomposition in the library goes through eigh_matrix.

eigh_matrix follows the block structure of its matrix: it finds the
contiguous diagonal blocks from the exact zeros and decomposes each block on
its own, so a diagonal generator, or a state dephased in its generator's
eigenbasis, costs the sum of its blocks' cubes rather than d^3.  The same
block scan and grouping of blocks by size serve _products, which forms
{A, B} and AB - BA on the joint blocks of a pair for commutator,
anticommutator and a scenario's generator products, and two paths in
metrology: qfi_mixed, which evaluates a (rho, drho) pair block by block, and
the per-cluster sums, grouped by cluster size.  The scan never permutes:
a caller whose operator conserves a quantity orders its basis by that quantity
(models.example2_system orders its labels by total excitation).

HermitianOperator checks Hermiticity on outside input only, relative to
max(1, max|A|), and reads the drift from the Hermitian part it keeps, so A^dag
is formed once: a matrix formed from validated operators (an anticommutator,
an SLD) passes through _hermitian_part first, since its drift is rounding.
_dagger forms A^dag as one contiguous copy, conjugated in place, so no
sum reads a transpose in strided order; for the same reason
expectation reads a density matrix's rho^T as conj(rho), equal to it up to
the sign of a zero because the stored matrix is exactly Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "StateVector",
    "HermitianOperator",
    "DensityMatrix",
    "tensor",
    "expectation",
    "commutator",
    "anticommutator",
    "sym_covariance",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


def _check_dims(*dims: int) -> int:
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatchError(f"dimension mismatch: {dims}")
    return first


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state.  Normalization is enforced at construction."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise ValueError("state vector needs at least one amplitude")
        norm = np.linalg.norm(arr)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("state vector has zero or non-finite norm")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix; anti-Hermitian drift up to 1e-12 * max(1, max|A|) is symmetrized away."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError("expected a non-empty square matrix")
        # a NaN would pass the drift check below: NaN > tol is False
        if not np.isfinite(mat).all():
            raise ValueError("entries must be finite")
        sym = _hermitian_part(mat)  # a new array, so the input is not copied
        # 2|A - sym| is |A - A^dag| up to eps |A|; max|A| is read only once
        # the absolute bound fails
        drift = 2.0 * np.max(np.abs(mat - sym))
        if drift > HERMITICITY_TOL and drift > HERMITICITY_TOL * np.max(np.abs(mat)):
            raise ValueError(f"matrix is not Hermitian (max drift {drift:.3e})")
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral decomposition (ascending eigenvalues, orthonormal columns).

        Computed once per operator; the arrays are read-only.
        """
        w, v = eigh_matrix(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


class DensityMatrix(HermitianOperator):
    """Positive unit-trace Hermitian matrix.

    The positivity check reads the smallest eigenvalue of `eig`, so a valid
    density matrix already holds the decomposition that qfi_mixed uses.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        min_eig = float(self.eig[0][0])
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.projector())


def tensor(a, b):
    """Kronecker product of two states or two operators.

    Row-major composite indexing: the pair (i, j) maps to index i * dim_b + j.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    raise TypeError("tensor expects two StateVectors or two HermitianOperators")


def _dagger(x: np.ndarray) -> np.ndarray:
    """X^dag over the last two axes as a new C-ordered array, so a sum with X
    reads both operands in memory order rather than one by strided column.

    A copy, not ascontiguousarray: the transpose of an F-ordered X is already
    contiguous and would come back as a view of X, which the in-place
    conjugate would then write into.
    """
    out = x.swapaxes(-1, -2).copy()
    np.conjugate(out, out=out)
    return out


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X^dag) / 2 over the last two axes, so of a matrix or of each
    matrix in a stack; exactly Hermitian: entries (i, j) and (j, i) add the
    same pair.  Formed in place on _dagger(X); IEEE addition commutes, so
    the bits are those of 0.5 * (X + X^dag)."""
    out = _dagger(x)
    out += x
    out *= 0.5
    return out


def _block_ends(nonzero: np.ndarray) -> np.ndarray:
    """Exclusive ends of the contiguous diagonal blocks of a square pattern.

    `nonzero` is the boolean nonzero pattern the caller built (a matrix is
    read as its own pattern), and every entry outside the blocks is False.
    One O(d^2) pass that writes nothing into the pattern: the running
    maximum of each row's last True column (at least the row itself) closes
    a block at the rows where it equals the row index.
    """
    nonzero = np.asarray(nonzero, dtype=bool)  # no copy of a boolean pattern
    rows = np.arange(nonzero.shape[0])
    last = rows[-1] - np.argmax(nonzero[:, ::-1], axis=1)
    # a row with no True entry reads as its last column: it ends at itself
    last = np.where(nonzero[rows, last], np.maximum(last, rows), rows)
    return np.flatnonzero(np.maximum.accumulate(last) == rows) + 1


def _blocks_by_size(ends: np.ndarray) -> list[np.ndarray]:
    """Row indices of the diagonal blocks ending at `ends`, grouped by size.

    One (blocks, size) integer array per distinct size, ascending, so each
    group can go to numpy as one stacked operation.
    """
    starts = np.concatenate(([0], ends[:-1]))
    sizes = ends - starts
    return [starts[sizes == size, None] + np.arange(size) for size in np.unique(sizes)]


def _products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """({A, B}, AB - BA) of two Hermitian matrices, block by block.

    One scan of the joint nonzero pattern finds the contiguous diagonal
    blocks; AB and BA are formed per block, blocks of one size as one stacked
    matmul, so a pair costs sum_i r_i^3 over its block sizes r_i: d for
    diagonal matrices, d^3 for a dense pair (one block).  {A, B} is the
    Hermitian part of X = AB + BA, taken per block, whose anti-Hermitian part
    is rounding of size eps |A| |B|; AB - BA is kept exact, so a commuting
    pair gives the zero matrix.  Outside the blocks both are exact zeros.
    BA is formed, not read as (AB)^dag, which differs in its last bits.
    """
    # np.zeros leaves the pages outside the blocks to the OS's lazy zero
    # fill; zeros_like would write every entry
    anti, comm = np.zeros(a.shape, a.dtype), np.zeros(a.shape, a.dtype)
    for index in _blocks_by_size(_block_ends((a != 0) | (b != 0))):
        rows = index[:, :, None], index[:, None, :]
        # each block gathered per product, so no block copy outlives it
        ab, ba = a[rows] @ b[rows], b[rows] @ a[rows]
        anti[rows], comm[rows] = _hermitian_part(ab + ba), ab - ba
    return anti, comm


def eigh_matrix(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a matrix.

    The matrix is split into the contiguous diagonal blocks its exact zeros
    allow, and each block is decomposed on its own: blocks of one size go to
    LAPACK in one stacked np.linalg.eigh call, and a stable argsort merges
    the eigenvalues, so ties keep block order.  A failure to converge raises
    instead of returning garbage.
    """
    d = matrix.shape[0]
    w = np.empty(d)
    blocks = []  # (row indices of each block of one size, their eigenvectors)
    try:
        for index in _blocks_by_size(_block_ends(matrix != 0)):
            block_w, block_v = np.linalg.eigh(matrix[index[:, :, None], index[:, None, :]])
            w[index] = block_w
            blocks.append((index, block_v))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)  # the sorted position of each eigenvalue
    v = np.zeros((d, d), dtype=blocks[0][1].dtype)
    for index, block_v in blocks:
        v[index[:, :, None], column[index][:, None, :]] = block_v
    return w[order], v


def expectation(op: HermitianOperator, state) -> float:
    """<psi|op|psi> or Tr(op rho), both O(d^2).  op.matrix is exactly
    Hermitian, so the imaginary part is rounding of size eps |op| and is
    dropped unchecked."""
    if isinstance(state, StateVector):
        _check_dims(op.dim, state.dim)
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes)).real
    if isinstance(state, DensityMatrix):
        _check_dims(op.dim, state.dim)
        # rho^T read in memory order as conj(rho), equal up to the sign of a
        # zero since rho.matrix is exactly Hermitian
        return float(np.real(np.sum(op.matrix * state.matrix.conj())))
    raise TypeError("state must be a StateVector or DensityMatrix")


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """ab - ba (anti-Hermitian, returned as a raw matrix).

    Formed on the joint diagonal blocks of (a, b): sum_i r_i^3 over the block
    sizes r_i, d^3 for a dense pair.
    """
    _check_dims(a.dim, b.dim)
    return _products(a.matrix, b.matrix)[1]


def anticommutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """ab + ba, symmetrized: its anti-Hermitian part is rounding, not checked.

    Formed on the joint diagonal blocks of (a, b): sum_i r_i^3 over the block
    sizes r_i, d^3 for a dense pair.
    """
    _check_dims(a.dim, b.dim)
    return HermitianOperator(_products(a.matrix, b.matrix)[0])


def sym_covariance(a: HermitianOperator, b: HermitianOperator, state) -> float:
    """Symmetrized covariance (1/2)<{a,b}> - <a><b> on a state or density matrix."""
    half_anti = expectation(anticommutator(a, b), state) / 2.0
    return half_anti - expectation(a, state) * expectation(b, state)
