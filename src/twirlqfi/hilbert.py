"""Dense complex linear algebra on finite-dimensional Hilbert spaces.

States, Hermitian operators and density matrices are thin immutable wrappers
around numpy arrays that validate their defining invariants once, at
construction.  All operations are pure functions; everything here is safe to
share across threads.  Units follow the hbar = 1 convention, so generators
and frequencies are dimensionless.

An operator keeps its contiguous diagonal blocks (a _Blocks): given by
HermitianOperator.from_diagonal or from_blocks, or found from a matrix's
exact zeros on first use.  It validates and decomposes them block by block,
and builds its d x d `matrix`, and the d x d eigenvector matrix of `eig`,
only when a caller reads them.  Each operator decomposes itself at most
once, in one eigh_matrix call on its blocks, and caches the eigenvectors per
block with their columns (an _EigenBasis); every holder of the operator
(the scenarios on one generator pair, say) shares the same read-only
arrays.  Two threads reaching a first access together may both compute it;
the results are identical, so that is harmless.  Every eigendecomposition
in the library goes through eigh_matrix, which takes blocks and returns
an _EigenBasis: block structure is carried only as a _Layout, the arrays
on it as _Blocks, and eigenvectors as an _EigenBasis.

The grouping of blocks by size belongs to the block layout (a _Layout: the
blocks' ends, and their rows grouped by size, computed once on first use),
not to the arrays laid out on it.  An operator's validated blocks and its
eigenvectors share the layout it was given, _Blocks.on keeps a d x d
array's diagonal blocks on a given layout, and report() builds rho_B and
drho_B on the layout of G's clusters that the pair's ProjectorSet holds
(channels.ProjectorSet.layout), which the cluster sums and the pinching read
too.  So a fresh example-1 point, whose K and G share one layout, groups
three layouts, once each: the generators', G's clusters and the eigenvector
gate's clusters.

A decomposition costs the sum of its blocks' cubes rather than d^3, and a
block of size 1 is its own eigenvalue.  Every product runs block by block,
one step per group of equal-size blocks (_blockwise): A x, V x and V^dag x
for any operator, diagonal, block-diagonal or dense.  A group of size-1
blocks is an entry-wise product (A x) or an index gather (the eigenvectors
1 of V x and V^dag x), O(d) with the bits of the dense products; a group
of larger blocks is one stacked matmul, and a dense operator is one block,
whose product is the dense one.  So no d x d V is built unless a caller
reads `eig`.  An _EigenBasis conjugates its blocks for V^dag x once, on
first use, and keeps them read-only for every later product.  A pair of
operators meets on its joint layout, where the blocks of both end (the
intersection of their ends); each operator is relaid onto it
(_Blocks.relaid) without forming its d x d matrix.
_joint_products forms {A, B} and AB - BA there, for commutator,
anticommutator and a scenario's generator products, and qfi_mixed relays
rho and its eigenvectors onto the joint layout of a drho that couples
rho's blocks.  The scan of a matrix never permutes: a caller whose
operator conserves a quantity orders its basis by that quantity
(models.example2_system orders its labels by total excitation and builds
its Hamiltonian from those blocks).

HermitianOperator checks Hermiticity on outside input only, relative to
max(1, max|A|), and reads the drift from the Hermitian part it keeps, so A^dag
is formed once, per block for an operator given by its blocks; an input
equal to that part (a diagonal generator, say) has drift 0, so the
subtraction is skipped.  A matrix formed from validated
operators (an anticommutator, an SLD) passes through _hermitian_part first,
since its drift is rounding.
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


def _check_dims(*dims: int | tuple[int, ...]) -> int | tuple[int, ...]:
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


class HermitianOperator:
    """Hermitian matrix; anti-Hermitian drift up to 1e-12 * max(1, max|A|) is symmetrized away.

    Built from a d x d matrix, from its diagonal (from_diagonal) or from its
    contiguous diagonal blocks (from_blocks).  An operator built from blocks
    keeps them, and builds the d x d `matrix` only when a caller reads it;
    one built from a matrix reads its blocks from the exact zeros on first
    use.  Immutable, and compared by identity.
    """

    def __init__(self, matrix) -> None:
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError("expected a non-empty square matrix")
        vars(self).update(matrix=mat, dim=mat.shape[0])
        self.__post_init__()

    @classmethod
    def from_blocks(cls, ends, blocks) -> "HermitianOperator":
        """The block-diagonal operator whose contiguous diagonal blocks end at `ends`.

        `ends` are the blocks' exclusive ends, ascending, or a _Layout that
        holds them (and its groups, which the operator then shares); `blocks`
        holds one (n, r, r) stack per distinct block size r, ascending, each
        stack's blocks in row order.  Validated block by block, as a matrix is.
        """
        if not isinstance(ends, _Layout):
            ends = np.asarray(ends, dtype=np.intp).reshape(-1)
            if ends.size == 0 or ends[0] <= 0 or np.any(np.diff(ends) <= 0):
                raise ValueError("block ends must be positive and strictly increasing")
            ends = _Layout(ends)
        given = _Blocks(ends, tuple(np.asarray(b, dtype=complex) for b in blocks))
        got = [x.shape for x in given.stacks]
        fits = [(index.shape[0], index.shape[1], index.shape[1]) for index in given.groups]
        if got != fits:
            raise ValueError(f"blocks of shapes {got} do not fit the block ends, which need {fits}")
        op = cls.__new__(cls)
        vars(op).update(blocks=given, dim=given.shape[0])
        op.__post_init__()
        return op

    @classmethod
    def from_diagonal(cls, diagonal) -> "HermitianOperator":
        """The diagonal operator with this (real) diagonal: d blocks of size 1."""
        diag = np.asarray(diagonal, dtype=complex)
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("expected a non-empty vector")
        return cls.from_blocks(np.arange(1, diag.size + 1), (diag.reshape(-1, 1, 1),))

    def __post_init__(self) -> None:
        """Replaces the input, matrix or blocks, by its validated Hermitian part.

        Runs once per construction; a subclass checks its own invariants after it.
        """
        state = vars(self)
        if "blocks" in state:
            given = state["blocks"]
            state["blocks"] = _Blocks(given.layout, _validated(given.stacks))
        else:
            # _validated returns new arrays, so the caller's matrix is not copied
            (state["matrix"],) = _validated((state["matrix"],))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x d matrix, read-only: built from the blocks on first access."""
        mat = self.blocks.dense()
        mat.setflags(write=False)
        return mat

    @cached_property
    def blocks(self) -> "_Blocks":
        """The contiguous diagonal blocks; read from the matrix's exact zeros on first access."""
        return _Blocks.of(self.matrix)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x of length d, block by block (_Blocks.apply)."""
        _check_dims(self.dim, len(x))
        return self.blocks.apply(x)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, "_EigenBasis"]:
        """(ascending eigenvalues, eigenvectors per block), from one eigh_matrix call."""
        w, basis = eigh_matrix(self.blocks)
        w.setflags(write=False)
        return w, basis

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral decomposition (ascending eigenvalues, orthonormal columns).

        Computed once per operator; the arrays are read-only.  The d x d
        eigenvector matrix is built from the blocks' eigenvectors on first
        access.
        """
        w, basis = self._eig
        v = basis.dense()
        v.setflags(write=False)
        return w, v


class DensityMatrix(HermitianOperator):
    """Positive unit-trace Hermitian matrix.

    The positivity check reads the smallest eigenvalue of the operator's
    decomposition, so a valid density matrix already holds the one that
    qfi_mixed uses.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        tr = np.sum(self.blocks.diagonal_entries())
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        min_eig = float(self._eig[0][0])
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.projector())


def _validated(stacks) -> tuple[np.ndarray, ...]:
    """The read-only Hermitian parts of matrices, or stacks of them, of one operator.

    An exactly Hermitian input equals its Hermitian part, so its drift is 0
    and the subtraction is skipped; otherwise 2|A - sym| is |A - A^dag| up to
    eps |A|, and max|A| over all the operator's entries is read only once the
    absolute bound fails.
    """
    syms, drift = [], 0.0
    for x in stacks:
        # a NaN would pass the drift check below: NaN > tol is False
        if not np.isfinite(x).all():
            raise ValueError("entries must be finite")
        sym = _hermitian_part(x)
        if not np.array_equal(x, sym):
            drift = max(drift, 2.0 * np.max(np.abs(x - sym)))
        syms.append(sym)
    if drift > HERMITICITY_TOL and drift > HERMITICITY_TOL * max(np.max(np.abs(x)) for x in stacks):
        raise ValueError(f"matrix is not Hermitian (max drift {drift:.3e})")
    for sym in syms:
        sym.setflags(write=False)
    return tuple(syms)


@dataclass(frozen=True, eq=False)
class _Layout:
    """The contiguous diagonal blocks of a d x d array, by their ends.

    `ends` are the blocks' exclusive ends, ascending, the last one d.  The
    rows grouped by block size (`groups`) are computed once, on first use,
    and shared by every _Blocks on the layout: an operator and its validated
    copy, its eigenvectors, rho_B and drho_B on G's clusters.
    """

    ends: np.ndarray

    @cached_property
    def groups(self) -> list[np.ndarray]:
        """Row indices of the blocks, one (n, r) array per distinct size r, ascending."""
        return _blocks_by_size(self.ends)

    @property
    def shape(self) -> tuple[int, int]:
        d = int(self.ends[-1])
        return d, d


@dataclass(frozen=True, eq=False)
class _Blocks:
    """A block-diagonal d x d array held as its contiguous diagonal blocks.

    `layout` holds the blocks' ends and their rows grouped by size.
    `stacks` holds one (n, r, r) array per distinct block size r, ascending,
    its blocks in row order: one per group of the layout.  `shape` is the
    d x d array's, which only dense() builds.
    """

    layout: _Layout
    stacks: tuple[np.ndarray, ...]

    @classmethod
    def on(cls, layout: _Layout, matrix: np.ndarray) -> "_Blocks":
        """A square array's diagonal blocks on a given layout; one block is a
        view of it.  Entries outside the blocks are dropped."""
        if layout.ends.size == 1:
            return cls(layout, (matrix[None],))
        return cls(layout, tuple(matrix[index[:, :, None], index[:, None, :]]
                                 for index in layout.groups))

    @classmethod
    def of(cls, matrix: np.ndarray) -> "_Blocks":
        """The blocks a square array's exact zeros allow."""
        return cls.on(_Layout(_block_ends(matrix != 0)), matrix)

    @property
    def ends(self) -> np.ndarray:
        return self.layout.ends

    @property
    def groups(self) -> list[np.ndarray]:
        """Row indices of the blocks, one (n, r) array per stack: the layout's."""
        return self.layout.groups

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.shape

    def diagonal_entries(self) -> np.ndarray:
        """The d diagonal entries in row order."""
        out = np.empty(self.shape[0], self.stacks[0].dtype)
        for index, stack in zip(self.groups, self.stacks):
            out[index] = np.diagonal(stack, axis1=1, axis2=2)
        return out

    def dense(self) -> np.ndarray:
        """The d x d array: the blocks on the diagonal, exact zeros elsewhere."""
        # np.zeros leaves the pages outside the blocks to the OS's lazy zero fill
        out = np.zeros(self.shape, self.stacks[0].dtype)
        for index, stack in zip(self.groups, self.stacks):
            out[index[:, :, None], index[:, None, :]] = stack
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x, one product per group of equal-size blocks."""
        return _blockwise(self.stacks, x, self.groups, self.groups)

    def relaid(self, layout: _Layout) -> "_Blocks":
        """The same array on a layout whose blocks are runs of its own blocks;
        the entries this adds to the blocks are zeros.

        The new stacks are views of one flat buffer, into which each block is
        scattered: a row's place is its new block's offset plus its row in
        that block, a column's place its column in the block.
        """
        if layout.ends.size == self.ends.size:
            return _Blocks(layout, self.stacks)
        flat = np.zeros(sum(i.size * i.shape[1] for i in layout.groups), self.stacks[0].dtype)
        (row, col), stacks, start = np.empty((2, self.shape[0]), np.intp), [], 0
        for index in layout.groups:
            n, r = index.shape
            row[index], col[index] = start + r * np.arange(n * r).reshape(n, r), np.arange(r)
            stacks.append(flat[start:start + n * r * r].reshape(n, r, r))
            start += n * r * r
        for index, stack in zip(self.groups, self.stacks):
            flat[row[index][:, :, None] + col[index][:, None, :]] = stack
        return _Blocks(layout, tuple(stacks))


@dataclass(frozen=True, eq=False)
class _EigenBasis:
    """The eigenvector columns V of a block-diagonal operator, kept per block.

    `vectors` holds each block's eigenvectors, ascending within the block,
    on the operator's blocks; `column` is the column of V that each of them
    is, V's columns following the ascending eigenvalues.  V x and V^dag x
    run block by block (_blockwise): a block of size 1 is the eigenvector 1,
    so its product is a gather, and blocks of one larger size are one
    stacked matmul.  The d x d V is built (dense) only for
    HermitianOperator.eig.
    """

    vectors: _Blocks
    column: np.ndarray

    def dense(self) -> np.ndarray:
        """V as a new d x d array: the blocks' eigenvectors, their columns moved
        to V's (eigh_matrix sorted the eigenvalues by np.argsort)."""
        return np.take(self.vectors.dense(), np.argsort(self.column), axis=1)

    @cached_property
    def columns(self) -> list[np.ndarray]:
        """The columns of V that each block's eigenvectors are, one (n, r) array per group."""
        return [self.column[index] for index in self.vectors.groups]

    @cached_property
    def adjoint_stacks(self) -> tuple[np.ndarray, ...]:
        """V^dag's blocks, one read-only (n, r, r) stack per group, formed on first use.

        A stack of larger blocks is a transposed view of its conjugate, not a
        C-ordered copy, which would take another BLAS path in the matmul and
        change the bits; a stack of size-1 blocks is a view of the
        eigenvectors, which the gather never reads.
        """
        stacks = tuple(v.conj().swapaxes(1, 2) if v.shape[1] > 1 else v.view()
                       for v in self.vectors.stacks)
        for stack in stacks:
            stack.setflags(write=False)
        return stacks

    def adjoint(self, *xs: np.ndarray) -> list[np.ndarray]:
        """V^dag x for each vector x."""
        return [_blockwise(self.adjoint_stacks, x, self.columns, self.vectors.groups, gather=True)
                for x in xs]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """V y."""
        return _blockwise(self.vectors.stacks, y, self.vectors.groups, self.columns, gather=True)


def _blockwise(stacks, x: np.ndarray, rows, cols, gather: bool = False) -> np.ndarray:
    """y = B x for a block-diagonal B, one product per group of equal-size blocks.

    Per group, `rows` and `cols` are (n, r) index arrays and the stack is
    (n, r, r): y[rows] = stack @ x[cols] block by block.  Blocks of size 1
    multiply entry by entry, or, with `gather` (eigenvectors, whose blocks of
    size 1 are 1), copy; so a diagonal operator costs O(d) with the bits of
    the dense product.  Larger blocks of one size are one stacked matmul,
    which for one d x d block is the dense matrix-vector product.
    """
    y = np.empty(x.shape, complex)
    for stack, r, c in zip(stacks, rows, cols):
        if r.shape[1] > 1:
            y[r] = (stack @ x[c][:, :, None])[:, :, 0]
        else:
            y[r] = x[c] if gather else stack[:, :, 0] * x[c]
    return y


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
    return [starts[sizes == size, None] + np.arange(size)
            for size in np.flatnonzero(np.bincount(sizes))]


def _joint_products(a: HermitianOperator, b: HermitianOperator) -> tuple[_Blocks, _Blocks]:
    """({A, B}, AB - BA) of two Hermitian operators, on the pair's joint layout.

    The joint blocks end where the blocks of both operators end (the
    intersection of their ends), so each is a run of either operator's
    blocks; an operator whose layout is coarser is relaid onto it.  AB and
    BA are formed per block, blocks of one size as one stacked matmul, so a
    pair costs sum_i r_i^3 over its joint block sizes r_i: d for diagonal
    operators, d^3 for a dense pair (one block).  {A, B} is the Hermitian
    part of X = AB + BA, taken per block, whose anti-Hermitian part is
    rounding of size eps |A| |B|; AB - BA is kept exact, so a commuting pair
    gives zero blocks.  BA is formed, not read as (AB)^dag, which differs in
    its last bits.
    """
    _check_dims(a.dim, b.dim)
    ends = np.intersect1d(a.blocks.ends, b.blocks.ends, assume_unique=True)
    layout = a.blocks.layout if ends.size == a.blocks.ends.size else _Layout(ends)
    pairs = [(x @ y, y @ x) for x, y in zip(a.blocks.relaid(layout).stacks,
                                            b.blocks.relaid(layout).stacks)]
    return (_Blocks(layout, tuple(_hermitian_part(xy + yx) for xy, yx in pairs)),
            _Blocks(layout, tuple(xy - yx for xy, yx in pairs)))


def eigh_matrix(blocks: _Blocks) -> tuple[np.ndarray, _EigenBasis]:
    """Eigenvalues (ascending) and eigenvectors, per block, of an operator's blocks.

    Takes the operator's _Blocks and returns V as an _EigenBasis on their
    layout.  Each block is decomposed on its own: a block of size 1 is its
    own eigenvalue with eigenvector 1 (what LAPACK returns), larger blocks of
    one size go to LAPACK in one stacked np.linalg.eigh call, and a stable
    argsort merges the eigenvalues, so ties keep block order.  A failure to
    converge raises instead of returning garbage.
    """
    w = np.empty(blocks.shape[0])
    vectors = []
    try:
        for index, stack in zip(blocks.groups, blocks.stacks):
            if index.shape[1] == 1:
                block_w, block_v = stack[:, :, 0].real, np.ones_like(stack)
            else:
                block_w, block_v = np.linalg.eigh(stack)
            w[index] = block_w
            vectors.append(block_v)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w, kind="stable")
    column = np.empty(w.size, dtype=np.intp)
    column[order] = np.arange(w.size)  # the sorted position of each eigenvalue
    return w[order], _EigenBasis(_Blocks(blocks.layout, tuple(vectors)), column)


def expectation(op: HermitianOperator, state) -> float:
    """<psi|op|psi> or Tr(op rho), both O(d^2).  op.matrix is exactly
    Hermitian, so the imaginary part is rounding of size eps |op| and is
    dropped unchecked."""
    if isinstance(state, StateVector):
        _check_dims(op.dim, state.dim)
        return complex(np.vdot(state.amplitudes, op.apply(state.amplitudes))).real
    if isinstance(state, DensityMatrix):
        _check_dims(op.dim, state.dim)
        # rho^T read in memory order as conj(rho), equal up to the sign of a
        # zero since rho.matrix is exactly Hermitian
        return float(np.real(np.sum(op.matrix * state.matrix.conj())))
    raise TypeError("state must be a StateVector or DensityMatrix")


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """ab - ba (anti-Hermitian, returned as a raw d x d matrix).

    Formed on the joint blocks of (a, b) (_joint_products): sum_i r_i^3 over
    the block sizes r_i, d^3 for a dense pair.
    """
    return _joint_products(a, b)[1].dense()


def anticommutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """ab + ba, symmetrized: its anti-Hermitian part is rounding, not checked.

    Formed on the joint blocks of (a, b) (_joint_products), which the
    returned operator keeps: sum_i r_i^3 over the block sizes r_i, d^3 for a
    dense pair.
    """
    anti = _joint_products(a, b)[0]
    return HermitianOperator.from_blocks(anti.layout, anti.stacks)


def sym_covariance(a: HermitianOperator, b: HermitianOperator, state) -> float:
    """Symmetrized covariance (1/2)<{a,b}> - <a><b> on a state or density matrix."""
    half_anti = expectation(anticommutator(a, b), state) / 2.0
    return half_anti - expectation(a, state) * expectation(b, state)
