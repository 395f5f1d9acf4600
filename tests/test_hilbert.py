import ast
import inspect
import math

import numpy as np
import pytest
from conftest import (
    ROOT,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    haar_state,
    random_density,
    random_hermitian,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlqfi import hilbert
from twirlqfi.hilbert import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    StateVector,
    anticommutator,
    commutator,
    expectation,
    sym_covariance,
    tensor,
)
from twirlqfi.models import example1_scenario, example2_system, qrf_amplitudes, QrfStateSpec


class TestTypes:
    def test_state_normalization_enforced(self):
        psi = StateVector(np.array([3.0, 4.0]))
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12
        assert psi.dim == 2

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3))

    def test_hermitian_drift_symmetrized(self):
        mat = SIGMA_X + 1e-13 * np.array([[0, 1j], [0, 0]])
        op = HermitianOperator(mat)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @staticmethod
    def hermitian_inputs():
        """Inputs HermitianOperator accepts, by name: exactly Hermitian or within the drift bound."""
        rng = np.random.default_rng(251)
        exact = random_hermitian(rng, 7).matrix.copy()
        signed_zeros = np.diag(rng.normal(size=7)).astype(complex)
        signed_zeros[0, 1], signed_zeros[2, 4] = complex(-0.0, 0.0), complex(0.0, -0.0)
        near = exact.copy()
        near[0, 3] += 1e-13 * np.max(np.abs(exact))  # drift 1e-13 max|A|
        read_only = near.copy()
        read_only.setflags(write=False)
        return {
            "exact": exact,
            "diagonal": np.diag(rng.normal(size=7)).astype(complex),
            "signed-zeros": signed_zeros,
            "near": near,
            "fortran-exact": np.asfortranarray(exact),
            "fortran-near": np.asfortranarray(near),
            "read-only-near": read_only,
        }

    @pytest.mark.parametrize("name", ["exact", "diagonal", "signed-zeros", "near",
                                      "fortran-exact", "fortran-near", "read-only-near"])
    def test_stores_the_bits_of_the_hermitian_part(self, name):
        mat = self.hermitian_inputs()[name]
        before = mat.copy()
        # an input equal to its Hermitian part skips the drift; the others read it
        assert np.array_equal(mat, hilbert._hermitian_part(mat)) == ("near" not in name)
        op = HermitianOperator(mat)
        assert op.matrix.tobytes() == hilbert._hermitian_part(mat).tobytes()
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
        assert mat.tobytes() == before.tobytes()  # the input is left alone

    def test_rejection_reports_the_drift(self):
        mat = self.scaled_generator(3, 1.0).astype(complex)
        mat[1, 4] += 1e-6
        drift = 2.0 * np.max(np.abs(mat - hilbert._hermitian_part(mat)))
        with pytest.raises(ValueError) as excinfo:
            HermitianOperator(mat)
        assert str(excinfo.value) == f"matrix is not Hermitian (max drift {drift:.3e})"
        assert f"{drift:.3e}" == "1.000e-06"

    @staticmethod
    def scaled_generator(seed, c):
        """c U diag(0..5) U^dag for a Haar U: Hermitian up to rounding of size eps c."""
        u = random_unitary(np.random.default_rng(seed), 6)
        return c * u @ np.diag(np.arange(6.0)) @ u.conj().T

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drift_bound_scales_with_the_entries(self, seed, c):
        mat = self.scaled_generator(seed, c)
        assert np.max(np.abs(mat - mat.conj().T)) > hilbert.HERMITICITY_TOL
        op = HermitianOperator(mat)
        assert np.max(np.abs(op.matrix - mat)) <= 1e-15 * c

    @pytest.mark.parametrize("c", [1.0, 1e4, 1e8])
    def test_relative_asymmetry_rejected_at_every_scale(self, c):
        mat = self.scaled_generator(0, c)
        mat[0, 1] += 1e-9 * np.max(np.abs(mat))
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(mat)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, value):
        # a NaN drift passes `drift > tol`, so finiteness is checked on its own
        mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
        mat[1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(mat)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(mat)

    def test_density_matrix_invariants(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert rho.dim == 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))  # trace
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # positivity

    def test_operators_and_states_compare_by_identity(self):
        # array fields make a field-wise __eq__ raise and leave no __hash__
        a, b = HermitianOperator(np.eye(2)), HermitianOperator(np.eye(2))
        rho = DensityMatrix(np.eye(2) / 2)
        psi = StateVector(np.ones(2))
        assert a == a and a != b and rho != DensityMatrix(np.eye(2) / 2)
        assert psi != StateVector(np.ones(2))
        assert len({a, b, rho, psi}) == 4

    def test_density_matrix_is_a_hermitian_operator(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert isinstance(rho, HermitianOperator)
        assert np.array_equal(rho.eig[0], [0.25, 0.75])


class TestTensor:
    def test_identity_times_identity(self):
        eye2 = HermitianOperator(np.eye(2, dtype=complex))
        eye3 = HermitianOperator(np.eye(3, dtype=complex))
        assert np.array_equal(tensor(eye2, eye3).matrix, np.eye(6))

    def test_basis_bookkeeping(self):
        ket0 = StateVector(np.array([1.0, 0.0]))
        ket1 = StateVector(np.array([0.0, 1.0]))
        product = tensor(ket0, ket1)
        expected = np.zeros(4)
        expected[1] = 1.0  # row-major: (0, 1) -> 0 * 2 + 1
        assert np.array_equal(product.amplitudes, expected)

    def test_total_number_diagonal(self):
        # oracle: enumerate all (m, n) pairs on a 3 x 3 truncation
        number = HermitianOperator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        eye = HermitianOperator(np.eye(3, dtype=complex))
        total = tensor(number, eye).matrix + tensor(eye, number).matrix
        expected = np.diag([m + n for m in range(3) for n in range(3)])
        assert np.max(np.abs(total - expected)) == 0.0

    def test_associativity(self):
        rng = np.random.default_rng(7)
        ops = [random_hermitian(rng, d) for d in (2, 3, 2)]
        left = tensor(tensor(ops[0], ops[1]), ops[2]).matrix
        right = tensor(ops[0], tensor(ops[1], ops[2])).matrix
        assert np.max(np.abs(left - right)) < 1e-14


class TestEigh:
    def test_sigma_z(self):
        w, _ = HermitianOperator(SIGMA_Z).eig
        assert np.allclose(w, [-1.0, 1.0])

    def test_sigma_x_eigenvectors(self):
        w, v = HermitianOperator(SIGMA_X).eig
        assert np.allclose(w, [-1.0, 1.0])
        minus, plus = v[:, 0], v[:, 1]
        for vec, expected in ((minus, [1, -1]), (plus, [1, 1])):
            expected = np.array(expected) / np.sqrt(2)
            phase = np.vdot(expected, vec)
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(vec - phase * expected)) < 1e-12

    def test_interacting_oscillator_sector(self):
        # oracle: H = (w + k) m + (w - k) n over m + n <= 2
        omega, kappa = 1.0, 1.0 / np.sqrt(2.0)
        system = example2_system(omega, kappa, n_total_max=2)
        w, _ = system.hamiltonian.eig
        expected = sorted(
            (omega + kappa) * m + (omega - kappa) * n
            for m in range(3)
            for n in range(3 - m)
        )
        assert np.allclose(w, expected, atol=1e-12)
        reference = {0.0, omega + kappa, omega - kappa, 2 * (omega + kappa),
                     2 * (omega - kappa), 2 * omega}
        assert np.allclose(sorted(reference), expected, atol=1e-12)

    def test_random_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 65))
            op = random_hermitian(rng, dim, scale=float(rng.uniform(0.5, 3.0)))
            w, v = op.eig
            spread = float(w[-1] - w[0])
            recon = np.max(np.abs(op.matrix - (v * w) @ v.conj().T))
            assert recon <= 1e-10 * (1.0 + spread)
            ortho = np.max(np.abs(v.conj().T @ v - np.eye(dim)))
            assert ortho <= 1e-10


# Block spectra come from this pool, so eigenvalues tie across blocks.
_SPECTRUM_POOL = (-1.5, -0.25, 0.0, 0.5, 2.0)


@st.composite
def block_diagonal_hermitian(draw):
    """Hermitian matrix of 1-6 sized diagonal blocks: zero, diagonal or dense."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(sizes)
    matrix = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        start += size
        kind = draw(st.sampled_from(["zero", "diagonal", "pool", "random"]))
        if kind == "diagonal":
            matrix[block, block] = np.diag(rng.choice(_SPECTRUM_POOL, size))
        elif kind == "pool":
            u = random_unitary(rng, size)
            matrix[block, block] = (u * rng.choice(_SPECTRUM_POOL, size)) @ u.conj().T
        elif kind == "random":
            matrix[block, block] = random_hermitian(rng, size, scale=2.0).matrix
    return HermitianOperator(matrix).matrix


class TestBlockDiagonalEigh:
    @settings(max_examples=200, deadline=None)
    @given(block_diagonal_hermitian())
    def test_block_diagonal_decomposition(self, matrix):
        dim = matrix.shape[0]
        w, basis = hilbert.eigh_matrix(hilbert._Blocks.of(matrix))
        v = basis.dense()
        scale = max(1.0, float(np.linalg.norm(matrix, 2)))
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12
        assert np.linalg.norm(matrix @ v - v * w, 2) <= 1e-12 * scale
        assert np.max(np.abs(w - np.linalg.eigh(matrix)[0])) <= 1e-12 * scale

    def test_blocks_come_from_the_exact_zeros(self):
        matrix = np.zeros((7, 7), dtype=complex)
        matrix[0, 2] = matrix[2, 0] = 1.0  # rows 0-2 are one block, row 1 is zero
        matrix[3, 3] = 2.0
        matrix[5, 6] = matrix[6, 5] = 1j  # row 4 is zero: a block of its own
        assert hilbert._block_ends(matrix).tolist() == [3, 4, 5, 7]

    def test_block_scan_reads_a_pattern_without_writing_it(self):
        # callers pass the nonzero pattern they built; a read-only one would
        # raise on any write, and the diagonal stays as the caller left it
        matrix = np.zeros((7, 7), dtype=complex)
        matrix[0, 2] = matrix[2, 0] = 1.0
        matrix[5, 6] = matrix[6, 5] = 1j
        pattern = matrix != 0
        pattern.setflags(write=False)
        assert hilbert._block_ends(pattern).tolist() == [3, 4, 5, 7]
        assert np.array_equal(pattern, matrix != 0)

    @pytest.mark.parametrize("shape", ["dense", "tridiagonal"])
    def test_one_block_returns_the_lapack_arrays(self, shape):
        matrix = random_hermitian(np.random.default_rng(29), 24).matrix
        if shape == "tridiagonal":  # sparse, yet a single block
            matrix = np.triu(np.tril(matrix, 1), -1)
        w, basis = hilbert.eigh_matrix(hilbert._Blocks.of(matrix))
        v = basis.dense()
        w0, v0 = np.linalg.eigh(matrix)
        assert np.array_equal(w, w0) and np.array_equal(v, v0)
        assert v.flags.f_contiguous == v0.flags.f_contiguous

    @pytest.mark.parametrize("alpha_sq", [4.1, 20.1, 40.1])
    def test_example1_generators_match_lapack_exactly(self, alpha_sq):
        # K and G are diagonal; LAPACK returns the stable-argsort permutation
        qrf = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(alpha_sq)))
        s = example1_scenario(qrf, 0.0)
        for op in (s.k_generator, s.g_generator):
            w, basis = hilbert.eigh_matrix(hilbert._Blocks.of(op.matrix))
            v = basis.dense()
            w0, v0 = np.linalg.eigh(op.matrix)
            assert np.array_equal(w, w0) and np.array_equal(v, v0)


class TestBlockConstructors:
    def test_diagonal_matches_the_dense_matrix(self):
        rng = np.random.default_rng(43)
        diagonal = np.round(rng.normal(size=9), 1)
        diagonal[[2, 5]] = 0.0
        ours, theirs = HermitianOperator.from_diagonal(diagonal), HermitianOperator(np.diag(diagonal))
        assert "matrix" not in vars(ours) and ours.dim == 9
        assert ours.matrix.tobytes() == theirs.matrix.tobytes()
        assert not ours.matrix.flags.writeable
        for x, y in zip(ours.eig, theirs.eig):
            assert x.tobytes() == y.tobytes()
        psi = haar_state(rng, 9).amplitudes
        assert np.array_equal(ours.apply(psi), theirs.matrix @ psi)

    def test_blocks_match_the_dense_matrix(self):
        rng = np.random.default_rng(47)
        sizes = [2, 1, 3, 1, 2]
        blocks = [random_hermitian(rng, r).matrix for r in sizes]
        dense = np.zeros((9, 9), dtype=complex)
        ends = np.cumsum(sizes)
        for end, r, block in zip(ends, sizes, blocks):
            dense[end - r:end, end - r:end] = block
        stacks = [np.stack([b for b in blocks if b.shape[0] == r]) for r in (1, 2, 3)]
        ours, theirs = HermitianOperator.from_blocks(ends, stacks), HermitianOperator(dense)
        assert ours.matrix.tobytes() == theirs.matrix.tobytes()
        assert np.array_equal(ours.blocks.ends, theirs.blocks.ends)
        for x, y in zip(ours.eig, theirs.eig):
            assert x.tobytes() == y.tobytes()
        # block by block, A x, V x and V^dag x are the dense products up to rounding
        psi = haar_state(rng, 9).amplitudes
        basis, v = ours._eig[1], ours.eig[1]
        for got, want in ((ours.apply(psi), dense @ psi), (basis.apply(psi), v @ psi),
                          (basis.adjoint(psi)[0], v.conj().T @ psi)):
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("op", [
        HermitianOperator.from_diagonal([1.0, 2.0, 3.0]),
        HermitianOperator.from_blocks([1, 3], [np.ones((1, 1, 1)), np.eye(2)[None]]),
        HermitianOperator(np.ones((3, 3))),
    ])
    def test_apply_checks_the_length(self, op):
        # the product is written into a vector shaped like x, so a longer x
        # would come back with entries no block wrote
        for size in (2, 4):
            with pytest.raises(DimensionMismatchError):
                op.apply(np.ones(size, dtype=complex))

    @pytest.mark.parametrize("ends, stacks, match", [
        ([], [], "strictly increasing"),
        ([2, 2], [np.eye(2)[None]], "strictly increasing"),
        ([1, 3], [np.ones((1, 1, 1))], "do not fit"),
        ([2], [np.array([[[0.0, 1.0], [0.0, 0.0]]])], "not Hermitian"),
        ([1], [np.full((1, 1, 1), np.nan)], "finite"),
    ])
    def test_blocks_are_validated(self, ends, stacks, match):
        with pytest.raises(ValueError, match=match):
            HermitianOperator.from_blocks(ends, stacks)

    def test_validation_keeps_the_given_groups(self, monkeypatch):
        calls, original = [], hilbert._blocks_by_size

        def counted(ends):
            calls.append(ends.size)
            return original(ends)

        monkeypatch.setattr(hilbert, "_blocks_by_size", counted)
        stacks = [np.full((1, 1, 1), 0.5), np.array([[[0.25, 0.1], [0.1, 0.25]]])]
        layout = hilbert._Layout(np.array([1, 3]))
        groups = layout.groups
        op = HermitianOperator.from_blocks(layout, stacks)
        assert op.blocks.layout is layout and op.blocks.groups is groups
        assert op._eig[1].vectors.groups is groups
        # given as ends, the groups the fit check computed are the ones kept
        calls.clear()
        op = DensityMatrix.from_blocks([1, 3], stacks)
        op.eig
        assert calls == [2]

    def test_misfit_stacks_raise_the_same_error_on_a_layout(self):
        stacks = [np.ones((1, 1, 1))]
        message = r"^blocks of shapes \[\(1, 1, 1\)\] do not fit the block ends, which need" \
                  r" \[\(1, 1, 1\), \(1, 2, 2\)\]$"
        for ends in ([1, 3], hilbert._Layout(np.array([1, 3]))):
            with pytest.raises(ValueError, match=message):
                HermitianOperator.from_blocks(ends, stacks)

    def test_diagonal_must_be_a_vector(self):
        for bad in ([], np.eye(2)):
            with pytest.raises(ValueError, match="non-empty vector"):
                HermitianOperator.from_diagonal(bad)

    def test_density_matrix_from_blocks_checks_trace_and_positivity(self, eigh_calls):
        rho = DensityMatrix.from_blocks([1, 3], [np.full((1, 1, 1), 0.5),
                                                 np.array([[[0.25, 0.1], [0.1, 0.25]]])])
        assert eigh_calls == [3] and rho.eig[0][0] == pytest.approx(0.15)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_diagonal([0.6, 0.6])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix.from_diagonal([1.5, -0.5])

    def test_operators_are_immutable(self):
        op = HermitianOperator.from_diagonal([1.0, 2.0])
        with pytest.raises(AttributeError, match="immutable"):
            op.matrix = np.eye(2)


class TestEigCache:
    def test_each_operator_decomposes_once(self, eigh_calls):
        op = HermitianOperator(SIGMA_X)
        first = op.eig
        assert op.eig is first
        assert eigh_calls == [2]

    def test_density_matrix_validation_holds_its_decomposition(self, eigh_calls):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert rho.eig is rho.eig
        assert eigh_calls == [2]

    def test_arrays_are_read_only(self):
        w, v = HermitianOperator(SIGMA_Y).eig
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0


def _operator(name):
    """A dense operator, example 2's blocks of sizes 1 to 6 or example 1's all-size-1 G."""
    if name == "dense":
        return random_hermitian(np.random.default_rng(53), 12)
    if name == "example2":
        return example2_system(n_total_max=5).hamiltonian
    return example1_scenario(qrf_amplitudes(QrfStateSpec.uniform(5))).g_generator


class TestAdjointStacks:
    """V^dag's blocks are formed once per basis and shared by every adjoint call."""

    @pytest.mark.parametrize("name", ["dense", "example2", "example1"])
    def test_adjoint_is_the_per_call_product(self, name):
        op = _operator(name)
        basis = op._eig[1]
        rng = np.random.default_rng(59)
        xs = [haar_state(rng, op.dim).amplitudes for _ in range(3)]
        # the blocks of V^dag formed at each call, as the adjoint formed them before
        stacks = [v.conj().swapaxes(1, 2) if v.shape[1] > 1 else v for v in basis.vectors.stacks]
        want = [hilbert._blockwise(stacks, x, basis.columns, basis.vectors.groups, gather=True)
                for x in xs]
        for got, expected in zip(basis.adjoint(*xs), want):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["dense", "example2", "example1"])
    def test_stacks_are_read_only(self, name):
        basis = _operator(name)._eig[1]
        flags = [v.flags.writeable for v in basis.vectors.stacks]
        for stack in basis.adjoint_stacks:
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 0.0
        # a view of the eigenvectors is made read-only, not the eigenvectors
        assert [v.flags.writeable for v in basis.vectors.stacks] == flags

    @pytest.mark.parametrize("name", ["dense", "example2", "example1"])
    def test_stacks_are_built_once(self, name):
        op = _operator(name)
        basis = op._eig[1]
        assert "adjoint_stacks" not in vars(basis)
        x = np.ones(op.dim, dtype=complex)
        basis.adjoint(x)
        first = vars(basis)["adjoint_stacks"]  # formed by the first product
        basis.adjoint(x, x)
        assert basis.adjoint_stacks is first


def test_eigensolvers_only_in_eigh_matrix():
    # every decomposition is traced and cached through eigh_matrix, so no
    # other numpy.linalg eigensolver may appear in the library
    lines, first = inspect.getsourcelines(hilbert.eigh_matrix)
    allowed = range(first, first + len(lines))
    found = []
    for path in sorted((ROOT / "src" / "twirlqfi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                hit = node.attr.startswith("eig") and (
                    getattr(node.value, "attr", None) == "linalg"
                    or getattr(node.value, "id", None) == "linalg"
                )
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").endswith("linalg") and any(
                    alias.name.startswith("eig") for alias in node.names
                )
            else:
                continue
            if hit and not (path.name == "hilbert.py" and node.lineno in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


class TestExpectation:
    def test_basic(self):
        ket0 = StateVector(np.array([1.0, 0.0]))
        plus = StateVector(np.array([1.0, 1.0]))
        sz = HermitianOperator(SIGMA_Z)
        assert expectation(sz, ket0) == pytest.approx(1.0, abs=1e-14)
        assert expectation(sz, plus) == pytest.approx(0.0, abs=1e-14)

    def test_counterexample_mean_noise_generator(self):
        # oracle: 6/6 + 3/3 + 4/2 = 4 by hand
        psi = StateVector(np.array([1 / np.sqrt(6), 1 / np.sqrt(3), 1 / np.sqrt(2)]))
        g = HermitianOperator(np.diag([6.0, 3.0, 4.0]).astype(complex))
        assert expectation(g, psi) == pytest.approx(4.0, abs=1e-12)

    def test_identity_expectation_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(1, 33))
            eye = HermitianOperator(np.eye(dim, dtype=complex))
            assert expectation(eye, haar_state(rng, dim)) == pytest.approx(1.0, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(HermitianOperator(SIGMA_Z), StateVector(np.ones(3)))

    @pytest.mark.parametrize("rank", [8, 3])
    def test_density_matrix_trace_matches_the_eigenbasis_sum(self, rank):
        # Tr(A rho) = sum_i w_i <v_i|A|v_i> over rho's eigenpairs (w_i, v_i)
        rng = np.random.default_rng(11 + rank)
        rho, op = random_density(rng, 8, rank), random_hermitian(rng, 8)
        w, v = rho.eig
        expected = float(np.sum(w * np.real(np.einsum("ji,jk,ki->i", v.conj(), op.matrix, v))))
        assert expectation(op, rho) == pytest.approx(expected, rel=1e-12, abs=1e-14)


    @pytest.mark.parametrize("rank", [8, 3, 1])
    def test_density_matrix_read_as_its_conjugate_keeps_the_bits(self, rank):
        # rho is stored exactly Hermitian, so conj(rho) stands in for rho^T
        rng = np.random.default_rng(31 + rank)
        for dim in (2, 8, 64):
            rho = random_density(rng, dim, min(rank, dim))
            assert np.array_equal(rho.matrix.conj(), rho.matrix.T)
            for _ in range(5):
                op = random_hermitian(rng, dim)
                strided = float(np.real(np.sum(op.matrix * rho.matrix.T)))
                assert np.float64(expectation(op, rho)).view(np.uint64) == (
                    np.float64(strided).view(np.uint64)
                )


def with_signed_zeros(rng, x):
    """x with about a fifth of its real and imaginary parts set to -0.0 or +0.0."""
    x = x.copy()
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    for part in parts:
        part[rng.random(part.shape) < 0.2] = -0.0
        part[rng.random(part.shape) < 0.1] = 0.0
    return x


class TestHermitianPart:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("layout", ["C", "F", "read-only", "stack"])
    def test_bits_match_the_strided_sum(self, layout, dtype):
        rng = np.random.default_rng(41)
        shape = (3, 9, 9) if layout == "stack" else (9, 9)
        x = rng.normal(size=shape)
        if dtype is complex:
            x = x + 1j * rng.normal(size=shape)
        x = with_signed_zeros(rng, x)
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "read-only":
            x.setflags(write=False)
        before = x.copy()
        sym = hilbert._hermitian_part(x)
        strided = 0.5 * (x + x.conj().swapaxes(-1, -2))
        assert sym.dtype == strided.dtype == x.dtype
        assert np.array_equal(sym.view(np.uint64), np.ascontiguousarray(strided).view(np.uint64))
        # the input keeps its bits, signed zeros included
        assert np.array_equal(np.ascontiguousarray(x).view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(sym, x)


class TestCommutators:
    def test_pauli_algebra(self):
        sx, sy, sz = (HermitianOperator(s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        assert np.max(np.abs(commutator(sx, sy) - 2j * SIGMA_Z)) < 1e-14
        assert np.max(np.abs(anticommutator(sx, sx).matrix - 2 * np.eye(2))) < 1e-14

    def test_interacting_oscillator_commutator(self):
        # [K, H] = kappa (a^dag b - a b^dag), checked entrywise on the sector
        omega, kappa, cap = 1.0, 1.0 / np.sqrt(2.0), 4
        system = example2_system(omega, kappa, n_total_max=cap)
        d = cap + 1
        lowering = np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)
        raising = lowering.conj().T
        full = kappa * (np.kron(raising, lowering) - np.kron(lowering, raising))
        idx = [m * d + n for m, n in system.labels]
        expected = full[np.ix_(idx, idx)]
        got = commutator(system.k_generator, system.hamiltonian)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_anticommutator_hermitian(self):
        rng = np.random.default_rng(5)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        out = anticommutator(a, b).matrix
        assert np.max(np.abs(out - out.conj().T)) == 0.0


class TestSymCovariance:
    def test_eigenstate_variance_zero(self):
        ket0 = StateVector(np.array([1.0, 0.0]))
        sz = HermitianOperator(SIGMA_Z)
        assert sym_covariance(sz, sz, ket0) == pytest.approx(0.0, abs=1e-14)

    def test_counterexample_covariance_zero(self):
        psi = StateVector(np.array([1 / np.sqrt(6), 1 / np.sqrt(3), 1 / np.sqrt(2)]))
        g = HermitianOperator(np.diag([6.0, 3.0, 4.0]).astype(complex))
        k = HermitianOperator(np.diag([0.0, 0.0, 1.0]).astype(complex))
        assert sym_covariance(g, k, psi) == pytest.approx(0.0, abs=1e-12)

    def test_interacting_oscillator_covariance_quarter(self):
        system = example2_system(n_total_max=5)
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        scenario = system.scenario(qrf, lam=0.0)
        value = sym_covariance(system.hamiltonian, system.k_generator, scenario.fiducial)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(9)
        state = haar_state(rng, 5)
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        assert sym_covariance(a, b, state) == pytest.approx(
            sym_covariance(b, a, state), abs=1e-12
        )
        scaled = HermitianOperator(2.5 * a.matrix)
        assert sym_covariance(scaled, b, state) == pytest.approx(
            2.5 * sym_covariance(a, b, state), abs=1e-11
        )
        summed = HermitianOperator(a.matrix + b.matrix)
        assert sym_covariance(summed, b, state) == pytest.approx(
            sym_covariance(a, b, state) + sym_covariance(b, b, state), abs=1e-11
        )

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_hermitian(rng, 6)
            state = haar_state(rng, 6)
            assert sym_covariance(a, a, state) >= -1e-10
