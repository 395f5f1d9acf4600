import numpy as np
import pytest
from conftest import (
    SIGMA_Z,
    cluster_means,
    commuting_pair,
    random_degenerate_hermitian,
    random_density,
    random_hermitian,
    random_unitary,
)
from scipy.linalg import expm

from twirlqfi.channels import (
    DEFAULT_CLUSTER_TOL,
    ProjectorSet,
    _cluster_layout,
    finite_time_average,
    spectral_projectors,
    twirl,
    twirl_hermitian,
)
from twirlqfi.hilbert import DensityMatrix, HermitianOperator, StateVector
from twirlqfi.metrology import qfi_mixed
from twirlqfi.models import QrfStateSpec, example1_scenario, qrf_amplitudes


def project_set_invariants(p: ProjectorSet):
    eye = np.eye(p.dim)
    # the invariants ProjectorSet holds by construction instead of re-checking
    assert np.max(np.abs(p.basis.conj().T @ p.basis - eye)) <= 1e-9
    assert p.bounds[0] == 0 and p.bounds[-1] == p.dim
    assert all(b2 > b1 for b1, b2 in zip(p.bounds, p.bounds[1:]))
    assert p.n_projectors == len(p.bounds) - 1
    total = np.zeros((p.dim, p.dim), dtype=complex)
    mats = [op.matrix for op in p.projectors]
    for i, mat in enumerate(mats):
        assert np.max(np.abs(mat @ mat - mat)) <= 1e-9
        total += mat
        for j in range(i + 1, len(mats)):
            assert np.max(np.abs(mat @ mats[j])) <= 1e-9
    assert np.max(np.abs(total - eye)) <= 1e-9
    assert np.all(np.diff(cluster_means(p)) > 0)
    # the pinching kept as the clusters' blocks in the eigenbasis is sum_i P_i M P_i
    m = random_hermitian(np.random.default_rng(p.dim), p.dim).matrix
    pinched = sum(mat @ m @ mat for mat in mats)
    assert np.max(np.abs(p.pinch(m) - pinched)) <= 1e-9 * max(1.0, float(np.max(np.abs(m))))


class TestSpectralProjectors:
    def test_sigma_z_half(self):
        p = spectral_projectors(HermitianOperator(SIGMA_Z / 2))
        assert p.ranks() == (1, 1)
        assert np.allclose(cluster_means(p), [-0.5, 0.5])
        assert np.max(np.abs(p.projectors[0].matrix - np.diag([0.0, 1.0]))) < 1e-12
        assert np.max(np.abs(p.projectors[1].matrix - np.diag([1.0, 0.0]))) < 1e-12
        project_set_invariants(p)

    def test_total_number_sector_ranks(self):
        # oracle: count pairs (m, n) on 3 x 3 with m + n = s
        number = np.diag([0.0, 1.0, 2.0])
        g = HermitianOperator(np.kron(number, np.eye(3)) + np.kron(np.eye(3), number))
        p = spectral_projectors(g)
        assert p.ranks() == (1, 2, 3, 2, 1)
        assert np.allclose(cluster_means(p), [0, 1, 2, 3, 4])
        project_set_invariants(p)

    def test_fully_degenerate(self):
        p = spectral_projectors(HermitianOperator(np.eye(4, dtype=complex)))
        assert p.n_projectors == 1
        assert np.max(np.abs(p.projectors[0].matrix - np.eye(4))) < 1e-12

    def test_random_degenerate_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dim = int(rng.integers(4, 65))
            n_clusters = int(rng.integers(2, min(dim, 12)))
            g = random_degenerate_hermitian(rng, dim, n_clusters)
            p = spectral_projectors(g)
            assert p.n_projectors == n_clusters
            project_set_invariants(p)

    def test_view_of_the_cached_decomposition(self, eigh_calls):
        rng = np.random.default_rng(22)
        g = random_degenerate_hermitian(rng, 32, 6)
        w, v = g.eig
        del eigh_calls[:]
        p = spectral_projectors(g)
        assert p.basis is v
        assert not p.basis.flags.writeable
        assert np.array_equal(p.layout.ends, _cluster_layout(w, DEFAULT_CLUSTER_TOL).ends)
        twirl_hermitian(np.eye(32), p)
        assert eigh_calls == []

    def test_cluster_tol_validation(self):
        # a NaN tolerance fails every gap comparison and would merge all clusters
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                spectral_projectors(HermitianOperator(SIGMA_Z), cluster_tol=tol)

    def test_clustering_matches_the_neighbour_gap_loop(self):
        # the vectorized pass keeps the loop's subtraction and comparison
        rng = np.random.default_rng(24)
        for _ in range(50):
            w = np.sort(np.repeat(rng.normal(size=8), rng.integers(1, 4, size=8)))
            w = w + rng.choice([0.0, 1e-12, 3e-8], size=w.size)
            w.sort()
            tol = float(rng.choice([1e-8, 1e-3]))
            gap = tol * (1.0 + (w[-1] - w[0]))
            loop = [0] + [i for i in range(1, w.size) if w[i] - w[i - 1] > gap] + [w.size]
            assert [0, *_cluster_layout(w, tol).ends.tolist()] == loop


class TestTwirl:
    def test_trivial_projector_is_identity_channel(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 5)
        p = spectral_projectors(HermitianOperator(np.eye(5, dtype=complex)))
        assert np.max(np.abs(twirl(rho, p).matrix - rho.matrix)) < 1e-14

    def test_full_dephasing_of_plus_state(self):
        plus = StateVector(np.array([1.0, 1.0]))
        rho = DensityMatrix.from_state(plus)
        p = spectral_projectors(HermitianOperator(SIGMA_Z / 2))
        assert np.max(np.abs(twirl(rho, p).matrix - np.diag([0.5, 0.5]))) < 1e-14

    def test_squeezed_probe_loses_everything(self):
        qrf = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        scenario = example1_scenario(qrf, lam=0.3)
        p = spectral_projectors(scenario.g_generator)
        rho_b = twirl(scenario.rho_lambda, p)
        drho_b = twirl_hermitian(scenario.drho_lambda, p)
        assert qfi_mixed(rho_b, drho_b) <= 1e-9

    def test_cptp_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            dim = int(rng.integers(2, 33))
            rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            g = (
                random_degenerate_hermitian(rng, dim, max(2, dim // 2))
                if dim >= 4 and rng.uniform() < 0.5
                else random_hermitian(rng, dim)
            )
            out = twirl(rho, spectral_projectors(g))
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            rho = random_density(rng, dim)
            p = spectral_projectors(random_hermitian(rng, dim))
            once = twirl(rho, p)
            twice = twirl(once, p)
            assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10

    def test_invariance_under_averaged_group(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dim = int(rng.integers(2, 13))
            rho = random_density(rng, dim)
            g = random_hermitian(rng, dim)
            p = spectral_projectors(g)
            s = float(rng.uniform(-3.0, 3.0))
            u = expm(-1j * g.matrix * s)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert np.max(np.abs(twirl(rotated, p).matrix - twirl(rho, p).matrix)) <= 1e-10

    def test_commuting_encoding_commutes_with_channel(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            dim = int(rng.integers(3, 13))
            k, g = commuting_pair(rng, dim, n_clusters=max(2, dim // 2))
            rho = random_density(rng, dim)
            p = spectral_projectors(g)
            lam = float(rng.uniform(-np.pi, np.pi))
            u = expm(-1j * k.matrix * lam)
            encoded = DensityMatrix(u @ rho.matrix @ u.conj().T)
            left = twirl(encoded, p).matrix
            right = u @ twirl(rho, p).matrix @ u.conj().T
            assert np.max(np.abs(left - right)) <= 1e-10


def naive_time_average(rho, g, t_max, steps):
    """Literal trapezoid over matrix exponentials (independent oracle)."""
    total = np.zeros_like(rho.matrix)
    dt = t_max / steps
    for j in range(steps + 1):
        u = expm(-1j * g.matrix * (j * dt))
        weight = 0.5 if j in (0, steps) else 1.0
        total += weight * (u @ rho.matrix @ u.conj().T)
    return total / steps


class TestFiniteTimeAverage:
    def test_zero_generator_is_identity(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 4)
        g = HermitianOperator(np.zeros((4, 4), dtype=complex))
        out = finite_time_average(rho, g, t_max=7.0, steps=100)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_matches_literal_trapezoid(self):
        rng = np.random.default_rng(43)
        rho = random_density(rng, 4)
        g = random_hermitian(rng, 4)
        ours = finite_time_average(rho, g, t_max=5.0, steps=200).matrix
        oracle = naive_time_average(rho, g, t_max=5.0, steps=200)
        assert np.max(np.abs(ours - oracle)) < 1e-11

    def test_plus_state_dephases(self):
        rho = DensityMatrix.from_state(StateVector(np.array([1.0, 1.0])))
        g = HermitianOperator(SIGMA_Z / 2)
        out = finite_time_average(rho, g, t_max=200.0, steps=20000)
        assert np.max(np.abs(out.matrix - np.diag([0.5, 0.5]))) <= 2e-2

    def test_example1_oracle_convergence(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        scenario = example1_scenario(qrf, lam=0.8)
        p = spectral_projectors(scenario.g_generator)
        target = twirl(scenario.rho_lambda, p).matrix
        out = finite_time_average(scenario.rho_lambda, scenario.g_generator, 500.0, 20000)
        assert np.max(np.abs(out.matrix - target)) <= 1e-2

    def test_monotone_convergence_on_log_grid(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            dim = int(rng.integers(4, 13))
            evals = 0.7 * np.arange(dim) + rng.uniform(0.0, 0.3, size=dim)
            u = random_unitary(rng, dim)
            g = HermitianOperator(u @ np.diag(evals) @ u.conj().T)
            rho = random_density(rng, dim)
            target = twirl(rho, spectral_projectors(g)).matrix
            errors = [
                np.max(np.abs(finite_time_average(rho, g, t, 40000).matrix - target))
                for t in (10.0, 100.0, 1000.0)
            ]
            assert errors[0] > errors[1] > errors[2]

    def test_parameter_validation(self):
        rng = np.random.default_rng(53)
        rho = random_density(rng, 3)
        g = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            finite_time_average(rho, g, t_max=1.0, steps=1)
        with pytest.raises(ValueError):
            finite_time_average(rho, g, t_max=0.0, steps=10)
