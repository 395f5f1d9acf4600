"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion prints one [acceptance NN] PASS/FAIL line (run pytest -s to
see them) and must finish inside its runtime budget.
"""

import csv
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import haar_state, random_hermitian, random_unitary
from test_probeopt import simplex_grid_best

from twirlqfi.channels import finite_time_average, spectral_projectors, twirl, twirl_hermitian
from twirlqfi.cli import main
from twirlqfi.hilbert import DensityMatrix, HermitianOperator
from twirlqfi.metrology import (
    Scenario,
    check_max_loss,
    classical_fisher,
    qfi_anticommutator_form,
    qfi_covariance_form,
    qfi_eigenvector_form,
    qfi_mixed,
    qfi_twirled_pure,
    qfi_unitary,
    report,
    sld_twirled,
    optimal_povm,
)
from twirlqfi.models import (
    QrfStateSpec,
    coherent_qfi_asymptote,
    coherent_qfi_hypergeometric,
    counterexample_scenario,
    example1_scenario,
    example2_qfi_closed_form,
    example2_system,
    example3_alice_qfi,
    example3_bob_qfi,
    example3_scenario,
    qrf_amplitudes,
)
from twirlqfi.probeopt import (
    FIXED_MEAN_ENERGY,
    OptProblem,
    coherent_weight_profile,
    optimize_probe,
)
from twirlqfi.models import example1_qfi_closed_form

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"[acceptance {number:02d}] PASS {title} ({elapsed:.2f}s)")


def test_criterion_01_uniform_superposition_law():
    with criterion(1, "uniform-superposition law 1 - 1/N for N = 2..64", 5.0):
        for n in range(2, 65):
            qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
            rep = report(example1_scenario(qrf, lam=0.4))
            assert rep.bob_qfi == pytest.approx(1.0 - 1.0 / n, abs=1e-9)


def test_criterion_02_squeezed_vacuum_max_loss():
    with criterion(2, "squeezed-vacuum probe loses everything", 5.0):
        qrf = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        s = example1_scenario(qrf, lam=0.8)
        p = spectral_projectors(s.g_generator)
        assert qfi_twirled_pure(s, p) <= 1e-9
        assert check_max_loss(s, p)


def test_criterion_03_coherent_hypergeometric():
    with criterion(3, "coherent probe matches hypergeometric closed form", 10.0):
        for alpha_sq in (0.5, 1.0, 2.0, 4.0, 6.0, 10.0):
            truncation = max(40, int(alpha_sq + 12.0 * math.sqrt(alpha_sq) + 24))
            qrf = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(alpha_sq)), truncation)
            s = example1_scenario(qrf, lam=0.3)
            pipeline = qfi_twirled_pure(s, spectral_projectors(s.g_generator))
            assert pipeline == pytest.approx(
                coherent_qfi_hypergeometric(alpha_sq), abs=1e-6
            )
        exact = coherent_qfi_hypergeometric(6.0)
        assert abs(coherent_qfi_asymptote(6.0) - exact) / exact < 0.01


def test_criterion_04_direction_indicator_grid():
    with criterion(4, "direction-indicator closed forms on the (z, lambda) grid", 5.0):
        z_grid = np.linspace(0.0, 1.0, 21)
        # 21 points strictly inside (-pi, pi); odd/23 multiples avoid the
        # rank-change points {0, +-pi} where the probability-floored classical
        # Fisher estimator is discontinuous (removable singularities).
        lam_grid = np.pi * (2.0 * np.arange(21) - 21.0) / 23.0
        basis_povm = [
            HermitianOperator(np.diag([1.0, 0.0]).astype(complex)),
            HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
        ]
        for z in z_grid:
            y = math.sqrt(max(0.0, 1.0 - z * z))
            system = example3_scenario((0.0, y, z))
            for lam in lam_grid:
                s = system.with_lambda(float(lam))
                rep = report(s)
                assert rep.alice_qfi == pytest.approx(example3_alice_qfi(z), abs=1e-9)
                assert rep.bob_qfi == pytest.approx(
                    example3_bob_qfi(z, float(lam)), abs=1e-9
                )
                p = spectral_projectors(s.g_generator)
                fisher = classical_fisher(
                    basis_povm,
                    twirl(s.rho_lambda, p),
                    twirl_hermitian(s.drho_lambda, p),
                )
                assert fisher == pytest.approx(rep.bob_qfi, abs=1e-8)


def test_criterion_05_counterexample_audit():
    with criterion(5, "zero covariance is necessary but not sufficient", 1.0):
        rep = report(counterexample_scenario(lam=0.7))
        assert abs(rep.cov_gk) <= 1e-12
        assert rep.bob_qfi <= 1e-10


def test_criterion_06_interacting_oscillators():
    with criterion(6, "interacting-oscillator closed form and diagnostics", 60.0):
        system = example2_system(n_total_max=4)
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        for lam in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
            rep = report(system.scenario(qrf, lam))
            assert rep.bob_qfi == pytest.approx(
                example2_qfi_closed_form(4, lam), abs=1e-6
            )
        for n in (4, 9):
            sys_n = example2_system(n_total_max=n)
            qrf_n = qrf_amplitudes(QrfStateSpec.uniform(n), n)
            rep = report(sys_n.scenario(qrf_n, 0.9))
            assert rep.cov_gk == pytest.approx(sys_n.omega / 4.0, abs=1e-9)
        grid = np.linspace(-math.pi, math.pi, 41)
        values = []
        for lam in grid:
            rep = report(system.scenario(qrf, float(lam)))
            assert rep.bob_qfi < 1.0
            values.append(rep.bob_qfi)
        assert abs(abs(grid[int(np.argmax(values))]) - math.pi / 2) <= 1e-12


def test_criterion_07_cross_formula_fuzz():
    with criterion(7, "cross-formula equivalence on 500 random scenarios", 120.0):
        rng = np.random.default_rng(20250809)
        for _ in range(500):
            dim = int(rng.integers(2, 25))
            s = Scenario(
                haar_state(rng, dim),
                random_hermitian(rng, dim),
                random_hermitian(rng, dim),
                float(rng.uniform(-np.pi, np.pi)),
            )
            p = spectral_projectors(s.g_generator)
            values = [
                qfi_twirled_pure(s, p),
                qfi_anticommutator_form(s, p),
                qfi_covariance_form(s, p),
                qfi_eigenvector_form(s, s.g_generator),
                qfi_mixed(
                    twirl(s.rho_lambda, p), twirl_hermitian(s.drho_lambda, p)
                ),
            ]
            assert max(values) - min(values) <= 1e-7
            alice = qfi_unitary(s.fiducial, s.k_generator)
            loss = alice - values[0]
            assert -1e-9 <= loss <= alice + 1e-9
        # oracle route: generic spectra with gaps bounded away from zero
        for _ in range(25):
            dim = int(rng.integers(4, 25))
            spectrum = 0.6 * np.arange(dim) + rng.uniform(0.0, 0.25, size=dim)
            u = random_unitary(rng, dim)
            g = HermitianOperator(u @ np.diag(spectrum) @ u.conj().T)
            state = haar_state(rng, dim)
            rho = DensityMatrix.from_state(state)
            averaged = finite_time_average(rho, g, t_max=1000.0, steps=40000)
            pinched = twirl(rho, spectral_projectors(g))
            assert np.max(np.abs(averaged.matrix - pinched.matrix)) <= 1e-2


def test_criterion_08_sld_contracts():
    with criterion(8, "SLD defining equation and trace relation on all examples", 10.0):
        scenarios = []
        qrf6 = qrf_amplitudes(QrfStateSpec.uniform(6), 6)
        scenarios.append(example1_scenario(qrf6, 0.9))
        coh = qrf_amplitudes(QrfStateSpec.coherent(2.0), 60)
        scenarios.append(example1_scenario(coh, 0.5))
        sq = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        scenarios.append(example1_scenario(sq, 0.7))
        system = example2_system(n_total_max=4)
        scenarios.append(system.scenario(qrf_amplitudes(QrfStateSpec.uniform(4), 4), 0.7))
        ex3 = example3_scenario((0.0, math.sqrt(0.75), 0.5), math.pi / 3)
        scenarios.append(ex3)
        for s in scenarios:
            p = spectral_projectors(s.g_generator)
            sld = sld_twirled(s, p).matrix
            rho_b = twirl(s.rho_lambda, p)
            drho_b = twirl_hermitian(s.drho_lambda, p)
            bob = qfi_twirled_pure(s, p)
            assert np.real(np.trace(drho_b @ sld)) == pytest.approx(bob, abs=1e-8)
            residual = 2.0 * drho_b - sld @ rho_b.matrix - rho_b.matrix @ sld
            w, v = rho_b.eig
            support = v[:, w > 1e-12]
            assert np.max(np.abs(support.conj().T @ residual @ support)) <= 1e-8
        povm = optimal_povm(sld_twirled(ex3, spectral_projectors(ex3.g_generator)))
        mats = sorted((p.matrix.real for p in povm), key=lambda m: m[0, 0])
        assert np.allclose(mats[0], np.diag([0.0, 1.0]), atol=1e-10)
        assert np.allclose(mats[1], np.diag([1.0, 0.0]), atol=1e-10)


def test_criterion_09_nondegenerate_commuting_lemma():
    with criterion(9, "non-degenerate commuting noise erases the parameter", 10.0):
        rng = np.random.default_rng(99)
        for _ in range(100):
            dim = int(rng.integers(2, 33))
            k = HermitianOperator(np.diag(rng.normal(size=dim)).astype(complex))
            g_values = np.sort(rng.normal(size=dim) * 2.0)
            while np.any(np.diff(g_values) < 1e-3):
                g_values = np.sort(rng.normal(size=dim) * 2.0)
            g = HermitianOperator(np.diag(g_values).astype(complex))
            s = Scenario(haar_state(rng, dim), k, g, float(rng.uniform(-np.pi, np.pi)))
            assert qfi_twirled_pure(s, spectral_projectors(g)) <= 1e-9


def test_criterion_10_probe_optimization_ordering():
    with criterion(10, "optimal >= coherent >= matched uniform; grid-search oracle", 60.0):
        n_levels = 24
        for energy in (1.0, 2.0, 4.0):
            result = optimize_probe(
                OptProblem(
                    n_levels=n_levels,
                    constraint=FIXED_MEAN_ENERGY,
                    energy_target=energy,
                    seeds=6,
                )
            )
            assert result.converged
            qfi_coherent = example1_qfi_closed_form(
                np.sqrt(coherent_weight_profile(n_levels, energy))
            )
            matched = int(round(2.0 * energy + 1.0))
            uniform = np.zeros(n_levels)
            uniform[:matched] = 1.0 / math.sqrt(matched)
            qfi_uniform = example1_qfi_closed_form(uniform)
            assert result.qfi >= qfi_coherent - 1e-6
            assert qfi_coherent - 1e-6 >= qfi_uniform - 1e-6
        for n in (2, 3, 4):
            grid_best, _ = simplex_grid_best(n)
            result = optimize_probe(OptProblem(n_levels=n))
            assert abs(result.qfi - grid_best) <= 1e-4


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI determinism and the shipped counterexample fixture", 5.0):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        config = str(FIXTURES / "counterexample.json")
        assert main(["run", "--config", config, "--out", str(first), "--quiet"]) == 0
        assert main(["run", "--config", config, "--out", str(second), "--quiet"]) == 0
        assert first.read_bytes() == second.read_bytes()
        with open(first, newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert abs(float(row["bob_qfi"])) <= 1e-10
        assert abs(float(row["cov_gk"])) <= 1e-12
