import itertools
import math

import numpy as np
import pytest

from twirlqfi.models import QrfStateSpec, example1_qfi_closed_form, qrf_amplitudes
from twirlqfi.probeopt import (
    FIXED_MEAN_ENERGY,
    OptProblem,
    objective_phase_invariance_check,
    optimize_probe,
)


def simplex_grid_best(n_levels, resolution=100):
    """Exhaustive search over the simplex at 1/resolution weight steps."""
    best = -np.inf
    best_q = None
    for combo in itertools.combinations(
        range(resolution + n_levels - 1), n_levels - 1
    ):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + n_levels - 2 - prev)
        q = np.array(parts, dtype=float) / resolution
        value = example1_qfi_closed_form(np.sqrt(q))
        if value > best:
            best, best_q = value, q
    return best, best_q


class TestOptimizeProbe:
    def test_two_levels_against_line_scan(self):
        # oracle: 1-d brute force over q0
        q0 = np.linspace(0.0, 1.0, 100001)
        objective = 2 - 2 * (q0**2 + (1 - q0))
        best = float(np.max(objective))
        assert best == pytest.approx(0.5, abs=1e-9)
        result = optimize_probe(OptProblem(n_levels=2))
        assert result.qfi == pytest.approx(best, abs=1e-9)
        assert np.allclose(result.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-5)

    def test_ten_levels_beats_uniform(self):
        result = optimize_probe(OptProblem(n_levels=10))
        assert result.qfi >= 1 - 1 / 10 - 1e-12

    def test_matched_energy_ordering(self):
        for energy in (1.0, 2.0, 4.0):
            result = optimize_probe(
                OptProblem(
                    n_levels=24,
                    constraint=FIXED_MEAN_ENERGY,
                    energy_target=energy,
                    seeds=6,
                )
            )
            coherent = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(energy)), 24)
            qfi_coherent = example1_qfi_closed_form(coherent.amplitudes)
            levels = int(round(2 * energy + 1))
            qfi_uniform = 1 - 1 / levels
            assert result.converged
            assert result.qfi >= qfi_coherent - 1e-6
            assert qfi_coherent >= qfi_uniform - 1e-6

    def test_matches_simplex_grid_oracle(self):
        for n in (2, 3, 4):
            grid_best, _ = simplex_grid_best(n)
            result = optimize_probe(OptProblem(n_levels=n))
            assert abs(result.qfi - grid_best) <= 1e-4
            assert result.qfi >= grid_best - 1e-12

    def test_feasibility_of_returned_iterate(self):
        result = optimize_probe(
            OptProblem(
                n_levels=12, constraint=FIXED_MEAN_ENERGY, energy_target=2.5, seeds=4
            )
        )
        q = result.amplitudes**2
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.all(result.amplitudes >= 0.0)
        assert result.energy_residual <= 1e-5
        mean = float(np.arange(12) @ q)
        assert abs(mean - 2.5) == pytest.approx(result.energy_residual, abs=1e-12)

    def test_trace_monotone_within_stages(self):
        result = optimize_probe(
            OptProblem(
                n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=2.0, seeds=3
            )
        )
        by_run = {}
        for seed_index, stage, _, value, _ in result.trace:
            by_run.setdefault((seed_index, stage), []).append(value)
        for values in by_run.values():
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bitwise_reproducibility(self):
        problem = OptProblem(n_levels=9, seeds=5, rng_seed=17)
        first = optimize_probe(problem)
        second = optimize_probe(problem)
        assert first.trace == second.trace
        assert first.qfi == second.qfi
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_nonconvergence_reported_with_best_iterate(self):
        # an unattainable feasibility tolerance: the penalty schedule leaves
        # residuals around 1e-7, far above 1e-14
        result = optimize_probe(
            OptProblem(
                n_levels=6,
                constraint=FIXED_MEAN_ENERGY,
                energy_target=2.0,
                seeds=2,
                tol=1e-14,
            )
        )
        assert not result.converged
        assert "residual" in result.message
        assert result.energy_residual > 1e-14
        assert abs(np.sum(result.amplitudes**2) - 1.0) <= 1e-12

    def test_infeasible_targets_rejected(self):
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=7.0)
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY, energy_target=-0.5)
        with pytest.raises(ValueError):
            OptProblem(n_levels=8, constraint=FIXED_MEAN_ENERGY)


class TestPhaseInvariance:
    def test_random_phases_leave_objective_unchanged(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        c /= np.linalg.norm(c)
        assert objective_phase_invariance_check(c)

    def test_alternating_signs_uniform(self):
        n = 6
        c = np.array([(-1.0) ** k for k in range(n)]) / math.sqrt(n)
        assert example1_qfi_closed_form(c) == pytest.approx(1 - 1 / n, abs=1e-12)
        assert objective_phase_invariance_check(c)

    def test_spread_is_tiny(self):
        rng = np.random.default_rng(37)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        c /= np.linalg.norm(c)
        base = example1_qfi_closed_form(c)
        worst = 0.0
        for _ in range(100):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
            worst = max(worst, abs(example1_qfi_closed_form(c * phases) - base))
        assert worst < 1e-12
