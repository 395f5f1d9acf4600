"""Numerical maximization of the dephased QFI over probe amplitudes.

The objective is the closed-form dephased QFI for the qubit + QRF family,
which depends on the probe only through the occupation weights q_n = |c_n|^2
(a machine-checked fact, see objective_phase_invariance_check).  Optimization
therefore runs over the probability simplex, parameterized by a softmax so
every iterate is feasible, with an optional mean-energy equality constraint
enforced by a quadratic penalty with an increasing weight schedule.

Multistart (uniform, matched-uniform, coherent-profile and random Dirichlet
seeds) guards the nonconvexity; each run is deterministic for a fixed
OptProblem, including its rng_seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .models import _example1_qfi_weights, example1_qfi_closed_form

__all__ = [
    "NORMALIZATION_ONLY",
    "FIXED_MEAN_ENERGY",
    "OptProblem",
    "OptResult",
    "coherent_weight_profile",
    "optimize_probe",
    "objective_phase_invariance_check",
]

NORMALIZATION_ONLY = "normalization_only"
FIXED_MEAN_ENERGY = "fixed_mean_energy"

PENALTY_WEIGHTS = (1e1, 1e3, 1e5)


@dataclass(frozen=True)
class OptProblem:
    """Probe-optimization problem over n_levels Fock amplitudes."""

    n_levels: int
    constraint: str = NORMALIZATION_ONLY
    energy_target: float | None = None
    seeds: int = 8
    max_iters: int = 400
    tol: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.constraint == FIXED_MEAN_ENERGY:
            if self.energy_target is None:
                raise ValueError("fixed_mean_energy needs an energy_target")
            if not 0.0 <= self.energy_target < self.n_levels - 1:
                raise ValueError(
                    f"energy target {self.energy_target!r} is infeasible for "
                    f"{self.n_levels} levels (needs 0 <= target < n_levels - 1)"
                )
        elif self.constraint != NORMALIZATION_ONLY:
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.energy_target is not None and self.constraint == NORMALIZATION_ONLY:
            raise ValueError("energy_target is only meaningful with fixed_mean_energy")


@dataclass(frozen=True)
class OptResult:
    """Best probe found, its QFI, and the accepted-iterate log."""

    amplitudes: np.ndarray
    qfi: float
    trace: tuple[tuple[int, int, int, float, float], ...]
    converged: bool
    energy_residual: float
    message: str = ""


def _qfi_gradient(q: np.ndarray) -> np.ndarray:
    n = q.size
    grad = np.zeros(n)
    den = q[:-1] + q[1:]
    # den**2 underflows for pairs of near-empty levels; their contribution to
    # the theta-gradient is suppressed by the softmax chain rule anyway.
    safe = den > 1e-150
    own = np.zeros(n - 1)
    own[safe] = (q[:-1][safe] ** 2 + 2.0 * q[:-1][safe] * q[1:][safe]) / den[safe] ** 2
    neighbour = np.zeros(n - 1)
    neighbour[safe] = q[:-1][safe] ** 2 / den[safe] ** 2
    grad[: n - 1] -= 2.0 * own
    grad[1:] += 2.0 * neighbour
    grad[n - 1] -= 2.0
    return grad


def _softmax(theta: np.ndarray) -> np.ndarray:
    shifted = theta - np.max(theta)
    weights = np.exp(shifted)
    return weights / weights.sum()


def coherent_weight_profile(n_levels: int, mean: float) -> np.ndarray:
    """Poisson occupation weights of a coherent state, truncated to n_levels
    and renormalized (the best coherent-like profile available in the space)."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0.0:
        weights = np.zeros(n_levels)
        weights[0] = 1.0
        return weights
    levels = np.arange(n_levels, dtype=float)
    log_poisson = levels * math.log(mean) - mean - np.array(
        [math.lgamma(k + 1.0) for k in levels]
    )
    weights = np.exp(log_poisson)
    return weights / weights.sum()


def _seed_profiles(p: OptProblem, rng: np.random.Generator) -> list[np.ndarray]:
    n = p.n_levels
    profiles: list[np.ndarray] = [np.full(n, 1.0 / n)]
    target = p.energy_target if p.constraint == FIXED_MEAN_ENERGY else (n - 1) / 2.0
    matched = min(n, max(2, int(round(2.0 * target + 1.0))))
    q_matched = np.zeros(n)
    q_matched[:matched] = 1.0 / matched
    profiles.append(q_matched)
    if target > 0:
        profiles.append(coherent_weight_profile(n, target))
    while len(profiles) < p.seeds:
        profiles.append(rng.dirichlet(np.ones(n)))
    return profiles[: p.seeds]


def _ascend(
    theta: np.ndarray,
    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    max_iters: int,
    trace: list,
    seed_index: int,
    stage: int,
) -> np.ndarray:
    value, grad = value_grad(theta)
    step = 1.0
    for iteration in range(max_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12:
            break
        accepted = False
        while step >= 1e-14:
            candidate = theta + step * grad
            cand_value, cand_grad = value_grad(candidate)
            if cand_value > value + 1e-4 * step * gnorm**2:
                theta, value, grad = candidate, cand_value, cand_grad
                trace.append((seed_index, stage, iteration, value, step))
                step = min(step * 1.5, 1e3)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return theta


def optimize_probe(p: OptProblem) -> OptResult:
    """Maximize the dephased QFI over nonnegative probe amplitudes.

    Returns amplitudes on the probability simplex (phases dropped; the
    objective is phase-invariant).  With fixed_mean_energy the mean
    occupation matches the target within p.tol, enforced by the penalty
    schedule and checked explicitly.  Deterministic for a fixed problem.
    """
    levels = np.arange(p.n_levels, dtype=float)
    target = p.energy_target if p.constraint == FIXED_MEAN_ENERGY else None
    rng = np.random.default_rng(p.rng_seed)
    trace: list[tuple[int, int, int, float, float]] = []

    def penalized(theta: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
        q = _softmax(theta)
        value = _example1_qfi_weights(q)
        grad_q = _qfi_gradient(q)
        if target is not None and weight > 0:
            residual = float(levels @ q - target)
            value -= weight * residual**2
            grad_q = grad_q - 2.0 * weight * residual * levels
        grad_theta = q * (grad_q - float(q @ grad_q))
        return value, grad_theta

    best: tuple[float, float, np.ndarray] | None = None  # (qfi, -residual, q)
    fallback: tuple[float, np.ndarray, float] | None = None
    for seed_index, q_seed in enumerate(_seed_profiles(p, rng)):
        theta = np.log(np.clip(q_seed, 1e-12, None))
        stages = PENALTY_WEIGHTS if target is not None else (0.0,)
        for stage, weight in enumerate(stages):
            theta = _ascend(
                theta,
                lambda t, w=weight: penalized(t, w),
                p.max_iters,
                trace,
                seed_index,
                stage,
            )
        final_weight = stages[-1]
        nm = minimize(
            lambda t: -penalized(t, final_weight)[0],
            theta,
            method="Nelder-Mead",
            options={"maxiter": 200 * p.n_levels, "xatol": 1e-10, "fatol": 1e-14},
        )
        if -nm.fun > penalized(theta, final_weight)[0]:
            theta = nm.x
            trace.append((seed_index, len(stages), 0, float(-nm.fun), 0.0))
        q = _softmax(theta)
        q = q / q.sum()
        qfi = _example1_qfi_weights(q)
        residual = abs(float(levels @ q - target)) if target is not None else 0.0
        if residual <= p.tol:
            key = (qfi, -residual)
            if best is None or key > (best[0], best[1]):
                best = (qfi, -residual, q)
        penal = qfi - (0.0 if target is None else final_weight * residual**2)
        if fallback is None or penal > fallback[0]:
            fallback = (penal, q, residual)

    if best is not None:
        qfi, neg_residual, q = best
        return OptResult(
            amplitudes=np.sqrt(q),
            qfi=qfi,
            trace=tuple(trace),
            converged=True,
            energy_residual=-neg_residual,
        )
    _, q, residual = fallback
    return OptResult(
        amplitudes=np.sqrt(q),
        qfi=_example1_qfi_weights(q),
        trace=tuple(trace),
        converged=False,
        energy_residual=residual,
        message=(
            f"no start met the energy constraint within tol={p.tol}; "
            f"best residual {residual:.3e}"
        ),
    )


def objective_phase_invariance_check(c, draws: int = 100, rng_seed: int = 0) -> bool:
    """True when random per-amplitude phases leave the objective unchanged.

    Justifies optimizing over nonnegative real amplitudes only.
    """
    c = np.asarray(c, dtype=complex)
    base = example1_qfi_closed_form(c)
    rng = np.random.default_rng(rng_seed)
    spread = 0.0
    for _ in range(draws):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=c.size))
        spread = max(spread, abs(example1_qfi_closed_form(c * phases) - base))
    return spread <= 1e-10
