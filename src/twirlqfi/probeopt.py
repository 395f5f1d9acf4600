"""Maximization of the dephased QFI over probe occupation weights.

The objective is the closed-form dephased QFI for the qubit + QRF family,
which depends on the probe only through the occupation weights q_n = |c_n|^2
(a machine-checked fact, see objective_phase_invariance_check):

    f(q) = 2 - 2 (sum_n q_n^2 / (q_n + q_{n+1}) + q_{N-1}).

Each q_n^2 / (q_n + q_{n+1}) is a quadratic-over-linear function, which is
jointly convex, so f is concave.  On the probability simplex, optionally cut
by a mean-energy equality, maximizing f is a convex program: every local
optimum is global.  optimize_probe runs SLSQP with the exact gradient from
one deterministic start and certifies the result with a Lagrange duality
gap (see _dual_bound).  The certificate, not the solver's status, decides
whether the result is reported as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# SLSQP stops once an iteration changes f by less than this; whether the
# stopping point is optimal is decided by the duality gap, not by this.
_SLSQP_FTOL = 1e-14


@dataclass(frozen=True)
class OptProblem:
    """Probe-optimization problem over n_levels Fock amplitudes.

    max_iters bounds the SLSQP iterations of one solve.  tol bounds both the
    energy residual and the duality gap of a converged result.  seeds and
    rng_seed are validated but select nothing: the solve is deterministic
    and starts from one profile.  They remain only so that existing callers
    that pass them keep working.
    """

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
    """Best probe found, its QFI, the SLSQP iterate log and its certificate.

    trace holds one (iteration, qfi) entry per SLSQP iteration.  The optimum
    exceeds qfi by at most gap (inf when no certificate was formed).
    converged means energy_residual <= tol and gap <= tol.
    """

    amplitudes: np.ndarray
    qfi: float
    trace: tuple[tuple[int, float], ...]
    converged: bool
    energy_residual: float
    gap: float = math.inf
    message: str = ""


def _qfi_gradient(q: np.ndarray) -> np.ndarray:
    n = q.size
    grad = np.zeros(n)
    den = q[:-1] + q[1:]
    # den**2 underflows for pairs of near-empty levels.  Their term is at
    # most den <= 1e-150 and never negative, so the zero vector stands in
    # for its gradient (a supergradient of -2 * term up to 1e-150).
    safe = den > 1e-150
    own = np.zeros(n - 1)
    own[safe] = (q[:-1][safe] ** 2 + 2.0 * q[:-1][safe] * q[1:][safe]) / den[safe] ** 2
    neighbour = np.zeros(n - 1)
    neighbour[safe] = q[:-1][safe] ** 2 / den[safe] ** 2
    grad[: n - 1] -= 2.0 * own
    grad[1:] += 2.0 * neighbour
    grad[n - 1] -= 2.0
    return grad


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


def _dual_feasible(c: np.ndarray) -> bool:
    """True when phi(q) + c.q / 2 >= 0 for every q >= 0.

    phi(q) = sum_n q_n^2 / (q_n + q_{n+1}) + q_{N-1} is convex and
    1-homogeneous.  With q_n fixed, the terms of phi + c.q / 2 from level n
    up have minimum a_n q_n over q_{n+1}, ..., q_{N-1} >= 0, where
    a_{N-1} = 1 + c_{N-1} / 2 and a_n = c_n / 2 + min_{x >= 0} (1/(1+x) +
    a_{n+1} x), with x = q_{n+1} / q_n.  That inner minimum is -inf for
    a < 0, 2 sqrt(a) - a for 0 <= a < 1, and 1 for a >= 1.  The condition
    holds exactly when every a_n is non-negative.
    """
    a = 1.0 + c[-1] / 2.0
    for c_n in c[-2::-1]:
        if a < 0.0:
            return False
        a = c_n / 2.0 + (1.0 if a >= 1.0 else 2.0 * math.sqrt(a) - a)
    return a >= 0.0


def _dual_bound(n_levels: int, slope: float, energy: float) -> float:
    """Upper bound on max f over the feasible set, given an energy multiplier.

    For c_n = mu + slope * n and any feasible q (sum q = 1, n.q = energy),
    f(q) = 2 + mu + slope * energy - (2 phi(q) + c.q).  When c is dual
    feasible, 2 + mu + slope * energy bounds f there.  Every a_n of
    _dual_feasible grows with mu, so bisection finds the smallest feasible
    mu.  It lies between -2 (below it a_0 <= mu / 2 + 1 < 0) and
    max(0, -slope (N-1)) (there every c_n >= 0, so every a_n >= 1).  The
    normalization-only problem has slope 0.
    """
    levels = np.arange(n_levels, dtype=float)
    lo, hi = -2.0, max(0.0, -slope * (n_levels - 1))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _dual_feasible(mid + slope * levels):
            hi = mid
        else:
            lo = mid
    return 2.0 + hi + slope * energy


def _duality_gap(q: np.ndarray, qfi: float, energy: float | None) -> float:
    """How far qfi = f(q) may fall short of the optimum, from q alone.

    At the optimum the gradient equals mu + slope * n on every occupied
    level, so a q-weighted least-squares fit of the gradient against n
    recovers the energy multiplier, and _dual_bound turns it into a bound.
    """
    if energy is None:
        return _dual_bound(q.size, 0.0, 0.0) - qfi
    if energy == 0.0:
        return -qfi  # the vacuum, where f = 0, is the only feasible point
    levels = np.arange(q.size, dtype=float)
    centred = levels - float(levels @ q)
    slope = float((q * centred) @ _qfi_gradient(q)) / float(q @ centred**2)
    return _dual_bound(q.size, slope, energy) - qfi


def optimize_probe(p: OptProblem) -> OptResult:
    """Maximize the dephased QFI over nonnegative probe amplitudes.

    Returns amplitudes on the probability simplex (phases dropped; the
    objective is phase-invariant), found by SLSQP with the exact gradient
    from the coherent profile at the target energy (uniform weights without
    an energy constraint).  The result carries the duality gap of
    _duality_gap; converged means the energy residual and that gap are both
    at most p.tol.  When SLSQP stops short of that, the solve resumes from
    its last iterate with a fresh quasi-Newton model until p.max_iters
    iterations are spent.  Deterministic for a fixed problem.
    """
    n = p.n_levels
    levels = np.arange(n, dtype=float)
    constraints = [{"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones(n)}]
    if p.constraint == FIXED_MEAN_ENERGY:
        energy = p.energy_target
        constraints.append(
            {"type": "eq", "fun": lambda q: levels @ q - energy, "jac": lambda q: levels}
        )
        x = coherent_weight_profile(n, energy)
    else:
        energy = None
        x = np.full(n, 1.0 / n)
    trace: list[tuple[int, float]] = []
    spent = 0
    while True:
        sol = minimize(
            lambda q: -_example1_qfi_weights(q),
            x,
            jac=lambda q: -_qfi_gradient(q),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=constraints,
            callback=lambda xk: trace.append((len(trace) + 1, _example1_qfi_weights(xk))),
            options={"maxiter": p.max_iters - spent, "ftol": _SLSQP_FTOL},
        )
        spent += max(sol.nit, 1)
        q = np.clip(sol.x, 0.0, None)
        q = q / q.sum()
        qfi = _example1_qfi_weights(q)
        residual = 0.0 if energy is None else abs(float(levels @ q) - energy)
        gap = _duality_gap(q, qfi, energy)
        converged = residual <= p.tol and gap <= p.tol
        if converged or spent >= p.max_iters:
            break
        x = sol.x
    return OptResult(
        amplitudes=np.sqrt(q),
        qfi=qfi,
        trace=tuple(trace),
        converged=converged,
        energy_residual=residual,
        gap=gap,
        message="" if converged else (
            f"not certified within tol={p.tol} after {spent} SLSQP iterations: "
            f"energy residual {residual:.3e}, duality gap {gap:.3e}"
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
