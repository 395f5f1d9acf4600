"""Maximization of the dephased QFI over probe occupation weights.

The objective is the closed-form dephased QFI for the qubit + QRF family,
which depends on the probe only through the occupation weights q_n = |c_n|^2
(tests check that random per-amplitude phases leave it unchanged):

    f(q) = 2 - 2 (sum_n q_n^2 / (q_n + q_{n+1}) + q_{N-1}).

Each q_n^2 / (q_n + q_{n+1}) is a quadratic-over-linear function, which is
jointly convex, so f is concave.  On the probability simplex, optionally cut
by a mean-energy equality, maximizing f is a convex program, and its
Lagrange dual is exact.  For multipliers mu (normalization) and nu
(energy), a backward recursion over the levels (_recursion) decides dual
feasibility and yields the maximizer of f - nu n.q in closed form
(_sample).  Each step of _sample's bisection over mu takes only the
feasibility verdict (_feasible, which stores nothing); the a_n are formed
once per sample, at the bisection's end.  optimize_probe searches nu on the
sign of the energy error and mixes the two bracketing maximizers to hit the
target energy exactly.  The result carries its duality gap, and that
certificate decides whether it is reported as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import MAX_TRUNCATION, _example1_qfi_weights, _log_factorial

__all__ = [
    "NORMALIZATION_ONLY",
    "FIXED_MEAN_ENERGY",
    "OptProblem",
    "OptResult",
    "coherent_weight_profile",
    "optimize_probe",
]

NORMALIZATION_ONLY = "normalization_only"
FIXED_MEAN_ENERGY = "fixed_mean_energy"

@dataclass(frozen=True)
class OptProblem:
    """Probe-optimization problem over n_levels Fock amplitudes.

    tol bounds both the energy residual and the duality gap of a converged
    result; it does not stop the solve, which always runs to the rounding
    level of f.  n_levels and seeds must be integers (numpy integers are
    stored as int; bool is refused), n_levels at most models.MAX_TRUNCATION,
    the largest Fock truncation the library builds.  seeds and rng_seed
    select nothing: the solve is deterministic.  They remain only so that
    existing callers that pass them keep working.
    """

    n_levels: int
    constraint: str = NORMALIZATION_ONLY
    energy_target: float | None = None
    seeds: int = 8
    tol: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_levels", "seeds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 2 <= self.n_levels <= MAX_TRUNCATION:
            raise ValueError(f"n_levels must be between 2 and {MAX_TRUNCATION}, got {self.n_levels}")
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if not self.tol > 0:
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


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best probe found, its QFI, the search log and its certificate.

    trace holds one (step, qfi) entry per bracket of the energy multiplier,
    the qfi of that bracket's mixture; the last entry is qfi.  The optimum
    exceeds qfi by at most gap (inf when no certificate was formed).
    converged means energy_residual <= tol and gap <= tol.  Compared by
    identity, as amplitudes is an array.
    """

    amplitudes: np.ndarray
    qfi: float
    trace: tuple[tuple[int, float], ...]
    converged: bool
    energy_residual: float
    gap: float = math.inf
    message: str = ""


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
    log_poisson = levels * math.log(mean) - mean - _log_factorial(levels)
    weights = np.exp(log_poisson)
    return weights / weights.sum()


def _recursion(mu: float, nu: float, n: int) -> list[float] | None:
    """The a_n below for c_n = mu + nu n, or None when some a_n < 0.

    phi(q) = sum_n q_n^2 / (q_n + q_{n+1}) + q_{N-1} is convex and
    1-homogeneous.  With q_n fixed, the terms of phi + c.q / 2 from level n
    up have minimum a_n q_n over q_{n+1}, ..., q_{N-1} >= 0, where
    a_{N-1} = 1 + c_{N-1} / 2 and a_n = c_n / 2 + min_{x >= 0} (1/(1+x) +
    a_{n+1} x), with x = q_{n+1} / q_n.  That inner minimum is -inf for
    a < 0, 2 sqrt(a) - a at x = 1/sqrt(a) - 1 for 0 <= a < 1, and 1 at x = 0
    for a >= 1.  So phi(q) + c.q / 2 >= 0 for every q >= 0 (c is dual
    feasible) exactly when every a_n is non-negative.
    """
    a = [0.0] * n
    a[-1] = x = 1.0 + (mu + nu * (n - 1)) / 2.0
    for i in range(n - 2, -1, -1):
        if x < 0.0:
            return None
        a[i] = x = (mu + nu * i) / 2.0 + (1.0 if x >= 1.0 else 2.0 * math.sqrt(x) - x)
    return a if x >= 0.0 else None


def _feasible(mu: float, offsets: list[float]) -> bool:
    """Whether _recursion(mu, nu, n) is not None, storing no a_n.

    offsets holds nu * i for the levels i = n - 1, ..., 0, in that order.
    Each step forms the same floats as _recursion, with the same early
    exit, so the verdict is _recursion's bit for bit.
    """
    levels = iter(offsets)
    x = 1.0 + (mu + next(levels)) / 2.0
    for offset in levels:
        if x < 0.0:
            return False
        x = (mu + offset) / 2.0 + (1.0 if x >= 1.0 else 2.0 * math.sqrt(x) - x)
    return x >= 0.0


class _Sample(NamedTuple):
    """A maximizer q of f(q) - nu n.q on the simplex, and its certificate mu."""

    nu: float
    mu: float
    q: np.ndarray
    energy: float
    qfi: float


def _sample(nu: float, lo: float, hi: float, n: int) -> _Sample:
    """Bisect for the smallest dual-feasible mu in [lo, hi] and read off q.

    For c_n = mu + nu n and q on the simplex, f(q) - nu n.q = 2 + mu -
    (2 phi(q) + c.q), so the smallest feasible mu is max_q f(q) - 2 - nu n.q,
    and every a_n grows with mu.  There the minimal a_k is 0; q starts at
    the last such level (a zero a_m at m > k would make the ratio into m
    infinite), follows the minimizing ratios, and ends where a_{m+1} >= 1.
    Any mu with all c_n >= 0 is feasible (every a_n >= 1), the fallback
    when rounding leaves the given hi just infeasible.  Each bisection step
    takes only _feasible's verdict, on offsets nu * i formed once per
    sample; the a_n are formed once, at the final hi.
    """
    offsets = [nu * i for i in range(n - 1, -1, -1)]
    if not _feasible(hi, offsets):
        hi = max(0.0, -nu * (n - 1))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _feasible(mid, offsets):
            hi = mid
        else:
            lo = mid
    a = _recursion(hi, nu, n)
    start = n - 1 - a[::-1].index(min(a))
    weights = [0.0] * n
    weights[start] = w = 1.0
    for m in range(start + 1, n):
        if a[m] >= 1.0:
            break
        weights[m] = w = w * (1.0 / math.sqrt(a[m]) - 1.0)
    q = np.array(weights)
    q /= q.sum()
    return _Sample(nu, hi, q, float(np.arange(n) @ q), _example1_qfi_weights(q))


def optimize_probe(p: OptProblem) -> OptResult:
    """Maximize the dephased QFI over nonnegative probe amplitudes.

    Returns amplitudes on the probability simplex (phases dropped; the
    objective is phase-invariant).  Without an energy constraint the
    optimum is the _sample at nu = 0.  At fixed energy E, two samples at
    multipliers nu_l < nu_r, with energies above and below E, bracket the
    optimal nu.  The first bracket is [-2, 2], where the maximizers are the
    top level and the vacuum.  By the envelope theorem E - n.q is the slope
    of the dual bound 2 + mu + nu E, so each step samples where the bound's
    tangents at the two ends meet, nu = (f_l - f_r) / (n_l - n_r) (the
    midpoint when that is not strictly inside), and the new sample replaces
    the end whose energy error has its sign.  The mixture of the two
    samples with mean energy E is feasible, and the smaller of their two
    dual bounds certifies it.  The steps stop once that gap is at the
    rounding level of f.  Deterministic for a fixed problem.
    """
    n = p.n_levels
    if p.constraint == NORMALIZATION_ONLY:
        s = _sample(0.0, -2.0, 0.0, n)
        q, qfi, gap, residual, trace = s.q, s.qfi, 2.0 + s.mu - s.qfi, 0.0, [(1, s.qfi)]
    else:
        energy = float(p.energy_target)
        top, vacuum = np.zeros(n), np.zeros(n)
        top[-1] = vacuum[0] = 1.0
        left = _Sample(-2.0, 2.0 * n - 4.0, top, float(n - 1), 0.0)
        right = _Sample(2.0, -2.0, vacuum, 0.0, 0.0)
        trace = []
        rounding = 2.0 * n * np.finfo(float).eps
        while True:
            t = (energy - right.energy) / (left.energy - right.energy)
            q = t * left.q + (1.0 - t) * right.q
            qfi = _example1_qfi_weights(q)
            gap = min(2.0 + s.mu + s.nu * energy for s in (left, right)) - qfi
            trace.append((len(trace) + 1, qfi))
            nu = (left.qfi - right.qfi) / (left.energy - right.energy)
            if not left.nu < nu < right.nu:
                nu = 0.5 * (left.nu + right.nu)
            if gap <= rounding or not left.nu < nu < right.nu:
                break  # at the rounding level of f, or the bracket is one ulp wide
            # the smallest feasible mu is convex in nu: the chord of the two
            # ends is feasible, and no sample's f - 2 - nu n.q exceeds it
            lo = max(s.qfi - 2.0 - nu * s.energy for s in (left, right))
            hi = left.mu + (right.mu - left.mu) * (nu - left.nu) / (right.nu - left.nu)
            s = _sample(nu, min(lo, hi), hi, n)
            if s.energy >= energy:
                left = s
            else:
                right = s
        residual = abs(float(np.arange(n) @ q) - energy)
    converged = residual <= p.tol and gap <= p.tol
    return OptResult(
        amplitudes=np.sqrt(q),
        qfi=qfi,
        trace=tuple(trace),
        converged=converged,
        energy_residual=residual,
        gap=gap,
        message="" if converged else (
            f"not certified within tol={p.tol}: "
            f"energy residual {residual:.3e}, duality gap {gap:.3e}"
        ),
    )
