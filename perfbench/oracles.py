"""Independent oracles for the benchmark's outputs, in plain numpy and scipy.

None of these functions calls twirlqfi.  Each check returns one message per
failed record, so the harness can count attempted and failed records.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import hyp1f1

DENSE_RTOL = 1e-7
COHERENT_TOL = 1e-6
PROBE_SHORTFALL_MAX = 1e-2
PROBE_QFI_ATOL = 1e-9


def dense_reference(inputs, sizes, grid) -> tuple[float, list[float]]:
    """Clean QFI, and the dephased QFI at each lambda, from G's known clusters.

    Clean: 4 Var(K) on psi0.  Dephased: the pinched state is a mixture of
    pure states psi_c = P_c psi / sqrt(p_c) on orthogonal supports, so its
    QFI is the classical Fisher information of the weights p_c plus the
    weighted pure-state QFIs of the psi_c.
    """
    k, psi0 = inputs.k, inputs.psi0
    k_psi0 = k @ psi0
    mean = float(np.real(np.vdot(psi0, k_psi0)))
    alice = 4.0 * (float(np.real(np.vdot(k_psi0, k_psi0))) - mean**2)

    w, v = np.linalg.eigh(k)
    coefficients = v.conj().T @ psi0
    bobs = []
    for lam in grid:
        psi = v @ (np.exp(-1j * w * lam) * coefficients)
        dpsi = -1j * (k @ psi)
        a_all = inputs.u.conj().T @ psi
        b_all = inputs.u.conj().T @ dpsi
        bob = 0.0
        start = 0
        for size in sizes:
            a, b = a_all[start : start + size], b_all[start : start + size]
            start += size
            p = float(np.real(np.vdot(a, a)))
            if p <= 1e-12:
                continue
            overlap = complex(np.vdot(a, b))
            dp = 2.0 * overlap.real
            pure = 4.0 * (float(np.real(np.vdot(b, b))) / p - abs(overlap) ** 2 / p**2)
            bob += dp**2 / p + p * pure
        bobs.append(bob)
    return alice, bobs


def _close(value: float, reference: float, tol: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol * scale


def check_dense(rows: list[dict], inputs, sizes, points: int) -> list[str]:
    grid = np.linspace(inputs.lam_start, inputs.lam_stop, points)
    if len(rows) != points:
        return [f"expected {points} records, got {len(rows)}"] * points
    alice_ref, bob_refs = dense_reference(inputs, sizes, grid)
    failures = []
    for row, lam, bob_ref in zip(rows, grid, bob_refs):
        alice, bob = float(row["alice_qfi"]), float(row["bob_qfi"])
        if not math.isclose(float(row["value"]), lam, rel_tol=1e-12):
            failures.append(f"lambda {row['value']} != {lam!r}")
        elif not _close(alice, alice_ref, DENSE_RTOL, abs(alice_ref)):
            failures.append(f"lambda={lam!r}: alice {alice!r} vs {alice_ref!r}")
        elif not _close(bob, bob_ref, DENSE_RTOL, abs(alice_ref)):
            failures.append(f"lambda={lam!r}: bob {bob!r} vs {bob_ref!r}")
    return failures


def coherent_reference(alpha_sq: float) -> float:
    """Dephased QFI with a coherent probe: 2x/(1+x) M(1, 2+x, -x)."""
    return 2.0 * alpha_sq / (1.0 + alpha_sq) * float(hyp1f1(1.0, 2.0 + alpha_sq, -alpha_sq))


def check_coherent(rows: list[dict], grid) -> list[str]:
    if len(rows) != len(grid):
        return [f"expected {len(grid)} records, got {len(rows)}"] * len(grid)
    failures = []
    for row, x in zip(rows, grid):
        alice, bob = float(row["alice_qfi"]), float(row["bob_qfi"])
        reference = coherent_reference(float(x))
        if not math.isclose(float(row["value"]), x, rel_tol=1e-12):
            failures.append(f"alpha_sq {row['value']} != {x!r}")
        elif not _close(alice, 1.0, COHERENT_TOL, 1.0):
            failures.append(f"alpha_sq={x!r}: alice {alice!r} vs 1")
        elif not _close(bob, reference, COHERENT_TOL, 1.0):
            failures.append(f"alpha_sq={x!r}: bob {bob!r} vs {reference!r}")
    return failures


def example1_objective(q: np.ndarray) -> float:
    """Dephased QFI of the qubit + reference-frame family at occupations q."""
    den = q[:-1] + q[1:]
    terms = np.divide(q[:-1] ** 2, den, out=np.zeros_like(den), where=den > 0)
    return 2.0 - 2.0 * (float(terms.sum()) + float(q[-1]))


def example1_supergradient(q: np.ndarray) -> np.ndarray:
    """A supergradient of the (concave) objective; pairs with q_n = q_n+1 = 0 give 0."""
    grad = np.zeros_like(q)
    a, b = q[:-1], q[1:]
    den = a + b
    live = den > 0
    da = np.zeros_like(den)
    db = np.zeros_like(den)
    da[live] = (a[live] ** 2 + 2.0 * a[live] * b[live]) / den[live] ** 2
    db[live] = -(a[live] ** 2) / den[live] ** 2
    grad[:-1] -= 2.0 * da
    grad[1:] -= 2.0 * db
    grad[-1] -= 2.0
    return grad


def probe_reference(n_levels: int, energy: float, tol: float) -> tuple[float, float]:
    """(value, certified upper bound) of max QFI at fixed mean energy.

    The value comes from one SLSQP solve.  The objective is concave and the
    feasible set a polytope, so for any q_ref >= 0 and supergradient g,
    f(q) <= f(q_ref) + g.(q - q_ref); maximizing the right side over the
    polytope (a linear program) bounds the global optimum from above.  The
    bound covers every mean energy within tol of the target, as a solver
    may return.
    """
    levels = np.arange(n_levels, dtype=float)
    start = np.exp(-levels / max(energy, 1e-3))
    start /= start.sum()
    constraints = (
        {"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones_like(q)},
        {"type": "eq", "fun": lambda q: levels @ q - energy, "jac": lambda q: levels},
    )
    result = minimize(
        lambda q: -example1_objective(np.clip(q, 0.0, None)),
        start,
        jac=lambda q: -example1_supergradient(np.clip(q, 0.0, None)),
        bounds=[(0.0, 1.0)] * n_levels,
        constraints=constraints,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    q = np.clip(result.x, 0.0, None)
    value = example1_objective(q / q.sum())
    grad = example1_supergradient(q)
    lp = linprog(
        -grad,
        A_ub=np.vstack([levels, -levels]),
        b_ub=[energy + tol, tol - energy],
        A_eq=np.ones((1, n_levels)),
        b_eq=[1.0],
        bounds=[(0.0, None)] * n_levels,
        method="highs",
    )
    if lp.status != 0:
        raise ArithmeticError(f"certificate LP failed: {lp.message}")
    upper = example1_objective(q) + float(-lp.fun - grad @ q)
    return value, upper


def check_probe(result, energy: float, tol: float) -> tuple[list[str], float]:
    """Failures of one solve, and its QFI shortfall against the SLSQP reference.

    A solve passes when it converged, is feasible, reports the QFI of its
    own amplitudes, does not beat the certified optimum, and falls short of
    the reference by at most PROBE_SHORTFALL_MAX.
    """
    q = np.abs(np.asarray(result.amplitudes)) ** 2
    n_levels = q.size
    residual = abs(float(np.arange(n_levels) @ q) - energy)
    value, upper = probe_reference(n_levels, energy, tol)
    shortfall = value - result.qfi
    if not result.converged:
        failure = f"not converged ({result.message})"
    elif result.energy_residual > tol or residual > tol or abs(q.sum() - 1.0) > 1e-9:
        failure = f"infeasible (residual {residual:.3e}, tol {tol})"
    elif abs(example1_objective(q) - result.qfi) > PROBE_QFI_ATOL:
        failure = f"qfi {result.qfi!r} does not match its amplitudes"
    elif result.qfi > upper + PROBE_QFI_ATOL:
        failure = f"qfi {result.qfi!r} above the certified optimum {upper!r}"
    elif shortfall > PROBE_SHORTFALL_MAX:
        failure = f"qfi {result.qfi!r} short of {value!r} by {shortfall:.3e}"
    else:
        return [], shortfall
    return [f"E={energy!r}: {failure}"], shortfall
